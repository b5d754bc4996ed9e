"""Command-line front end.

Every subcommand is a reproducible batch run: the same resolved
configuration produces byte-identical output files. Configuration
precedence is flags > --config JSON > environment variables > defaults
(M = 8, bump_halfwidth = 1/8, tol = 1e-8, c_max = 1000).

Environment variables: MAASS_M, MAASS_BUMP_HALFWIDTH, MAASS_TOL,
MAASS_C_MAX, MAASS_DATA_DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import besseltransform, density, kuznetsov, maassdata, rmt
from .errors import (
    CalibrationError,
    DataFormatError,
    DomainError,
    MaassDensityError,
    VerificationError,
)
from .weights import set_default_weight

_ENV_KEYS = {
    "M": ("MAASS_M", int),
    "bump_halfwidth": ("MAASS_BUMP_HALFWIDTH", float),
    "tol": ("MAASS_TOL", float),
    "c_max": ("MAASS_C_MAX", int),
    "data_path": ("MAASS_DATA_DIR", str),
}

_DEFAULTS = {
    "M": 8,
    "bump_halfwidth": 0.125,
    "tol": 1e-8,
    "c_max": 1000,
    "data_path": None,
}


def _resolve_config(args) -> dict:
    """flags > --config JSON > env vars > defaults."""
    cfg = dict(_DEFAULTS)
    for key, (env, cast) in _ENV_KEYS.items():
        raw = os.environ.get(env)
        if raw is not None:
            cfg[key] = cast(raw)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        if not isinstance(blob, dict):
            raise DataFormatError("--config must contain a JSON object")
        for key in _DEFAULTS:
            if key in blob:
                cfg[key] = blob[key]
        unknown = set(blob) - set(_DEFAULTS)
        if unknown:
            raise DataFormatError(f"unknown config keys: {sorted(unknown)}")
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    set_default_weight(int(cfg["M"]), float(cfg["bump_halfwidth"]))
    return cfg


def _write_output(args, text: str):
    path = getattr(args, "output", None)
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_records(args, cfg):
    path = getattr(args, "maass_data", None) or cfg.get("data_path")
    if path is None:
        return None, None
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if name.endswith(".csv") or name.endswith(".json"):
                path = os.path.join(path, name)
                break
        else:
            return None, None
    fmt = "json" if path.endswith(".json") else "csv"
    return maassdata.parse_records(path, fmt), path


# ----------------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------------


def _cmd_bessel_int(args, cfg) -> int:
    X, T = float(args.X), int(args.T)
    results = {}
    if args.method in ("quadrature", "all"):
        results["quadrature"] = besseltransform.dj_quadrature(
            X, T, tol=max(float(cfg["tol"]) * 1e-2, 1e-12)
        )
    if args.method in ("residue", "all"):
        results["residue"] = besseltransform.dj_residue_sum(X, T)
    if args.method in ("asymptotic", "all"):
        if X >= T / 8.0:
            results["asymptotic"] = besseltransform.dj_asymptotic(X, T)
        elif args.method == "asymptotic":
            raise DomainError(f"asymptotic route needs X >= T/8 = {T / 8.0}")
        else:
            print(f"asymptotic: skipped (X < T/8 = {T / 8.0})")
    lines = []
    for name, res in results.items():
        lines.append(
            f"{name}: D_J({X}, T={T}) = {res.value!r}"
            f" (error estimate {res.error_estimate:.3e})"
        )
    names = list(results)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            delta = abs(results[a].value - results[b].value)
            lines.append(f"|{a} - {b}| = {delta:.6e}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write_output(args, text)
    return 0


def _cmd_bound_scan(args, cfg) -> int:
    report = besseltransform.bound_scan(args.which)
    csv_text = report.to_csv()
    _write_output(args, csv_text)
    flagged = f", {len(report.flagged)} flagged" if report.flagged else ""
    print(
        f"bound-scan {args.which}: {len(report.points)} points, "
        f"sup ratio {report.sup_ratio:.6e}{flagged}"
    )
    if not args.output:
        print(csv_text, end="")
    return 0


def _make_weight(args, cfg):
    if args.weight == "gaussian":
        return kuznetsov.weight_gaussian(args.center, args.width)
    return kuznetsov.weight_spectral(int(args.T))


def _cmd_trace_verify(args, cfg) -> int:
    records, path = _load_records(args, cfg)
    if records is None:
        raise DomainError(
            "trace-verify needs spectral data (--maass-data or MAASS_DATA_DIR)"
        )
    weight = _make_weight(args, cfg)
    report = kuznetsov.verify_trace_identity(
        int(args.m),
        int(args.n),
        weight,
        records,
        c_max=int(cfg["c_max"]),
    )
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    _write_output(args, text)
    print(
        f"trace-verify m={args.m} n={args.n} ({weight.description}, "
        f"{len(records)} forms from {path}): "
        f"gap {report['gap']:.6e} vs budget {report['combined_budget']:.6e}"
    )
    return 0


def _cmd_total_mass(args, cfg) -> int:
    T = int(args.T)
    mass = kuznetsov.total_mass(T, c_max=int(cfg["c_max"]))
    text = f"total_mass({T}) = {mass!r}  mass/T^2 = {mass / T ** 2!r}\n"
    print(text, end="")
    _write_output(args, text)
    return 0


def _cmd_avg_lambda(args, cfg) -> int:
    T, m = int(args.T), int(args.m)
    avg = kuznetsov.averaged_eigenvalue(m, T, c_max=int(cfg["c_max"]))
    text = f"Avg(lambda_{m}) at T={T}: {avg!r}\n"
    print(text, end="")
    _write_output(args, text)
    return 0


def _cmd_density(args, cfg) -> int:
    T = int(args.T)
    phi = rmt.make_test_function(float(args.eta))
    rep = density.explicit_formula_average(T, phi, c_max=min(int(cfg["c_max"]), 500))
    csv_text = density.reports_to_csv([rep])
    _write_output(args, csv_text)
    print(
        f"density T={T} eta={args.eta}: total {rep.total:.8f}, "
        f"prediction {rep.rmt_o_prediction:.8f}, deviation {rep.deviation:.3e}"
    )
    if not args.output:
        print(csv_text, end="")
    return 0


def _cmd_converge(args, cfg) -> int:
    T_list = [int(t) for t in args.T_list.split(",")]
    eta_list = [float(e) for e in args.eta_list.split(",")]
    reports, flags = density.convergence_scan(
        T_list,
        eta_list,
        rmt.make_test_function,
        c_max=min(int(cfg["c_max"]), 500),
    )
    _write_output(args, density.reports_to_csv(reports))
    if args.split_output:
        with open(args.split_output, "w", encoding="utf-8", newline="") as fh:
            fh.write(density.splits_to_csv(reports))
    for _, eta, msg in flags:
        print(f"flag: {msg}")
    worst = max(rep.deviation for rep in reports)
    print(
        f"converge: {len(reports)} cells over T={T_list} eta={eta_list}, "
        f"worst deviation {worst:.3e}"
    )
    if not args.output:
        print(density.reports_to_csv(reports), end="")
    return 0


def _cmd_kernels(args, cfg) -> int:
    group = rmt.group_from_name(args.group)
    phi = rmt.make_test_function(float(args.eta))
    expected = rmt.rmt_expected_value(phi, group)
    lines = [f"{group} prediction at eta={args.eta}: {expected!r}"]
    if args.x is not None:
        smooth, point = rmt.rmt_density_eval(group, float(args.x))
        lines.append(
            f"{group} density at x={args.x}: smooth {smooth!r}, "
            f"point mass at 0: {point!r}"
        )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write_output(args, text)
    return 0


def _cmd_validate_data(args, cfg) -> int:
    records, path = _load_records(args, cfg)
    if records is None:
        raise DomainError(
            "validate-data needs a data file (--maass-data or MAASS_DATA_DIR)"
        )
    report = maassdata.validate_records(records)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    _write_output(args, text)
    bad = [
        (i, name)
        for i, rec in enumerate(report["records"])
        for name, ok in rec["checks"].items()
        if not ok
    ]
    print(
        f"validate-data: {len(records)} records from {path}, "
        f"{len(bad)} failed checks, count-fit RMS "
        f"{report['count_fit_rms_residual']:.4f}"
    )
    if bad:
        for i, name in bad:
            print(f"  record {i}: {name} failed")
        return 1
    return 0


# ----------------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--M", type=int, help="weight order (multiple of 4, >= 8)")
    sp.add_argument("--bump-halfwidth", dest="bump_halfwidth", type=float)
    sp.add_argument(
        "--tol", type=float,
        help="bessel-int quadrature tolerance (the quadrature runs at tol/100)",
    )
    sp.add_argument("--c-max", dest="c_max", type=int)
    sp.add_argument("--output", help="write the primary artifact here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maassdensity",
        description="Trace-formula and one-level-density batch computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bessel-int", help="evaluate D_J(X) by one or all routes")
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument(
        "--method",
        choices=["quadrature", "residue", "asymptotic", "all"],
        default="all",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_bessel_int)

    p = sub.add_parser("bound-scan", help="empirical decay-bound ratio scan")
    p.add_argument(
        "--which",
        choices=sorted(besseltransform._DEFAULT_GRIDS),
        required=True,
    )
    _add_common(p)
    p.set_defaults(func=_cmd_bound_scan)

    p = sub.add_parser("trace-verify", help="spectral vs geometric side")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--weight", choices=["h_T", "gaussian"], default="gaussian")
    p.add_argument("--T", type=int, default=5)
    p.add_argument("--center", type=float, default=8.0)
    p.add_argument("--width", type=float, default=2.0)
    p.add_argument("--maass-data", dest="maass_data")
    _add_common(p)
    p.set_defaults(func=_cmd_trace_verify)

    p = sub.add_parser("total-mass", help="geometric-side spectral mass")
    p.add_argument("--T", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_total_mass)

    p = sub.add_parser("avg-lambda", help="weighted Hecke eigenvalue average")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_avg_lambda)

    p = sub.add_parser("density", help="one-level density at a single (T, eta)")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("converge", help="density scan over a (T, eta) grid")
    p.add_argument("--T-list", dest="T_list", required=True, help="comma-separated")
    p.add_argument("--eta-list", dest="eta_list", required=True)
    p.add_argument("--split-output", dest="split_output")
    _add_common(p)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("kernels", help="symmetry-type density and prediction")
    p.add_argument("--group", required=True, help="so-even, so-odd, o, u, sp")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--x", type=float, help="also evaluate the density at x")
    _add_common(p)
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("validate-data", help="check an eigenform export")
    p.add_argument("--maass-data", dest="maass_data")
    _add_common(p)
    p.set_defaults(func=_cmd_validate_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(args, cfg)
    except (VerificationError, CalibrationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        if report is not None:
            print(json.dumps(report, indent=1, sort_keys=True), file=sys.stderr)
        return 1
    except (DomainError, DataFormatError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MaassDensityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
