"""Command-line front end.

Every subcommand is a reproducible batch run: the same flags produce
byte-identical output files. Flags are the only settings; each has its
default in the parser (M = 8, bump_halfwidth = 1/8, tol = 1e-8, c_max =
1000, and c_max = 500 for density and converge, which take no larger
value). A subcommand takes only the flags it reads: --M and
--bump-halfwidth all but kernels and validate-data, --c-max trace-verify,
total-mass, avg-lambda, density and converge, and --tol bessel-int alone.
Any other flag exits 2.

MAASS_DATA_DIR names the eigenform export that trace-verify and
validate-data read when --maass-data is not given.
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
from .weights import make_weight_family

_DENSITY_C_MAX = 500  # the largest --c-max that density and converge take


def _family(args):
    return make_weight_family(args.M, args.bump_halfwidth)


def _write_output(args, text: str):
    path = getattr(args, "output", None)
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_records(args):
    path = getattr(args, "maass_data", None) or os.environ.get("MAASS_DATA_DIR")
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


def _cmd_bessel_int(args) -> int:
    X, T, family = float(args.X), int(args.T), _family(args)
    results = {}
    if args.method in ("quadrature", "all"):
        results["quadrature"] = besseltransform.dj_quadrature(
            X, T, tol=max(args.tol * 1e-2, 1e-12), family=family
        )
    if args.method in ("residue", "all"):
        results["residue"] = besseltransform.dj_residue_sum(X, T, family)
    if args.method in ("asymptotic", "all"):
        if X >= T / 8.0:
            results["asymptotic"] = besseltransform.dj_asymptotic(X, T, family)
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


def _cmd_bound_scan(args) -> int:
    report = besseltransform.bound_scan(args.which, family=_family(args))
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


def _cmd_trace_verify(args) -> int:
    family = _family(args)  # built first: a bad --M exits 2 whatever the weight
    records, path = _load_records(args)
    if records is None:
        raise DomainError(
            "trace-verify needs spectral data (--maass-data or MAASS_DATA_DIR)"
        )
    if args.weight == "gaussian":
        weight = kuznetsov.weight_gaussian(args.center, args.width)
    else:
        weight = kuznetsov.weight_spectral(int(args.T), family)
    report = kuznetsov.verify_trace_identity(
        int(args.m),
        int(args.n),
        weight,
        records,
        c_max=args.c_max,
    )
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    _write_output(args, text)
    print(
        f"trace-verify m={args.m} n={args.n} ({weight.description}, "
        f"{len(records)} forms from {path}): "
        f"gap {report['gap']:.6e} vs budget {report['combined_budget']:.6e}"
    )
    return 0


def _cmd_total_mass(args) -> int:
    T = int(args.T)
    mass = kuznetsov.total_mass(T, c_max=args.c_max, family=_family(args))
    text = f"total_mass({T}) = {mass!r}  mass/T^2 = {mass / T ** 2!r}\n"
    print(text, end="")
    _write_output(args, text)
    return 0


def _cmd_avg_lambda(args) -> int:
    T, m = int(args.T), int(args.m)
    avg = kuznetsov.averaged_eigenvalue(m, T, c_max=args.c_max, family=_family(args))
    text = f"Avg(lambda_{m}) at T={T}: {avg!r}\n"
    print(text, end="")
    _write_output(args, text)
    return 0


def _cmd_density(args) -> int:
    T, family = int(args.T), _family(args)
    phi = rmt.make_test_function(float(args.eta))
    rep = density.explicit_formula_average(T, phi, c_max=args.c_max, family=family)
    csv_text = density.reports_to_csv([rep])
    _write_output(args, csv_text)
    print(
        f"density T={T} eta={args.eta}: total {rep.total:.8f}, "
        f"prediction {rep.rmt_o_prediction:.8f}, deviation {rep.deviation:.3e}"
    )
    if not args.output:
        print(csv_text, end="")
    return 0


def _cmd_converge(args) -> int:
    family = _family(args)
    T_list = [int(t) for t in args.T_list.split(",")]
    eta_list = [float(e) for e in args.eta_list.split(",")]
    reports, flags = density.convergence_scan(
        T_list, eta_list, c_max=args.c_max, family=family
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


def _cmd_kernels(args) -> int:
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


def _cmd_validate_data(args) -> int:
    records, path = _load_records(args)
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


def _density_c_max(text: str) -> int:
    c_max = int(text)
    if c_max > _DENSITY_C_MAX:
        raise argparse.ArgumentTypeError(
            f"density and converge take c_max <= {_DENSITY_C_MAX}, got {c_max}")
    return c_max


def _add_common(sp, family: bool = True, c_max: int | None = 1000):
    """--output; the weight-family flags and --c-max only where the
    subcommand reads them. c_max is the default of --c-max, and also its
    cap where it is _DENSITY_C_MAX."""
    if family:
        sp.add_argument("--M", type=int, default=8,
                        help="weight order (multiple of 4, >= 8)")
        sp.add_argument("--bump-halfwidth", dest="bump_halfwidth", type=float,
                        default=0.125)
    if c_max is not None:
        sp.add_argument("--c-max", dest="c_max", default=c_max,
                        type=_density_c_max if c_max == _DENSITY_C_MAX else int)
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
    p.add_argument(
        "--tol", type=float, default=1e-8,
        help="quadrature tolerance (the quadrature runs at tol/100)",
    )
    _add_common(p, c_max=None)
    p.set_defaults(func=_cmd_bessel_int)

    p = sub.add_parser("bound-scan", help="empirical decay-bound ratio scan")
    p.add_argument(
        "--which",
        choices=sorted(besseltransform._DEFAULT_GRIDS),
        required=True,
    )
    _add_common(p, c_max=None)
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
    _add_common(p, c_max=_DENSITY_C_MAX)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("converge", help="density scan over a (T, eta) grid")
    p.add_argument("--T-list", dest="T_list", required=True, help="comma-separated")
    p.add_argument("--eta-list", dest="eta_list", required=True)
    p.add_argument("--split-output", dest="split_output")
    _add_common(p, c_max=_DENSITY_C_MAX)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("kernels", help="symmetry-type density and prediction")
    p.add_argument("--group", required=True, help="so-even, so-odd, o, u, sp")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--x", type=float, help="also evaluate the density at x")
    _add_common(p, family=False, c_max=None)
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("validate-data", help="check an eigenform export")
    p.add_argument("--maass-data", dest="maass_data")
    _add_common(p, family=False, c_max=None)
    p.set_defaults(func=_cmd_validate_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
