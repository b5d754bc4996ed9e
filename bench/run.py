"""Benchmark of the maassdensity pipeline: one command, every metric.

    python3 bench/run.py --workload density_scan --seed 1 --seconds 36 --trace 0

Each operation runs in a fresh interpreter (``child.py``), because the
package's module-level caches would otherwise make every repeat a warm run.
With ``--trace 0`` the run repeats full set-up-and-solve children while
another fits in ``--seconds``, adds set-up-only children until it has at
least three set-up samples, and reports medians of the end-to-end metrics.
With ``--trace 1`` it runs one untraced child and two traced children of the
same inputs and reports the per-layer metrics. The last line of standard
output is the result object; the line before it records the environment and
the samples. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every run ends within 180 s
# BLAS/OpenMP pools pinned to one thread: the benchmark measures the
# single-process, single-thread library (at most nproc in any case)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")

# exact-repeat counters: two traced runs of one seed must agree on these
REPEAT_COUNTERS = (
    "fastpath.j_array.calls",
    "arithmetic.kloosterman_sum.calls",
    "specfun.mpmath_besselj.calls",
    "arithmetic.inv_table.hit_ratio",
    "density.averaged_lambda.repeat_ratio",
)
# (span layer, report calls, report self time)
LAYER_METRICS = (
    ("fastpath.j_array", True, True),
    ("arithmetic.kloosterman_sum", True, True),
    ("besseltransform.ResidueEvaluator.value", True, True),
    ("besseltransform.dj_quadrature", True, True),
    ("besseltransform.dj_residue_sum", False, True),
    ("besseltransform.dj_asymptotic", False, True),
    ("specfun.zeta_abs2_grid", False, True),
    ("specfun.scaled_bessel_j_imag", True, True),
    ("specfun.mpmath_besselj", True, True),
    ("specfun.scaled_bessel_series_grid", True, True),
    ("specfun.log_gamma_complex", True, True),
    ("kuznetsov.geometric_side", True, True),
    ("weights.h_T_real", True, True),
    ("rmt.make_test_function", False, True),
    ("rmt.rmt_expected_value", False, True),
    ("density.averaged_lambda", True, False),
    ("density.explicit_formula_average", False, True),
)


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _run_child(workload: str, variant: int, mode: str, trace: int,
               deadline: float) -> tuple:
    """(parsed result or None, wall seconds, error text)."""
    cmd = [sys.executable, "-B", str(HERE / "child.py"), "--workload", workload,
           "--variant", str(variant), "--mode", mode, "--trace", str(trace)]
    t0 = time.monotonic()
    timeout = max(1.0, deadline - t0)
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(time.monotonic())],
                              cwd=str(ROOT), env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - t0, f"child timed out after {timeout:.0f} s"
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, wall, f"child exit {proc.returncode}: {' | '.join(tail)}"
    return json.loads(lines[-1]), wall, ""


def _log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(res: dict) -> dict:
    tr = res["trace"]
    layers = tr["layers"]

    def layer(name):
        return layers.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})

    out = {}
    for name, calls, self_s in LAYER_METRICS:
        rec = layer(name)
        if calls:
            out[f"{name}.calls"] = _metric(rec["calls"], "count")
        if self_s:
            out[f"{name}.self_s"] = _metric(rec["self_s"], "s")
    inv = tr["inv_hits"] + tr["inv_misses"]
    out["arithmetic.inv_table.hit_ratio"] = _metric(
        tr["inv_hits"] / inv if inv else 0.0, "ratio")
    out["besseltransform.ResidueEvaluator.init_s"] = _metric(
        layer("besseltransform.ResidueEvaluator.init")["incl_s"], "s")
    out["specfun.zeta_abs2_grid.points"] = _metric(tr["zeta_points"], "count")
    sbji = layer("specfun.scaled_bessel_j_imag")["calls"]
    out["specfun.mpmath_share"] = _metric(
        layer("specfun.mpmath_besselj")["calls"] / sbji if sbji else 0.0, "ratio")
    out["density.DensityEngine.init_s"] = _metric(
        layer("density.DensityEngine.init")["incl_s"], "s")
    lam = tr["lambda_calls"]
    out["density.averaged_lambda.repeat_ratio"] = _metric(
        tr["lambda_repeats"] / lam if lam else 0.0, "ratio")
    out["trace.unattributed_s"] = _metric(tr["unattributed_s"], "s")
    out["trace.window_s"] = _metric(tr["window_s"], "s")
    out["trace.solve_s"] = _metric(res["solve_s"], "s")
    out["trace.spans"] = _metric(tr["spans"], "count")
    return out


def _traced(workload: str, variant: int, deadline: float) -> tuple:
    """Per-layer metrics: one untraced and two traced children of one seed."""
    results, failures, attempted, failed = [], [], 0, 0
    for trace in (0, 1, 1):
        res, wall, err = _run_child(workload, variant, "full", trace, deadline)
        planned = workloads.checked_ops(workload, workloads.inputs(workload, variant))
        if res is None:
            _log(f"[{workload}] trace={trace} FAILED: {err}")
            attempted += planned
            failed += planned
            failures.append(err)
            continue
        _log(f"[{workload}] trace={trace} solve {res['solve_s']:.3f} s, wall {wall:.2f} s")
        attempted += res["attempted"]
        failed += res["failed"]
        failures.extend(res["failures"])
        results.append((trace, res))
    untraced = [r for t, r in results if t == 0]
    traced = [r for t, r in results if t == 1]
    if not untraced or len(traced) != 2:
        return None, attempted, failed, failures
    per_run = [_layer_metrics(r) for r in traced]
    metrics = {}
    for name in per_run[0]:
        a, b = per_run[0][name]["value"], per_run[1][name]["value"]
        unit = per_run[0][name]["unit"]
        metrics[name] = _metric(a if unit != "s" else 0.5 * (a + b), unit)
    metrics["trace.overhead_frac"] = _metric(
        metrics["trace.solve_s"]["value"] / untraced[0]["solve_s"] - 1.0, "ratio")
    # checks on the trace itself, each counted as one operation
    attempted += 2
    for r in traced:
        if not r["trace"]["accounting_ok"]:
            failed += 1
            failures.append("trace: spans do not nest or self times do not add up")
            break
    mismatched = [c for c in REPEAT_COUNTERS
                  if per_run[0][c]["value"] != per_run[1][c]["value"]]
    if mismatched:
        failed += 1
        failures.append(f"trace: counters differ across two runs: {mismatched}")
    return (metrics, traced[0]["env"]), attempted, failed, failures


def _untraced(workload: str, variant: int, seconds: int, t_start: float,
              deadline: float) -> tuple:
    full, setups, failures, attempted, failed, walls = [], [], [], 0, 0, []
    planned = workloads.checked_ops(workload, workloads.inputs(workload, variant))
    while True:
        res, wall, err = _run_child(workload, variant, "full", 0, deadline)
        walls.append(wall)
        if res is None:
            _log(f"[{workload}] full FAILED: {err}")
            attempted += planned
            failed += planned
            failures.append(err)
        else:
            _log(f"[{workload}] setup {res['setup_s']:.3f} s, solve {res['solve_s']:.3f} s,"
                 f" failed {res['failed']}/{res['attempted']}")
            full.append(res)
            setups.append(res["setup_s"])
            attempted += res["attempted"]
            failed += res["failed"]
            failures.extend(res["failures"])
        elapsed = time.monotonic() - t_start
        if elapsed + statistics.median(walls) > seconds or res is None:
            break
    while full and len(setups) < MIN_SETUP_SAMPLES:
        res, _, err = _run_child(workload, variant, "setup", 0, deadline)
        if res is None:
            _log(f"[{workload}] setup FAILED: {err}")
            attempted += 1
            failed += 1
            failures.append(err)
            break
        _log(f"[{workload}] setup {res['setup_s']:.3f} s")
        setups.append(res["setup_s"])
    if not full:
        return None, attempted, failed, failures
    pass_frac = (attempted - failed) / attempted
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "solve_s": _metric(statistics.median(r["solve_s"] for r in full), "s"),
        "ops_per_s": _metric(statistics.median(r["ops"] / r["solve_s"] for r in full),
                             "1/s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in full), "MB"),
        "pass_frac": _metric(pass_frac, "ratio"),
    }
    samples = {"full_children": len(full), "setup_samples": len(setups),
               "solve_s": [r["solve_s"] for r in full],
               "solve_cpu_s": [r["solve_cpu_s"] for r in full], "setup_s": setups}
    return (metrics, full[0]["env"], samples), attempted, failed, failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "maassdensity" / "__init__.py").is_file():
        _log(f"no maassdensity package under {ROOT / 'src'}: nothing to benchmark")
        return 2
    if not (HERE / "reference.json").is_file():
        _log("bench/reference.json is missing")
        return 2
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    variant = args.seed % workloads.VARIANTS
    inp = workloads.inputs(args.workload, variant)
    if args.trace:
        got, attempted, failed, failures = _traced(args.workload, variant, deadline)
        extra = {}
    else:
        got, attempted, failed, failures = _untraced(
            args.workload, variant, args.seconds, t_start, deadline)
        extra = {} if got is None else {"samples": got[2]}
    for f in failures[:20]:
        _log(f"CHECK FAILED: {f}")
    if got is None:
        _log("no run completed; no result")
        return 1
    metrics, env = got[0], got[1]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "variant": variant,
                      "inputs": inp, "env": env, **extra}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
