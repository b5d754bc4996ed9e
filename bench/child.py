"""One benchmark run of one workload in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last line. Modes:
``full`` does set-up and solve, ``setup`` stops after set-up, ``record``
does both and prints the outputs for ``reference.json``. With ``--trace 1``
every layer is wrapped right after the import.

    python3 -B bench/child.py --workload NAME --variant N --mode full \
        --trace 0 --t-spawn $(python3 -c 'import time; print(time.monotonic())')
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _environment(md) -> dict:
    import importlib.util
    import os

    import mpmath
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "maassdensity": md.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _inv_table_info(md) -> tuple:
    """(hits, misses) of the modular-inverse table cache; (0, 0) if absent."""
    cached = getattr(md.arithmetic, "_inv_table_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--variant", type=int, required=True)
    ap.add_argument("--mode", choices=("full", "setup", "record"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import maassdensity as md
    import workloads

    if Path(md.__file__).resolve().parent != SRC / "maassdensity":
        print(f"imported {md.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    inp = workloads.inputs(args.workload, args.variant)

    tracer = None
    inv_before = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        inv_before = _inv_table_info(md)
    t_window = time.monotonic()

    state = workloads.setup(args.workload, md, inp)
    t_setup = time.monotonic()
    cpu_setup = time.process_time()
    result = {"setup_s": t_setup - args.t_spawn}
    if args.mode != "setup":
        ref = None
        if args.mode == "full":
            pinned = json.loads((HERE / "reference.json").read_text())
            ref = pinned[args.workload][str(args.variant)]["outputs"]
        ops = workloads.solve(args.workload, md, state, inp, ref)
        t_solve = time.monotonic()
        result.update({
            "solve_s": t_solve - t_setup,
            "solve_cpu_s": time.process_time() - cpu_setup,
            "ops": workloads.op_count(args.workload, inp),
            "attempted": len(ops),
            "failures": [f for _, fails in ops for f in fails],
            "failed": sum(1 for _, fails in ops if fails),
        })
        if args.mode == "record":
            result["inputs"] = inp
            result["outputs"] = workloads.reference_entry(args.workload, ops)
        if tracer is not None:
            summary = tracer.summary(t_solve - t_window)
            inv_after = _inv_table_info(md)
            summary["inv_hits"] = inv_after[0] - inv_before[0]
            summary["inv_misses"] = inv_after[1] - inv_before[1]
            result["trace"] = summary
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = _environment(md)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
