"""Pin the outputs of every workload variant into reference.json.

    python3 bench/record.py [--jobs 2] [--workload NAME ...]

Runs each (workload, variant) once in a fresh interpreter with the
invariant checks on and the pinned comparison off, and refuses to write the
file if any invariant fails. Run it only on the commit whose outputs are the
reference; a change that alters outputs must not re-record them. With
--workload, only the named workloads are recorded and the others are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args()
    names = args.workload or workloads.WORKLOADS
    jobs = [(w, v) for w in names for v in range(workloads.VARIANTS)]

    def one(job):
        w, v = job
        res, wall, err = run._run_child(w, v, "record", 0, time.monotonic() + 600.0)
        print(f"{w} variant {v}: {wall:.1f} s {err}", file=sys.stderr, flush=True)
        return job, res, err

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        done = list(pool.map(one, jobs))
    path = HERE / "reference.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    table.update({w: {} for w in names})
    bad = 0
    for (w, v), res, err in done:
        if res is None or res["failures"]:
            bad += 1
            print(f"{w} variant {v}: {err or res['failures']}", file=sys.stderr)
            continue
        table[w][str(v)] = {"inputs": res["inputs"], "outputs": res["outputs"]}
    if bad:
        print(f"{bad} variants failed; reference.json not written", file=sys.stderr)
        return 1
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
