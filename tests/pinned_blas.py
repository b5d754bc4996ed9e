"""Run a Python snippet in a fresh interpreter pinned to one BLAS thread.

A bit-for-bit check against a dense BLAS product needs a fixed thread count:
OpenBLAS splits a large matrix-vector product across its threads, and where
it splits moves the rounding of a few rows. The thread count is read when the
library loads, and threadpoolctl is not a dependency, so the pin takes a new
process.
"""

import os
import subprocess
import sys
from pathlib import Path

import maassdensity

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_SRC = str(Path(maassdensity.__file__).resolve().parent.parent)


def run_pinned(code: str, timeout: float = 600.0) -> str:
    """Standard output of `python -c code` with one BLAS/OpenMP thread and
    this checkout's package first on the path; fails the test on a non-zero
    exit."""
    env = dict(os.environ, **{var: "1" for var in _THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
