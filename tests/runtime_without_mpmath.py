"""The scaled-Bessel and Kuznetsov runtime path with mpmath blocked.

Evaluates `scaled_bessel_j_imag_grid` on the nodes of the (5, 7) Gaussian
grid at x = 4 pi sqrt(35), where the transition band takes the fixed-point
route, and `geometric_side(5, 7, ...)` over c <= 10. Any attempt to import
mpmath raises ImportError, and the script fails if a module other than the
blocking None ever stands under that name. Run it with the package
importable (installed, or `PYTHONPATH=src`):

    python tests/runtime_without_mpmath.py
"""

import math
import sys

sys.modules["mpmath"] = None  # an import of mpmath now raises ImportError

import numpy as np  # noqa: E402

import maassdensity.kuznetsov as kz  # noqa: E402
from maassdensity.specfun import scaled_bessel_j_imag_grid  # noqa: E402

weight = kz.weight_gaussian(14.7, 3.675)
values = scaled_bessel_j_imag_grid(kz._OscGrid(weight, 0.125).r,
                                   4.0 * math.pi * math.sqrt(35.0))
total = kz.geometric_side(5, 7, weight, c_max=10).total()
assert np.all(np.isfinite(values)) and math.isfinite(total)
assert sys.modules["mpmath"] is None, "mpmath was imported"
print(f"{values.size} Bessel nodes and geometric_side(5, 7) = {total!r} without mpmath")
