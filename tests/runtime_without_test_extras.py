"""The scaled-Bessel, Kuznetsov and density runtime path with the test
extras (mpmath, scipy) blocked.

Evaluates `scaled_bessel_j_imag_grid` on the nodes of the (5, 7) Gaussian
grid at x = 4 pi sqrt(35), where the transition band takes the fixed-point
route, `geometric_side(5, 7, ...)` over c <= 10, and a density report at
T = 11, eta = 0.8 on a `DensityEngine(11)`. Any attempt to import mpmath or
scipy raises ImportError, and the script fails if a module other than the
blocking None ever stands under either name. Run it with the package
importable (installed, or `PYTHONPATH=src`):

    python tests/runtime_without_test_extras.py
"""

import math
import sys

for _name in ("mpmath", "scipy"):
    sys.modules[_name] = None  # an import of it now raises ImportError

import numpy as np  # noqa: E402

import maassdensity.kuznetsov as kz  # noqa: E402
from maassdensity.density import DensityEngine, explicit_formula_average  # noqa: E402
from maassdensity.rmt import make_test_function  # noqa: E402
from maassdensity.specfun import scaled_bessel_j_imag_grid  # noqa: E402

weight = kz.weight_gaussian(14.7, 3.675)
values = scaled_bessel_j_imag_grid(kz._OscGrid(weight, 0.125).r,
                                   4.0 * math.pi * math.sqrt(35.0))
total = kz.geometric_side(5, 7, weight, c_max=10).total()
report = explicit_formula_average(11, make_test_function(0.8), engine=DensityEngine(11))
assert np.all(np.isfinite(values)) and math.isfinite(total)
assert math.isfinite(report.total) and math.isfinite(report.rmt_o_prediction)
for _name in ("mpmath", "scipy"):
    assert sys.modules[_name] is None, f"{_name} was imported"
print(f"{values.size} Bessel nodes, geometric_side(5, 7) = {total!r} and the "
      f"T = 11 density {report.total!r} without mpmath or scipy")
