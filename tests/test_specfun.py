"""Special-function layer, checked against independent oracles.

Every expected value here is either an identity (reflection, duplication,
symmetry), a slow independent evaluation (direct quadrature, power series
written out inline, mpmath at high precision), or a closed form.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from maassdensity.errors import DomainError, OverflowGuardError, PoleError
from maassdensity.specfun import (
    bessel_j_int,
    bessel_j_int_integral_check,
    dunster_leading_term,
    dunster_xi,
    log_cosh,
    log_gamma_complex,
    scaled_bessel_j_imag,
    scaled_bessel_series_grid,
    zeta_abs2_grid,
    zeta_right_of_one,
)


# ---------------------------------------------------------------------------
# log Gamma
# ---------------------------------------------------------------------------


def test_gamma_half():
    # Gamma(1/2)^2 = pi by the reflection formula at z = 1/2
    val = cmath.exp(log_gamma_complex(0.5))
    assert abs(val - math.sqrt(math.pi)) < 1e-13


def test_gamma_reflection_identity():
    # Gamma(z) Gamma(1-z) = pi / sin(pi z), compared in exponentiated form
    for z in (0.3 + 0.7j, 1.2 - 2.5j, 0.5 + 11.0j, -0.25 + 0.1j):
        lhs = cmath.exp(log_gamma_complex(z) + log_gamma_complex(1.0 - z))
        rhs = math.pi / cmath.sin(math.pi * z)
        assert abs(lhs - rhs) < 1e-11 * abs(rhs)


def test_gamma_modulus_on_imag_shift():
    # |Gamma(1 + iy)|^2 = pi y / sinh(pi y)
    for y in (0.5, 2.0, 7.3, 20.0):
        lg = log_gamma_complex(1.0 + 1j * y)
        lhs = math.exp(2.0 * lg.real)
        rhs = math.pi * y / math.sinh(math.pi * y)
        assert abs(lhs - rhs) < 1e-12 * rhs


def test_gamma_recurrence():
    z = 0.7 + 3.1j
    lhs = cmath.exp(log_gamma_complex(z + 1.0))
    rhs = z * cmath.exp(log_gamma_complex(z))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
def test_gamma_pole(z):
    with pytest.raises(PoleError):
        log_gamma_complex(z)


def test_log_cosh_matches_direct_and_survives_large_argument():
    for y in (0.0, 1.5, 19.0):
        assert abs(log_cosh(y) - math.log(math.cosh(y))) < 1e-14 * (1 + abs(y))
    # direct cosh would overflow here
    y = 800.0
    assert abs(log_cosh(y) - (y - math.log(2.0))) < 1e-12


# ---------------------------------------------------------------------------
# Integer-order Bessel
# ---------------------------------------------------------------------------


def test_j0_at_one_series_oracle():
    # 30-term alternating series written out independently
    acc = 0.0
    for k in range(30):
        acc += (-1.0) ** k * (0.5) ** (2 * k) / math.factorial(k) ** 2
    assert abs(bessel_j_int(0, 1.0) - acc) < 1e-14


@pytest.mark.parametrize("k,x", [(0, 0.5), (1, 1.0), (3, 2.5), (7, 10.0)])
def test_bessel_integral_formula_cross_check(k, x):
    # J_k(2 pi x) by direct quadrature of the cosine integral
    assert abs(bessel_j_int(k, 2.0 * math.pi * x) - bessel_j_int_integral_check(k, x)) < 1e-10


def test_negative_order_symmetry():
    for n in (1, 2, 5):
        for x in (0.7, 4.0, 15.0):
            assert bessel_j_int(-n, x) == pytest.approx(
                (-1.0) ** n * bessel_j_int(n, x), abs=1e-14
            )


def test_neumann_unit_sum():
    # J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1
    for x in (0.3, 3.0, 20.0):
        acc = bessel_j_int(0, x)
        for k in range(1, 60):
            acc += 2.0 * bessel_j_int(2 * k, x)
        assert abs(acc - 1.0) < 1e-11


def test_bessel_overflow_guard():
    with pytest.raises(OverflowGuardError):
        bessel_j_int(0, 2.0e5)


# ---------------------------------------------------------------------------
# Imaginary-order scaled Bessel
# ---------------------------------------------------------------------------


def _mp_oracle(r, x):
    with mpmath.workdps(40):
        v = mpmath.besselj(2j * mpmath.mpf(r), mpmath.mpf(x)) / mpmath.cosh(
            mpmath.pi * mpmath.mpf(r)
        )
        return complex(v)


@pytest.mark.parametrize(
    "r,x",
    [
        (0.5, 1.0),
        (3.0, 0.25),
        (10.0, 30.0),  # transition region
        (2.0, 80.0),  # large argument, Hankel route
        (40.0, 5.0),  # large order
    ],
)
def test_scaled_bessel_against_mpmath(r, x):
    got = scaled_bessel_j_imag(r, x).value
    want = _mp_oracle(r, x)
    assert abs(got - want) < 1e-10 * (1.0 + abs(want))


def test_scaled_bessel_conjugate_symmetry():
    for (r, x) in [(0.7, 2.0), (5.0, 40.0)]:
        a = scaled_bessel_j_imag(r, x).value
        b = scaled_bessel_j_imag(-r, x).value
        assert b == a.conjugate()


def test_scaled_bessel_grid_matches_scalar():
    r = np.array([0.1, 0.9, 3.7, 12.0])
    x = 6.5
    grid = scaled_bessel_series_grid(r, x)
    for i, ri in enumerate(r):
        want = scaled_bessel_j_imag(float(ri), x).value
        assert abs(grid[i] - want) < 1e-11 * (1.0 + abs(want))


def test_scaled_bessel_domain_errors():
    with pytest.raises(DomainError):
        scaled_bessel_j_imag(1.0, 0.0)
    with pytest.raises(DomainError):
        scaled_bessel_series_grid(np.array([1.0]), 50.0)


# ---------------------------------------------------------------------------
# Zeta on and right of the 1-line
# ---------------------------------------------------------------------------


def _eta_oracle(s, terms=4_000_000):
    """zeta via the alternating eta series, accelerated by pair-averaging."""
    # straightforward alternating sum is accurate enough at Re s = 2
    n = np.arange(1, terms, dtype=float)
    eta = np.sum((-1.0) ** (n + 1) * n ** -s)
    return eta / (1.0 - 2.0 ** (1.0 - s))


def test_zeta_two_closed_form():
    assert abs(zeta_right_of_one(2.0) - math.pi ** 2 / 6.0) < 1e-12


def test_zeta_against_alternating_series():
    got = zeta_right_of_one(2.0 + 0.0j)
    assert abs(got - _eta_oracle(2.0)) < 1e-6


def test_zeta_against_mpmath_on_one_line():
    for r in (0.5, 3.0, 25.0, 400.0):
        got = zeta_right_of_one(1.0 + 2j * r)
        with mpmath.workdps(30):
            want = complex(mpmath.zeta(1.0 + 2j * r))
        assert abs(got - want) < 1e-11 * abs(want)


def test_zeta_pole_and_domain():
    with pytest.raises(PoleError):
        zeta_right_of_one(1.0)
    with pytest.raises(DomainError):
        zeta_right_of_one(0.5 + 3.0j)


def test_zeta_abs2_grid_matches_scalar_route():
    r = np.concatenate([np.linspace(0.05, 5.0, 37), np.array([0.0, 120.0, 2000.0])])
    grid = zeta_abs2_grid(r)
    mask = r != 0.0
    with mpmath.workdps(30):
        want = np.array(
            [float(abs(mpmath.zeta(1.0 + 2j * ri)) ** 2) for ri in r[mask]]
        )
    assert np.all(np.isinf(grid[~mask]))
    assert np.max(np.abs(grid[mask] - want) / want) < 1e-10


def test_zeta_one_line_lower_bound():
    # |zeta(1 + 2ir)| >> 1/log r; check a generous numeric version
    for r in (5.0, 50.0, 500.0):
        val = math.sqrt(float(zeta_abs2_grid(np.array([r]))[0]))
        assert val > 0.1 / math.log(r + 10.0)


# ---------------------------------------------------------------------------
# Large-order phase and leading term
# ---------------------------------------------------------------------------


def test_dunster_xi_at_one():
    want = math.sqrt(2.0) + math.log(1.0 / (1.0 + math.sqrt(2.0)))
    assert abs(dunster_xi(1.0) - want) < 1e-14


def test_dunster_xi_derivative():
    # d xi / dz = sqrt(1+z^2)/z, checked by central differences
    for z in (0.5, 1.0, 3.0):
        fd = (dunster_xi(z + 1e-6) - dunster_xi(z - 1e-6)) / 2e-6
        assert abs(fd - math.hypot(1.0, z) / z) < 1e-8


def test_dunster_leading_term_error_decays_like_one_over_r():
    x = 50.0
    errs = []
    for r in (100.0, 200.0, 400.0):
        exact = _mp_oracle(r, x)
        approx = dunster_leading_term(r, x)
        errs.append(abs(approx - exact) / abs(exact))
    # halving steps: each doubling of r should roughly halve the error
    assert errs[1] < 0.75 * errs[0]
    assert errs[2] < 0.75 * errs[1]
    assert errs[0] < 0.05
