"""Special-function layer, checked against independent oracles.

Every expected value here is either an identity (recurrence, modulus,
symmetry), a slow independent evaluation (direct quadrature, power series
written out inline, mpmath at high precision), or a closed form.
"""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from maassdensity.besseltransform import _gl_panels, j_rows
from maassdensity.errors import DomainError, PoleError
from maassdensity.kuznetsov import weight_spectral
from maassdensity.specfun import (
    _log_gamma_stirling,
    _power_table,
    _zeta_cutoff,
    _zeta_plan,
    dunster_xi,
    log_cosh,
    log_gamma_grid,
    scaled_bessel_j_imag_grid,
    scaled_bessel_series_grid,
    zeta_abs2_grid,
    zeta_right_of_one,
)


# ---------------------------------------------------------------------------
# log Gamma
# ---------------------------------------------------------------------------


def _lg(z) -> complex:
    """log Gamma at one point: a one-element log_gamma_grid call."""
    return complex(log_gamma_grid(np.array([z], dtype=complex))[0])


def test_gamma_half():
    # Gamma(1/2) = sqrt(pi)
    val = cmath.exp(_lg(0.5))
    assert abs(val - math.sqrt(math.pi)) < 1e-13


def test_gamma_modulus_on_imag_shift():
    # |Gamma(1 + iy)|^2 = pi y / sinh(pi y)
    for y in (0.5, 2.0, 7.3, 20.0):
        lg = _lg(1.0 + 1j * y)
        lhs = math.exp(2.0 * lg.real)
        rhs = math.pi * y / math.sinh(math.pi * y)
        assert abs(lhs - rhs) < 1e-12 * rhs


def test_gamma_recurrence():
    z = 0.7 + 3.1j
    lhs = cmath.exp(_lg(z + 1.0))
    rhs = z * cmath.exp(_lg(z))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
def test_gamma_pole(z):
    # the poles lie left of Re z = 1/2, where log_gamma_grid has no branch
    with pytest.raises(DomainError):
        log_gamma_grid(np.array([z], dtype=complex))


def test_log_gamma_complex_absolute_error_on_the_one_line():
    # a pin of a known limit, not a target: Lanczos drifts to a few 1e-13
    # absolute for Im z >= 12 (5.1e-13 at most over 20,000 points of
    # [1, 200]), so the double-double Bessel prefactor uses Stirling instead
    t = np.linspace(1.0, 200.0, 400)
    with mpmath.workdps(40):
        want = [complex(mpmath.loggamma(mpmath.mpc(1, v))) for v in t]
    err = np.abs(log_gamma_grid(1.0 + 1j * t) - np.array(want))
    assert max(err) <= 6e-13


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 30.0), st.floats(0.0, 400.0))
def test_log_gamma_stirling_within_its_rounding_bound(a, b):
    re, im, size = _log_gamma_stirling(np.array([a]), np.array([b]))
    with mpmath.workdps(40):
        want = complex(mpmath.loggamma(mpmath.mpc(a, b)))
    assert abs(complex(re[0], im[0]) - want) <= 4.0 * 2.0 ** -52 * size[0]


def test_log_cosh_matches_direct_and_survives_large_argument():
    for y in (0.0, 1.5, 19.0):
        assert abs(log_cosh(y) - math.log(math.cosh(y))) < 1e-14 * (1 + abs(y))
    # direct cosh would overflow here
    y = 800.0
    assert abs(log_cosh(y) - (y - math.log(2.0))) < 1e-12
    # elementwise over an array, each element as it is alone
    y = np.array([0.0, 19.999, 20.0, 1e4, -1e4])
    got = log_cosh(y)
    assert got.shape == y.shape
    for v, g in zip(y.tolist(), got.tolist()):
        assert g == log_cosh(v)
        want = math.log(math.cosh(v)) if abs(v) <= 20.0 else abs(v) - math.log(2.0)
        assert abs(g - want) < 1e-14 * (1 + abs(v))


# ---------------------------------------------------------------------------
# Integer-order Bessel: the Miller recurrence (besseltransform.j_rows)
# ---------------------------------------------------------------------------


def test_j0_at_one_series_oracle():
    # 30-term alternating series written out independently
    acc = 0.0
    for k in range(30):
        acc += (-1.0) ** k * (0.5) ** (2 * k) / math.factorial(k) ** 2
    assert abs(j_rows([1.0], 0)[0, 0] - acc) < 1e-14


def _j_integral_formula(k, x):
    """J_k(2 pi x) = integral over |t| < 1/2 of cos(2 pi (k t - x sin(2 pi t))),
    by scipy quad: an oracle independent of the Miller recurrence."""

    def f(t):
        return math.cos(2.0 * math.pi * (k * t - x * math.sin(2.0 * math.pi * t)))

    val, err = quad(f, -0.5, 0.5, limit=200 + 8 * (k + int(x)), epsabs=1e-13)
    assert err <= 1e-8
    return val


@pytest.mark.parametrize("k,x", [(0, 0.5), (1, 1.0), (3, 2.5), (7, 10.0)])
def test_bessel_integral_formula_cross_check(k, x):
    # J_k(2 pi x) by direct quadrature of the cosine integral
    assert abs(j_rows([2.0 * math.pi * x], k)[0, k] - _j_integral_formula(k, x)) < 1e-10


# ---------------------------------------------------------------------------
# Imaginary-order scaled Bessel
# ---------------------------------------------------------------------------


def _sbj(r, x) -> complex:
    """J_{2ir}(x)/cosh(pi r) at one r: a one-node scaled_bessel_j_imag_grid call."""
    return complex(scaled_bessel_j_imag_grid(np.array([float(r)]), x)[0])


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
    got = _sbj(r, x)
    want = _mp_oracle(r, x)
    assert abs(got - want) < 1e-10 * (1.0 + abs(want))


def test_scaled_bessel_conjugate_symmetry():
    for (r, x) in [(0.7, 2.0), (5.0, 40.0)]:
        a = _sbj(r, x)
        b = _sbj(-r, x)
        assert b == a.conjugate()


def test_scaled_bessel_grid_matches_scalar():
    r = np.array([0.1, 0.9, 3.7, 12.0])
    x = 6.5
    grid = scaled_bessel_series_grid(r, x)
    for i, ri in enumerate(r):
        want = _sbj(ri, x)
        assert abs(grid[i] - want) < 1e-11 * (1.0 + abs(want))


def test_scaled_bessel_series_grid_of_no_nodes():
    # as scaled_bessel_j_imag_grid: an empty array in, an empty array out
    for grid in (scaled_bessel_series_grid, scaled_bessel_j_imag_grid):
        got = grid(np.array([]), 5.0)
        assert got.shape == (0,) and got.dtype == complex


def test_scaled_bessel_domain_errors():
    with pytest.raises(DomainError):
        scaled_bessel_j_imag_grid(np.array([1.0]), 0.0)
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


_U = 2.0 ** -53


def _zeta_rounding_bound(s, n_cut=None):
    # the exponents s log n, n < N, are rounded: the relative error grows
    # with |s| log N (the phase t log n, and sigma log n at large Re s)
    n_cut = n_cut or _zeta_cutoff(abs(s.imag))
    return _U * (32.0 + 4.0 * abs(s) * math.log(n_cut))


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 3.0), st.floats(-5200.0, 5200.0))
def test_zeta_right_of_one_against_mpmath(sigma, t):
    # |Im s| up to 5200 covers the T = 81 smooth grids (|Im s| = 2r)
    s = complex(sigma, t)
    assume(abs(s - 1.0) > 1e-6)
    got = zeta_right_of_one(s)
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(mpmath.mpc(sigma, t)))
    assert abs(got - want) <= _zeta_rounding_bound(s) * abs(want)


@pytest.mark.parametrize("size", [1023, 1024, 1025])
def test_zeta_abs2_grid_across_chunk_boundaries(size):
    # nodes are evaluated in magnitude-sorted chunks, each with its own
    # cutoff; check the nodes on both sides of every chunk boundary
    r = np.random.default_rng(size).uniform(0.0, 400.0, size)
    r[size // 2] = 0.0
    grid = zeta_abs2_grid(r)
    order = np.argsort(r)
    ranks = {0, 1, size - 1}
    for edge in range(256, size, 256):
        ranks.update((edge - 1, edge))
    for i in order[sorted(ranks)]:
        if r[i] == 0.0:
            assert grid[i] == np.inf
            continue
        with mpmath.workdps(30):
            want = float(abs(mpmath.zeta(mpmath.mpc(1.0, 2.0 * r[i]))) ** 2)
        bound = 2.0 * _zeta_rounding_bound(complex(1.0, 2.0 * r[i]))  # |zeta|^2
        assert abs(grid[i] - want) <= bound * want


def test_power_table_matches_direct_powers():
    t = np.concatenate([np.linspace(-5200.0, 5200.0, 41), [0.0, 0.5]])
    s = np.linspace(1.0, 3.0, t.size) + 1j * t
    n_cut = _zeta_cutoff(5200.0)
    table = _power_table(s, n_cut, _zeta_plan(n_cut))
    n = np.arange(1, n_cut, dtype=float)
    direct = np.exp(-np.multiply.outer(np.log(n), s))
    rel = np.abs(table[1:] - direct) / np.abs(direct)
    bound = np.array([_zeta_rounding_bound(si, n_cut) for si in s])
    assert np.all(rel <= bound[None, :])


def test_zeta_abs2_grid_memory_bounded_on_t41_grid():
    # the T = 41 h_T range (r up to 1295) on 0.15-wide panels, about 138k
    # nodes: twice the smooth grid's nodes, to keep the load under which the
    # dense exp(-s log n) head sum of 1024-node chunks with cutoff
    # 1.1|t| + 16 peaked at 92 MB of traced memory
    r_cut = weight_spectral(41).r_cut()
    r, _ = _gl_panels(np.linspace(0.0, r_cut, math.ceil(r_cut / 0.15) + 1))
    assert r.size > 130_000
    tracemalloc.start()
    try:
        zeta_abs2_grid(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_zeta_one_line_lower_bound():
    # |zeta(1 + 2ir)| >> 1/log r; check a generous numeric version
    for r in (5.0, 50.0, 500.0):
        val = math.sqrt(float(zeta_abs2_grid(np.array([r]))[0]))
        assert val > 0.1 / math.log(r + 10.0)


# ---------------------------------------------------------------------------
# Large-order phase
# ---------------------------------------------------------------------------


def test_dunster_xi_at_one():
    want = math.sqrt(2.0) + math.log(1.0 / (1.0 + math.sqrt(2.0)))
    assert abs(dunster_xi(1.0) - want) < 1e-14


def test_dunster_xi_derivative():
    # d xi / dz = sqrt(1+z^2)/z, checked by central differences
    for z in (0.5, 1.0, 3.0):
        fd = (dunster_xi(z + 1e-6) - dunster_xi(z - 1e-6)) / 2e-6
        assert abs(fd - math.hypot(1.0, z) / z) < 1e-8
