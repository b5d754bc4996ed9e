"""The batched imaginary-order Bessel grid and log Gamma: accuracy against
40-digit mpmath, and batch independence.

`scaled_bessel_j_imag` and `log_gamma_complex` are one-element calls of
`scaled_bessel_j_imag_grid` and `log_gamma_grid` (milliseconds a call; pass
many points to the grid), so the bit-for-bit tests here check that a node's
bits do not depend on the batch it is in: at the X > 36 quadrature points
of D_J the weighted sum cancels by a factor of 2e8 to 5e10, so one ulp of
noise per node would move D_J past its 1e-10 pin.
"""

import cmath
import contextlib
import logging
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maassdensity.besseltransform as bt
import maassdensity.kuznetsov as kz
import maassdensity.specfun as sf
from maassdensity.errors import DomainError
from maassdensity.kuznetsov import weight_gaussian
from maassdensity.specfun import (
    log_gamma_complex,
    log_gamma_grid,
    scaled_bessel_j_imag,
    scaled_bessel_j_imag_grid,
)


ROUTES = ("series", "hankel", "double_double", "fixed_point")


class _RouteLog(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts = []

    def emit(self, record):
        # args: a mapping with x, nodes and one node count per route
        self.counts.append({k: record.args[k] for k in ("nodes", *ROUTES)})


@contextlib.contextmanager
def _routes():
    """Collect the route counts the grid logs on the "maassdensity" logger."""
    log = logging.getLogger("maassdensity")
    handler, level = _RouteLog(), log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        yield handler.counts
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _assert_bits_equal(got, want):
    assert np.array_equal(got.real, want.real)
    assert np.array_equal(got.imag, want.imag)


def _scalar(r, x):
    """Each node alone, through the scalar entry point (a one-node grid)."""
    return np.array([scaled_bessel_j_imag(v, x).value for v in r])


@settings(max_examples=25, deadline=None)
@given(
    r=st.lists(st.floats(0.0, 400.0), min_size=1, max_size=12).map(sorted),
    x=st.floats(36.0, 120.0, exclude_min=True),
)
def test_grid_matches_scalar_bit_for_bit(r, x):
    r = np.array(r)
    with _routes() as counts:
        got = scaled_bessel_j_imag_grid(r, x)
    _assert_bits_equal(got, _scalar(r, x))
    [count] = counts
    assert count["nodes"] == r.size == sum(count[k] for k in ROUTES)


@settings(max_examples=25, deadline=None)
@given(
    r=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=40).map(sorted),
    x=st.floats(0.01, 36.0),
)
def test_grid_matches_scalar_up_to_36(r, x):
    # every node starts on the series here, small pi r (log cosh) included
    r = np.array(r)
    _assert_bits_equal(scaled_bessel_j_imag_grid(r, x), _scalar(r, x))


@pytest.mark.parametrize(
    "x,lo,hi,routes",
    [
        (40.0, 20.0, 400.0, {"series": 8}),  # plausible series
        (100.0, 0.0, 5.0, {"hankel": 8}),  # Hankel
        (40.0, 15.9, 16.6, {"series": 8}),  # implausible: Hankel misses, series meets
        (40.0, 8.0, 14.0, {"double_double": 8}),  # transition region
        (25.0, 0.0, 60.0, {"series": 7, "hankel": 1}),  # x <= 36: series first
        (5.0, 0.0, 6.0, {"series": 8}),  # pi r < 20: the small-argument log cosh
        (74.34, 15.0, 45.0, {"double_double": 8}),  # the c = 1 term of (5, 7)
        (74.34, 8.6, 9.5, {"fixed_point": 8}),  # double-double estimate 2e-10 to 1.2e-9
    ],
)
def test_grid_single_route_grids(x, lo, hi, routes):
    r = np.linspace(lo, hi, 8)
    with _routes() as counts:
        got = scaled_bessel_j_imag_grid(r, x)
    assert counts == [{"nodes": 8, **dict.fromkeys(ROUTES, 0), **routes}]
    _assert_bits_equal(got, _scalar(r, x))
    _assert_bits_equal(scaled_bessel_j_imag_grid(-r, x), _scalar(-r, x))


@pytest.mark.parametrize("X,T", [(40.0, 21), (39.5, 41)])
def test_im_scaled_grid_on_dj_quadrature_nodes(monkeypatch, X, T):
    # the real node sets of D_J(X, T): the whole array, its two halves and
    # the reversed array give the same bits
    seen = []

    def recorded(r_nodes, x):
        got = grid(r_nodes, x)
        seen.append((r_nodes, got))
        return got

    grid = bt._im_scaled_grid
    monkeypatch.setattr(bt, "_im_scaled_grid", recorded)
    bt.dj_quadrature(X, T)
    assert len(seen) == 2 and min(r.size for r, _ in seen) > 10_000  # coarse, fine
    for r, got in seen:
        whole = scaled_bessel_j_imag_grid(r, X)
        assert np.array_equal(got, whole.imag)
        h = r.size // 2
        halves = np.concatenate([scaled_bessel_j_imag_grid(r[:h], X),
                                 scaled_bessel_j_imag_grid(r[h:], X)])
        _assert_bits_equal(halves, whole)
        _assert_bits_equal(scaled_bessel_j_imag_grid(r[::-1], X)[::-1], whole)


def test_osc_grid_integral_matches_scalar_dot():
    # the trace-formula grid of a Gaussian weight at x = 4 pi sqrt(35) / 2;
    # np.dot must see a contiguous array (BLAS sums a strided view in
    # another order)
    grid = kz._OscGrid(weight_gaussian(14.7, 3.675), 0.125)
    x = 37.17
    im = np.ascontiguousarray(scaled_bessel_j_imag_grid(grid.r, x).imag)
    assert grid.integral(x) == 2j * float(np.dot(grid.wrH, im))


def _mp_reference(r, x):
    # 40 digits beyond the up to x / ln 10 that the series cancels
    with mpmath.workdps(40 + int(0.45 * x)):
        v = mpmath.besselj(2j * mpmath.mpf(r), mpmath.mpf(x))
        return complex(v / mpmath.cosh(mpmath.pi * mpmath.mpf(r)))


@settings(max_examples=50, deadline=None)
@given(
    r=st.lists(st.floats(-400.0, 400.0), min_size=1, max_size=12),
    x=st.floats(1e-3, 120.0),
)
def test_grid_against_mpmath(r, x):
    # every route, against the grid's own target 1e-11 (4r^2 + x^2)^(-1/4)
    got = scaled_bessel_j_imag_grid(np.array(r), x)
    for v, g in zip(r, got):
        assert abs(g - _mp_reference(v, x)) <= 1e-11 * sf._scale_estimate(v, x)


@settings(max_examples=40, deadline=None)
@given(
    # from 1e-150: below it 4r^2 + x^2 can underflow to 0 in the target
    # (_scale_estimate), and at 5e-324 log(x/2) fails in every series route
    x=st.floats(1e-150, 120.0),
    frac=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
)
def test_double_double_route_against_mpmath(x, frac):
    # the transition band: r from x/20 to x, around |2r| ~ x
    r = np.sort(np.array(frac) * x)
    target = 1e-11 * sf._scale_estimate(r, x)
    val, est = sf._series_dd_batch(r, x, target)
    for i in np.flatnonzero(est <= target):
        assert abs(val[i] - _mp_reference(r[i], x)) <= est[i]


@settings(max_examples=20, deadline=None)
@given(
    x=st.floats(36.0, 400.0, exclude_min=True),
    band=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=3),
    low=st.lists(st.floats(0.0, 0.125, exclude_max=True), min_size=1, max_size=3),
)
def test_fixed_point_route_against_mpmath(x, band, low):
    # the transition band (r from x/20 to 1.5x) and r below x/8, where the
    # series cancels most (by up to e^x); from x = 200 on, r above 315 needs
    # t_0's phase beyond binary64
    r = np.sort(np.array(band + low) * x)
    target = 1e-11 * sf._scale_estimate(r, x)
    val, est = sf._series_fixed_batch(r, x)
    for i in range(r.size):
        assert abs(val[i] - _mp_reference(r[i], x)) <= est[i] <= target[i]


@pytest.mark.parametrize("x,r", [
    (200.0, np.linspace(0.0, 450.0, 401)),
    # E_n passes binary64 from x = 710 on; its log2 does not
    (720.0, np.array([0.0, 30.0, 360.0, 1000.0])),
    # the binary64 series overflows on r = 100; it hands the node on
    (1000.0, np.array([0.0, 100.0, 500.0, 1000.0])),
])
def test_transition_band_is_served_at_large_x(x, r):
    with _routes() as counts:
        val = scaled_bessel_j_imag_grid(r, x)
    assert counts[-1]["fixed_point"] > 0
    for i in range(0, r.size, 25):
        assert abs(val[i] - _mp_reference(r[i], x)) <= 1e-11 * sf._scale_estimate(r[i], x)


@pytest.mark.parametrize("x,r_over", [
    (1018.0, 43.0), (1083.0, 43.5), (1400.0, 42.5), (1500.0, 51.0),
])
def test_grid_survives_a_series_term_whose_modulus_overflows(x, r_over):
    # at (x, r_over) a binary64 series term has finite parts but a modulus
    # past DBL_MAX (abs(complex) raised OverflowError there); the node
    # leaves that route with estimate inf, and the next route serves it
    r = np.array([0.0, 1.0, 50.0, 200.0, 0.45 * x, 0.5 * x, 0.55 * x, 600.0, r_over])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = scaled_bessel_j_imag_grid(r, x)
    assert np.all(np.isfinite(val))
    assert abs(val[-1] - _mp_reference(r_over, x)) <= 1e-11 * sf._scale_estimate(r_over, x)


def test_numpy_hypot_is_abs_complex():
    # _series_batch takes a term's modulus from np.hypot; its stopping rule
    # keeps the bits of abs(complex) (libm's hypot) only while these agree
    rng = np.random.default_rng(5)
    re, im = rng.standard_normal((2, 200_000)) * np.exp(rng.uniform(-690.0, 690.0, (2, 200_000)))
    want = np.array([abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())])
    assert np.array_equal(np.hypot(re, im), want)


def test_numpy_complex_exp_is_cmath_exp():
    # the series' leading terms take np.exp of a complex array and keep the
    # bits of cmath.exp only while these agree
    rng = np.random.default_rng(6)
    z = rng.uniform(-760.0, 700.0, 200_000) + 1j * rng.uniform(-1e5, 1e5, 200_000)
    want = np.array([cmath.exp(v) for v in z.tolist()])
    _assert_bits_equal(np.exp(z), want)


def test_fixed_point_route_bits_do_not_depend_on_the_batch():
    # alone, next to a much smaller r (a larger shared shift D for 2r) and
    # in a reversed batch, a node keeps its value and estimate bit for bit
    x = 4.0 * math.pi * math.sqrt(35.0)
    r = np.array([8.6, 9.05, 10.3, 12.1])
    val, est = sf._series_fixed_batch(r, x)
    back_val, back_est = sf._series_fixed_batch(r[::-1], x)
    _assert_bits_equal(back_val[::-1], val)
    assert np.array_equal(back_est[::-1], est)
    for i in range(r.size):
        for other in ([], [1e-9], [1e-200]):
            got_val, got_est = sf._series_fixed_batch(np.array([r[i], *other]), x)
            _assert_bits_equal(got_val[:1], val[i:i + 1])
            assert got_est[0] == est[i]


@pytest.mark.parametrize("X,T", [(40.0, 21), (39.5, 41)])
def test_dj_quadrature_takes_no_fixed_point_node(X, T):
    # the double-double values these quadratures cancel over are pinned bit
    # for bit; no node of theirs may move to another route
    with _routes() as counts:
        bt.dj_quadrature(X, T)
    assert counts and sum(c["fixed_point"] for c in counts) == 0


def test_dj_quadrature_at_40_21_keeps_the_mpmath_value(monkeypatch):
    # D_J(40, 21) ~ 5.4e-8 cancels by ~2e9 over its nodes: the double-double
    # route's ~5e-15 rounding per node moves it by 1.2e-11, a Lanczos log
    # Gamma in t_0 by 1.5e-10; with mpmath values on the double-double
    # route's nodes it must stay within 1e-10
    got = bt.dj_quadrature(40.0, 21).value
    monkeypatch.setattr(sf, "_series_dd_batch", lambda r, x, t: (
        np.array([_mp_reference(v, x) for v in r], dtype=complex), np.zeros(r.size)))
    want = bt.dj_quadrature(40.0, 21).value
    assert abs(got - want) <= 1e-10 * abs(want)


def test_osc_grid_mpmath_share_at_the_c1_term_of_57(monkeypatch):
    # the g57 Gaussian of the trace-formula benchmark at x = 4 pi sqrt(35):
    # before the double-double route, 3146 of its 3600 nodes took mpmath,
    # and 224 after it; now those take the fixed-point route
    mp_calls = []
    besselj = mpmath.besselj
    monkeypatch.setattr(mpmath, "besselj",
                        lambda *a, **k: mp_calls.append(a) or besselj(*a, **k))
    r = kz._OscGrid(weight_gaussian(14.7, 3.675), 0.125).r
    with _routes() as counts:
        scaled_bessel_j_imag_grid(r, 4.0 * math.pi * math.sqrt(35.0))
    [count] = counts
    assert count["nodes"] == r.size == 3600 == sum(count[k] for k in ROUTES)
    assert count["fixed_point"] <= 0.1 * r.size
    assert mp_calls == []


def test_grid_domain_errors():
    with pytest.raises(DomainError):
        scaled_bessel_j_imag_grid(np.array([1.0]), 0.0)
    with pytest.raises(DomainError):
        scaled_bessel_j_imag_grid(np.array([1.0, 2.0e4]), 40.0)


@pytest.mark.parametrize("r,x", [
    (1.0, math.inf), (1.0, math.nan), (math.nan, 40.0), (math.inf, 40.0),
    (-math.inf, 74.34),
])
def test_non_finite_arguments_raise_domain_error(r, x):
    with pytest.raises(DomainError):
        scaled_bessel_j_imag(r, x)
    with pytest.raises(DomainError):
        scaled_bessel_j_imag_grid(np.array([2.0, r]), x)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.floats(0.5, 60.0), st.floats(-3000.0, 3000.0)),
             min_size=1, max_size=40)
)
def test_log_gamma_grid_matches_scalar_bit_for_bit(zs):
    z = np.array([complex(a, b) for a, b in zs])
    want = np.array([log_gamma_complex(v) for v in z])
    _assert_bits_equal(log_gamma_grid(z), want)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.floats(0.5, 60.0), st.floats(-3000.0, 3000.0)),
             min_size=1, max_size=12)
)
def test_log_gamma_grid_against_mpmath(zs):
    got = log_gamma_grid(np.array([complex(a, b) for a, b in zs]))
    with mpmath.workdps(40):
        want = [complex(mpmath.loggamma(mpmath.mpc(a, b))) for a, b in zs]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * (1.0 + abs(w))


@settings(max_examples=40, deadline=None)
@given(
    r=st.lists(st.one_of(st.floats(-1e4, 1e4), st.floats(-1e-150, 1e-150)),
               min_size=1, max_size=6),
    x=st.one_of(st.just(5e-324), st.floats(5e-324, 1e-140)),
)
def test_tiny_arguments_give_finite_values(r, x):
    # subnormal x (where x/2 underflows or loses bits) and r, x below 1e-162
    # (where 4 r^2 + x^2 underflows) through both entry points
    r = np.array(r)
    got = scaled_bessel_j_imag_grid(r, x)
    assert np.all(np.isfinite(got))
    _assert_bits_equal(got, _scalar(r, x))
    with mpmath.workdps(30):
        v = float(r[0])
        want = complex(mpmath.besselj(2j * mpmath.mpf(v), mpmath.mpf(x))
                       / mpmath.cosh(mpmath.pi * mpmath.mpf(v)))
    # the phase 2 r log(x/2) carries one rounding of its own size
    phase = abs(2.0 * v * (math.log(x) - math.log(2.0)))
    assert abs(got[0] - want) <= 1e-13 * (1.0 + phase) * abs(want)


def test_log_gamma_grid_domain():
    with pytest.raises(DomainError):
        log_gamma_grid(np.array([1.0 + 2.0j, 0.25 + 1.0j]))
