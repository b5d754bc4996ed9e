"""The batched imaginary-order Bessel grid against the scalar routes.

`scaled_bessel_j_imag_grid` must reproduce `scaled_bessel_j_imag` bit for
bit on every node, and `log_gamma_grid` must reproduce `log_gamma_complex`:
at the X > 36 quadrature points of D_J the weighted sum cancels by a factor
of 2e8 to 5e10, so one ulp of noise per node would move D_J past its 1e-10
pin.
"""

import contextlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maassdensity.besseltransform as bt
import maassdensity.kuznetsov as kz
from maassdensity.errors import DomainError
from maassdensity.kuznetsov import weight_gaussian
from maassdensity.specfun import (
    log_gamma_complex,
    log_gamma_grid,
    scaled_bessel_j_imag,
    scaled_bessel_j_imag_grid,
)


class _RouteLog(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts = []

    def emit(self, record):
        # args: x, nodes, series, Hankel, mpmath
        self.counts.append(record.args[1:])


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
    [(nodes, series, hankel, mp)] = counts
    assert nodes == r.size == series + hankel + mp


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
        (40.0, 20.0, 400.0, (8, 0, 0)),  # plausible series
        (100.0, 0.0, 5.0, (0, 8, 0)),  # Hankel
        (40.0, 15.9, 16.6, (8, 0, 0)),  # implausible: Hankel misses, series meets
        (40.0, 8.0, 14.0, (0, 0, 8)),  # transition region: mpmath
        (25.0, 0.0, 60.0, (7, 1, 0)),  # x <= 36: every node tries the series first
        (5.0, 0.0, 6.0, (8, 0, 0)),  # pi r < 20: the small-argument log cosh
    ],
)
def test_grid_single_route_grids(x, lo, hi, routes):
    r = np.linspace(lo, hi, 8)
    with _routes() as counts:
        got = scaled_bessel_j_imag_grid(r, x)
    assert counts == [(8, *routes)]
    _assert_bits_equal(got, _scalar(r, x))
    _assert_bits_equal(scaled_bessel_j_imag_grid(-r, x), _scalar(-r, x))


@pytest.mark.parametrize("X,T", [(40.0, 21), (39.5, 41)])
def test_im_scaled_grid_on_dj_quadrature_nodes(monkeypatch, X, T):
    seen = []

    def checked(r_nodes, x):
        got = grid(r_nodes, x)
        want = np.array([scaled_bessel_j_imag(v, x).value.imag for v in r_nodes])
        assert np.array_equal(got, want)
        seen.append(r_nodes.size)
        return got

    grid = bt._im_scaled_grid
    monkeypatch.setattr(bt, "_im_scaled_grid", checked)
    bt.dj_quadrature(X, T)
    assert len(seen) == 2 and min(seen) > 10_000  # the coarse and the fine pass


def test_osc_grid_integral_matches_scalar_dot():
    # the trace-formula grid of a Gaussian weight at x = 4 pi sqrt(35) / 2;
    # np.dot must see the same contiguous array the scalar route built
    grid = kz._OscGrid(weight_gaussian(14.7, 3.675), 0.125)
    x = 37.17
    im = np.array([scaled_bessel_j_imag(v, x).value.imag for v in grid.r])
    assert grid.integral(x) == 2j * float(np.dot(grid.wrH, im))


def test_grid_domain_errors():
    with pytest.raises(DomainError):
        scaled_bessel_j_imag_grid(np.array([1.0]), 0.0)
    with pytest.raises(DomainError):
        scaled_bessel_j_imag_grid(np.array([1.0, 2.0e4]), 40.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.floats(0.5, 60.0), st.floats(-3000.0, 3000.0)),
             min_size=1, max_size=40)
)
def test_log_gamma_grid_matches_scalar_bit_for_bit(zs):
    z = np.array([complex(a, b) for a, b in zs])
    want = np.array([log_gamma_complex(v) for v in z])
    _assert_bits_equal(log_gamma_grid(z), want)


def test_log_gamma_grid_domain():
    with pytest.raises(DomainError):
        log_gamma_grid(np.array([1.0 + 2.0j, 0.25 + 1.0j]))
