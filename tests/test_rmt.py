"""Random-matrix kernels, test functions, and prediction integrals."""

import math

import numpy as np
import pytest

from maassdensity import rmt
from maassdensity.besseltransform import _gl_panels
from maassdensity.errors import DomainError
from maassdensity.weights import gauss_legendre
from maassdensity.rmt import (
    GROUPS,
    _phi_tail_cutoff,
    bump,
    group_from_name,
    make_test_function,
    rmt_density_eval,
    rmt_expected_value,
)


def test_group_names():
    assert group_from_name("so-even") == "SO_even"
    assert group_from_name("O") == "O"
    assert group_from_name("sp") == "Sp"
    with pytest.raises(DomainError):
        group_from_name("gue")


def test_eta_validation():
    with pytest.raises(DomainError):
        make_test_function(0.0)
    with pytest.raises(DomainError):
        make_test_function(5.0)


def test_phi_hat_support_and_shape():
    phi = make_test_function(0.8)
    # hat is the scaled bump: even, positive inside, 0 at and beyond eta
    assert phi.phi_hat(0.0) == pytest.approx(math.exp(-1.0))
    assert phi.phi_hat(0.79) > 0.0
    assert phi.phi_hat(0.8) == 0.0
    assert phi.phi_hat(1.5) == 0.0
    assert phi.phi_hat(-0.3) == phi.phi_hat(0.3)


def test_phi_even_and_positive_at_zero():
    phi = make_test_function(1.0)
    assert phi.phi(0.0) > 0.0
    for x in (0.4, 1.9, 7.2):
        assert phi.phi(-x) == pytest.approx(phi.phi(x), abs=1e-13)


def test_plancherel_mass():
    # integral of phi over R equals phi-hat(0) (both routes available)
    phi = make_test_function(0.9)
    xs = np.linspace(-400.0, 400.0, 2 ** 17 + 1)
    mass = np.trapezoid(phi.phi(xs), xs)
    assert abs(mass - phi.phi_hat(0.0)) < 1e-6


def test_density_eval_closed_forms():
    # at x = 1/2 the sine kernel K(2x) = sin(pi)/pi = 0
    for group in GROUPS:
        smooth, point = rmt_density_eval(group, 0.5)
        assert smooth == pytest.approx(1.0, abs=1e-12)
        assert point in (0.0, 0.5, 1.0)
    assert rmt_density_eval("SO_odd", 0.0)[1] == 1.0
    assert rmt_density_eval("O", 0.0)[1] == 0.5
    assert rmt_density_eval("U", 1.3) == (1.0, 0.0)
    with pytest.raises(DomainError):
        rmt_density_eval("so_even_typo", 0.0)


# measured gaps: at most 1.1e-13 for eta >= 0.8, 6.7e-13 at 0.7, 2.2e-12 at
# 0.6 and 2.0e-9 at 0.3, where phi is still above 1e-14 of its peak at the
# x-space route's L = 120 truncation
_ROUTE_GAP = {0.3: 1e-8, 0.6: 1e-11, 0.7: 1e-11}


@pytest.mark.parametrize("eta", [0.3, 0.6, 0.7, 0.8, 1.0, 1.2, 1.5, 1.9])
@pytest.mark.parametrize("group", GROUPS)
def test_dual_route_predictions(group, eta):
    # rmt_expected_value cross-checks the x-space quadrature against the
    # xi-space closed form only to 1e-7; the routes agree far better
    phi = make_test_function(eta)
    val = rmt_expected_value(phi, group)
    gap = abs(val - rmt._expected_xi_space(phi, group))
    assert gap <= _ROUTE_GAP.get(eta, 5e-13)


def _expected_x_space_oversampled(phi, group):
    # the x-space route on its former grid: 12-point Gauss-Legendre panels
    # of width 0.25/max(1, eta), about 4 times finer than the band limit
    # 2 pi (1 + eta) needs
    _, delta = rmt_density_eval(group, 0.0)
    L = _phi_tail_cutoff(phi)
    n_panels = math.ceil(L * max(1.0, phi.eta) / 0.25)
    gx, gw = gauss_legendre(12)
    edges = np.linspace(0.0, L, n_panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    xs = (mid[:, None] + half[:, None] * gx).ravel()
    ws = (half[:, None] * gw).ravel()
    k = rmt._sine_kernel(2.0 * xs)
    smooth = {"SO_even": 1.0 + k, "SO_odd": 1.0 - k, "Sp": 1.0 - k}
    w = smooth.get(group, np.ones_like(xs))
    return 2.0 * float(np.dot(ws, phi.phi(xs) * w)) + delta * phi.phi(0.0)


@pytest.mark.parametrize("eta", [0.3, 0.6, 0.8, 1.0, 1.2, 1.5, 1.9])
def test_x_space_grid_matches_oversampled_grid(eta):
    phi = make_test_function(eta)
    for group in GROUPS:
        got = rmt._expected_x_space(phi, group)
        assert abs(got - _expected_x_space_oversampled(phi, group)) <= 1e-14


def test_unitary_prediction_is_hat_at_zero():
    phi = make_test_function(1.2)
    want = phi.phi_hat(0.0)
    assert abs(rmt_expected_value(phi, "U") - want) < 1e-9


def test_orthogonal_mixture_identity():
    # O is the even/odd average at any support
    for eta in (0.6, 1.5):
        phi = make_test_function(eta)
        even = rmt_expected_value(phi, "SO_even")
        odd = rmt_expected_value(phi, "SO_odd")
        o = rmt_expected_value(phi, "O")
        assert abs(o - 0.5 * (even + odd)) < 1e-10


def test_orthogonal_types_indistinguishable_below_support_one():
    phi = make_test_function(0.95)
    vals = [rmt_expected_value(phi, g) for g in ("SO_even", "SO_odd", "O")]
    assert max(vals) - min(vals) < 1e-8


def test_orthogonal_types_split_beyond_support_one():
    phi = make_test_function(1.5)
    even = rmt_expected_value(phi, "SO_even")
    odd = rmt_expected_value(phi, "SO_odd")
    assert abs(even - odd) > 1e-3


def test_symplectic_sits_below_unitary():
    phi = make_test_function(1.5)
    assert rmt_expected_value(phi, "Sp") < rmt_expected_value(phi, "U")


@pytest.mark.parametrize("eta", [0.05, 0.1, 0.3, 0.8, 1.0, 1.2, 1.9, 4.0])
def test_phi_holds_to_its_tail_cutoff(eta):
    # phi is integrated out to _phi_tail_cutoff (145.5 at eta = 1.2); check
    # it there against a 16384-node quadrature of the same bump (16-point
    # Gauss-Legendre on 1024 panels). The small eta lean on the 24-panel
    # floor of the bump nodes
    phi = make_test_function(eta)
    L = _phi_tail_cutoff(phi)
    xi, w = _gl_panels(np.linspace(-eta, eta, 1025))
    fine = rmt.TestFunction(eta=eta, _xi=xi, _wq=w * bump(xi / eta))
    grid = np.linspace(0.0, L, 2001)
    peak = abs(fine.phi(np.array([0.0]))[0])
    assert np.max(np.abs(phi.phi(grid) - fine.phi(grid))) <= 1e-12 * peak


# integral over (-1, 1) of exp(-1/(1-u^2)), to 20 digits
_BUMP_MASS = 0.44399381616807943782


@pytest.mark.parametrize("eta", [0.02, 0.05, 0.1, 0.3, 0.8, 1.0, 1.2, 1.9, 4.0])
def test_phi_at_zero_is_the_bump_mass(eta):
    # phi(0) = eta * the bump's mass, which the O prediction
    # phi-hat(0) + phi(0)/2 reads; a 4-ulp bound
    want = eta * _BUMP_MASS
    assert abs(float(make_test_function(eta).phi(0.0)) - want) <= 4 * math.ulp(want)
