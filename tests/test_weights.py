"""Weight family h = x^M s^2, the odd companion g, and their transforms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import maassdensity.besseltransform as bt
from maassdensity import density, kuznetsov
from maassdensity.errors import DomainError, OverflowGuardError, PoleError
from maassdensity.rmt import make_test_function
from maassdensity.weights import (
    bump,
    default_family,
    g_fourier_transform,
    g_tilde_eval,
    gauss_legendre,
    make_spectral_weight,
    make_weight_family,
)

FAM = make_weight_family(8, 0.125)


def test_bump_shape():
    assert bump(np.array([0.0]))[0] == pytest.approx(math.exp(-1.0))
    assert np.all(bump(np.array([1.0, -1.0, 3.0])) == 0.0)
    u = np.linspace(-0.99, 0.99, 101)
    assert np.allclose(bump(u), bump(-u))


def test_constructor_validation():
    with pytest.raises(DomainError):
        make_weight_family(10, 0.125)  # not a multiple of 4
    with pytest.raises(DomainError):
        make_weight_family(4, 0.125)  # below the minimum order
    with pytest.raises(DomainError):
        make_weight_family(8, 0.2)  # halfwidth above 1/8


@pytest.mark.parametrize("w", [0.125, 0.0625, 1e-3])
def test_bump_rule_agrees_with_twice_its_order(w):
    # every family integrates s over one 256-node rule; doubling its order
    # must move s by < 1e-13 of its size at six probes on and off the real
    # line
    probes = [0.0, 0.77, 1.5, 3.2, 2.0j, 0.9 + 1.1j]

    def s_at_probes(xi, wb):
        return np.array([np.dot(wb, np.exp(2j * math.pi * p * xi)) for p in probes])

    fam = make_weight_family(8, w)
    assert fam._xi.size == 256
    x, gw = gauss_legendre(512)
    ref = s_at_probes(x * w, gw * w * bump(x))
    got = s_at_probes(fam._xi, fam._wb)
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def test_s_matches_direct_quadrature():
    # s(x) = integral of b(xi) cos(2 pi x xi); slow adaptive oracle
    w = FAM.bump_halfwidth
    for x in (0.0, 0.3, 1.7, 6.0):
        want, err = quad(
            lambda xi: bump(np.array([xi / w]))[0] * math.cos(2.0 * math.pi * x * xi),
            -w,
            w,
            epsabs=1e-14,
        )
        got = float(FAM.s_real_grid(np.array([x]))[0])
        assert abs(got - want) < 1e-12 + 10.0 * err


def test_s_imag_axis_scaled_consistency():
    # for moderate y the scaled form must agree with the direct evaluation
    for y in (0.5, 3.0, 20.0):
        mant, logs = FAM.s_imag_axis_scaled(np.array([y]))
        direct = FAM.s(1j * y)
        assert abs(mant[0] * math.exp(logs[0]) - direct.real) < 1e-12 * abs(direct)


def test_s_overflow_guard_and_scaled_survival():
    big = 5000.0
    with pytest.raises(OverflowGuardError):
        FAM.s(1j * big)
    mant, logs = FAM.s_imag_axis_scaled(np.array([big]))
    assert np.isfinite(mant[0]) and np.isfinite(logs[0])


def test_s_derivatives_by_finite_differences():
    eps = 1e-5
    for x in (0.1, 0.8, 2.3):
        d1 = (FAM.s_derivative(x + eps, 0) - FAM.s_derivative(x - eps, 0)) / (2 * eps)
        assert abs(d1 - FAM.s_derivative(x, 1)) < 1e-7
        d2 = (
            FAM.s_derivative(x + eps, 0)
            - 2.0 * FAM.s_derivative(x, 0)
            + FAM.s_derivative(x - eps, 0)
        ) / eps ** 2
        assert abs(d2 - FAM.s_derivative(x, 2)) < 1e-5


def test_h_positive_on_imaginary_axis():
    y = np.linspace(0.1, 50.0, 200)
    assert np.all(FAM.h_imag_axis(y) >= 0.0)


def test_h_even_on_real_axis():
    x = np.linspace(0.05, 3.0, 40)
    assert np.allclose(FAM.h_real(x), FAM.h_real(-x), rtol=0, atol=1e-18)


def test_bump_moments():
    assert FAM.bump_moment(1) == 0.0
    assert FAM.bump_moment(3) == 0.0
    m0 = FAM.bump_moment(0)
    m2 = FAM.bump_moment(2)
    assert m0 > 0.0
    # second moment bounded by w^2 * m0 on the support
    assert 0.0 < m2 < FAM.bump_halfwidth ** 2 * m0


def test_spectral_weight_pole_and_halfint():
    sw = make_spectral_weight(FAM, 5)
    with pytest.raises(PoleError):
        sw.h_T(5j)
    with pytest.raises(DomainError):
        make_spectral_weight(FAM, 4)
    # closed half-integer form matches the generic complex evaluation
    for k in (0, 1, 3):
        direct = sw.h_T((k + 0.5) * 1j)
        assert abs(direct.imag) < 1e-14 * (1.0 + abs(direct))
        assert abs(sw.h_T_halfint_imag(k) - direct.real) < 1e-12 * (
            1.0 + abs(direct)
        )


def test_spectral_weight_real_grid_matches_complex_eval():
    sw = make_spectral_weight(FAM, 7)
    for r in (0.5, 3.0, 22.0):
        direct = sw.h_T(complex(r))
        assert abs(direct.imag) < 1e-13 * (1.0 + abs(direct))
        assert abs(sw.h_T_real(np.array([r]))[0] - direct.real) < 1e-12 * (
            1.0 + abs(direct)
        )


def test_spectral_weight_real_grid_at_subnormal_r():
    # y^{M+1} underflows to 0 long before exp(2 logs - log_sinh) overflows
    sw = make_spectral_weight(FAM, 5)
    got = sw.h_T_real(np.array([1e-310, 1e-300, -1e-310]))
    assert got.tolist() == [0.0, 0.0, 0.0]


def test_g_tilde_parity_and_derivatives():
    # x^t g(x) has parity (-1)^{t+1}
    for t in (0, 1, 2):
        a = g_tilde_eval(FAM, 0.9, tilde_count=t)
        b = g_tilde_eval(FAM, -0.9, tilde_count=t)
        assert b == pytest.approx((-1.0) ** (t + 1) * a, rel=1e-12)
    eps = 1e-5
    for t in (0, 2):
        for x in (0.4, 1.1):
            fd = (
                g_tilde_eval(FAM, x + eps, t) - g_tilde_eval(FAM, x - eps, t)
            ) / (2 * eps)
            assert abs(fd - g_tilde_eval(FAM, x, t, derivative_order=1)) < 1e-6 * (
                1.0 + abs(fd)
            )


def test_g_fourier_transform_closed_form_oracle():
    # The moment expansion telescopes to
    #   -(i/pi) (2 pi)^{-M} M! sum_{j,k} wb_j wb_k (xi - xi_j - xi_k)^{-(M+1)}
    # which can be evaluated directly from the quadrature nodes.
    xi_nodes = FAM._xi
    wb = FAM._wb
    M = FAM.M
    fact = math.exp(math.lgamma(M + 1) - M * math.log(2.0 * math.pi))
    for xi in (0.6, 1.5, 4.0, -2.0):
        diff = xi - np.add.outer(xi_nodes, xi_nodes)
        want = complex(0.0, -fact / math.pi * float(np.sum(np.outer(wb, wb) * diff ** -(M + 1))))
        got = g_fourier_transform(FAM, xi, terms=60)
        assert abs(got - want) < 1e-12 * (1.0 + abs(want))


def test_g_fourier_transform_decay_slope():
    # log|g-hat| vs log xi has slope -(M+1)
    xs = np.array([2.0, 4.0, 8.0, 16.0])
    vals = np.array([abs(g_fourier_transform(FAM, x)) for x in xs])
    slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
    assert abs(slope + (FAM.M + 1)) < 0.05


def test_g_fourier_transform_domain():
    with pytest.raises(DomainError):
        g_fourier_transform(FAM, 0.4)


def test_default_family_is_m8():
    # the default is fixed: other families are passed as arguments
    base = default_family()
    assert (base.M, base.bump_halfwidth) == (8, 0.125)
    assert base is make_weight_family(8, 0.125)
    with pytest.raises(DomainError):
        make_weight_family(10)


@pytest.mark.parametrize("n", [1, 2, 12, 16, 64, 256, 400, 1024, 2048])
def test_gauss_legendre_bit_identical_to_leggauss(n):
    x, w = gauss_legendre(n)
    x0, w0 = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x.view(np.uint64), x0.view(np.uint64))
    assert np.array_equal(w.view(np.uint64), w0.view(np.uint64))
    assert not x.flags.writeable and not w.flags.writeable
    assert gauss_legendre(n)[0] is x  # cached per n


_PHI = make_test_function(0.8)
_TAKES_T = {
    "make_spectral_weight": lambda T: make_spectral_weight(FAM, T),
    "dj_quadrature": lambda T: bt.dj_quadrature(1.0, T),
    "dj_residue_sum": lambda T: bt.dj_residue_sum(1.0, T),
    "dj_residue_sum at X = 0": lambda T: bt.dj_residue_sum(0.0, T),
    "dj_asymptotic": lambda T: bt.dj_asymptotic(1.0, T),
    "sj_direct": lambda T: bt.sj_direct(1.0, T),
    "sj_direct at X = 0": lambda T: bt.sj_direct(0.0, T),
    "sj_alpha_expansion": lambda T: bt.sj_alpha_expansion(1.0, T),
    "stationary_phase_sums": lambda T: bt.stationary_phase_sums(0.1, T),
    "ResidueEvaluator": lambda T: bt.ResidueEvaluator(FAM, T, 1.0),
    "bound_scan": lambda T: bt.bound_scan("small_X", grid=[(0.5, T)]),
    "weight_spectral": lambda T: kuznetsov.weight_spectral(T),
    "weight_log_conductor": lambda T: kuznetsov.weight_log_conductor(T),
    "total_mass": lambda T: kuznetsov.total_mass(T, c_max=10),
    "averaged_eigenvalue": lambda T: kuznetsov.averaged_eigenvalue(2, T, c_max=10),
    "averaged_eigenvalue at m = 1": lambda T: kuznetsov.averaged_eigenvalue(1, T),
    "DensityEngine": lambda T: density.DensityEngine(T),
    "explicit_formula_average": lambda T: density.explicit_formula_average(T, _PHI),
    "convergence_scan": lambda T: density.convergence_scan([T], [0.8]),
}


@pytest.mark.parametrize("T", [5.5, 4, 1, -3])
@pytest.mark.parametrize("entry", sorted(_TAKES_T))
def test_every_entry_point_taking_t_rejects_a_bad_t(entry, T):
    # one rule (weights._check_odd_T): an odd integer >= 3; a non-integral
    # T is rejected, not truncated
    with pytest.raises(DomainError):
        _TAKES_T[entry](T)


def test_t_of_integral_value_is_accepted_as_an_int():
    for T in (5, 5.0, np.int64(5)):
        sw = make_spectral_weight(FAM, T)
        assert sw.T == 5 and type(sw.T) is int
        assert kuznetsov.weight_spectral(T).description == "h_T, T=5"
        assert bt.dj_residue_sum(1.0, T).value == bt.dj_residue_sum(1.0, 5).value
