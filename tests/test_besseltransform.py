"""Cross-method checks on D_J, S_J, and the stationary sums."""

import math
import tracemalloc

import numpy as np
import pytest

import maassdensity.besseltransform as bt
from maassdensity.errors import (
    CalibrationError,
    DomainError,
    RegimeError,
)
from maassdensity.weights import (
    default_family,
    make_spectral_weight,
    make_weight_family,
)


def test_quadrature_vs_residue_basic_points():
    for (X, T) in ((0.5, 5), (1.0, 5), (4.0, 11), (2.0, 21)):
        q = bt.dj_quadrature(X, T)
        r = bt.dj_residue_sum(X, T)
        gap = abs(q.value - r.value)
        assert gap < 1e-9 * (1.0 + abs(q.value)) + q.error_estimate


def test_dj_is_purely_imaginary():
    res = bt.dj_residue_sum(3.0, 7)
    assert res.value.real == pytest.approx(0.0, abs=1e-12 * (1 + abs(res.value)))
    with pytest.raises(DomainError):
        bt.DJResult(value=1.0 + 0.0j, method="fake", X=1.0, T=5, error_estimate=0.0)


def test_input_validation():
    with pytest.raises(DomainError):
        bt.dj_quadrature(-1.0, 5)
    with pytest.raises(DomainError):
        bt.dj_quadrature(1.0, 4)
    with pytest.raises(DomainError):
        bt.dj_quadrature(1.0, 5, tol=1e-15)


@pytest.mark.parametrize("X", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("fn", [bt.dj_quadrature, bt.dj_residue_sum, bt.dj_asymptotic,
                                bt.sj_direct, bt.sj_alpha_expansion])
def test_non_finite_x_raises_domain_error(fn, X):
    with pytest.raises(DomainError):
        fn(X, 5)


def test_sj_routes_agree():
    for (X, T) in ((0.5, 5), (1.0, 11), (3.0, 21)):
        a = bt.sj_direct(X, T)
        b = bt.sj_alpha_expansion(X, T)
        assert abs(a - b) < 1e-10 * (1.0 + abs(a))


def test_sj_vanishes_at_zero():
    assert bt.sj_direct(0.0, 5) == 0.0
    assert bt.sj_alpha_expansion(0.0, 5) == 0.0


@pytest.mark.parametrize("fn", [bt.dj_residue_sum, bt.sj_direct, bt.sj_alpha_expansion])
def test_zero_x_still_checks_t(fn):
    for T in (4, 2, -3):
        with pytest.raises(DomainError):
            fn(0.0, T)


def test_alpha_expansion_cost_guard():
    with pytest.raises(DomainError):
        bt.sj_alpha_expansion(1.0, 103)


def test_bridge_first_residue_family_equals_twice_sj():
    # sum_k (-1)^k (2k+1) J_{2k+1}(X) h_T((k+1/2)i) = 2 S_J(X)
    fam = default_family()
    for (X, T) in ((0.5, 5), (2.0, 11), (3.0, 21)):
        sw = make_spectral_weight(fam, T)
        acc = 0.0
        for k in range(0, 8 * T):
            term = (
                (-1.0) ** k
                * (2 * k + 1)
                * bt.j_rows([X], 2 * k + 1)[0, 2 * k + 1]
                * sw.h_T_halfint_imag(k)
            )
            acc += term
        want = 2.0 * bt.sj_direct(X, T)
        assert abs(acc - want) < 1e-10 * (1.0 + abs(want))


def test_residue_evaluator_matches_single_shot():
    ev = bt.ResidueEvaluator(default_family(), 11, 20.0)
    for X in (0.3, 4.0, 19.0, 25.0):
        one = bt.dj_residue_sum(X, 11)
        assert abs(ev.value(X) - one.value) < 1e-12 * (1.0 + abs(one.value))
    # past X_max the evaluator grows, and gives a fresh evaluator's bits
    fresh = bt.ResidueEvaluator(default_family(), 11, 25.0)
    assert ev.value(25.0) == fresh.value(25.0)


@pytest.mark.parametrize("M", [8, 12])
def test_residue_weights_do_not_depend_on_evaluator_size(M):
    # every weight is computed on rows padded to a multiple of 4, so it keeps
    # its bits whatever the evaluator's size, grown or built at that size
    family = make_weight_family(M, 0.125)
    evs = [bt.ResidueEvaluator(family, 11, x) for x in (10.0, 100.0, 250.0, 1000.0)]
    grown = bt.ResidueEvaluator(family, 11, 10.0)
    for X in (50.0, 250.0, 1000.0):
        grown.values([X])
    assert grown.k_cap == evs[-1].k_cap
    for ev in evs + [grown]:
        for name in ("_signed_w1", "_w2"):
            mine, ref = getattr(ev, name), getattr(evs[-1], name)
            assert np.array_equal(mine.view(np.uint64), ref[: mine.size].view(np.uint64))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_residue_evaluator_rejects_non_finite_x(bad):
    ev = bt.ResidueEvaluator(default_family(), 11, 20.0)
    with pytest.raises(DomainError):
        ev.values([1.0, bad])
    with pytest.raises(DomainError):
        ev.value(bad)


def test_calibration_gate_catches_wrong_constant(monkeypatch):
    monkeypatch.setattr(bt, "_C1", -1.02j)
    bt._ensure_calibrated.cache_clear()
    with pytest.raises(CalibrationError):
        bt.dj_residue_sum(1.0, 5)


def test_souped_up_scan_is_calibrated(monkeypatch):
    # the M = 12 scan takes its values from the residue route, so a wrong
    # residue constant stops it as it stops dj_residue_sum
    monkeypatch.setattr(bt, "_C1", -1.02j)
    bt._ensure_calibrated.cache_clear()
    with pytest.raises(CalibrationError):
        bt.bound_scan("souped_up", grid=[(0.5, 11)])


def test_residue_evaluator_for_non_default_family():
    # calibration must compare the family's own residue against quadrature
    # of that same family's h_T
    M12 = make_weight_family(12, 0.125)
    ev = bt.ResidueEvaluator(M12, 11, 5.0)
    for X in (0.5, 2.0, 5.0):
        want = bt._residue_value(M12, X, 11)[0]
        assert abs(ev.value(X) - want) < 1e-12 * (1.0 + abs(want))


def test_asymptotic_regime_guard():
    with pytest.raises(RegimeError):
        bt.dj_asymptotic(1.0, 21)


def test_asymptotic_tracks_quadrature_at_large_argument():
    X, T = 30.0, 5
    a = bt.dj_asymptotic(X, T)
    q = bt.dj_quadrature(X, T)
    assert abs(a.value - q.value) < a.error_estimate + q.error_estimate


@pytest.mark.parametrize("X,T,bound_mb", [(39.5, 41, 8.0), (3.988, 41, 14.5)])
def test_dj_quadrature_memory_is_bounded(X, T, bound_mb):
    # traced peaks: 4.8 and 12.9 MB (26.5 and 16.7 MB while the X > 36
    # grid and h_T held every node's temporaries at once and the x <= 36
    # series kept its log Gamma and log cosh arrays through its loop)
    default_family()
    tracemalloc.start()
    try:
        bt.dj_quadrature(X, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


def test_stationary_sums_real_imag_structure_and_magnitude():
    T = 21
    Y = T / (2.0 * math.pi)
    a, b = bt.stationary_phase_sums(Y, T)
    assert a >= 0.0 and b >= 0.0
    # sizes conform to the Y^4/T^7 and Y^5/T^9 envelopes up to a constant;
    # the implied constant for B is of order 10^3 empirically
    assert a < 100.0 * Y ** 4 / T ** 7
    assert b < 5000.0 * Y ** 5 / T ** 9
    with pytest.raises(DomainError):
        bt.stationary_phase_sums(T, T)  # Y above T/(2 pi)


def test_bound_scan_unknown_name():
    with pytest.raises(DomainError):
        bt.bound_scan("no_such_scan")


def test_bound_scan_report_schema():
    rep = bt.bound_scan("small_X", grid=[(0.5, 5), (1.0, 5), (6.0, 5)])
    # the X = 6 > T = 5 point violates the regime and must be flagged out
    assert len(rep.flagged) == 1
    assert len(rep.values) == 2
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "which,X,T,value,bound,ratio"
    assert len(lines) == 3
    assert all(line.startswith("small_X,") for line in lines[1:])
    assert rep.sup_ratio == max(rep.ratios)


def test_bound_scan_souped_up_uses_the_m12_residue():
    grid = [(0.25, 11), (1.0, 11), (0.5, 21)]
    rep = bt.bound_scan("souped_up", grid=grid)
    M12 = make_weight_family(12, 0.125)
    assert rep.points == grid and not rep.flagged
    for (X, T), v, b in zip(rep.points, rep.values, rep.bounds):
        assert v == abs(bt._residue_value(M12, X, T)[0])
        assert b == X ** 12 * T ** (1.5 - 24.0) + T ** -1.5
