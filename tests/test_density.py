"""One-level-density assembly and convergence plumbing.

Heavier convergence checks live in the acceptance suite; here the focus is
the exact assembly identity, cutoffs, and guard rails, all at small T.
"""

import math
from types import SimpleNamespace

import pytest

from maassdensity import kuznetsov
from maassdensity.density import (
    THEOREM_THRESHOLD,
    DensityEngine,
    convergence_scan,
    explicit_formula_average,
    extended_threshold,
    reports_to_csv,
    splits_to_csv,
)
from maassdensity.errors import DomainError
from maassdensity.rmt import make_test_function
from maassdensity.weights import default_family, make_weight_family


@pytest.fixture(scope="module")
def engine11():
    return DensityEngine(11, c_max=120)


def test_engine_validation():
    with pytest.raises(DomainError):
        DensityEngine(10)
    with pytest.raises(DomainError):
        DensityEngine(3)


def test_engine_mass_and_conductor_scales(engine11):
    # mass ~ T^2; the weighted conductor average grows like log T^2
    assert 0.02 < engine11.mass / 11 ** 2 < 0.5
    assert 2.0 * math.log(11) * 0.5 < engine11.avg_log_conductor < 2.0 * math.log(11) * 3.0


def test_averaged_lambda_split_consistency(engine11):
    avg, small_c, large_c, _ = engine11.averaged_lambda(2)
    grid = kuznetsov._smooth_grid(engine11.weight)
    eis = grid.eisenstein_contribution(2, 1) / engine11.mass
    assert avg == pytest.approx(eis + small_c + large_c, abs=1e-14)
    assert engine11.averaged_lambda(1) == (1.0, 0.0, 0.0, 0.0)


def test_averaged_lambda_matches_averaged_eigenvalue(engine11):
    # one kernel behind both: they differ only in how the mass-scaled
    # Eisenstein and Kloosterman parts are rounded and added
    for m in (2, 3, 4, 9, 97, 121):
        avg, small_c, large_c, _ = engine11.averaged_lambda(m)
        want = kuznetsov.averaged_eigenvalue(m, 11, c_max=engine11.c_max)
        scale = abs(avg) + abs(small_c) + abs(large_c)
        assert abs(avg - want) <= 8.0 * 2.0 ** -52 * scale


@pytest.mark.parametrize("m", [0, -3])
def test_engine_rejects_m_below_one(m):
    engine = DensityEngine(5, c_max=20)
    with pytest.raises(DomainError):
        engine.averaged_lambda(m)
    with pytest.raises(DomainError):
        engine.fill_lambdas([2, m])
    assert engine._lambdas == {}


def test_report_assembly_identity(engine11):
    rep = explicit_formula_average(11, make_test_function(0.6), engine=engine11)
    assert rep.assembly_residual() == 0.0
    assert rep.deviation == abs(rep.total - rep.rmt_o_prediction)
    # the three split partials recompose the large/small prime structure
    assert math.isfinite(rep.split_large_p_small_c)
    assert math.isfinite(rep.split_large_p_large_c)
    assert math.isfinite(rep.split_small_p)


def test_prime_cutoffs_follow_support(engine11):
    # eta = 0.3 at T = 11 means p <= 11^0.6 ~ 4.2: only p in {2, 3}
    rep = explicit_formula_average(11, make_test_function(0.3), engine=engine11)
    # with so few primes the prime term is tiny but nonzero
    assert rep.prime_term != 0.0
    assert abs(rep.prime_term) < 1.0
    # prime-square sum cuts at 11^0.3 ~ 2.05: at most p = 2
    assert abs(rep.prime_sq_term) < abs(rep.prime_term) + 0.1


def test_prime_sq_much_smaller_than_prime(engine11):
    rep = explicit_formula_average(11, make_test_function(0.8), engine=engine11)
    assert abs(rep.prime_sq_term) < 0.5 * abs(rep.prime_term)


def test_cost_guard_on_large_support(monkeypatch):
    # the guard depends on T and eta only: it must fire before any engine
    # is built (DensityEngine(81) takes 40-80 s)
    def no_engine(*args, **kwargs):
        raise AssertionError("DensityEngine built before the cost guard")

    monkeypatch.setattr(DensityEngine, "__init__", no_engine)
    phi = make_test_function(4.0)
    with pytest.raises(DomainError):
        explicit_formula_average(81, phi)
    with pytest.raises(DomainError):
        explicit_formula_average(81, phi, engine=SimpleNamespace(T=81))


def test_engine_must_match_t_and_family():
    # a passed engine is not silently preferred over the arguments
    phi = make_test_function(0.5)
    engine = SimpleNamespace(T=11, family=default_family())
    with pytest.raises(DomainError):
        explicit_formula_average(7, phi, engine=engine)
    with pytest.raises(DomainError):
        explicit_formula_average(11, phi, engine=engine, family=make_weight_family(12))


def test_engine_must_match_c_max(engine11):
    # the engine's c_max is not silently preferred over a given one
    phi = make_test_function(0.6)
    with pytest.raises(DomainError):
        explicit_formula_average(11, phi, c_max=300, engine=engine11)
    given = explicit_formula_average(11, phi, c_max=engine11.c_max, engine=engine11)
    assert given == explicit_formula_average(11, phi, engine=engine11)


def test_convergence_scan_cost_guard_before_any_engine(monkeypatch):
    # every eta's prime cap is checked before the T's engine is built:
    # eta = 1.9 at T = 81 means primes up to 81^3.8 ~ 1.8e7
    def no_engine(*args, **kwargs):
        raise AssertionError("DensityEngine built before the cost guard")

    monkeypatch.setattr(DensityEngine, "__init__", no_engine)
    with pytest.raises(DomainError):
        convergence_scan([81], [0.8, 1.9])


def test_thresholds():
    assert THEOREM_THRESHOLD == 1.25
    assert THEOREM_THRESHOLD == extended_threshold(1)
    assert extended_threshold(8) == pytest.approx(2.0 - 3.0 / 18.0)
    assert extended_threshold(100) > extended_threshold(8)


def test_convergence_scan_flags_and_validation(engine11):
    with pytest.raises(DomainError):
        convergence_scan([10], [0.5])
    with pytest.raises(DomainError):
        convergence_scan([11], [2.0])
    reports, flags = convergence_scan([11], [0.5, 1.3], c_max=120)
    assert len(reports) == 2
    assert len(flags) == 1 and flags[0][1] == 1.3


def test_convergence_scan_flag_names_the_family_order():
    family = make_weight_family(12)
    _, flags = convergence_scan([], [1.3], family=family)
    [(_, eta, message)] = flags
    assert eta == 1.3
    assert f"< {extended_threshold(12):.4f} requires higher order" in message
    _, [(_, _, default_message)] = convergence_scan([], [1.3])
    assert f"< {extended_threshold(8):.4f} requires higher order" in default_message


def test_csv_schemas(engine11):
    rep = explicit_formula_average(11, make_test_function(0.6), engine=engine11)
    lines = reports_to_csv([rep]).strip().splitlines()
    assert lines[0] == "T,eta,const,conductor,prime,prime_sq,total,prediction,deviation"
    assert len(lines) == 2
    split_lines = splits_to_csv([rep]).strip().splitlines()
    assert split_lines[0] == "T,eta,large_p_small_c,large_p_large_c,small_p"
