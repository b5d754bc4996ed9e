"""The batched density kernel: accuracy against independent oracles, and
batch independence.

Miller rows (`j_rows`) are checked against scipy.special.jv, and
`ResidueEvaluator.values` against `_residue_value`, which sums the residue
series in another order. The scalar entry points `j_array` and
`ResidueEvaluator.value` are one-element calls of the batch functions (each
call costs milliseconds; pass many points to the batch), so the bit-for-bit
tests here check that a row's bits do not depend on the batch it is in: the
residue sum cancels heavily at large X, and a row that moved with its batch
would move the density splits. The Kloosterman tables agree with the
kernel; the engine memoises Avg(lambda_m) and builds each report's error
budget from the m it used, and its batched fill and the convergence scan
give the bits of one-m fills and separate reports.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from maassdensity import _fastpath as fastpath
from maassdensity import arithmetic
from maassdensity._fastpath import _BLOCK_BYTES, j_array, j_rows
from maassdensity.arithmetic import kloosterman_sum, kloosterman_table
from maassdensity.besseltransform import (
    ResidueEvaluator,
    _first_family_terms,
    _residue_value,
)
from maassdensity.density import (
    DensityEngine,
    convergence_scan,
    explicit_formula_average,
)
from maassdensity.rmt import make_test_function
from maassdensity.weights import default_family

_EVALUATOR = {}
_ENGINES = {}


def _evaluator() -> ResidueEvaluator:
    if "ev" not in _EVALUATOR:
        _EVALUATOR["ev"] = ResidueEvaluator(default_family(), 11, 230.0)
    return _EVALUATOR["ev"]


def _engine(name: str) -> DensityEngine:
    if name not in _ENGINES:
        _ENGINES[name] = DensityEngine(11, c_max=60)
    return _ENGINES[name]


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1e-3, max_value=250.0, exclude_min=True),
            st.integers(min_value=0, max_value=700),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_j_rows_bit_identical_to_scalar_recurrence(rows):
    xs = np.array([x for x, _ in rows])
    nmax = np.array([n for _, n in rows])
    out = j_rows(xs, nmax)
    assert out.shape == (len(rows), nmax.max() + 1)
    for row, (x, n) in zip(out, rows):
        assert np.array_equal(_bits(row[: n + 1]), _bits(j_array(x, n)))
        assert not np.any(row[n + 1 :])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-250.0, 250.0), st.integers(0, 700)),
        min_size=1,
        max_size=6,
    )
)
def test_j_rows_against_scipy(rows):
    xs = np.array([x for x, _ in rows])
    out = j_rows(xs, np.array([n for _, n in rows]))
    for row, (x, n) in zip(out, rows):
        want = jv(np.arange(n + 1), x)
        assert np.max(np.abs(row[: n + 1] - want)) <= 1e-13


def test_j_rows_bit_identical_across_blocks(monkeypatch):
    # blocks of a few rows each: later blocks start lower than the widest row
    monkeypatch.setattr(fastpath, "_BLOCK_BYTES", 40_000)
    xs = np.array([200.0, 0.3, 35.0, 90.0, 1.5, 120.0, 7.0, 0.02])
    nmax = np.array([800, 3, 120, 60, 500, 400, 9, 2])
    out = j_rows(xs, nmax)
    for row, x, n in zip(out, xs, nmax):
        assert np.array_equal(_bits(row[: n + 1]), _bits(j_array(x, n)))
        assert not np.any(row[n + 1 :])


def test_j_rows_matches_j_array_edge_arguments():
    xs = np.array([-3.5, 1e-12, -1e-11, 0.0, 40.0])
    out = j_rows(xs, 9)
    for row, x in zip(out, xs):
        assert np.array_equal(_bits(row), _bits(j_array(x, 9)))
    assert j_rows(np.zeros(0), 5).shape == (0, 1)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(min_value=-1.0, max_value=230.0),
            st.sampled_from([0.0, -0.0, 230.0, 1e-12]),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_residue_values_bit_identical_to_value(xs):
    ev = _evaluator()
    got = ev.values(np.array(xs))
    want = np.array([ev.value(x) for x in xs], dtype=complex)
    assert np.array_equal(_bits(got), _bits(want))


def test_residue_values_density_row():
    # the c-sweep of one m, as the density engine evaluates it
    ev = _evaluator()
    root = 4.0 * math.pi * math.sqrt(317.0)
    xs = root / np.arange(1, 151)
    want = np.array([ev.value(x) for x in xs], dtype=complex)
    assert np.array_equal(_bits(ev.values(xs)), _bits(want))


def test_residue_values_chunked_like_its_slices():
    # enough rows near X_max for several chunks of Miller rows
    ev = _evaluator()
    xs = np.random.default_rng(7).uniform(-5.0, 230.0, 5000)
    xs[:3] = (0.0, 230.0, -0.0)
    # a chunk holds at least as many rows as the first, widest one
    first_chunk = _BLOCK_BYTES // (8 * (2 * ev._k_loc(230.0) + 2))
    assert np.count_nonzero(xs > 0.0) > 2 * first_chunk
    whole = ev.values(xs)
    parts = np.concatenate([ev.values(xs[lo : lo + 700]) for lo in range(0, 5000, 700)])
    assert np.array_equal(_bits(whole), _bits(parts))
    assert not np.any(whole[xs <= 0.0])


def test_residue_values_against_residue_value():
    # _residue_value sums the first family with np.sum and takes each
    # second-family J from its own Miller run; the two agree to a few
    # roundings of the first family's terms (measured: 6.4 at most)
    ev = _evaluator()
    root = 4.0 * math.pi * math.sqrt(317.0)
    xs = np.concatenate([root / np.arange(1, 151), np.linspace(0.01, 230.0, 60)])
    for x, got in zip(xs, ev.values(xs)):
        want = _residue_value(ev.family, x, ev.T)[0]
        terms, _ = _first_family_terms(ev.family, x, ev.T)
        rho = 2.0 ** -52 * 2.0 * ev.T * np.sum(np.abs(terms))
        assert abs(got - want) <= 64.0 * rho


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=150))
def test_kloosterman_table_matches_kernel(c):
    table = kloosterman_table(c)
    assert table.shape == (c,)
    assert not table.flags.writeable
    for a in range(c):
        assert table[a] == kloosterman_sum(a, 1, c)  # one kernel


def test_inverse_table_cache_covers_default_c_max():
    for c in range(1, 1001):
        arithmetic._inv_table_cached(c)
    before = arithmetic._inv_table_cached.cache_info()
    for c in range(1, 1001):
        arithmetic._inv_table_cached(c)
    after = arithmetic._inv_table_cached.cache_info()
    assert after.hits - before.hits == 1000
    assert after.misses == before.misses


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=120))
def test_averaged_lambda_memo_repeats(m):
    engine = _engine("memo")
    first = engine.averaged_lambda(m)
    assert engine.averaged_lambda(m) == first
    assert len(first) == 3


def test_error_budget_belongs_to_its_report():
    phi08, phi12 = make_test_function(0.8), make_test_function(1.2)
    warm = _engine("warm")
    explicit_formula_average(11, phi08, engine=warm)
    after_08 = explicit_formula_average(11, phi12, engine=warm)
    fresh = explicit_formula_average(11, phi12, engine=_engine("fresh"))
    assert fresh.error_budget > 0.0
    # the squares 4, 9, 25 come from an evaluator of another size on the warm
    # engine, which moves their tails at the rounding level only
    assert after_08.error_budget == pytest.approx(fresh.error_budget, rel=1e-12)


def test_fill_lambdas_matches_one_m_fills():
    engine = DensityEngine(11, c_max=60)
    ms = [2, 3, 4, 9, 25, 97, 101, 289, 307]
    ev = engine._evaluator(4.0 * math.pi * math.sqrt(max(ms)))
    for m in ms:
        engine.averaged_lambda(m)
    one_m = dict(engine._lambdas)
    engine._lambdas.clear()
    engine.fill_lambdas(ms + [1, 3])
    assert engine._residue is ev  # the same evaluator for both fills
    assert sorted(engine._lambdas) == ms
    for m in ms:
        assert np.array_equal(_bits(engine._lambdas[m]), _bits(one_m[m]))


def test_convergence_scan_matches_separate_reports():
    reports, _ = convergence_scan([11], [0.8, 1.2], make_test_function)
    engine = DensityEngine(11)
    for rep in reports:
        alone = explicit_formula_average(11, make_test_function(rep.eta), engine=engine)
        scale = (abs(alone.const_term) + abs(alone.conductor_term)
                 + abs(alone.prime_term) + abs(alone.prime_sq_term))
        for field in dataclasses.fields(alone):
            got, want = getattr(rep, field.name), getattr(alone, field.name)
            assert abs(got - want) <= 1e-15 * scale, field.name
