"""The batched density kernel against its scalar references.

Batched Miller rows and `ResidueEvaluator.values` must match the scalar
recurrence bit for bit (the residue sum cancels heavily at large X, so any
reordering shows in the density splits); the Kloosterman tables agree with
the kernel to rounding; the engine memoises Avg(lambda_m) and builds each
report's error budget from the m it used.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maassdensity import _fastpath as fastpath
from maassdensity import arithmetic
from maassdensity._fastpath import _j_array_full, j_array, j_rows
from maassdensity.arithmetic import kloosterman_sum, kloosterman_table
from maassdensity.besseltransform import ResidueEvaluator
from maassdensity.density import DensityEngine, explicit_formula_average
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
        assert np.array_equal(_bits(row[: n + 1]), _bits(_j_array_full(x, n)))
        assert not np.any(row[n + 1 :])


def test_j_rows_bit_identical_across_blocks(monkeypatch):
    # blocks of a few rows each: later blocks start lower than the widest row
    monkeypatch.setattr(fastpath, "_BLOCK_BYTES", 40_000)
    xs = np.array([200.0, 0.3, 35.0, 90.0, 1.5, 120.0, 7.0, 0.02])
    nmax = np.array([800, 3, 120, 60, 500, 400, 9, 2])
    out = j_rows(xs, nmax)
    for row, x, n in zip(out, xs, nmax):
        assert np.array_equal(_bits(row[: n + 1]), _bits(_j_array_full(x, n)))
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
