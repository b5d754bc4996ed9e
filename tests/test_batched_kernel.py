"""The batched density kernel: accuracy against independent oracles, and
batch independence.

Miller rows (`besseltransform.j_rows`) are checked against
scipy.special.jv, and `ResidueEvaluator.values` against `_residue_value`,
which sums the residue series in another order, and bit for bit against
its former row layout (`j_rows`, then a dot per row); its memory stays near
one Miller block. The scalar callers
(`j_rows([x], n)[0]` in the S_J and residue sums, and
`ResidueEvaluator.value`) are one-element calls of the batch functions (each
call costs milliseconds; pass many points to the batch), so the bit-for-bit
tests here check that a row's bits do not depend on the batch it is in: the
residue sum cancels heavily at large X, and a row that moved with its batch
would move the density splits. The batched Kloosterman sums agree with
the scalar ones bit for bit; the engine memoises Avg(lambda_m) and builds each report's error
budget from the m it used, and its batched fill and the convergence scan
give the bits of one-m fills and separate reports.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

from maassdensity import arithmetic, besseltransform, kuznetsov
from maassdensity.arithmetic import kloosterman_sums, primes_up_to
from maassdensity.besseltransform import (
    _BLOCK_BYTES,
    _C1,
    _C2_TIMES_SIGN,
    _SLAB,
    ResidueEvaluator,
    _first_family_terms,
    _k_max,
    _miller_start,
    _residue_value,
    j_rows,
)
from maassdensity.density import (
    DensityEngine,
    convergence_scan,
    explicit_formula_average,
)
from maassdensity.errors import DomainError
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
        assert np.array_equal(_bits(row[: n + 1]), _bits(j_rows([x], n)[0]))
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
    monkeypatch.setattr(besseltransform, "_BLOCK_BYTES", 40_000)
    xs = np.array([200.0, 0.3, 35.0, 90.0, 1.5, 120.0, 7.0, 0.02])
    nmax = np.array([800, 3, 120, 60, 500, 400, 9, 2])
    out = j_rows(xs, nmax)
    for row, x, n in zip(out, xs, nmax):
        assert np.array_equal(_bits(row[: n + 1]), _bits(j_rows([x], n)[0]))
        assert not np.any(row[n + 1 :])


def test_j_rows_edge_arguments_match_one_row_calls():
    xs = np.array([-3.5, 1e-12, -1e-11, 0.0, 40.0])
    out = j_rows(xs, 9)
    for row, x in zip(out, xs):
        assert np.array_equal(_bits(row), _bits(j_rows([x], 9)[0]))
    assert j_rows(np.zeros(0), 5).shape == (0, 1)


@pytest.mark.parametrize(
    "xs,nmax",
    [([math.inf], 5), ([1.0, -math.inf], 5), ([math.nan], 5), ([1.0], -1),
     ([2.0, 3.0], [4, -2])],
)
def test_j_rows_rejects_bad_input(xs, nmax):
    with pytest.raises(DomainError):
        j_rows(xs, nmax)


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
@example([1.0, 2.2e-309])
@example([1e-12, 230.0, -0.0, 5e-324, 0.0])
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
    # the first Miller block, of the widest row, holds the fewest rows
    start = _miller_start(230.0, 2 * _k_max(230.0) + 1)
    first_chunk = _BLOCK_BYTES // (8 * (start + 2 + _SLAB))
    assert np.count_nonzero(xs > 0.0) > 2 * first_chunk
    whole = ev.values(xs)
    parts = np.concatenate([ev.values(xs[lo : lo + 700]) for lo in range(0, 5000, 700)])
    assert np.array_equal(_bits(whole), _bits(parts))
    assert not np.any(whole[xs <= 0.0])


def _values_by_rows(ev, xs):
    """`values` as it summed before it read its Miller blocks in place: one
    j_rows call, then the w2 terms and the dot of each row."""
    out = np.zeros(xs.size, dtype=complex)
    live = np.nonzero(xs > 0.0)[0]
    k_loc = np.array([_k_max(x) for x in xs[live].tolist()], dtype=np.int64)
    n_loc = 2 * k_loc + 1
    jv = j_rows(xs[live], n_loc)
    second = np.zeros(live.size)
    for i in range(ev._w2.size):
        n = 2 * (i + 1) * ev.T
        rows = n <= n_loc
        if not rows.any():
            break
        np.add(second, ev._w2[i] * jv[:, n], out=second, where=rows)
    c2 = _C2_TIMES_SIGN * (ev.T * ev.T)
    for j, (k, row) in enumerate(zip(k_loc.tolist(), jv)):
        dot = np.dot(ev._signed_w1[: k + 1], row[1 : 2 * k + 2 : 2])
        out[live[j]] = _C1 * (2.0 * ev.T * float(dot)) + c2 * second[j]
    return out


@pytest.mark.parametrize("block_bytes", [None, 100_000])
def test_residue_values_bit_identical_to_row_sums(monkeypatch, block_bytes):
    # 100 kB blocks hold 9 rows near X = 230: the set spans about 35 of them
    ev = _evaluator()
    xs = np.random.default_rng(19).uniform(-5.0, 230.0, 300)
    xs[:9] = (0.0, -0.0, -3.0, 1e-12, 2.2e-309, 5e-11, 1e-10, 230.0, 229.99)
    want = _values_by_rows(ev, xs)
    if block_bytes is not None:
        monkeypatch.setattr(besseltransform, "_BLOCK_BYTES", block_bytes)
    assert np.array_equal(_bits(ev.values(xs)), _bits(want))


@pytest.mark.parametrize("rows", [2, 7, 782])
def test_strided_dot_sums_in_one_order(rows):
    # ResidueEvaluator._chunk dots the weights with a Miller block's column
    # (stride 2 rows), where the row layout dotted a stride-2 row slice; the
    # bits agree only while BLAS sums every stride but 1 in one order
    rng = np.random.default_rng(rows)
    for _ in range(100):
        k = int(rng.integers(1, 800))
        w = rng.standard_normal(k + 1) * np.exp(rng.uniform(-20.0, 20.0, k + 1))
        row = rng.standard_normal(2 * k + 2) * np.exp(rng.uniform(-20.0, 20.0, 2 * k + 2))
        block = rng.standard_normal((2 * k + 2, rows))
        j = int(rng.integers(rows))
        block[:, j] = row
        got = np.dot(w, block[1 : 2 * k + 2 : 2, j])
        assert _bits(got) == _bits(np.dot(w, row[1 : 2 * k + 2 : 2]))


def test_residue_values_memory_stays_near_block_size():
    # the T = 11 density fill: primes and prime squares below 400, c <= 150,
    # S(m, 1; c) != 0 (12,813 X); the Miller block is values' only buffer
    ps = primes_up_to(399).tolist()
    ms = ps + [p * p for p in ps if p * p < 400]
    s = kloosterman_sums(ms, 1, 150)
    xs = np.concatenate(
        [4.0 * math.pi * math.sqrt(m) / (np.nonzero(s_m)[0] + 1) for m, s_m in zip(ms, s)]
    )
    assert xs.size == 12_813
    ev = ResidueEvaluator(default_family(), 11, 1.0)
    tracemalloc.start()
    try:
        ev.values(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _BLOCK_BYTES + 2 * 2 ** 20


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
@given(
    st.lists(st.integers(min_value=-400, max_value=400), min_size=1, max_size=12),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=150),
)
def test_kloosterman_sums_match_scalar(ms, n, c_max):
    # ms repeat residues mod c and pass c: each modulus evaluates the
    # distinct residues once, and every entry keeps the bits of its m alone
    ms = ms + [m + c_max for m in ms[:3]]
    s = kloosterman_sums(ms, n, c_max)
    assert s.shape == (len(ms), c_max)
    for m, row in zip(ms, s):
        assert np.array_equal(_bits(row), _bits(kloosterman_sums([m], n, c_max)[0]))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (5, 7), (-7, 4)])
def test_kloosterman_sums_single_m_matches_scalar(m, n):
    # one m skips the residue dedupe; the trace-formula calls reach c = 1000
    s = kloosterman_sums([m], n, 1000)
    want = [1.0] + [arithmetic._kloosterman_rows(np.array([m % c]), n % c, c)[0]
                    for c in range(2, 1001)]
    assert s.shape == (1, 1000)
    assert np.array_equal(_bits(s[0]), _bits(want))


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
    assert len(first) == 4


def test_error_budget_belongs_to_its_report():
    phi08, phi12 = make_test_function(0.8), make_test_function(1.2)
    warm = _engine("warm")
    explicit_formula_average(11, phi08, engine=warm)
    after_08 = explicit_formula_average(11, phi12, engine=warm)
    fresh = explicit_formula_average(11, phi12, engine=_engine("fresh"))
    assert fresh.error_budget > 0.0
    # the warm engine filled the squares 4, 9, 25 for eta = 0.8, before the
    # shared (family, T) evaluator grew; they keep their bits
    assert after_08.error_budget == fresh.error_budget


def test_fill_lambdas_matches_one_m_fills():
    # the one-m fills grow a fresh evaluator m by m; the batched fill then
    # reuses it at its full size
    engine = DensityEngine(11, c_max=60)
    ms = [2, 3, 4, 9, 25, 97, 101, 289, 307]
    kuznetsov._residue_evaluator.cache_clear()
    for m in ms:
        engine.averaged_lambda(m)
    one_m = dict(engine._lambdas)
    engine._lambdas.clear()
    engine.fill_lambdas(ms + [1, 3])
    ev = kuznetsov._residue_evaluator(engine.family, engine.T)
    assert ev.k_cap == _k_max(4.0 * math.pi * math.sqrt(max(ms)))
    assert sorted(engine._lambdas) == ms
    for m in ms:
        assert np.array_equal(_bits(engine._lambdas[m]), _bits(one_m[m]))


def test_convergence_scan_matches_separate_reports():
    reports, _ = convergence_scan([11], [0.8, 1.2])
    engine = DensityEngine(11)
    for rep in reports:
        alone = explicit_formula_average(11, make_test_function(rep.eta), engine=engine)
        for field in dataclasses.fields(alone):
            got, want = getattr(rep, field.name), getattr(alone, field.name)
            assert got == want, field.name
