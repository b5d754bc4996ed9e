"""Trace-formula machinery: admissible weights, geometric side, spectral
side, and the identity checker."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0

from maassdensity import kuznetsov
from maassdensity.errors import DomainError, MissingCoefficientError
from maassdensity.kuznetsov import (
    averaged_eigenvalue,
    geometric_side,
    spectral_side,
    total_mass,
    verify_trace_identity,
    weight_combination,
    weight_gaussian,
    weight_log_conductor,
    weight_spectral,
)
from maassdensity.maassdata import _KIM_SARNAK, parse_records_text

SAMPLE = parse_records_text(
    """# normalization: hecke-unit
t,parity,norm_sq,lambda_2,lambda_3
9.53,even,8.2,0.65,-0.32
12.17,odd,10.1,-0.93,0.41
13.78,odd,9.4,0.12,0.77
""",
    "csv",
)


def test_weight_constructors_validate():
    with pytest.raises(DomainError):
        weight_spectral(6)
    # a non-finite center or width: geometric_side on such a weight raised a
    # bare ValueError (nan center) or did not return (infinite width)
    for center, width in ((3.0, -1.0), (math.nan, 1.0), (math.inf, 1.0),
                          (3.0, math.inf), (3.0, math.nan)):
        with pytest.raises(DomainError):
            weight_gaussian(center, width)
    with pytest.raises(DomainError):
        weight_combination([])


def test_weights_are_even_and_positive_where_expected():
    grid = np.array([0.5, 2.0, 9.0])
    for w in (weight_spectral(5), weight_gaussian(4.0, 1.5), weight_log_conductor(5)):
        assert np.allclose(w.eval(grid), w.eval(-grid))
        assert np.all(w.eval(grid) >= 0.0)


EVEN_WEIGHTS = (
    weight_spectral(5),
    weight_log_conductor(11),
    weight_gaussian(4.0, 1.5),
    weight_combination([(0.5, weight_spectral(5)), (-2.0, weight_gaussian(3.0, 1.0))]),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 400.0), min_size=1, max_size=8))
def test_weights_are_even_bit_for_bit(rs):
    # eval reads only |r|, so no weight of the catalogue needs a runtime
    # evenness check: r and -r give the same bits
    r = np.array(rs)
    for w in EVEN_WEIGHTS:
        assert np.array_equal(w.eval(r).view(np.int64), w.eval(-r).view(np.int64))


def test_weight_combination_linearity_on_geometric_side():
    w1 = weight_gaussian(6.0, 1.0)
    w2 = weight_gaussian(11.0, 2.0)
    combo = weight_combination([(2.0, w1), (-0.5, w2)])
    m, n, c_max = 2, 3, 40
    a = geometric_side(m, n, w1, c_max=c_max).total()
    b = geometric_side(m, n, w2, c_max=c_max).total()
    c = geometric_side(m, n, combo, c_max=c_max).total()
    assert abs(c - (2.0 * a - 0.5 * b)) < 1e-9 * (1.0 + abs(c))


def test_geometric_side_breakdown_structure():
    br = geometric_side(1, 1, weight_spectral(5), c_max=80)
    assert br.delta_term > 0.0
    assert br.total() == br.delta_term + br.eisenstein_term + br.kloosterman_contribution
    assert br.residual_imag() < 1e-8 * (1.0 + abs(br.total()))
    assert br.error_budget >= 0.0
    # off-diagonal drops the delta term
    off = geometric_side(2, 1, weight_spectral(5), c_max=80)
    assert off.delta_term == 0.0


def test_geometric_side_validation():
    with pytest.raises(DomainError):
        geometric_side(0, 1, weight_spectral(5))
    with pytest.raises(DomainError):
        geometric_side(1, 1, weight_spectral(5), c_max=0)


def test_residue_and_generic_kloosterman_routes_agree():
    # the h_T fast path must match the direct oscillatory-grid route,
    # exercised through a combo wrapper that hides the h_T kind
    T, m, n, c_max = 5, 2, 2, 60
    fast = geometric_side(m, n, weight_spectral(T), c_max=c_max)
    slow = geometric_side(
        m, n, weight_combination([(1.0, weight_spectral(T))]), c_max=c_max
    )
    tol = 1e-7 * (1.0 + abs(fast.total())) + fast.error_budget + slow.error_budget
    assert abs(fast.total() - slow.total()) < tol


def test_total_mass_scales_like_t_squared():
    a = total_mass(11, c_max=150)
    b = total_mass(21, c_max=150)
    assert 0.25 < (b / 21 ** 2) / (a / 11 ** 2) < 4.0


def test_averaged_eigenvalue_basics():
    assert averaged_eigenvalue(1, 11) == 1.0
    avg = averaged_eigenvalue(2, 11, c_max=150)
    # the average must be small: individual lambda_2 are O(1) with signs
    assert abs(avg) < 1.0
    with pytest.raises(DomainError):
        averaged_eigenvalue(0, 11)


def test_spectral_side_requires_sorted_and_tempered_data():
    with pytest.raises(DomainError):
        spectral_side(1, 1, weight_gaussian(10.0, 2.0), [])
    unsorted_data = [SAMPLE[1], SAMPLE[0]]
    with pytest.raises(DomainError):
        spectral_side(1, 1, weight_gaussian(10.0, 2.0), unsorted_data)
    wild = parse_records_text(
        """# normalization: hecke-unit
t,parity,norm_sq,lambda_2
10.0,even,1.0,2.4
""",
        "csv",
    )
    with pytest.raises(DomainError):
        spectral_side(2, 1, weight_gaussian(10.0, 2.0), wild)


def test_spectral_side_missing_coefficient():
    with pytest.raises(MissingCoefficientError):
        spectral_side(5, 1, weight_gaussian(10.0, 2.0), SAMPLE)


def test_spectral_side_weighted_sum_oracle():
    w = weight_gaussian(11.0, 2.0)
    acc = sum(
        float(w.eval(np.array([r.t]))[0]) / r.norm_sq * r.lambdas[2] for r in SAMPLE
    )
    got, tail = spectral_side(2, 1, w, SAMPLE)
    assert got == pytest.approx(acc, rel=1e-12)
    assert tail >= 0.0


def test_spectral_tail_follows_weyls_law():
    # N(t) = t^2/12 + O(t log t) for SL_2(Z): density t/6, whatever the
    # number of records; a count fitted to three records up to t = 13.78
    # (a = 3/13.78^2 = 0.016 against 1/12) gave a smaller tail
    w = weight_gaussian(11.0, 2.0)
    _, tail = spectral_side(2, 3, w, SAMPLE)
    t_max = SAMPLE[-1].t
    grid = np.linspace(t_max, w.r_cut() + t_max + 1.0, 2000)
    lam_cap = 4.0 * 6.0 ** _KIM_SARNAK
    absh = np.abs(w.eval(grid))
    assert tail == lam_cap * float(np.trapezoid(absh * (grid / 6.0), grid))
    fitted = 2.0 * len(SAMPLE) / t_max ** 2 * grid
    assert tail >= lam_cap * float(np.trapezoid(absh * fitted, grid)) > 0.0


def test_verify_trace_identity_without_data_reports_flags():
    report = verify_trace_identity(1, 1, weight_gaussian(9.0, 1.0), [], c_max=40)
    assert report["flags"]
    assert report["budgets"]["spectral_tail"] == math.inf
    assert "gap" not in report


def test_verify_trace_identity_report_shape():
    # three synthetic forms cannot reproduce the geometric side; the report
    # path (rather than the numbers) is what this test pins down
    from maassdensity.errors import VerificationError

    try:
        report = verify_trace_identity(
            2, 1, weight_gaussian(11.0, 2.0), SAMPLE, c_max=40
        )
    except VerificationError as exc:
        report = exc.report
    assert set(report) >= {"m", "n", "geometric", "spectral", "budgets"}
    assert report["m"] == 2 and report["n"] == 1


@pytest.mark.parametrize(
    "weight",
    [weight_spectral(11), weight_log_conductor(11), weight_gaussian(14.7, 3.66)],
    ids=lambda w: w.kind,
)
def test_smooth_grid_matches_half_width_panels(weight, monkeypatch):
    # the band-limited smooth grid against one of half its panel width; the
    # delta term is the main term of the weight's (1, 1) mass. Each grid's
    # w * f terms are summed exactly rounded (a BLAS dot sums in an order
    # that follows the thread count), so the gap is the grids' alone.
    def delta(g):
        return (2.0 / math.pi ** 2) * math.fsum(
            g.w * (g.r * g.H * np.tanh(math.pi * g.r))
        )

    def eisenstein_11(g):  # m = n = 1: the cosine sum is 1
        return -(2.0 / math.pi) * math.fsum(g.eis_base)

    grid = kuznetsov._SmoothGrid(weight)
    monkeypatch.setattr(kuznetsov, "_SMOOTH_BAND", 2.0 * kuznetsov._SMOOTH_BAND)
    fine = kuznetsov._SmoothGrid(weight)
    assert fine.r.size >= 2 * grid.r.size - 16
    mass = delta(grid)
    assert abs(delta(grid) - delta(fine)) <= 1e-15 * mass
    assert abs(eisenstein_11(grid) - eisenstein_11(fine)) <= 1e-15 * mass


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Eisenstein divisor defect: _SmoothGrid.eisenstein_contribution sums "
        "cos(r log(md/(ne))) over divisor pairs, but the Kuznetsov coefficient "
        "tau_ir(m) = sum_{ab=m} (a/b)^(ir) needs cos(r log((m/d^2)/(n/e^2))); "
        "with tau the four totals are -1.6e-6, 2.5e-6, -7.8e-7 and -1.3e-6"
    ),
)
def test_gaussian_below_first_cusp_form_sees_no_spectrum():
    # no cusp form lies below t_1 ~ 9.5337, so for a Gaussian at 3 the
    # geometric side vanishes within its budget for every (m, n); today the
    # totals are 0.552, -1.351, 0.940 and 0.575 against budgets of 5.7e-3
    # to 9.8e-3
    H = weight_gaussian(3.0, 1.0)
    for m, n in [(2, 1), (3, 1), (4, 1), (2, 3)]:
        geo = geometric_side(m, n, H, c_max=1000)
        assert abs(geo.total()) <= geo.error_budget, (m, n)


# The first cusp form of level 1 (Booker, Strombergsson & Venkatesh 2006).
T1 = 9.5337


@settings(max_examples=10, deadline=None)
@given(st.floats(5.0, 30.0), st.floats(1.0, 5.0))
def test_gaussian_mass_is_nonnegative(center, width):
    # the (1, 1) spectral side sums H(t_j) / ||u_j||^2 >= 0 for H > 0 on
    # the real line; the (1, 1) Eisenstein term has tau_ir(1) = 1, so the
    # divisor defect above does not reach it
    geo = geometric_side(1, 1, weight_gaussian(center, width), c_max=300)
    assert geo.total() >= -geo.error_budget


@settings(max_examples=10, deadline=None)
@given(st.floats(0.5, 1.18), st.floats(0.0, 1.0, exclude_max=True))
def test_gaussian_below_first_cusp_form_has_no_mass(width, frac):
    # the first cusp form adds 2.935 H(t_1) to the (1, 1) total (measured:
    # the same factor at Gaussians (5.42, 0.625), (5.33, 0.7), (5.93, 0.6)).
    # Six widths below t_1 that is up to 4e-8, against budgets down to
    # 1e-12; eight widths keep it below 4e-14, so the total must vanish
    center = frac * (T1 - 8.0 * width)
    geo = geometric_side(1, 1, weight_gaussian(center, width), c_max=300)
    assert abs(geo.total()) <= geo.error_budget


# ----------------------------------------------------------------------------
# The Kloosterman series batch of _OscGrid.integrals
# ----------------------------------------------------------------------------


def _batch_scale(grid, xs):
    """u ||wrH||_1 I_0(x): the batch sums each series coefficient over the
    nodes before it sums the series over n, and rounds on this scale."""
    return 2.0 ** -52 * float(np.sum(np.abs(grid.wrH))) * i0(np.asarray(xs))


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


@settings(max_examples=12, deadline=None)
@given(
    center=st.floats(0.0, 30.0),
    width=st.floats(0.5, 5.0),
    xs=st.lists(st.floats(1e-3, 8.0), min_size=1, max_size=12),
)
def test_osc_integrals_match_per_x_route(center, width, xs):
    # measured: at most 6.4 u ||wrH||_1 I_0(x) over Gaussian and
    # log-conductor weights
    grid = kuznetsov._OscGrid(weight_gaussian(center, width), min(xs))
    got = grid.integrals(xs)
    want = np.array([grid.integral(x) for x in xs])
    assert np.all(np.abs(got - want) <= 64.0 * _batch_scale(grid, xs))


def test_osc_integrals_match_per_x_route_log_conductor():
    # the conductor average of DensityEngine(11): c <= 60 at m = n = 1
    grid = kuznetsov._osc_grid(weight_log_conductor(11), 4.0 * math.pi / 60)
    xs = 4.0 * math.pi / np.arange(2, 61)
    want = np.array([grid.integral(x) for x in xs])
    assert np.all(np.abs(grid.integrals(xs) - want) <= 64.0 * _batch_scale(grid, xs))


def test_osc_integrals_keep_per_x_bits_above_8():
    # x = 8 is batched; every larger x takes integral(x): the series up to
    # 36, the scaled-Bessel grid above it
    grid = kuznetsov._OscGrid(weight_gaussian(14.7, 3.675), 0.125)
    root = 4.0 * math.pi
    xs = np.array([8.0, np.nextafter(8.0, 9.0), root, root * math.sqrt(6.0), 36.0,
                   root * math.sqrt(35.0) / 2.0, root * math.sqrt(35.0), 0.5])
    got = grid.integrals(xs)
    want = np.array([grid.integral(x) for x in xs])
    above = xs > 8.0
    assert np.array_equal(_bits(got[above]), _bits(want[above]))
    assert np.all(np.abs(got - want)[~above] <= 64.0 * _batch_scale(grid, xs[~above]))


def test_osc_integrals_against_mpmath():
    # the discrete node sum at 30 digits; the batch and the per-x route both
    # measured within 0.2 u ||wrH||_1 I_0(x) of it
    grid = kuznetsov._OscGrid(weight_gaussian(3.0, 1.0), 1.0)
    xs = np.array([7.7, 4.1, 1.0])
    got = grid.integrals(xs)
    for x, g in zip(xs, got):
        with mpmath.workdps(30):
            want = 2.0 * float(mpmath.fsum(
                float(w) * mpmath.im(mpmath.besselj(2j * mpmath.mpf(float(r)), x)
                                     / mpmath.cosh(mpmath.pi * float(r)))
                for w, r in zip(grid.wrH, grid.r)
            ))
        assert g.real == 0.0
        assert abs(g.imag - want) <= 4.0 * _batch_scale(grid, x)


def test_osc_integrals_memory_bounded():
    # the conductor grid of T = 21: its node x term matrix of b_n(r) would
    # take 63,440 x 24 x 16 bytes = 24 MB; the batch builds it a node chunk
    # at a time
    grid = kuznetsov._osc_grid(weight_log_conductor(21), 4.0 * math.pi / 60)
    assert grid.r.size == 63_440
    xs = 4.0 * math.pi / np.arange(2, 61)
    tracemalloc.start()
    try:
        grid.integrals(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
