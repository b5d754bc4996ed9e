"""Three independent evaluations of the central Bessel transform

    D_J(X) = integral over r of J_{2ir}(X) r h_T(r) / cosh(pi r),

the Poisson-summation sums S_J, A_g, B_g, and empirical scans of the bounds
they satisfy. The residue route's constants are derived by contour shifting
and then pinned against direct quadrature before any scan may use them.
Its integer-order J_n come from one batched Miller recurrence
(_miller_blocks, with j_rows its row view), whose rows keep their bits in
any batch.

Every entry point takes the weight family as an argument; None means
weights.default_family().
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CalibrationError, DomainError, RegimeError
from .specfun import (
    _map_blocks,
    dunster_xi,
    scaled_bessel_j_imag_grid,
    scaled_bessel_series_grid,
)
from .weights import (
    SpectralWeight,
    WeightFamily,
    _check_odd_T,
    default_family,
    g_tilde_eval,
    gauss_legendre,
    make_spectral_weight,
    make_weight_family,
)

__all__ = [
    "DJResult",
    "ResidueEvaluator",
    "ScanReport",
    "dj_quadrature",
    "dj_residue_sum",
    "dj_asymptotic",
    "sj_direct",
    "sj_alpha_expansion",
    "stationary_phase_sums",
    "bound_scan",
]

# Residue constants from shifting the contour to -i*infinity. Poles of
# 1/cosh(pi r) at r = -(k+1/2)i contribute -i * (-1)^k (2k+1) h_T((k+1/2)i)
# J_{2k+1}; poles of the sinh(pi r/T) inside h_T at r = -ikT have residue
# -k^2 T^2 h(k) J_{2kT}/pi (the (-1)^k factors from cosh(pi k T), T odd, and
# from the sinh derivative cancel), so the clockwise contour contributes
# +2i T^2 k^2 h(k) J_{2kT}. Both constants are cross-checked numerically in
# _ensure_calibrated before any consumer trusts them.
_C1 = -1.0j
_C2_TIMES_SIGN = 2.0j  # multiplies T^2 * sum_k k^2 h(k) J_{2kT}(X)


@dataclass(frozen=True)
class DJResult:
    value: complex
    method: str
    X: float
    T: int
    error_estimate: float

    def __post_init__(self):
        if abs(self.value.real) > 1e-8 * (1.0 + abs(self.value)):
            raise DomainError(
                f"D_J must be purely imaginary, got {self.value!r} ({self.method})"
            )


@dataclass
class ScanReport:
    which: str
    points: list  # (X, T) pairs
    values: list
    bounds: list
    ratios: list
    sup_ratio: float
    flagged: list = field(default_factory=list)  # regime-violating points

    def to_csv(self) -> str:
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["which", "X", "T", "value", "bound", "ratio"])
        for (x, t), v, b, r in zip(self.points, self.values, self.bounds, self.ratios):
            wr.writerow(
                [self.which, repr(float(x)), t, repr(float(v)), repr(float(b)),
                 repr(float(r))]
            )
        return buf.getvalue()


def _check_xt(X: float, T: int):
    if not (X > 0.0 and math.isfinite(X)):
        raise DomainError("X must be positive and finite")
    return float(X), _check_odd_T(T)


# ----------------------------------------------------------------------------
# Route 1: direct quadrature
# ----------------------------------------------------------------------------


def _osc_panel_edges(r_max: float, X: float, width_factor: float) -> np.ndarray:
    """Panel edges tracking the local oscillation rate ~ 2 log(4r/X) of the
    integrand's phase in r."""
    edges = [0.0]
    r = 0.0
    while r < r_max:
        freq = 2.0 * math.log(4.0 * (r + 1.0) / X + 2.0) + 1.0
        r = min(r_max, r + width_factor * min(2.0, 4.0 / freq))
        edges.append(r)
    return np.array(edges)


_GL_X, _GL_W = gauss_legendre(16)


def _gl_panels(edges: np.ndarray) -> tuple:
    """(nodes, weights) of the 16-point Gauss-Legendre rule on every panel
    between consecutive edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    wts = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, wts


def _band_panels(length: float, omega: float) -> tuple:
    """(nodes, weights) of 16-point Gauss-Legendre panels of equal width
    w <= 4 pi / omega on [0, length], for an integrand f whose spectrum lies
    in |frequency| <= omega (radians per unit).

    On a panel of width w the n-point rule errs by
    w^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) |f^(2n)|, and Bernstein's
    inequality bounds |f^(2n)| by omega^(2n) sup|f|. Summed over the panels,
    with n = 16 and w omega <= 4 pi,

        |E| <= length (16!)^4 / (33 (32!)^3) (4 pi)^32 sup|f|
             < 5e-20 length sup|f|.
    """
    n_panels = int(math.ceil(length * omega / (4.0 * math.pi)))
    return _gl_panels(np.linspace(0.0, length, n_panels + 1))


def _im_scaled_grid(r_nodes: np.ndarray, X: float) -> np.ndarray:
    if X <= 36.0:
        return scaled_bessel_series_grid(r_nodes, X).imag
    # a contiguous copy: BLAS sums a strided view in another order, and the
    # dot in _OscGrid.integral would move by an ulp
    return np.ascontiguousarray(scaled_bessel_j_imag_grid(r_nodes, X).imag)


def _dj_quad_pass(sw: SpectralWeight, X: float, r_max: float, wf: float) -> float:
    nodes, wts = _gl_panels(_osc_panel_edges(r_max, X, wf))
    integrand = nodes * sw.h_T_real(nodes) * _im_scaled_grid(nodes, X)
    return float(np.dot(wts, integrand))


def dj_quadrature(
    X: float, T: int, tol: float = 1e-10, family: WeightFamily | None = None
) -> DJResult:
    """2i * integral over (0, R) of r h_T(r) Im[J_{2ir}(X)/cosh(pi r)] dr.

    The r <-> -r pairing makes the two-sided integral purely imaginary, so
    only the imaginary part of the scaled Bessel value is integrated. Two
    passes at different panel widths supply the quadrature error estimate;
    the truncation tail is budgeted from the h_T decay envelope.
    """
    X, T = _check_xt(X, T)
    return _dj_quadrature(make_spectral_weight(family or default_family(), T), X, tol)


def _dj_quadrature(sw: SpectralWeight, X: float, tol: float) -> DJResult:
    """dj_quadrature for the spectral weight sw of any family."""
    if tol < 1e-12:
        raise DomainError("tol must be >= 1e-12")
    T = sw.T
    r_max = (4.0 * T / math.pi) * math.log(1.0 / tol) + 50.0
    coarse = _dj_quad_pass(sw, X, r_max, 1.0)
    fine = _dj_quad_pass(sw, X, r_max, 0.55)
    tail = abs(r_max * sw.h_T_real(np.array([r_max]))[0]) * 4.0 * T
    err = 2.0 * abs(fine - coarse) + 2.0 * tail
    return DJResult(
        value=2.0j * fine, method="quadrature", X=X, T=T, error_estimate=err
    )


# ----------------------------------------------------------------------------
# S_J and its alpha-expansion
# ----------------------------------------------------------------------------


def _k_max(X: float) -> int:
    """Last k of the first residue family at argument X: past it the
    factorial Bessel envelope has killed the polynomially growing weight."""
    return int(max(24.0, 1.4 * X + 30.0 * X ** (1.0 / 3.0) + 50.0))


def _first_family_terms(family: WeightFamily, X: float, T: int):
    """(-1)^k J_{2k+1}(X) W(k) with W(k) = x^2 h(x)/sin(pi x), x=(2k+1)/2T.

    Truncated where the factorial Bessel envelope kills the polynomially
    growing weight factor; returns (terms, envelope-of-first-dropped-term).
    """
    k_max = _k_max(X)
    n_max = 2 * k_max + 1
    jv = j_rows([X], n_max)[0]
    k = np.arange(k_max + 1)
    x = (2 * k + 1) / (2.0 * T)
    w = x * x * family.h_real(x) / np.sin(math.pi * x)
    terms = ((-1.0) ** k) * jv[2 * k + 1] * w
    # envelope of the next (dropped) term, for the error budget
    n_next = n_max + 2
    log_env = n_next * math.log(max(X, 1e-300) / 2.0) - math.lgamma(n_next + 1.0)
    x_next = n_next / (2.0 * T)
    w_next = abs(
        x_next * x_next * float(family.h_real(np.array([x_next]))[0])
        / math.sin(math.pi * x_next)
    )
    tail = math.exp(min(log_env, 300.0)) * max(w_next, 1.0) * 4.0
    return terms, tail


def sj_direct(X: float, T: int, family: WeightFamily | None = None) -> float:
    """S_J(X) = T sum_k (-1)^k J_{2k+1}(X) x^2 h(x)/sin(pi x), x=(2k+1)/2T."""
    X = float(X)
    if X == 0.0:
        _check_odd_T(T)
        return 0.0
    X, T = _check_xt(X, T)
    terms, _tail = _first_family_terms(family or default_family(), X, T)
    return T * float(np.sum(terms))


def sj_alpha_expansion(X: float, T: int, family: WeightFamily | None = None) -> float:
    """The same sum through the Dirichlet-kernel expansion over |alpha| < T/2."""
    X = float(X)
    if X == 0.0:
        _check_odd_T(T)
        return 0.0
    X, T = _check_xt(X, T)
    if T > 101:
        raise DomainError("alpha expansion cost guard: T <= 101")
    family = family or default_family()
    n_max = int(max(48.0, 2.8 * X + 60.0 * X ** (1.0 / 3.0) + 100.0))
    jv = j_rows([X], n_max)[0]
    k = np.arange(1, n_max + 1)
    keep = (k % (2 * T)) != 0
    k = k[keep]
    x = k / (2.0 * T)
    w = x * x * family.h_real(x)
    alpha = np.arange(-(T - 1) // 2, (T - 1) // 2 + 1)
    kernel = np.exp(2j * math.pi * np.multiply.outer(k, alpha) / (2.0 * T)).sum(axis=1)
    total = T * np.sum(jv[k] * w * kernel)
    if abs(total.imag) > 1e-10 * (1.0 + abs(total)):
        raise DomainError(f"alpha expansion should be real, got {total!r}")
    return float(total.real)


# ----------------------------------------------------------------------------
# Route 2: residue sum
# ----------------------------------------------------------------------------


def _second_family(family: WeightFamily, X: float, T: int):
    """T^2 * sum_{k>=1} k^2 h(k) J_{2kT}(X), truncated by the Bessel envelope."""
    acc = 0.0
    tail = 0.0
    for k in range(1, 101):
        n = 2 * k * T
        log_env = n * math.log(X / 2.0) - math.lgamma(n + 1.0)
        hk = float(family.h_real(np.array([float(k)]))[0])
        if log_env < -60.0:
            tail = math.exp(max(log_env, -700.0)) * k * k * max(hk, 1e-30)
            break
        acc += k * k * hk * float(j_rows([X], n)[0, n])
    return T * T * acc, T * T * tail


def _residue_value(family: WeightFamily, X: float, T: int):
    terms, tail1 = _first_family_terms(family, X, T)
    # first family = sum (-1)^k (2k+1) J_{2k+1} h_T((k+1/2)i) = 2 S_J(X)
    first = 2.0 * T * float(np.sum(terms))
    second, tail2 = _second_family(family, X, T)
    value = _C1 * first + _C2_TIMES_SIGN * second
    return value, abs(_C1) * tail1 + abs(_C2_TIMES_SIGN) * tail2


@lru_cache(maxsize=16)
def _ensure_calibrated(family: WeightFamily):
    """Pin the derived residue constants against quadrature, once per family
    (a failure raises and so is not cached)."""
    for X, T in ((1.0, 5), (2.0, 11), (0.5, 5), (15.0, 5)):
        quad = _dj_quadrature(make_spectral_weight(family, T), X, 1e-10)
        val, tail = _residue_value(family, X, T)
        gap = abs(quad.value - val)
        budget = 1e-8 * (1.0 + abs(val)) + quad.error_estimate + tail
        if gap > budget:
            raise CalibrationError(
                f"residue constants fail at (X={X}, T={T}): "
                f"residue {val!r} vs quadrature {quad.value!r}, gap {gap:.3e}"
            )


def dj_residue_sum(X: float, T: int, family: WeightFamily | None = None) -> DJResult:
    """D_J by the residue expansion; constants verified against quadrature."""
    X = float(X)
    if X == 0.0:
        return DJResult(value=0.0j, method="residue", X=0.0, T=_check_odd_T(T), error_estimate=0.0)
    X, T = _check_xt(X, T)
    family = family or default_family()
    _ensure_calibrated(family)
    value, tail = _residue_value(family, X, T)
    return DJResult(value=value, method="residue", X=X, T=T, error_estimate=tail)


# ----------------------------------------------------------------------------
# Miller recurrence for J_0..J_nmax, batched over arguments
# ----------------------------------------------------------------------------


def _miller_start(x, nmax):
    """Even start order of the downward recurrence for J_0..J_nmax at x."""
    start = int(max(nmax, x) + 16.0 * (x ** (1.0 / 3.0) + 1.0) + 24)
    if start % 2 == 1:
        start += 1
    return start


# Cap on the whole state of one Miller block: its recurrence rows and one
# slab of 2n/x coefficients. ResidueEvaluator.values reads each block in
# place and holds no second copy, so this bounds its working set too.
_BLOCK_BYTES = 8 * 2 ** 20
# Orders per slab of 2n/x coefficients: one division call per _SLAB steps.
_SLAB = 16


def _j_block(x, nmax, starts):
    """J_0..J_nmax_i at a batch of x_i > 0, as an (orders x rows) block:
    column i holds row i's J_n, zero past nmax_i, in max(nmax) + 1 orders.

    Downward (Miller) recurrence from jp = 0, jc = 1e-200 at each row's
    start order, Neumann-normalized by J_0 + 2 sum J_2k = 1. The start order
    (_miller_start) is pushed far enough above max(nmax, x) that the seeded
    tail is below double rounding after normalization. A row whose running
    value passes 1e250 is rescaled by 1e-250, its stored J_0..J_nmax and
    Neumann sum with it. Each row's steps use only that row's state, so its
    bits do not depend on the other rows. Rows must come in descending
    start order. h[nn] holds J~_nn of every row, the recurrence state
    included; a row that has not started yet holds zeros, which the
    recurrence keeps at zero. The coefficients (2.0 n)/x_i are computed
    _SLAB orders at a time.
    """
    b = x.size
    starts = starts.tolist()
    s0 = starts[0]
    h = np.zeros((s0 + 2, b))  # start >= nmax + 40: h covers every order
    slab = np.empty((_SLAB, b))
    rows, coefs = list(h), list(slab)
    x_min = np.minimum.accumulate(x).tolist()
    neumann = np.zeros(b)
    t = np.empty(b)
    k = 0
    bound = 0.0  # >= max |h[n]|, |h[n + 1]| over the running rows
    top = None  # max |h[n]|, when the step before measured it
    for n in range(s0, 0, -1):
        while k < b and starts[k] >= n:
            h[n, k] = 1e-200  # a row starts with jp = 0, jc = 1e-200
            bound = max(bound, 1e-200)
            top = None if top is None else max(top, 1e-200)
            x_k = x_min[k]
            k += 1
        i = (s0 - n) % _SLAB
        if i == 0:  # refill: coefs[i] serves the step at order n - i
            m = min(_SLAB, n)
            np.divide(2.0 * np.arange(n, n - m, -1, dtype=float)[:, None], x,
                      out=slab[:m])
        jc = rows[n - 1]
        np.multiply(coefs[i], rows[n], out=t)
        np.subtract(t, rows[n + 1], out=jc)
        if n % 2 == 1:  # starts are even, so nn = n - 1 is even here
            if n == 1:
                np.add(neumann, jc, out=neumann)
            else:
                np.multiply(jc, 2.0, out=t)
                np.add(neumann, t, out=neumann)
        # |jm| <= (2n/x + 1) max(|jc|, |jp|): look at the rows only when
        # that bound could pass the rescaling threshold (the factor-10 margin
        # covers rounding in the bound itself)
        prev = bound
        bound = prev * (2.0 * n / x_k + 1.0)
        if bound <= 1e249:
            top = None
            continue
        peak = np.abs(jc, out=t).max()
        if peak > 1e250:
            big = np.nonzero(t > 1e250)[0]
            # rescale jc, jp and the stored J_0..J_nmax of those rows, one
            # column view at a time (indexing by big would copy the rows)
            hi = max(n + 1, int(nmax[big].max()) + 1)
            for j in big.tolist():
                h[n - 1 : hi, j] *= 1e-250
            neumann[big] *= 1e-250
            peak = np.abs(jc, out=t).max()
        bound = max(peak, prev if top is None else top)
        top = peak
    out = h[: int(nmax.max()) + 1]
    # a row with neumann == 0 stays unnormalized
    out *= np.divide(1.0, neumann, out=np.ones(b), where=neumann != 0.0)
    for i, last in enumerate(nmax.tolist()):
        out[last + 1 :, i] = 0.0
    return out


def _miller_blocks(ax, nmax):
    """The one Miller core: (idx, block) pairs that cover every index of
    the finite ax >= 0, with block[n, j] = J_n(ax[idx[j]]) for
    n <= nmax[idx[j]] and zero past it, in max(nmax[idx]) + 1 orders.

    Rows with x < 1e-10 take the closed form [1, x/2, 0, ...]. The others
    run through _j_block in descending start order, in blocks of
    _BLOCK_BYTES // (8 (start + 2 + _SLAB)) rows, start being that of the
    block's first, widest row, so a block's whole state stays under
    _BLOCK_BYTES. A consumer that drops each block before it asks for the
    next one holds one block at a time.
    """
    tiny = ax < 1e-10
    full = np.nonzero(~tiny)[0]
    starts = _map_blocks(_miller_start, ax[full], nmax[full], dtype=np.int64)
    order = np.argsort(-starts, kind="stable")
    full, starts = full[order], starts[order]
    lo = 0
    while lo < full.size:
        step = max(1, _BLOCK_BYTES // (8 * (int(starts[lo]) + 2 + _SLAB)))
        idx = full[lo : lo + step]
        yield idx, _j_block(ax[idx], nmax[idx], starts[lo : lo + step])
        lo += step
    tiny = np.nonzero(tiny)[0]
    step = max(1, _BLOCK_BYTES // (8 * (int(nmax[tiny].max(initial=0)) + 1)))
    for lo in range(0, tiny.size, step):
        idx = tiny[lo : lo + step]
        block = np.zeros((int(nmax[idx].max()) + 1, idx.size))
        block[0] = 1.0
        if block.shape[0] > 1:
            block[1] = np.where(nmax[idx] >= 1, ax[idx] / 2.0, 0.0)
        yield idx, block


def j_rows(xs, nmax) -> np.ndarray:
    """Rows [J_0(x_i), ..., J_{nmax_i}(x_i)], zero-padded to max(nmax) + 1.

    nmax is one order for every row or one per row; |x_i| < 1e-10 gives
    [1, |x_i|/2, 0, ...], and negative x_i flip the odd orders. Row i is the
    same bits in any batch. The rows are the transposed columns of the
    Miller blocks (_miller_blocks). Raises DomainError for a non-finite x_i
    or a negative order, before any recurrence runs.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    nmax = np.broadcast_to(np.asarray(nmax, dtype=np.int64), xs.shape)
    if not np.all(np.isfinite(xs)):
        raise DomainError("j_rows requires finite x")
    if np.any(nmax < 0):
        raise DomainError("nmax must be >= 0")
    out = np.zeros((xs.size, int(nmax.max(initial=0)) + 1))
    for idx, block in _miller_blocks(np.abs(xs), nmax):
        out[idx, : block.shape[0]] = block.T
    out[xs < 0, 1::2] *= -1.0
    return out


# ----------------------------------------------------------------------------
# Route 2, batched: one evaluator per (family, T)
# ----------------------------------------------------------------------------


class ResidueEvaluator:
    """Reusable residue-route D_J evaluator for one (family, T).

    Precomputes the half-integer weight vector W(k) = x^2 h(x)/sin(pi x) and
    the k^2 h(k) factors, so a density-style consumer can evaluate D_J at
    hundreds of thousands of arguments X = 4 pi sqrt(mn)/c cheaply. X_max
    sizes the vectors at first, and `values` extends them when an X needs
    more terms. A weight's bits do not depend on the size: h is evaluated
    on k padded to a whole multiple of 4 rows, so every row keeps its place
    in the 4-row groups of weights._transform_rows, and then sliced.
    """

    def __init__(self, family: WeightFamily, T: int, X_max: float):
        _, self.T = _check_xt(1.0, T)
        self.family = family
        _ensure_calibrated(family)
        self._size(_k_max(float(X_max)))

    def _size(self, k_cap: int) -> None:
        """Weight vectors for the first-family terms k <= k_cap and the
        second-family terms n = 2kT <= 2 k_cap + 1."""
        self.k_cap = k_cap
        k = np.arange(-(-(k_cap + 1) // 4) * 4)
        x = (2 * k + 1) / (2.0 * self.T)
        w1 = ((-1.0) ** k) * x * x * self.family.h_real(x) / np.sin(math.pi * x)
        self._signed_w1 = w1[: k_cap + 1]
        k2 = max(1, (2 * k_cap + 1) // (2 * self.T))
        kk = np.arange(1, -(-k2 // 4) * 4 + 1, dtype=float)
        self._w2 = (kk * kk * self.family.h_real(kk))[:k2]

    def value(self, X: float) -> complex:
        """D_J(X): a one-element `values` call.

        A call costs a few ms (1.4-7.9 ms on a 2-vCPU VM); callers with many X pass them to
        `values` at once.
        """
        return complex(self.values([X])[0])

    def values(self, X) -> np.ndarray:
        """D_J at every X of an array (0 where X <= 0), from blocks of
        Miller rows.

        Each row is summed in a fixed order of its own (the per-row dot,
        then the w2 terms in sequence), so a value does not depend on the
        batch it is in: at large X the residue sum cancels heavily, and a
        reordered sum would move D_J far beyond rounding of the result.
        The X go through the Miller core (_miller_blocks) with their
        first-family orders; each block is read in place and dropped before
        the next one is built, so memory stays near _BLOCK_BYTES for any
        number of X. The weight vectors grow to the largest X. Raises
        DomainError for a non-finite X.
        """
        X = np.asarray(X, dtype=float).ravel()
        if not np.all(np.isfinite(X)):
            raise DomainError("ResidueEvaluator requires finite X")
        out = np.zeros(X.size, dtype=complex)
        live = np.nonzero(X > 0.0)[0]
        k_loc = np.array([_k_max(x) for x in X[live].tolist()], dtype=np.int64)
        if k_loc.size and k_loc.max() > self.k_cap:
            self._size(int(k_loc.max()))
        for idx, block in _miller_blocks(X[live], 2 * k_loc + 1):
            out[live[idx]] = self._chunk(block, k_loc[idx])
            del block  # free it before the core builds the next one
        return out

    def _chunk(self, block: np.ndarray, k_loc: np.ndarray) -> np.ndarray:
        """D_J at the columns of one Miller block, column j at first-family
        cutoff k_loc[j], read in place: the w2 terms from whole order rows,
        the first family from each column's odd orders."""
        n_loc = 2 * k_loc + 1
        second = np.zeros(k_loc.size)
        for i in range(self._w2.size):
            n = 2 * (i + 1) * self.T
            rows = n <= n_loc
            if not rows.any():
                break
            np.add(second, self._w2[i] * block[n], out=second, where=rows)
        c2 = _C2_TIMES_SIGN * (self.T * self.T)
        out = np.empty(k_loc.size, dtype=complex)
        for j, k in enumerate(k_loc.tolist()):
            # BLAS sums a strided ddot in one order for any stride but 1, so
            # this column slice (stride 2 rows) has the bits of a stride-2 row
            dot = np.dot(self._signed_w1[: k + 1], block[1 : 2 * k + 2 : 2, j])
            out[j] = _C1 * (2.0 * self.T * float(dot)) + c2 * second[j]
        return out


# ----------------------------------------------------------------------------
# Route 3: leading-term asymptotics
# ----------------------------------------------------------------------------


def dj_asymptotic(X: float, T: int, family: WeightFamily | None = None) -> DJResult:
    """Leading oscillatory integral N_J of the uniform large-order expansion.

    N_J = 2i sqrt(2/pi) * integral of r h_T(r) sin(2r xi(X/2r) - pi/4)
    / (4r^2 + X^2)^{1/4}; the error estimate integrates the O(1/r)
    first-correction envelope of the expansion against the same weight.
    """
    X, T = _check_xt(X, T)
    if X < T / 8.0:
        raise RegimeError("asymptotic route requires X >= T/8")
    r_max = (4.0 * T / math.pi) * math.log(1e10) + 50.0
    nodes, wts = _gl_panels(_osc_panel_edges(r_max, X, 0.6))
    sw = make_spectral_weight(family or default_family(), T)
    hv = nodes * sw.h_T_real(nodes)
    amp = (4.0 * nodes * nodes + X * X) ** -0.25
    phase = _map_blocks(lambda r: 2.0 * r * dunster_xi(X / (2.0 * r)) if r > 0 else X, nodes)
    lead = float(np.dot(wts, hv * amp * np.sin(phase - 0.25 * math.pi)))
    value = 2.0j * math.sqrt(2.0 / math.pi) * lead
    # first correction of the expansion is O(1/r) relative
    corr = float(np.dot(wts, hv * amp * np.minimum(1.0, 0.5 / np.maximum(nodes, 1e-9))))
    return DJResult(
        value=value,
        method="asymptotic",
        X=X,
        T=T,
        error_estimate=2.0 * math.sqrt(2.0 / math.pi) * corr,
    )


# ----------------------------------------------------------------------------
# Stationary-phase sums
# ----------------------------------------------------------------------------


def stationary_phase_sums(
    Y: float, T: int, family: WeightFamily | None = None
) -> tuple[float, float]:
    """(|A_g(Y)|, |B_g(Y)|) for 0 < Y <= T/(2 pi).

    A_g = T sum_{|a|<T/2} e(Y sin(pi a/T)) ttg(pi Y cos(pi a/T)/T); B_g has
    the extra (Y/T) sin(pi a/T) factor against the second derivative of ttg.
    The a <-> -a pairing makes A real and B purely imaginary; the moduli are
    returned and the residual parts checked.
    """
    Y = float(Y)
    T = _check_odd_T(T)
    if not (0.0 < Y <= T / (2.0 * math.pi)):
        raise RegimeError("stationary sums require 0 < Y <= T/(2 pi)")
    family = family or default_family()
    a_acc = 0.0 + 0.0j
    b_acc = 0.0 + 0.0j
    for alpha in range(-(T - 1) // 2, (T - 1) // 2 + 1):
        th = math.pi * alpha / T
        osc = np.exp(2j * math.pi * Y * math.sin(th))
        arg = math.pi * Y * math.cos(th) / T
        a_acc += osc * g_tilde_eval(family, arg, 2, 0)
        b_acc += osc * math.sin(th) * g_tilde_eval(family, arg, 2, 2)
    a_val = T * a_acc
    b_val = (Y / T) * b_acc
    if abs(a_val.imag) > 1e-10 * (1.0 + abs(a_val)):
        raise DomainError(f"A_g should be real, got {a_val!r}")
    if abs(b_val.real) > 1e-10 * (1.0 + abs(b_val)):
        raise DomainError(f"B_g should be purely imaginary, got {b_val!r}")
    return abs(a_val), abs(b_val)


# ----------------------------------------------------------------------------
# Bound scans
# ----------------------------------------------------------------------------

_DEFAULT_GRIDS = {
    "small_X": ([0.5, 1.0, 2.0, 4.0], [5, 11, 21, 41]),
    "large_X": ("ratios", [11, 21]),  # X in {T/4, T, 4T}
    "souped_up": ([0.25, 0.5, 1.0, 2.0], [11, 21, 41]),
    "stationary_A": ("Y-grid", [21, 41, 81]),
    "stationary_B": ("Y-grid", [21, 41, 81]),
}


def _souped_family() -> WeightFamily:
    # two extra expansion terms need a deeper zero at the origin; M = 12 is
    # the smallest admissible order past 10 (the order must stay a multiple
    # of 4 for h(iy) >= 0)
    return make_weight_family(12, 0.125)


def bound_scan(
    which: str, grid: list | None = None, family: WeightFamily | None = None
) -> ScanReport:
    """Empirical value/bound ratios for the decay estimates on D_J, A_g, B_g.

    Points violating a bound's validity regime are flagged and excluded from
    the ratio lists rather than failing the scan. The family (the default
    family when None) weighs every scan but souped_up, which needs M = 12;
    every D_J value, souped_up's included, is a calibrated dj_residue_sum.
    """
    if which not in _DEFAULT_GRIDS:
        raise DomainError(f"unknown scan {which!r}")
    points = []
    if grid is not None:
        points = [(float(x), _check_odd_T(t)) for x, t in grid]
    elif which == "small_X":
        xs, ts = _DEFAULT_GRIDS[which]
        points = [(x, t) for t in ts for x in xs]
    elif which == "large_X":
        _, ts = _DEFAULT_GRIDS[which]
        points = [(f * t, t) for t in ts for f in (0.25, 1.0, 4.0)]
    elif which == "souped_up":
        xs, ts = _DEFAULT_GRIDS[which]
        points = [(x, t) for t in ts for x in xs]
    else:
        _, ts = _DEFAULT_GRIDS[which]
        points = [(y, t) for t in ts for y in (t / 10.0, t / (2.0 * math.pi))]

    kept, values, bounds, ratios, flagged = [], [], [], [], []
    for X, T in points:
        try:
            if which == "small_X":
                if X > T:
                    raise RegimeError("small_X regime is X <= T")
                v = abs(dj_residue_sum(X, T, family).value)
                b = X / T
            elif which == "large_X":
                if X < T / 8.0:
                    raise RegimeError("large_X regime is X >= T/8")
                v = abs(dj_residue_sum(X, T, family).value)
                b = X / math.sqrt(T)
            elif which == "souped_up":
                m12 = _souped_family()
                v = abs(dj_residue_sum(X, T, m12).value)
                b = X ** m12.M * T ** (1.5 - 2.0 * m12.M) + T ** -1.5
            elif which == "stationary_A":
                v = stationary_phase_sums(X, T, family)[0]
                b = X ** 4 / T ** 7
            else:
                v = stationary_phase_sums(X, T, family)[1]
                b = X ** 5 / T ** 9
        except RegimeError as exc:
            flagged.append(((X, T), str(exc)))
            continue
        kept.append((X, T))
        values.append(v)
        bounds.append(b)
        ratios.append(v / b if b > 0 else math.inf)
    if not kept:
        raise DomainError("scan grid is empty after regime filtering")
    return ScanReport(
        which=which,
        points=kept,
        values=values,
        bounds=bounds,
        ratios=ratios,
        sup_ratio=max(ratios),
        flagged=flagged,
    )
