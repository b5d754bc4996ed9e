"""Three independent evaluations of the central Bessel transform

    D_J(X) = integral over r of J_{2ir}(X) r h_T(r) / cosh(pi r),

the Poisson-summation sums S_J, A_g, B_g, and empirical scans of the bounds
they satisfy. The residue route's constants are derived by contour shifting
and then pinned against direct quadrature before any scan may use them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from ._fastpath import _BLOCK_BYTES, j_array, j_rows
from .errors import CalibrationError, DomainError, RegimeError
from .specfun import (
    dunster_xi,
    scaled_bessel_j_imag_grid,
    scaled_bessel_series_grid,
)
from .weights import (
    SpectralWeight,
    WeightFamily,
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

_calibrated: set[tuple[int, float]] = set()


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
    if not X > 0.0:
        raise DomainError("X must be positive")
    T = int(T)
    if T < 3 or T % 2 == 0:
        raise DomainError("T must be an odd integer >= 3")
    return float(X), T


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


def dj_quadrature(X: float, T: int, tol: float = 1e-10) -> DJResult:
    """2i * integral over (0, R) of r h_T(r) Im[J_{2ir}(X)/cosh(pi r)] dr.

    The r <-> -r pairing makes the two-sided integral purely imaginary, so
    only the imaginary part of the scaled Bessel value is integrated. Two
    passes at different panel widths supply the quadrature error estimate;
    the truncation tail is budgeted from the h_T decay envelope.
    """
    X, T = _check_xt(X, T)
    return _dj_quadrature(make_spectral_weight(default_family(), T), X, tol)


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
    jv = j_array(X, n_max)
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


def sj_direct(X: float, T: int) -> float:
    """S_J(X) = T sum_k (-1)^k J_{2k+1}(X) x^2 h(x)/sin(pi x), x=(2k+1)/2T."""
    X = float(X)
    if X == 0.0:
        return 0.0
    X, T = _check_xt(X, T)
    family = default_family()
    terms, _tail = _first_family_terms(family, X, T)
    return T * float(np.sum(terms))


def sj_alpha_expansion(X: float, T: int) -> float:
    """The same sum through the Dirichlet-kernel expansion over |alpha| < T/2."""
    X = float(X)
    if X == 0.0:
        return 0.0
    X, T = _check_xt(X, T)
    if T > 101:
        raise DomainError("alpha expansion cost guard: T <= 101")
    family = default_family()
    n_max = int(max(48.0, 2.8 * X + 60.0 * X ** (1.0 / 3.0) + 100.0))
    jv = j_array(X, n_max)
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
        acc += k * k * hk * float(j_array(X, n)[n])
    return T * T * acc, T * T * tail


def _residue_value(family: WeightFamily, X: float, T: int):
    terms, tail1 = _first_family_terms(family, X, T)
    # first family = sum (-1)^k (2k+1) J_{2k+1} h_T((k+1/2)i) = 2 S_J(X)
    first = 2.0 * T * float(np.sum(terms))
    second, tail2 = _second_family(family, X, T)
    value = _C1 * first + _C2_TIMES_SIGN * second
    return value, abs(_C1) * tail1 + abs(_C2_TIMES_SIGN) * tail2


def _ensure_calibrated(family: WeightFamily):
    """Pin the derived residue constants against quadrature, once per family."""
    key = (family.M, family.bump_halfwidth)
    if key in _calibrated:
        return
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
    _calibrated.add(key)


def dj_residue_sum(X: float, T: int) -> DJResult:
    """D_J by the residue expansion; constants verified against quadrature."""
    X = float(X)
    if X == 0.0:
        return DJResult(value=0.0j, method="residue", X=0.0, T=int(T), error_estimate=0.0)
    X, T = _check_xt(X, T)
    family = default_family()
    _ensure_calibrated(family)
    value, tail = _residue_value(family, X, T)
    return DJResult(value=value, method="residue", X=X, T=T, error_estimate=tail)


class ResidueEvaluator:
    """Reusable residue-route D_J evaluator for one (family, T).

    Precomputes the half-integer weight vector W(k) = x^2 h(x)/sin(pi x) and
    the k^2 h(k) factors once, so a density-style consumer can evaluate D_J
    at hundreds of thousands of arguments X = 4 pi sqrt(mn)/c cheaply.

    The values depend on X_max in the last bit: the weight vectors come
    from one matrix-vector product over all k <= k_cap, whose rounding
    varies with the row count, so two evaluators of different X_max may
    differ by an ulp in a weight and hence in D_J. Callers that need
    reproducible bits size one evaluator for all their arguments.
    """

    def __init__(self, family: WeightFamily, T: int, X_max: float):
        _, self.T = _check_xt(1.0, T)
        self.family = family
        self.X_max = float(X_max)
        _ensure_calibrated(family)
        self.k_cap = _k_max(self.X_max)
        k = np.arange(self.k_cap + 1)
        x = (2 * k + 1) / (2.0 * self.T)
        self._signed_w1 = ((-1.0) ** k) * x * x * family.h_real(x) / np.sin(math.pi * x)
        self.n_cap = 2 * self.k_cap + 1
        kk = np.arange(1, max(2, self.n_cap // (2 * self.T) + 1), dtype=float)
        self._w2 = kk * kk * family.h_real(kk)

    def _k_loc(self, X: float) -> int:
        if X > self.X_max * (1.0 + 1e-9):
            raise DomainError(f"X = {X} exceeds this evaluator's X_max")
        return min(self.k_cap, _k_max(X))

    def value(self, X: float) -> complex:
        """D_J(X): a one-element `values` call.

        A call costs a few ms (1.4-7.9 ms on a 2-vCPU VM); callers with many X pass them to
        `values` at once.
        """
        return complex(self.values([X])[0])

    def values(self, X) -> np.ndarray:
        """D_J at every X of an array (0 where X <= 0), from batches of
        Miller rows.

        Each row is summed in a fixed order of its own (the per-row dot,
        then the w2 terms in sequence), so a value does not depend on the
        batch it is in: at large X the residue sum cancels heavily, and a
        reordered sum would move D_J far beyond rounding of the result.
        The X run in descending order, in chunks whose Miller rows stay
        under the recurrence's block size, so memory is bounded for any
        number of X. Raises DomainError for a non-finite X or one above
        X_max.
        """
        X = np.asarray(X, dtype=float).ravel()
        if not np.all(np.isfinite(X)):
            raise DomainError("ResidueEvaluator requires finite X")
        out = np.zeros(X.size, dtype=complex)
        live = np.nonzero(X > 0.0)[0]
        live = live[np.argsort(-X[live], kind="stable")]
        k_loc = np.array([self._k_loc(x) for x in X[live].tolist()], dtype=np.int64)
        lo = 0
        while lo < live.size:
            # k_loc falls with X: the chunk's first row is its widest
            step = max(1, _BLOCK_BYTES // (8 * (2 * int(k_loc[lo]) + 2)))
            idx = live[lo : lo + step]
            out[idx] = self._chunk(X[idx], k_loc[lo : lo + step])
            lo += step
        return out

    def _chunk(self, xs: np.ndarray, k_loc: np.ndarray) -> np.ndarray:
        """D_J at xs > 0 with first-family cutoffs k_loc, from one j_rows call."""
        n_loc = 2 * k_loc + 1
        jv = j_rows(xs, n_loc)
        second = np.zeros(xs.size)
        for i in range(self._w2.size):
            n = 2 * (i + 1) * self.T
            rows = n <= n_loc
            if not rows.any():
                break
            np.add(second, self._w2[i] * jv[:, n], out=second, where=rows)
        c2 = _C2_TIMES_SIGN * (self.T * self.T)
        out = np.empty(xs.size, dtype=complex)
        for j, (k, row) in enumerate(zip(k_loc.tolist(), jv)):
            dot = np.dot(self._signed_w1[: k + 1], row[1 : 2 * k + 2 : 2])
            out[j] = _C1 * (2.0 * self.T * float(dot)) + c2 * second[j]
        return out


# ----------------------------------------------------------------------------
# Route 3: leading-term asymptotics
# ----------------------------------------------------------------------------


def dj_asymptotic(X: float, T: int) -> DJResult:
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
    sw = make_spectral_weight(default_family(), T)
    hv = nodes * sw.h_T_real(nodes)
    amp = (4.0 * nodes * nodes + X * X) ** -0.25
    phase = np.array([2.0 * r * dunster_xi(X / (2.0 * r)) if r > 0 else X for r in nodes])
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


def stationary_phase_sums(Y: float, T: int) -> tuple[float, float]:
    """(|A_g(Y)|, |B_g(Y)|) for 0 < Y <= T/(2 pi).

    A_g = T sum_{|a|<T/2} e(Y sin(pi a/T)) ttg(pi Y cos(pi a/T)/T); B_g has
    the extra (Y/T) sin(pi a/T) factor against the second derivative of ttg.
    The a <-> -a pairing makes A real and B purely imaginary; the moduli are
    returned and the residual parts checked.
    """
    Y = float(Y)
    T = int(T)
    if T < 3 or T % 2 == 0:
        raise DomainError("T must be an odd integer >= 3")
    if not (0.0 < Y <= T / (2.0 * math.pi)):
        raise RegimeError("stationary sums require 0 < Y <= T/(2 pi)")
    family = default_family()
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


def bound_scan(which: str, grid: list | None = None) -> ScanReport:
    """Empirical value/bound ratios for the decay estimates on D_J, A_g, B_g.

    Points violating a bound's validity regime are flagged and excluded from
    the ratio lists rather than failing the scan.
    """
    if which not in _DEFAULT_GRIDS:
        raise DomainError(f"unknown scan {which!r}")
    points = []
    if grid is not None:
        points = [(float(x), int(t)) for x, t in grid]
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
                v = abs(dj_residue_sum(X, T).value)
                b = X / T
            elif which == "large_X":
                if X < T / 8.0:
                    raise RegimeError("large_X regime is X >= T/8")
                v = abs(dj_residue_sum(X, T).value)
                b = X / math.sqrt(T)
            elif which == "souped_up":
                M = _souped_family().M
                v = abs(_residue_value(_souped_family(), X, T)[0])
                b = X ** M * T ** (1.5 - 2.0 * M) + T ** -1.5
            elif which == "stationary_A":
                v = stationary_phase_sums(X, T)[0]
                b = X ** 4 / T ** 7
            else:
                v = stationary_phase_sums(X, T)[1]
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
