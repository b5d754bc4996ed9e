"""Both sides of the level-1 trace formula: the geometric side (delta,
Eisenstein, Kloosterman terms) computed from special functions and
arithmetic, the spectral side from ingested eigenform data, identity
verification, the total spectral mass, and weighted eigenvalue averages.

The admissible-weight catalogue is closed: the spectral weight h_T itself,
centered Gaussians, log(1+r^2) h_T for conductor averages, and finite linear
combinations of these. All are even by construction (AdmissibleWeight.eval
reads only |r|) and holomorphic in the required strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import kloosterman_sums
from .besseltransform import (
    ResidueEvaluator,
    _band_panels,
    _gl_panels,
    _im_scaled_grid,
    _osc_panel_edges,
)
from .errors import (
    DomainError,
    MissingCoefficientError,
    VerificationError,
)
from .maassdata import _KIM_SARNAK, _untempered_prime
from .specfun import _series_grid_prefactor, _series_grid_sum, zeta_abs2_grid
from .weights import (
    WeightFamily,
    _transform_rows,
    default_family,
    make_spectral_weight,
)

__all__ = [
    "AdmissibleWeight",
    "GeometricBreakdown",
    "weight_spectral",
    "weight_gaussian",
    "weight_log_conductor",
    "weight_combination",
    "geometric_side",
    "spectral_side",
    "verify_trace_identity",
    "total_mass",
    "averaged_eigenvalue",
]


@dataclass(frozen=True)
class AdmissibleWeight:
    kind: str  # h_T | gaussian | log_h_T | combo
    description: str
    T: int | None = None
    center: float = 0.0
    width: float = 1.0
    components: tuple = ()  # (coefficient, AdmissibleWeight) pairs for combos
    family: WeightFamily | None = None  # the h_T and log_h_T kinds only

    def eval(self, r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        if self.kind in ("h_T", "log_h_T"):
            h = make_spectral_weight(self.family, self.T).h_T_real(r)
            return h if self.kind == "h_T" else np.log1p(r * r) * h
        if self.kind == "gaussian":
            c, s = self.center, self.width
            return np.exp(-0.5 * ((r - c) / s) ** 2) + np.exp(
                -0.5 * ((r + c) / s) ** 2
            )
        if self.kind == "combo":
            acc = np.zeros_like(np.asarray(r, dtype=float))
            for coef, w in self.components:
                acc = acc + coef * w.eval(r)
            return acc
        raise DomainError(f"unknown weight kind {self.kind!r}")

    def r_cut(self) -> float:
        """Truncation radius. A Gaussian is cut at center + 10 width, where
        each bump is e^-50 (about 1.9e-22) of its peak; h_T and log h_T
        where they fall below 1e-16 of their peak on a 4000-point grid over
        [0, 40 T]; a combination at the largest radius of its components."""
        if self.kind == "gaussian":
            return self.center + 10.0 * self.width
        if self.kind in ("h_T", "log_h_T"):
            grid = np.linspace(0.0, 40.0 * self.T, 4000)
            vals = np.abs(self.eval(grid))
            peak = float(vals.max())
            above = np.nonzero(vals > 1e-16 * peak)[0]
            return float(grid[min(above[-1] + 2, grid.size - 1)])
        return max(w.r_cut() for _, w in self.components)


def _family_weight(kind: str, label: str, T: int, family) -> AdmissibleWeight:
    family = family or default_family()
    T = make_spectral_weight(family, T).T
    return AdmissibleWeight(kind=kind, description=f"{label}, T={T}", T=T, family=family)


def weight_spectral(T: int, family: WeightFamily | None = None) -> AdmissibleWeight:
    """h_T of the family (the default family when None)."""
    return _family_weight("h_T", "h_T", T, family)


def weight_gaussian(center: float, width: float) -> AdmissibleWeight:
    center, width = float(center), float(width)
    if not (math.isfinite(center) and math.isfinite(width)) or width <= 0.0 or center < 0.0:
        raise DomainError("gaussian weight needs a finite center >= 0 and width > 0")
    return AdmissibleWeight(
        kind="gaussian",
        description=f"symmetrized gaussian c={center} w={width}",
        center=center,
        width=width,
    )


def weight_log_conductor(T: int, family: WeightFamily | None = None) -> AdmissibleWeight:
    """log(1 + r^2) h_T of the family (the default family when None)."""
    return _family_weight("log_h_T", "log(1+r^2) h_T", T, family)


def weight_combination(parts) -> AdmissibleWeight:
    parts = tuple((float(a), w) for a, w in parts)
    if not parts:
        raise DomainError("empty combination")
    return AdmissibleWeight(
        kind="combo",
        description=" + ".join(f"{a}*({w.description})" for a, w in parts),
        components=parts,
    )


# ----------------------------------------------------------------------------
# Quadrature grids, cached per weight
# ----------------------------------------------------------------------------

# Band limit (radians per unit r) of the smooth integrands, for _band_panels:
# panels of width 4 pi / 42 = 0.299. The Eisenstein integrand
# H(r) cos(r log(md/ne)) / |zeta(1 + 2ir)|^2 oscillates at |log(md/ne)|, at
# most 2 log m <= 2 log 10^7 = 32.2 for n = 1 below the density prime cap.
# The rest of the band is margin for H / |zeta|^2: H varies on the scale of
# its width or of T, and the Dirichlet coefficients mu(a) mu(b) / (ab) of
# 1/|zeta|^2 weigh a frequency 2 log(a/b) by at most 1/(ab). Measured for
# h_T and log(1 + r^2) h_T at T = 11 and 41, the integral against
# cos(r lambda) matches a grid of half the panel width to within 1.2e-14 of
# the integral of H for every lambda up to 50 rad per unit, and by up to
# 1.3e-13 at lambda = 60.
_SMOOTH_BAND = 42.0


class _SmoothGrid:
    """Shared grid for the delta and Eisenstein integrals of one weight."""

    def __init__(self, weight: AdmissibleWeight):
        r_cut = weight.r_cut()
        self.r, self.w = _band_panels(r_cut, _SMOOTH_BAND)
        self.H = weight.eval(self.r)
        self.r_cut = r_cut
        self.zeta2 = zeta_abs2_grid(self.r)
        with np.errstate(divide="ignore"):
            self.eis_base = np.where(
                np.isfinite(self.zeta2), self.w * self.H / self.zeta2, 0.0
            )

    def delta_integral(self) -> float:
        # (1/pi^2) * two-sided integral of r H(r) tanh(pi r)
        return (2.0 / math.pi ** 2) * float(
            np.dot(self.w, self.r * self.H * np.tanh(math.pi * self.r))
        )

    def eisenstein_contribution(self, m: int, n: int) -> float:
        # -(1/pi) * two-sided integral; the integrand's real part is a cosine
        # sum over divisor pairs, log-spaced at log(m d / (n e))
        logs = [
            math.log(m * d) - math.log(n * e)
            for d in _divisors(m)
            for e in _divisors(n)
        ]
        acc = np.zeros_like(self.r)
        for lg in logs:
            acc += np.cos(self.r * lg)
        return -(2.0 / math.pi) * float(np.dot(self.eis_base, acc))


def _divisors(n: int) -> list:
    n = int(n)
    out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


# Largest x of the series batch of _OscGrid.integrals. The batch sums each
# series coefficient over the nodes before it sums the series over n, so it
# rounds at about u ||wrH||_1 sum_n (x^2/4)^n / (n!)^2 = u ||wrH||_1 I_0(x),
# where the per-x series cancels node by node. I_0(8) = 427.6: there the
# batch agrees with the per-x route within 6.4 u ||wrH||_1 I_0(x) over
# Gaussian and log-conductor weights, and with a 60-digit mpmath node sum as
# closely as that route does (1.03e-14 against 1.09e-14 at x = 7.7 for the
# Gaussian (14.7, 3.675)). At x = 4 pi sqrt(6) = 30.78, where I_0 = 2.6e12,
# it misses that sum by 9.9e-9 against the per-x 6.0e-12.
_BATCH_X_MAX = 8.0
# Bound below which the batch drops a series term. Term n at node r is
# A_r c_n(r) q^n with |c_n(r)| <= 1/(n!)^2 (as |k + 2ir| >= k) and
# |A_r|^2 = tanh(pi r)/(pi r) <= 1 (as |Gamma(1 + 2ir)|^2 =
# 2 pi r / sinh(2 pi r)), so (x^2/4)^n / (n!)^2 bounds it at every r. The
# bound rises from 1 at n = 0 to its peak near n = x/2 and falls after it,
# so its first value below 1e-18 lies past the peak, and the dropped tail is
# at most about 1e-18 ||wrH||_1: the per-x series also stops at 1e-18.
_BATCH_TERM_TOL = 1e-18
# Bytes of one node chunk of the coefficients b_n(r), built afresh for each
# chunk and never cached: the whole node x term matrix of the T = 21
# conductor grid would take 63,440 x 24 x 16 bytes = 24 MB. With 64 KiB
# chunks the trace benchmark's peak RSS rose by 0.4 MB.
_BATCH_CHUNK_BYTES = 64 * 1024


def _series_terms(x: np.ndarray) -> np.ndarray:
    """Series terms the batch keeps at each x: the first n whose bound
    (x^2/4)^n / (n!)^2 is below _BATCH_TERM_TOL."""
    y = 0.25 * x * x
    k = np.zeros(x.shape, dtype=int)
    bound = np.ones(x.shape)
    while (live := bound >= _BATCH_TERM_TOL).any():
        k += live
        bound[live] *= y[live] / (k[live] * k[live])
    return k


class _OscGrid:
    """Kloosterman-integral grid for a generic (non-h_T) weight.

    Panels track the e^{2ir log(x/2)} oscillation at the smallest x used;
    the log-gamma and log-cosh node factors are computed once. integrals
    takes every x <= _BATCH_X_MAX through one series batch and the larger x
    one by one through integral.
    """

    def __init__(self, weight: AdmissibleWeight, x_min: float):
        edges = _osc_panel_edges(weight.r_cut(), max(x_min, 1e-6), 0.8)
        self.r, w = _gl_panels(edges)
        self.wrH = w * self.r * weight.eval(self.r)
        self._pre = _series_grid_prefactor(self.r)

    def integral(self, x: float) -> complex:
        """Two-sided integral of J_{2ir}(x) r H(r)/cosh(pi r); purely imaginary."""
        if x > 36.0:
            im = _im_scaled_grid(self.r, x)
        else:
            im = _series_grid_sum(self._pre, x).imag
        return 2j * float(np.dot(self.wrH, im))

    def integrals(self, xs) -> np.ndarray:
        """integral(x) for every x of xs.

        An x > _BATCH_X_MAX is integral(x) bit for bit. The others come from
        one batch over the series

            J_{2ir}(x)/cosh(pi r) = e^{2ir log(x/2)} sum_n q^n A_r c_n(r),

        q = -x^2/4, A_r = exp(-log Gamma(1 + 2ir) - log cosh(pi r)),
        c_n = prod_{k <= n} 1/(k (k + 2ir)). With b_n = wrH A_r c_n and
        theta = 2r log(x/2), the node sum of term n is
        P_n(x) = cos(theta) @ Im b_n + sin(theta) @ Re b_n, formed for all x
        of a band of equal term count by _transform_rows, one node chunk at a
        time, and summed over n by Horner's rule in q.
        """
        xs = np.asarray(xs, dtype=float)
        out = np.empty(xs.shape, dtype=complex)
        small = xs <= _BATCH_X_MAX
        for i in np.flatnonzero(~small):
            out[i] = self.integral(float(xs[i]))
        if small.any():
            out[small] = 2j * self._series_batch(xs[small])
        return out

    def _series_batch(self, x: np.ndarray) -> np.ndarray:
        """sum_r wrH Im[J_{2ir}(x)/cosh(pi r)] for x <= _BATCH_X_MAX."""
        terms = _series_terms(x)
        bands = [(int(k), np.flatnonzero(terms == k))
                 for k in np.flatnonzero(np.bincount(terms))]
        log_half = np.log(0.5 * x)  # theta = 2r log_half in _transform_rows
        sums = [np.zeros((idx.size, k)) for k, idx in bands]
        k_max = bands[-1][0]
        nu, lg, lc = self._pre
        step = max(1, _BATCH_CHUNK_BYTES // (16 * k_max))
        for lo in range(0, self.r.size, step):
            nodes = slice(lo, lo + step)
            r = self.r[nodes]
            b = np.empty((r.size, k_max), dtype=complex)
            b[:, 0] = self.wrH[nodes] * np.exp(-lg[nodes] - lc[nodes])
            for n in range(1, k_max):
                b[:, n] = b[:, n - 1] / (n * (n + nu[nodes]))
            re, im = np.ascontiguousarray(b.real), np.ascontiguousarray(b.imag)
            for (k, idx), acc in zip(bands, sums):
                acc += _transform_rows(np.cos, 2.0, log_half[idx], r, im[:, :k])
                acc += _transform_rows(np.sin, 2.0, log_half[idx], r, re[:, :k])
        out = np.empty(x.size)
        for (k, idx), acc in zip(bands, sums):
            q = -0.25 * x[idx] * x[idx]
            val = acc[:, k - 1]
            for n in range(k - 2, -1, -1):
                val = val * q + acc[:, n]
            out[idx] = val
        return out


# Grids cached on the weight (which carries its family) and, for the
# oscillatory grid, an x bucket; one residue evaluator per (family, T),
# which grows with the largest X it is asked for. The largest key set in
# use, convergence_scan over T in {11, 21, 41, 81}, needs 8 smooth grids,
# 4 oscillatory grids and 4 evaluators.
_smooth_grid = lru_cache(maxsize=16)(_SmoothGrid)
_bucketed_osc_grid = lru_cache(maxsize=16)(_OscGrid)


def _osc_grid(weight: AdmissibleWeight, x_min: float) -> _OscGrid:
    # bucket x_min so nearby c_max choices share a grid
    return _bucketed_osc_grid(weight, 2.0 ** math.floor(math.log2(max(x_min, 1e-6))))


@lru_cache(maxsize=16)
def _residue_evaluator(family: WeightFamily, T: int) -> ResidueEvaluator:
    return ResidueEvaluator(family, T, 1.0)


# ----------------------------------------------------------------------------
# Geometric side
# ----------------------------------------------------------------------------


def _geometric_terms(H: AdmissibleWeight, ms, n: int, c_max: int, c_star) -> list:
    """[(Eisenstein term, c <= c* sum, c > c* sum, tail budget)] for each m of
    ms, with c* = c_star(4 pi sqrt(mn)).

    The sums run in c order over the terms S(m,n;c)/c * integral(X),
    X = 4 pi sqrt(mn)/c, of the c <= c_max with S != 0; the X of every m go
    through one residue-evaluator call (h_T) or the oscillatory grid (other
    weights). Tail: |S| <= tau(c) gcd(m,n)^{1/2} c^{1/2}; |integral(x)| ~
    slope * x for small x, slope taken from the last computed value.
    """
    ms, n, c_max = [int(m) for m in ms], int(n), int(c_max)
    if min(ms) < 1 or n < 1:
        raise DomainError("m, n must be >= 1")
    if c_max < 1:
        raise DomainError("c_max must be >= 1")
    s = kloosterman_sums(ms, n, c_max)
    roots = [4.0 * math.pi * math.sqrt(m * n) for m in ms]
    cs = [np.nonzero(s_m)[0] + 1 for s_m in s]
    xs = np.concatenate([root / c for root, c in zip(roots, cs)])
    if H.kind == "h_T":
        vals = _residue_evaluator(H.family, H.T).values(xs)
    else:
        vals = _osc_grid(H, min(roots) / c_max).integrals(xs)
    ends = np.cumsum([c.size for c in cs]).tolist()
    grid = _smooth_grid(H)
    out = []
    for m, root, s_m, c, lo, hi in zip(ms, roots, s, cs, [0] + ends, ends):
        split = c_star(root)
        small = large = 0.0j
        terms = zip(c.tolist(), s_m[c - 1].tolist(), vals[lo:hi].tolist())
        for c_i, s_c, val in terms:
            if c_i <= split:
                small += (s_c / c_i) * val
            else:
                large += (s_c / c_i) * val
        slope = abs(complex(vals[hi - 1])) / (root / c_max)
        tail = (
            slope * root * 2.0 * (math.log(c_max + 1.0) + 2.0)
            * math.sqrt(math.gcd(m, n)) / math.sqrt(c_max) * (2.0 / math.pi)
        )
        out.append((grid.eisenstein_contribution(m, n), small, large, tail))
    return out


@dataclass(frozen=True)
class GeometricBreakdown:
    delta_term: float
    eisenstein_term: float  # signed contribution, -(1/pi) integral included
    kloosterman_term: complex  # raw sum over c of S(m,n;c)/c * integral
    c_max: int
    r_max: float
    error_budget: float

    @property
    def kloosterman_contribution(self) -> float:
        return ((2j / math.pi) * self.kloosterman_term).real

    def total(self) -> float:
        return self.delta_term + self.eisenstein_term + self.kloosterman_contribution

    def residual_imag(self) -> float:
        return abs(((2j / math.pi) * self.kloosterman_term).imag)


def geometric_side(
    m: int, n: int, H: AdmissibleWeight, c_max: int = 1000
) -> GeometricBreakdown:
    """Delta, Eisenstein, and Kloosterman terms of the trace formula.

    The Kloosterman c-sum is truncated at c_max; the tail is budgeted with
    the divisor bound on S(m,n;c) against the observed linear small-x decay
    of the Bessel integral.
    """
    m, n, c_max = int(m), int(n), int(c_max)
    [(eis, small, large, tail)] = _geometric_terms(
        H, [m], n, c_max, lambda _: c_max
    )
    grid = _smooth_grid(H)
    delta = grid.delta_integral() if m == n else 0.0
    kloo = small + large
    trunc = abs(grid.H[-1]) * grid.r_cut ** 2 * 10.0
    return GeometricBreakdown(
        delta_term=delta,
        eisenstein_term=eis,
        kloosterman_term=kloo,
        c_max=c_max,
        r_max=grid.r_cut,
        error_budget=tail + trunc,
    )


# ----------------------------------------------------------------------------
# Spectral side
# ----------------------------------------------------------------------------


def _lambda_of(record, m: int) -> float:
    if m == 1:
        return 1.0
    lam = record.lambdas.get(m)
    if lam is None:
        raise MissingCoefficientError(f"lambda_{m} absent for t = {record.t}")
    return float(lam)


def spectral_side(m: int, n: int, H: AdmissibleWeight, data) -> tuple:
    """(finite spectral sum, tail budget from Weyl's law).

    The tail beyond the last record counts the forms at Weyl's density for
    SL_2(Z), dN/dt = t/6 from N(t) = t^2/12 + O(t log t), with
    lambda_m lambda_n capped at 4 (mn)^theta (Kim-Sarnak theta).
    """
    if not data:
        raise DomainError("spectral data must be nonempty")
    ts = [rec.t for rec in data]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise DomainError("spectral data must be sorted by t")
    for rec in data:
        p = _untempered_prime(rec, (2, 3, 5, 7))
        if p is not None:
            raise DomainError(
                f"lambda_{p} = {rec.lambdas[p]} violates the tempered-range bound"
            )
    acc = 0.0
    for rec in data:
        hv = float(H.eval(np.array([rec.t]))[0])
        acc += hv / rec.norm_sq * _lambda_of(rec, m) * _lambda_of(rec, n)
    t_max = ts[-1]
    lam_cap = 4.0 * (m * n) ** _KIM_SARNAK
    grid = np.linspace(t_max, H.r_cut() + t_max + 1.0, 2000)
    dens = grid / 6.0
    tail = lam_cap * float(
        np.trapezoid(np.abs(H.eval(grid)) * dens, grid)
    )
    return acc, tail


def verify_trace_identity(
    m: int, n: int, H: AdmissibleWeight, data, c_max: int = 1000
) -> dict:
    """Compare the two sides; raises if they disagree beyond combined budgets."""
    geom = geometric_side(m, n, H, c_max=c_max)
    report = {
        "m": int(m),
        "n": int(n),
        "weight": {"kind": H.kind, "description": H.description},
        "geometric": {
            "delta": geom.delta_term,
            "eisenstein": geom.eisenstein_term,
            "kloosterman": geom.kloosterman_contribution,
            "total": geom.total(),
        },
        "budgets": {"geometric": geom.error_budget},
    }
    if not data:
        report["spectral"] = 0.0
        report["budgets"]["spectral_tail"] = math.inf
        report["flags"] = ["no spectral data: tail budget unusable"]
        return report
    spec, tail = spectral_side(m, n, H, data)
    report["spectral"] = spec
    report["budgets"]["spectral_tail"] = tail
    gap = abs(spec - geom.total())
    budget = tail + geom.error_budget + 1e-3 * max(abs(spec), abs(geom.total()), 1e-12)
    report["gap"] = gap
    report["combined_budget"] = budget
    report["pass"] = bool(gap <= budget)
    if not report["pass"]:
        raise VerificationError(
            f"trace identity fails for (m, n) = ({m}, {n}): gap {gap:.3e} "
            f"exceeds budget {budget:.3e}",
            report=report,
        )
    return report


def total_mass(T: int, c_max: int = 1000, family: WeightFamily | None = None) -> float:
    """Geometric-side value of the m = n = 1 spectral sum with weight h_T."""
    return geometric_side(1, 1, weight_spectral(T, family), c_max=c_max).total()


def averaged_eigenvalue(
    m: int, T: int, c_max: int = 1000, family: WeightFamily | None = None
) -> float:
    """Avg(lambda_m) under the h_T/||u||^2 weighting, from the geometric side."""
    m = int(m)
    if m < 1:
        raise DomainError("m must be >= 1")
    weight = weight_spectral(T, family)
    if m == 1:
        return 1.0
    return geometric_side(m, 1, weight, c_max=c_max).total() / total_mass(
        T, c_max=c_max, family=family
    )
