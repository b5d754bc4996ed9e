"""Both sides of the level-1 trace formula: the geometric side (delta,
Eisenstein, Kloosterman terms) computed from special functions and
arithmetic, the spectral side from ingested eigenform data, identity
verification, the total spectral mass, and weighted eigenvalue averages.

The admissible-weight catalogue is closed: the spectral weight h_T itself,
centered Gaussians, log(1+r^2) h_T for conductor averages, and finite linear
combinations of these. All are even and holomorphic in the required strip by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import kloosterman_sum
from .besseltransform import (
    ResidueEvaluator,
    _gl_panels,
    _im_scaled_grid,
    _osc_panel_edges,
)
from .errors import (
    DomainError,
    MissingCoefficientError,
    VerificationError,
)
from .specfun import _series_grid_prefactor, _series_grid_sum, zeta_abs2_grid
from .weights import default_family, make_spectral_weight

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

_KIM_SARNAK = 7.0 / 64.0


@dataclass(frozen=True)
class AdmissibleWeight:
    kind: str  # h_T | gaussian | log_h_T | combo
    description: str
    T: int | None = None
    center: float = 0.0
    width: float = 1.0
    components: tuple = ()  # (coefficient, AdmissibleWeight) pairs for combos

    def eval(self, r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        if self.kind == "h_T":
            return _spectral_weight(self.T).h_T_real(r)
        if self.kind == "log_h_T":
            return np.log1p(r * r) * _spectral_weight(self.T).h_T_real(r)
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
        """Truncation radius: where the weight falls below 1e-16 of its peak."""
        if self.kind == "gaussian":
            return self.center + 10.0 * self.width
        if self.kind in ("h_T", "log_h_T"):
            grid = np.linspace(0.0, 40.0 * self.T, 4000)
            vals = np.abs(self.eval(grid))
            peak = float(vals.max())
            above = np.nonzero(vals > 1e-16 * peak)[0]
            return float(grid[min(above[-1] + 2, grid.size - 1)])
        return max(w.r_cut() for _, w in self.components)


def _check_even(w: AdmissibleWeight):
    grid = np.array([0.3, 1.7, 5.1, 11.2])
    a = w.eval(grid)
    b = w.eval(-grid)
    if np.max(np.abs(a - b)) > 1e-12 * (1.0 + float(np.max(np.abs(a)))):
        raise DomainError("admissible weights must be even")


def _spectral_weight(T: int):
    # the family constructor is cached on its parameters, so rebuilding the
    # thin spectral wrapper here keeps the pair consistent with the current
    # process-wide default weight
    return make_spectral_weight(default_family(), T)


def weight_spectral(T: int) -> AdmissibleWeight:
    _spectral_weight(int(T))  # validates T
    w = AdmissibleWeight(kind="h_T", description=f"h_T, T={T}", T=int(T))
    _check_even(w)
    return w


def weight_gaussian(center: float, width: float) -> AdmissibleWeight:
    center, width = float(center), float(width)
    if width <= 0.0 or center < 0.0:
        raise DomainError("gaussian weight needs center >= 0 and width > 0")
    w = AdmissibleWeight(
        kind="gaussian",
        description=f"symmetrized gaussian c={center} w={width}",
        center=center,
        width=width,
    )
    _check_even(w)
    return w


def weight_log_conductor(T: int) -> AdmissibleWeight:
    _spectral_weight(int(T))
    w = AdmissibleWeight(
        kind="log_h_T", description=f"log(1+r^2) h_T, T={T}", T=int(T)
    )
    _check_even(w)
    return w


def weight_combination(parts) -> AdmissibleWeight:
    parts = tuple((float(a), w) for a, w in parts)
    if not parts:
        raise DomainError("empty combination")
    w = AdmissibleWeight(
        kind="combo",
        description=" + ".join(f"{a}*({w.description})" for a, w in parts),
        components=parts,
    )
    _check_even(w)
    return w


# ----------------------------------------------------------------------------
# Quadrature grids, cached per weight
# ----------------------------------------------------------------------------

_SMOOTH_PANEL = 0.15  # resolves cos(r log(md/ne)) up to log ~ 20 rad per unit


class _SmoothGrid:
    """Shared grid for the delta and Eisenstein integrals of one weight."""

    def __init__(self, weight: AdmissibleWeight):
        r_cut = weight.r_cut()
        n_panels = int(math.ceil(r_cut / _SMOOTH_PANEL))
        self.r, self.w = _gl_panels(np.linspace(0.0, r_cut, n_panels + 1))
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


class _OscGrid:
    """Kloosterman-integral grid for a generic (non-h_T) weight.

    Panels track the e^{2ir log(x/2)} oscillation at the smallest x used;
    the log-gamma and log-cosh node factors are computed once, so the
    per-x series costs only a handful of vectorized passes.
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


_smooth_cache: dict = {}
_osc_cache: dict = {}
_residue_cache: dict = {}


def _family_key() -> tuple:
    fam = default_family()
    return (fam.M, fam.bump_halfwidth)


def _smooth_grid(weight: AdmissibleWeight) -> _SmoothGrid:
    key = (weight, _family_key())
    if key not in _smooth_cache:
        _smooth_cache[key] = _SmoothGrid(weight)
    return _smooth_cache[key]


def _osc_grid(weight: AdmissibleWeight, x_min: float) -> _OscGrid:
    # bucket x_min so nearby c_max choices share a grid
    bucket = 2.0 ** math.floor(math.log2(max(x_min, 1e-6)))
    key = (weight, bucket, _family_key())
    if key not in _osc_cache:
        _osc_cache[key] = _OscGrid(weight, bucket)
    return _osc_cache[key]


def _residue_evaluator(T: int, x_max: float) -> ResidueEvaluator:
    bucket = 2.0 ** math.ceil(math.log2(max(x_max, 1.0)))
    key = (T, bucket, _family_key())
    if key not in _residue_cache:
        _residue_cache[key] = ResidueEvaluator(
            default_family(), T, bucket
        )
    return _residue_cache[key]


# ----------------------------------------------------------------------------
# Geometric side
# ----------------------------------------------------------------------------


def _kloosterman_c_sum(cs, s, vals, root, c_max, c_star, gcd=1) -> tuple:
    """(sum over c <= c_star, sum over c > c_star, tail budget) of the terms
    S(m,n;c)/c * integral(root/c), root = 4 pi sqrt(mn).

    cs holds the moduli c <= c_max with S != 0 in ascending order, s their
    Kloosterman sums and vals the integral values; the sums run in c order.
    Tail: |S| <= tau(c) gcd^{1/2} c^{1/2}; |integral(x)| ~ slope * x for
    small x, slope taken from the last computed value.
    """
    small = large = 0.0j
    for c, s_c, val in zip(cs.tolist(), s.tolist(), vals.tolist()):
        if c <= c_star:
            small += (s_c / c) * val
        else:
            large += (s_c / c) * val
    slope = (abs(complex(vals[-1])) if vals.size else 0.0) / (root / c_max)
    tail = (
        slope * root * 2.0 * (math.log(c_max + 1.0) + 2.0) * math.sqrt(gcd)
        / math.sqrt(c_max) * (2.0 / math.pi)
    )
    return small, large, tail


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
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise DomainError("m, n must be >= 1")
    c_max = int(c_max)
    if c_max < 1:
        raise DomainError("c_max must be >= 1")
    grid = _smooth_grid(H)
    delta = grid.delta_integral() if m == n else 0.0
    eis = grid.eisenstein_contribution(m, n)

    root = 4.0 * math.pi * math.sqrt(m * n)
    s = np.array([kloosterman_sum(m, n, c) for c in range(1, c_max + 1)])
    cs = np.nonzero(s)[0] + 1
    if H.kind == "h_T":
        vals = _residue_evaluator(H.T, root).values(root / cs)
    else:
        og = _osc_grid(H, root / c_max)
        vals = np.array([og.integral(x) for x in root / cs], dtype=complex)
    small, large, tail = _kloosterman_c_sum(
        cs, s[cs - 1], vals, root, c_max, c_max, math.gcd(m, n)
    )
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
    """(finite spectral sum, tail budget from a quadratic count fit)."""
    if not data:
        raise DomainError("spectral data must be nonempty")
    ts = [rec.t for rec in data]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise DomainError("spectral data must be sorted by t")
    for rec in data:
        for p in (2, 3, 5, 7):
            lam = rec.lambdas.get(p)
            if lam is not None and abs(lam) > 2.0 * p ** _KIM_SARNAK + 1e-6:
                raise DomainError(
                    f"lambda_{p} = {lam} violates the tempered-range bound"
                )
    acc = 0.0
    for rec in data:
        hv = float(H.eval(np.array([rec.t]))[0])
        acc += hv / rec.norm_sq * _lambda_of(rec, m) * _lambda_of(rec, n)
    # quadratic eigenvalue-count model N(t) ~ a t^2 fitted to the data itself
    t_max = ts[-1]
    a_fit = len(data) / (t_max * t_max) if t_max > 0 else 0.0
    lam_cap = 4.0 * (m * n) ** _KIM_SARNAK
    grid = np.linspace(t_max, H.r_cut() + t_max + 1.0, 2000)
    dens = 2.0 * a_fit * grid
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
    report["pass"] = gap <= budget
    if not report["pass"]:
        raise VerificationError(
            f"trace identity fails for (m, n) = ({m}, {n}): gap {gap:.3e} "
            f"exceeds budget {budget:.3e}",
            report=report,
        )
    return report


def total_mass(T: int, c_max: int = 1000) -> float:
    """Geometric-side value of the m = n = 1 spectral sum with weight h_T."""
    return geometric_side(1, 1, weight_spectral(T), c_max=c_max).total()


def averaged_eigenvalue(m: int, T: int, c_max: int = 1000) -> float:
    """Avg(lambda_m) under the h_T/||u||^2 weighting, from the geometric side."""
    m = int(m)
    if m < 1:
        raise DomainError("m must be >= 1")
    if m == 1:
        return 1.0
    return geometric_side(m, 1, weight_spectral(T), c_max=c_max).total() / total_mass(
        T, c_max=c_max
    )
