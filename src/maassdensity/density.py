"""Explicit-formula one-level-density pipeline.

Averaged over the h_T-weighted family, the density of low-lying zeros is

    total = phi(0)/2 + conductor - prime - prime_sq

with the conductor average and every Avg(lambda) computed from the geometric
side of the trace formula; the result is compared against the orthogonal
matrix prediction phi-hat(0) + phi(0)/2. Normalization scale R = T^2
throughout (log R = 2 log T).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import kloosterman_table, primes_up_to
from .besseltransform import ResidueEvaluator
from .errors import DomainError
from .kuznetsov import (
    _kloosterman_c_sum,
    _smooth_grid,
    geometric_side,
    weight_log_conductor,
    weight_spectral,
)
from .rmt import TestFunction, rmt_expected_value
from .weights import default_family

__all__ = [
    "DensityReport",
    "DensityEngine",
    "explicit_formula_average",
    "convergence_scan",
    "THEOREM_THRESHOLD",
    "extended_threshold",
]

THEOREM_THRESHOLD = 1.25  # support bound proven for the baseline weight
_PRIME_CAP = 10 ** 7


def extended_threshold(M: int) -> float:
    """Support bound available with an order-M weight: 2 - 3/(2(M+1))."""
    return 2.0 - 3.0 / (2.0 * (M + 1))


@dataclass(frozen=True)
class DensityReport:
    T: int
    eta: float
    const_term: float
    conductor_term: float
    prime_term: float
    prime_sq_term: float
    total: float
    rmt_o_prediction: float
    deviation: float
    split_large_p_small_c: float
    split_large_p_large_c: float
    split_small_p: float
    error_budget: float

    def assembly_residual(self) -> float:
        return abs(
            self.total
            - (self.const_term + self.conductor_term - self.prime_term - self.prime_sq_term)
        )


def _check_T(T) -> int:
    T = int(T)
    if T < 5 or T % 2 == 0:
        raise DomainError("T must be an odd integer >= 5")
    return T


class DensityEngine:
    """Per-T caches for density runs: total mass, conductor average, and the
    shared grids behind Avg(lambda_m)."""

    def __init__(self, T: int, c_max: int = 150, conductor_c_max: int = 60):
        self.T = T = _check_T(T)
        self.c_max = int(c_max)
        self.weight = weight_spectral(T)
        self.grid = _smooth_grid(self.weight)
        self.mass = geometric_side(1, 1, self.weight, c_max=self.c_max).total()
        lg = geometric_side(1, 1, weight_log_conductor(T), c_max=conductor_c_max)
        self.avg_log_conductor = lg.total() / self.mass
        self._residue: ResidueEvaluator | None = None
        self._lambdas: dict = {}  # m -> (avg, small-c, large-c, tail budget)

    def _evaluator(self, x_max: float) -> ResidueEvaluator:
        if self._residue is None or x_max > self._residue.X_max:
            self._residue = ResidueEvaluator(
                default_family(), self.T, x_max * 1.05
            )
        return self._residue

    def fill_lambdas(self, ms) -> None:
        """Memoise Avg(lambda_m) for every m >= 2 of ms, in one batch.

        Avg(lambda_m) is the Eisenstein part plus the Kloosterman part
        (2i/pi) sum_c S(m,1;c)/c D(4 pi sqrt(m)/c) / mass, split at the
        stationary scale c* = 4 pi sqrt(m)/T, with its tail budget. Every
        X = 4 pi sqrt(m)/c with S(m,1;c) != 0 of the new m goes through one
        evaluator call, sized for the largest m; each m is then summed in c
        order on its own.
        """
        ms = sorted({int(m) for m in ms} - self._lambdas.keys() - {1})
        if not ms:
            return
        mm = np.array(ms, dtype=np.int64)
        # S(m, 1; c): row m, column c - 1
        s = np.array(
            [kloosterman_table(c)[mm % c] for c in range(1, self.c_max + 1)]
        ).T
        roots = 4.0 * math.pi * np.sqrt(mm)
        nonzero = s != 0.0
        c = np.arange(1, self.c_max + 1)
        vals = self._evaluator(roots[-1]).values((roots[:, None] / c)[nonzero])
        ends = np.cumsum(nonzero.sum(axis=1)).tolist()
        to_real = lambda z: ((2j / math.pi) * z).real
        for m, root, s_m, nz, lo, hi in zip(
            ms, roots.tolist(), s, nonzero, [0] + ends, ends
        ):
            small_c, large_c, tail = _kloosterman_c_sum(
                c[nz], s_m[nz], vals[lo:hi], root, self.c_max, root / self.T
            )
            small_c, large_c = to_real(small_c), to_real(large_c)
            eis = self.grid.eisenstein_contribution(m, 1) / self.mass
            self._lambdas[m] = (
                eis + (small_c + large_c) / self.mass,
                small_c / self.mass,
                large_c / self.mass,
                tail / self.mass,
            )

    def averaged_lambda(self, m: int) -> tuple:
        """(Avg(lambda_m), small-c part, large-c part) of the Kloosterman piece.

        A one-m view of fill_lambdas. Memoised per m with its tail budget:
        eta scans on one engine reuse every m they share."""
        if m == 1:
            return 1.0, 0.0, 0.0
        if m not in self._lambdas:
            self.fill_lambdas([m])
        return self._lambdas[m][:3]


def _prime_support(T: int, phi: TestFunction) -> tuple:
    """The primes of the prime sum and of the prime-square sum for phi at T.

    Each is a list of (p, log p, phi-hat) in ascending p, kept only where
    phi-hat != 0. Raises DomainError when T^(2 eta) passes the prime cap.
    """
    log_r = 2.0 * math.log(T)
    p_cap = math.exp(phi.eta * log_r)
    if p_cap > _PRIME_CAP:
        raise DomainError(
            f"prime cutoff T^(2 eta) = {p_cap:.3e} exceeds the prime cap"
        )

    def terms(limit: float, power: float) -> list:
        ps = primes_up_to(int(limit)).tolist()
        logs = [math.log(p) for p in ps]
        hats = phi.phi_hat(power * np.array(logs) / log_r).tolist()
        return [t for t in zip(ps, logs, hats) if t[2] != 0.0]

    return terms(p_cap, 1.0), terms(math.exp(0.5 * phi.eta * log_r), 2.0)


def explicit_formula_average(
    T: int, phi: TestFunction, c_max: int = 150, engine: DensityEngine | None = None
) -> DensityReport:
    """One-level density of the h_T-weighted family against the test function.

    The prime cap is checked before an engine is built; a passed engine's T
    wins over the T argument.
    """
    T = _check_T(T) if engine is None else engine.T
    eta = phi.eta
    log_r = 2.0 * math.log(T)
    primes, roots = _prime_support(T, phi)
    if engine is None:
        engine = DensityEngine(T, c_max=c_max)
    engine.fill_lambdas([p for p, _, _ in primes] + [p * p for p, _, _ in roots])
    phi0 = float(phi.phi(np.array([0.0]))[0])
    hat0 = float(phi.phi_hat(np.array([0.0]))[0])

    const_term = 0.5 * phi0
    conductor_term = hat0 * engine.avg_log_conductor / log_r

    p_thresh = T * T / (4.0 * math.pi ** 2)
    prime_term = 0.0
    split_lp_sc = 0.0  # p >= T^2/(4 pi^2), c <= 4 pi sqrt(p)/T
    split_lp_lc = 0.0
    split_sp = 0.0
    budget = 0.0  # Kloosterman tail budgets of the m used by this report
    for p, log_p, hat in primes:
        coef = 2.0 * log_p / (math.sqrt(p) * log_r) * hat
        avg, small_c, large_c = engine.averaged_lambda(p)
        budget += engine._lambdas[p][3]
        prime_term += coef * avg
        if p >= p_thresh:
            split_lp_sc += coef * small_c
            split_lp_lc += coef * large_c
        else:
            split_sp += coef * (small_c + large_c)

    prime_sq_term = 0.0
    for p, log_p, hat in roots:
        coef = 2.0 * log_p / (p * log_r) * hat
        avg, _, _ = engine.averaged_lambda(p * p)
        budget += engine._lambdas[p * p][3]
        prime_sq_term += coef * avg

    total = const_term + conductor_term - prime_term - prime_sq_term
    prediction = rmt_expected_value(phi, "O")
    return DensityReport(
        T=T,
        eta=eta,
        const_term=const_term,
        conductor_term=conductor_term,
        prime_term=prime_term,
        prime_sq_term=prime_sq_term,
        total=total,
        rmt_o_prediction=prediction,
        deviation=abs(total - prediction),
        split_large_p_small_c=split_lp_sc,
        split_large_p_large_c=split_lp_lc,
        split_small_p=split_sp,
        error_budget=budget,
    )


def convergence_scan(
    T_list, eta_list, phi_factory, c_max: int = 150
) -> tuple[list, list]:
    """Density reports over a (T, eta) grid, plus threshold flags.

    Returns (reports, flags); flags lists (T, eta, message) for eta values
    outside the proven support range of the baseline weight.
    """
    T_list = [int(t) for t in T_list]
    if any(t % 2 == 0 for t in T_list):
        raise DomainError("all T must be odd")
    eta_list = [float(e) for e in eta_list]
    if any(e >= 2.0 for e in eta_list):
        raise DomainError("eta must be < 2")
    flags = []
    for eta in eta_list:
        if eta >= THEOREM_THRESHOLD:
            flags.append(
                (
                    None,
                    eta,
                    f"eta = {eta} is outside the proven range "
                    f"(< {THEOREM_THRESHOLD} for the baseline weight; "
                    f"< {extended_threshold(default_family().M):.4f} requires higher order)",
                )
            )
    reports = []
    for T in T_list:
        phis = [phi_factory(eta) for eta in eta_list]
        ms = set()
        for phi in phis:
            primes, roots = _prime_support(T, phi)
            ms.update(p for p, _, _ in primes)
            ms.update(p * p for p, _, _ in roots)
        engine = DensityEngine(T, c_max=c_max)
        engine.fill_lambdas(ms)
        for phi in phis:
            reports.append(explicit_formula_average(T, phi, engine=engine))
    return reports, flags


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(
        [
            "T",
            "eta",
            "const",
            "conductor",
            "prime",
            "prime_sq",
            "total",
            "prediction",
            "deviation",
        ]
    )
    for rep in reports:
        wr.writerow(
            [
                rep.T,
                repr(rep.eta),
                repr(rep.const_term),
                repr(rep.conductor_term),
                repr(rep.prime_term),
                repr(rep.prime_sq_term),
                repr(rep.total),
                repr(rep.rmt_o_prediction),
                repr(rep.deviation),
            ]
        )
    return buf.getvalue()


def splits_to_csv(reports) -> str:
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(["T", "eta", "large_p_small_c", "large_p_large_c", "small_p"])
    for rep in reports:
        wr.writerow(
            [
                rep.T,
                repr(rep.eta),
                repr(rep.split_large_p_small_c),
                repr(rep.split_large_p_large_c),
                repr(rep.split_small_p),
            ]
        )
    return buf.getvalue()
