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

from .arithmetic import primes_up_to
from .errors import DomainError
from .kuznetsov import (
    _geometric_terms,
    geometric_side,
    weight_log_conductor,
    weight_spectral,
)
from .rmt import TestFunction, make_test_function, rmt_expected_value
from .weights import WeightFamily, _check_odd_T, default_family

__all__ = [
    "DensityReport",
    "DensityEngine",
    "explicit_formula_average",
    "convergence_scan",
    "THEOREM_THRESHOLD",
    "extended_threshold",
]

_PRIME_CAP = 10 ** 7

# Kloosterman modulus cap of the conductor average in every DensityEngine
_CONDUCTOR_C_MAX = 60


def extended_threshold(M: int) -> float:
    """Support bound available with an order-M weight: 2 - 3/(2(M+1))."""
    return 2.0 - 3.0 / (2.0 * (M + 1))


# the support bound 2 - 3/(2(M+1)) at M = 1, exactly 1.25
THEOREM_THRESHOLD = extended_threshold(1)


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
    """weights' rule on T, plus the density floor T >= 5."""
    T = _check_odd_T(T)
    if T < 5:
        raise DomainError(f"T must be an odd integer >= 5, got {T}")
    return T


class DensityEngine:
    """Per-(family, T) caches for density runs: total mass, conductor average,
    and the memoised Avg(lambda_m). The family defaults to
    weights.default_family()."""

    def __init__(self, T: int, c_max: int = 150, family: WeightFamily | None = None):
        self.T = T = _check_T(T)
        self.c_max = int(c_max)
        self.family = family or default_family()
        self.weight = weight_spectral(T, self.family)
        self.mass = geometric_side(1, 1, self.weight, c_max=self.c_max).total()
        lg = geometric_side(
            1, 1, weight_log_conductor(T, self.family), c_max=_CONDUCTOR_C_MAX
        )
        self.avg_log_conductor = lg.total() / self.mass
        self._lambdas: dict = {}  # m -> (avg, small-c, large-c, tail budget)

    def fill_lambdas(self, ms) -> None:
        """Memoise Avg(lambda_m) for every m >= 2 of ms, in one batch.

        Avg(lambda_m) is the Eisenstein part plus the Kloosterman part
        (2i/pi) sum_c S(m,1;c)/c D(4 pi sqrt(m)/c) / mass, split at the
        stationary scale c* = 4 pi sqrt(m)/T, with its tail budget: one
        kuznetsov._geometric_terms call over the new m, divided by the mass.
        Raises DomainError for an m < 1.
        """
        ms = sorted({int(m) for m in ms} - self._lambdas.keys() - {1})
        if not ms:
            return
        terms = _geometric_terms(
            self.weight, ms, 1, self.c_max, lambda root: root / self.T
        )
        to_real = lambda z: ((2j / math.pi) * z).real
        for m, (eis, small_c, large_c, tail) in zip(ms, terms):
            small_c, large_c = to_real(small_c), to_real(large_c)
            self._lambdas[m] = (
                eis / self.mass + (small_c + large_c) / self.mass,
                small_c / self.mass,
                large_c / self.mass,
                tail / self.mass,
            )

    def averaged_lambda(self, m: int) -> tuple:
        """(Avg(lambda_m), small-c part, large-c part, tail budget) of the
        Kloosterman piece; (1, 0, 0, 0) at m = 1.

        A one-m view of fill_lambdas. Memoised per m: eta scans on one
        engine reuse every m they share."""
        if m == 1:
            return 1.0, 0.0, 0.0, 0.0
        if m not in self._lambdas:
            self.fill_lambdas([m])
        return self._lambdas[m]


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
    T: int, phi: TestFunction, c_max: int | None = None,
    engine: DensityEngine | None = None, family: WeightFamily | None = None,
) -> DensityReport:
    """One-level density of the h_T-weighted family against the test function.

    The prime cap is checked before an engine is built; without an engine,
    one is built with c_max (150 when None). A passed engine must match T,
    and c_max and family unless they are None (DomainError otherwise).
    """
    T = _check_T(T)
    if engine is not None and (
        T != engine.T
        or (c_max is not None and int(c_max) != engine.c_max)
        or (family is not None and family != engine.family)
    ):
        raise DomainError("T, c_max and family must match the engine's")
    eta = phi.eta
    log_r = 2.0 * math.log(T)
    primes, roots = _prime_support(T, phi)
    if engine is None:
        engine = DensityEngine(T, c_max=150 if c_max is None else c_max, family=family)
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
        avg, small_c, large_c, tail = engine.averaged_lambda(p)
        budget += tail
        prime_term += coef * avg
        if p >= p_thresh:
            split_lp_sc += coef * small_c
            split_lp_lc += coef * large_c
        else:
            split_sp += coef * (small_c + large_c)

    prime_sq_term = 0.0
    for p, log_p, hat in roots:
        coef = 2.0 * log_p / (p * log_r) * hat
        avg, _, _, tail = engine.averaged_lambda(p * p)
        budget += tail
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
    T_list, eta_list, c_max: int = 150, family: WeightFamily | None = None,
) -> tuple[list, list]:
    """Density reports over a (T, eta) grid, plus threshold flags.

    Each eta's test function is rmt.make_test_function(eta). Returns
    (reports, flags); flags lists (T, eta, message) for eta values at or
    beyond THEOREM_THRESHOLD, the support bound of an M = 1 weight. The
    family (the default family when None) weighs every report, and its
    order names the extended bound in the flags. Every T is checked before
    any work starts.
    """
    family = family or default_family()
    T_list = [_check_T(t) for t in T_list]
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
                    f"(< {THEOREM_THRESHOLD} for an M = 1 weight; "
                    f"< {extended_threshold(family.M):.4f} requires higher order)",
                )
            )
    reports = []
    for T in T_list:
        phis = [make_test_function(eta) for eta in eta_list]
        for phi in phis:
            _prime_support(T, phi)  # the prime cap, before the engine
        engine = DensityEngine(T, c_max=c_max, family=family)
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
