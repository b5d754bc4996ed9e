"""End-to-end acceptance checks.

One test per criterion; each prints a single [PASS]/[FAIL]/[SKIP] line
(visible under `pytest -s`) before asserting. Tolerances are stated inline.
The suite is ordered so that expensive shared grids (T = 81) are built once
and reused.
"""

import math
import os
import sys

import mpmath
import numpy as np
import pytest

import maassdensity as md
import maassdensity.besseltransform as bt
from maassdensity.arithmetic import kloosterman_sum, kloosterman_sum_check
from maassdensity.specfun import bessel_j_int, dunster_xi, zeta_right_of_one
from maassdensity.weights import default_family, make_spectral_weight


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num}: {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. residue route vs direct quadrature
# ---------------------------------------------------------------------------


def test_criterion_1_residue_vs_quadrature():
    worst = 0.0
    for T in (5, 11, 21):
        for X in (0.5, 1.0, 2.0, 4.0):
            q = md.dj_quadrature(X, T)
            r = md.dj_residue_sum(X, T)
            rel = abs(q.value - r.value) / (1.0 + abs(q.value))
            worst = max(worst, rel)
    ok = worst <= 1e-7
    _report(1, ok, f"residue vs quadrature on 12-point grid, worst rel gap {worst:.2e} (tol 1e-7)")
    assert ok


# ---------------------------------------------------------------------------
# 2. Dirichlet-kernel expansion of S_J
# ---------------------------------------------------------------------------


def test_criterion_2_sj_expansion():
    worst = 0.0
    for T in (5, 11, 21):
        for X in (0.5, 1.0, 3.0):
            a = md.sj_direct(X, T)
            b = md.sj_alpha_expansion(X, T)
            worst = max(worst, abs(a - b))
    ok = worst <= 1e-10
    _report(2, ok, f"S_J direct vs kernel expansion, worst gap {worst:.2e} (tol 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 3. algebraic bridge: half-integer pole family = 2 S_J
# ---------------------------------------------------------------------------


def test_criterion_3_bridge():
    fam = default_family()
    worst = 0.0
    for T in (5, 11, 21):
        sw = make_spectral_weight(fam, T)
        for X in (0.5, 1.0, 2.0, 4.0):
            acc = 0.0
            for k in range(0, 8 * T):
                acc += (
                    (-1.0) ** k
                    * (2 * k + 1)
                    * bessel_j_int(2 * k + 1, X)
                    * sw.h_T_halfint_imag(k)
                )
            worst = max(worst, abs(acc - 2.0 * md.sj_direct(X, T)))
    ok = worst <= 1e-10
    _report(3, ok, f"pole family vs 2*S_J, worst gap {worst:.2e} (tol 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 4. empirical decay-bound scans
# ---------------------------------------------------------------------------


def test_criterion_4_bound_scans():
    msgs = []
    ok = True

    # |D_J| <= C * X/T for X <= T: the fitted constant must be stable
    # within 2x across T in {21, 41}; stability holds on an X-proportional
    # grid (at fixed X the X/T bound is lossy by design)
    sups = {}
    for T in (21, 41):
        rep = md.bound_scan("small_X", grid=[(T / 4.0, T), (T / 2.0, T), (float(T), T)])
        sups[T] = rep.sup_ratio
    stable = max(sups.values()) <= 2.0 * min(sups.values())
    ok &= stable
    msgs.append(f"small-X sup ratios {sups[21]:.2e}/{sups[41]:.2e} stable<=2x: {stable}")

    # |D_J| <= C * X/sqrt(T) for X >= T/8: bounded
    rep = md.bound_scan("large_X")
    large_ok = rep.sup_ratio < 10.0
    ok &= large_ok
    msgs.append(f"large-X sup ratio {rep.sup_ratio:.2e} < 10: {large_ok}")

    # stationary sums over T in {21, 41, 81}, Y <= T/(2 pi)
    rep_a = md.bound_scan("stationary_A")
    a_ok = rep_a.sup_ratio < 10.0
    ok &= a_ok
    msgs.append(f"A-sum sup ratio {rep_a.sup_ratio:.2e} < 10: {a_ok}")
    rep_b = md.bound_scan("stationary_B")
    b_ok = rep_b.sup_ratio < 1.0e4
    ok &= b_ok
    msgs.append(f"B-sum sup ratio {rep_b.sup_ratio:.2e} < 1e4: {b_ok}")

    _report(4, ok, "; ".join(msgs))
    assert ok


# ---------------------------------------------------------------------------
# 5. trace identity against an ingested eigenform export
# ---------------------------------------------------------------------------


def _find_spectral_export():
    candidates = []
    env = os.environ.get("MAASS_DATA_DIR")
    if env:
        candidates.append(env)
    candidates.append(os.path.join(os.path.dirname(__file__), "data"))
    for root in candidates:
        if os.path.isfile(root):
            files = [root]
        elif os.path.isdir(root):
            files = [
                os.path.join(root, f)
                for f in sorted(os.listdir(root))
                if f.endswith((".csv", ".json"))
            ]
        else:
            continue
        for path in files:
            fmt = "json" if path.endswith(".json") else "csv"
            try:
                recs = md.parse_records(path, fmt)
            except md.MaassDensityError:
                continue
            if len(recs) >= 50:
                return recs, path
    return None, None


def test_criterion_5_trace_identity_with_data():
    recs, path = _find_spectral_export()
    if recs is None:
        print(
            "\n[SKIP] criterion 5: BLOCKED - no level-1 eigenform export with >= 50 "
            "forms available (no bundled spectral tables, no network); set "
            "MAASS_DATA_DIR to a real export to enable this check",
            flush=True,
        )
        pytest.skip(
            "BLOCKED: no level-1 spectral export with >= 50 forms available "
            "in this environment"
        )
    weight = md.weight_gaussian(center=0.6 * recs[-1].t, width=0.15 * recs[-1].t)
    worst = 0.0
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            report = md.verify_trace_identity(m, n, weight, recs, c_max=1000)
            scale = max(abs(report["spectral"]), abs(report["geometric"]["total"]), 1e-12)
            worst = max(worst, report["gap"] / scale)
    ok = True  # verify_trace_identity raises beyond its budgets
    _report(5, ok, f"trace identity on {path} ({len(recs)} forms), worst rel gap {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 6. total spectral mass scales like T^2
# ---------------------------------------------------------------------------


def test_criterion_6_total_mass_band():
    ratios = {}
    for T in (11, 21, 41, 81):
        ratios[T] = md.total_mass(T, c_max=300) / T ** 2
    spread = max(ratios.values()) / min(ratios.values())
    ok = spread <= 2.0
    _report(
        6,
        ok,
        "mass/T^2 = "
        + ", ".join(f"{t}: {v:.4f}" for t, v in ratios.items())
        + f"; spread {spread:.3f} (<= 2)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. random-matrix kernel suite
# ---------------------------------------------------------------------------


def test_criterion_7_rmt_suite():
    msgs = []
    ok = True
    # dual-route agreement: rmt_expected_value raises beyond 1e-7 internally
    for eta in (0.8, 1.5):
        phi = md.make_test_function(eta)
        for group in md.GROUPS:
            md.rmt_expected_value(phi, group)
    msgs.append("dual-route 1e-7 agreement for all five groups at eta 0.8/1.5")
    phi = md.make_test_function(0.95)
    vals = [md.rmt_expected_value(phi, g) for g in ("SO_even", "SO_odd", "O")]
    indist = max(vals) - min(vals)
    ok &= indist < 1e-8
    msgs.append(f"orthogonal spread at eta=0.95: {indist:.1e} (< 1e-8)")
    phi = md.make_test_function(1.5)
    split = abs(
        md.rmt_expected_value(phi, "SO_even") - md.rmt_expected_value(phi, "SO_odd")
    )
    ok &= split > 1e-3
    msgs.append(f"even/odd split at eta=1.5: {split:.3e} (> 1e-3)")
    _report(7, ok, "; ".join(msgs))
    assert ok


# ---------------------------------------------------------------------------
# 8. density convergence toward the orthogonal prediction
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_density_convergence():
    T_list = [11, 21, 41, 81]
    reports, _flags = md.convergence_scan(
        T_list, [0.8, 1.2], md.make_test_function, c_max=150
    )
    dev = {(r.T, r.eta): r.deviation for r in reports}
    chain = [dev[(T, 0.8)] for T in T_list]
    ok = chain[-1] < chain[0]
    inversions = [
        (a, b) for a, b in zip(chain, chain[1:]) if b > a
    ]
    ok &= len(inversions) <= 1 and all(b <= 1.1 * a for a, b in inversions)
    chain12 = [dev[(T, 1.2)] for T in T_list]
    bounded = max(chain12) < 1.0
    ok &= bounded
    _report(
        8,
        ok,
        "eta=0.8 deviations "
        + " -> ".join(f"{d:.4f}" for d in chain)
        + f" ({len(inversions)} inversion(s)); eta=1.2 max {max(chain12):.4f} (< 1)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. pinned special values
# ---------------------------------------------------------------------------


def test_criterion_9_special_value_regression():
    checks = []
    with mpmath.workdps(30):
        j01 = float(mpmath.besselj(0, 1))
    checks.append(("J_0(1)", abs(bessel_j_int(0, 1.0) - j01), 1e-13))
    import cmath

    from maassdensity.specfun import log_gamma_complex

    checks.append(
        ("Gamma(1/2)", abs(cmath.exp(log_gamma_complex(0.5)) - math.sqrt(math.pi)), 1e-13)
    )
    checks.append(("zeta(2)", abs(zeta_right_of_one(2.0) - math.pi ** 2 / 6.0), 1e-12))
    xi1 = math.sqrt(2.0) + math.log(1.0 / (1.0 + math.sqrt(2.0)))
    checks.append(("xi(1)", abs(dunster_xi(1.0) - xi1), 1e-14))
    worst_k = 0.0
    for c in range(1, 51):
        for (m, n) in ((1, 1), (2, 3)):
            worst_k = max(
                worst_k, abs(kloosterman_sum(m, n, c) - kloosterman_sum_check(m, n, c))
            )
    checks.append(("Kloosterman table c<=50", worst_k, 1e-8))
    ok = all(err <= tol for _, err, tol in checks)
    _report(
        9,
        ok,
        "; ".join(f"{name} err {err:.1e} (tol {tol:g})" for name, err, tol in checks),
    )
    assert ok
