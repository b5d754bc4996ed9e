"""Complex special functions: log-gamma, integer and imaginary-order Bessel J,
zeta right of the 1-line, and the large-order phase/leading asymptotic.

The imaginary-order Bessel function is only ever exposed pre-scaled by
1/cosh(pi*r); the unscaled J_{2ir} overflows binary64 already for r around
230 and every downstream use carries the cosh factor anyway.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._fastpath import j_array
from .errors import ConvergenceError, DomainError, OverflowGuardError, PoleError

__all__ = [
    "ScaledBesselValue",
    "log_gamma_complex",
    "log_gamma_grid",
    "bessel_j_int",
    "bessel_j_int_integral_check",
    "scaled_bessel_j_imag",
    "scaled_bessel_j_imag_grid",
    "scaled_bessel_series_grid",
    "zeta_right_of_one",
    "zeta_abs2_grid",
    "dunster_xi",
    "dunster_leading_term",
    "log_cosh",
]

_TWO_PI = 2.0 * math.pi

_log = logging.getLogger("maassdensity")

# Lanczos approximation, g = 7, 9 terms. Validated in the test suite against
# the reflection and duplication identities and against 40-digit mpmath.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Bernoulli numbers B_2, B_4, ..., B_28
_BERNOULLI_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
)


def _check_finite(z: complex, what: str) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise OverflowGuardError(f"{what} produced a non-finite value")
    return z


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log Gamma via Lanczos, with reflection for Re z < 1/2.

    For Re z >= 1/2 this is a one-element `log_gamma_grid` call, about
    0.4 ms on a 2-vCPU VM; callers with many points pass them to
    `log_gamma_grid` at once.
    Raises PoleError at the non-positive integers. Accuracy is absolute, not
    relative, and it degrades with |Im z|: on Re z = 1 against 40-digit
    mpmath (20,000 points) the error is at most 8e-14 for Im z <= 12 and
    2.4e-13, 3.1e-13, 3.8e-13 and 5.1e-13 at most on [12, 50], [50, 100],
    [100, 150] and [150, 200] (median about 2e-13 above Im z = 12). The
    double-double Bessel route therefore takes its prefactor from
    `_log_gamma_stirling`, not from here.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError(f"Gamma has a pole at z = {z.real:g}")
    if z.real < 0.5:
        # log Gamma(z) = log(pi) - log(sin(pi z)) - log Gamma(1 - z)
        return _check_finite(
            math.log(math.pi) - _log_sin_pi(z) - log_gamma_complex(1.0 - z),
            "log_gamma_complex",
        )
    return complex(log_gamma_grid(np.array([z]))[0])


def log_gamma_grid(z: np.ndarray) -> np.ndarray:
    """Principal log Gamma(z) over an array of z with Re z >= 1/2 (Lanczos,
    g = 7, 9 terms); `log_gamma_complex` is its one-element view.

    The Lanczos sum runs on real arrays with CPython's complex formulas
    (`_c_prod`, `_c_quot`) and cmath.log is a per-element call, so an
    element's value does not depend on the batch it is in.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < 0.5):
        raise DomainError("log_gamma_grid requires Re z >= 1/2")
    out = np.empty(z.shape, dtype=complex)
    flat, res = z.ravel(), out.reshape(-1)
    # blocks of 4096 keep the temporaries small next to the quadrature's
    # own arrays (unblocked, they raised dj_routes' peak RSS by ~2 MB)
    for lo in range(0, flat.size, 4096):
        res[lo:lo + 4096] = _log_gamma_block(flat[lo:lo + 4096])
    if not np.all(np.isfinite(out)):
        raise OverflowGuardError("log_gamma_grid produced a non-finite value")
    return out


def _log_gamma_block(z: np.ndarray) -> np.ndarray:
    w_re = z.real - 1.0
    w_im = z.imag - 0.0
    acc_re = np.full(z.shape, _LANCZOS_COEF[0])
    acc_im = np.zeros(z.shape)
    for i in range(1, len(_LANCZOS_COEF)):
        q_re, q_im = _c_quot(_LANCZOS_COEF[i], 0.0, w_re + i, w_im + 0.0)
        acc_re = acc_re + q_re
        acc_im = acc_im + q_im
    t_re = (w_re + _LANCZOS_G) + 0.5
    t_im = (w_im + 0.0) + 0.0
    log_t = _cmath_log(t_re, t_im)
    p_re, p_im = _c_prod(w_re + 0.5, w_im + 0.0, log_t.real, log_t.imag)
    log_acc = _cmath_log(acc_re, acc_im)
    return _complex(((_HALF_LOG_TWO_PI + p_re) - t_re) + log_acc.real,
                    ((0.0 + p_im) - t_im) + log_acc.imag)


# Complex arithmetic on (real, imaginary) array pairs with the formulas of
# CPython's _Py_c_prod and _Py_c_quot (a Python float operand enters as
# (value, 0.0)); numpy's own complex multiply, divide and abs round
# differently. These formulas, and the per-element libm calls below, exist
# only to hold today's grid outputs bit for bit (the D_J quadrature at
# X > 36 cancels by up to 5e10); relax them only together with a
# cancellation-aware accuracy contract for D_J.


def _c_prod(a_re, a_im, b_re, b_im):
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _c_quot(a_re, a_im, b_re, b_im):
    """a / b for finite operands and b != 0."""
    first = np.abs(b_re) >= np.abs(b_im)
    num = np.where(first, b_im, b_re)
    den = np.where(first, b_re, b_im)
    ratio = num / den
    denom = den + num * ratio
    re = np.where(first, a_re + a_im * ratio, a_re * ratio + a_im)
    im = np.where(first, a_im - a_re * ratio, a_im * ratio - a_re)
    return re / denom, im / denom


# Per-element calls of libm through math/cmath (numpy's ufuncs round some
# inputs differently); np.fromiter over map keeps one element's Python
# objects alive at a time.


def _c_abs(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """abs(complex) per element: libm hypot."""
    return np.fromiter(map(abs, map(complex, re, im)), float, count=np.size(re))


def _cmath_log(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return np.fromiter(map(cmath.log, map(complex, re, im)), complex, count=np.size(re))


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)) stable for large |Im z|."""
    piz = math.pi * z
    if abs(z.imag) < 20.0:
        return cmath.log(cmath.sin(piz))
    # sin w = (e^{iw} - e^{-iw}) / 2i; keep the dominant exponential outside.
    if z.imag > 0:
        # sin w = (i/2) e^{-iw} (1 - e^{2iw})
        return 0.5j * math.pi - math.log(2.0) - 1j * piz + cmath.log(1.0 - cmath.exp(2j * piz))
    # sin w = -(i/2) e^{iw} (1 - e^{-2iw})
    return -0.5j * math.pi - math.log(2.0) + 1j * piz + cmath.log(1.0 - cmath.exp(-2j * piz))


def log_cosh(y: float) -> float:
    """log(cosh(y)) without overflow."""
    a = abs(y)
    if a < 20.0:
        return math.log(math.cosh(a))
    return a - math.log(2.0) + math.log1p(math.exp(-2.0 * a))


# ----------------------------------------------------------------------------
# Integer-order Bessel J
# ----------------------------------------------------------------------------

_X_OVERFLOW_GUARD = 1.0e5


def bessel_j_int(n: int, x: float) -> float:
    """J_n(x) for integer n and real x, |error| <= ~1e-12 at desk scale."""
    n = int(n)
    x = float(x)
    if abs(x) > _X_OVERFLOW_GUARD:
        raise OverflowGuardError(f"|x| = {abs(x):g} exceeds the Bessel guard")
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2 == 1:
            sign = -sign
    if x < 0:
        if n % 2 == 1:
            sign = -sign
        x = -x
    if x < 12.0:
        return sign * _bessel_j_series(n, x)
    return sign * j_array(x, n)[n]


def _bessel_j_series(n: int, x: float) -> float:
    """Power series J_n(x) = sum (-1)^k (x/2)^{n+2k} / (k! (n+k)!), n,x >= 0."""
    half = 0.5 * x
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    log_t0 = n * math.log(half) - math.lgamma(n + 1)
    if log_t0 < -700.0:
        return 0.0
    term = math.exp(log_t0)
    acc = term
    comp = 0.0
    for k in range(1, 400):
        term *= -(half * half) / (k * (n + k))
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        if abs(term) < 1e-18 * max(1.0, abs(acc)):
            return acc
    raise ConvergenceError("integer Bessel series did not converge")


def bessel_j_int_integral_check(k: int, x: float) -> float:
    """J_k(2*pi*x) by direct quadrature of the oscillatory integral formula.

    Independent slow route used as an oracle for bessel_j_int. scipy.integrate
    is imported here, its one use, so that importing the package skips it.
    """
    from scipy.integrate import quad

    k = int(k)
    if abs(k) > 10_000:
        raise DomainError("|k| too large for the integral check")
    x = float(x)

    def f(t):
        return math.cos(_TWO_PI * (k * t - x * math.sin(_TWO_PI * t)))

    val, err = quad(f, -0.5, 0.5, limit=200 + 8 * (abs(k) + int(abs(x))), epsabs=1e-13)
    if err > 1e-8:
        raise ConvergenceError(f"integral formula quadrature error {err:g}")
    return val


# ----------------------------------------------------------------------------
# Imaginary-order Bessel J, pre-scaled by 1/cosh(pi r)
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledBesselValue:
    """J_{2ir}(x)/cosh(pi r) together with the point it was evaluated at."""

    value: complex
    r: float
    x: float


_SERIES_MAX_TERMS = 100_000
_SERIES_QUIET_RUN = 40
_TARGET_REL = 1e-11


def _mp_scaled(r: float, x: float) -> complex:
    """Arbitrary-precision fallback for the cancellation regime."""
    import mpmath as mp

    digits = int(0.23 * x) + 30
    with mp.workdps(digits):
        v = mp.besselj(2j * mp.mpf(r), mp.mpf(x)) / mp.cosh(mp.pi * mp.mpf(r))
        return complex(v)


def _scale_estimate(r: float, x: float) -> float:
    s = 4.0 * r * r + x * x
    if s == 0.0:  # both below ~1e-162: the same bound without squaring
        return 1.0 / math.sqrt(math.hypot(2.0 * r, x))
    return s ** -0.25


def _log_half(x: float) -> float:
    """log(x/2) for x > 0, also where x/2 loses bits or underflows (x < 1e-300)."""
    if x < 1e-300:
        return math.log(x) - math.log(2.0)
    return math.log(0.5 * x)


def scaled_bessel_j_imag(r: float, x: float) -> ScaledBesselValue:
    """J_{2ir}(x)/cosh(pi r) for real r and x > 0: a one-node
    `scaled_bessel_j_imag_grid` call.

    A call costs about 2-30 ms on a 2-vCPU VM (the transition band
    |2r| ~ x, where the double-double route runs, is the dear end), far
    more than a node of a batch: callers with many r at one x pass them to
    `scaled_bessel_j_imag_grid` at once.
    """
    r = float(r)
    x = float(x)
    value = complex(scaled_bessel_j_imag_grid(np.array([r]), x)[0])
    return ScaledBesselValue(value=value, r=r, x=x)


def scaled_bessel_j_imag_grid(r: np.ndarray, x: float) -> np.ndarray:
    """J_{2ir_i}(x)/cosh(pi r_i) for every real r_i of an array, x > 0.

    Each node takes the first route that meets its target 1e-11 s(r, x),
    with s = (4r^2 + x^2)^(-1/4) the scale of the value (`_scale_estimate`):
    the power series where it is plausible (x <= 36 or 8r >= x^2/12), the
    Hankel expansion (x > 20), the series for the remaining implausible
    nodes, the double-double series for the nodes still left (the
    transition band |2r| ~ x), and mpmath for those it misses. The series,
    Hankel and double-double sums run over all their nodes at once with
    per-node state only; a node leaves the active arrays when its sum stops,
    so a node's value does not depend on the batch it is in. Satisfies
    value(-r, x) = conj(value(r, x)) exactly. The route counts go to the
    "maassdensity" logger at DEBUG.
    """
    x = float(x)
    r = np.asarray(r, dtype=float)
    if not x > 0.0:
        raise DomainError("scaled_bessel_j_imag requires x > 0")
    if np.any(np.abs(r) > 1.0e4):
        raise DomainError("scaled_bessel_j_imag requires |r| <= 1e4")
    flat = r.ravel()
    neg = flat < 0.0
    a = np.where(neg, -flat, flat)
    out = np.empty(a.shape, dtype=complex)
    target = _TARGET_REL * np.fromiter(
        map(_scale_estimate, map(float, a), repeat(x)), float, count=a.size)
    plausible = (x <= 36.0) | (8.0 * a >= x * x / 12.0)

    def take(idx, val, err):
        """Store the nodes of idx whose route result (val, err) meets the
        target; return the indices of the others."""
        ok = err <= target[idx]
        out[idx[ok]] = val[ok]
        return idx[~ok]

    idx = np.flatnonzero(plausible)
    left = take(idx, *_series_batch(a[idx], x))
    n_series = idx.size - left.size
    n_hankel = 0
    if x > 20.0:
        idx = np.union1d(left, np.flatnonzero(~plausible))
        left = take(idx, *_hankel_batch(a[idx], x))
        n_hankel = idx.size - left.size
        idx = left[~plausible[left]]
        late = take(idx, *_series_batch(a[idx], x))
        n_series += idx.size - late.size
        left = np.union1d(left[plausible[left]], late)
    idx = left
    left = take(idx, *_series_dd_batch(a[idx], x, target[idx]))
    for i in left.tolist():
        out[i] = _mp_scaled(float(a[i]), x)
    out[neg] = out[neg].conj()
    _log.debug(
        "scaled Bessel grid at x = %(x)r: %(nodes)d nodes, %(series)d series, "
        "%(hankel)d Hankel, %(double_double)d double-double, %(mpmath)d mpmath",
        {"x": x, "nodes": a.size, "series": n_series, "hankel": n_hankel,
         "double_double": idx.size - left.size, "mpmath": left.size},
    )
    return out.reshape(r.shape)


def _series_batch(r: np.ndarray, x: float):
    """Power series of J_{2ir}(x)/cosh(pi r) over an array of r >= 0.

    Kahan-compensated, from the log-scaled leading term; a node stops after
    40 terms in a row below 1e-18 of its largest. Returns (values, error
    estimates); an estimate is rounding noise at the largest term, and the
    caller decides whether that is acceptable.
    """
    val = np.empty(r.size, dtype=complex)
    err = np.empty(r.size)
    if r.size == 0:
        return val, err
    nu_re, nu_im = _c_prod(0.0, 2.0, r, 0.0)  # nu = 2j * r
    t_re, t_im = _series_first_term(nu_re, nu_im, r, x)
    acc_re, acc_im = t_re.copy(), t_im.copy()
    cp_re, cp_im = np.zeros(r.size), np.zeros(r.size)
    max_mag = _c_abs(t_re, t_im)
    quiet = np.zeros(r.size, dtype=np.int64)
    pos = np.arange(r.size)
    q = -0.25 * x * x
    n = 0
    while pos.size:
        if n >= _SERIES_MAX_TERMS:
            raise ConvergenceError("imaginary-order Bessel series hit the term cap")
        n += 1
        d_re, d_im = _c_prod(n, 0.0, n + nu_re, 0.0 + nu_im)
        f_re, f_im = _c_quot(q, 0.0, d_re, d_im)
        t_re, t_im = _c_prod(t_re, t_im, f_re, f_im)
        # Kahan-compensated acc += term
        y_re = t_re - cp_re
        y_im = t_im - cp_im
        s_re = acc_re + y_re
        s_im = acc_im + y_im
        cp_re = (s_re - acc_re) - y_re
        cp_im = (s_im - acc_im) - y_im
        acc_re, acc_im = s_re, s_im
        # mag = abs(term). np.hypot is within a few ulp of libm's hypot, so
        # only comparisons it cannot settle by a 1e-12 margin ask libm.
        mag = np.hypot(t_re, t_im)
        near = mag > max_mag * (1.0 - 1e-12)
        if near.any():
            exact = _c_abs(t_re[near], t_im[near])
            mag[near] = exact
            max_mag[near] = np.maximum(max_mag[near], exact)
        thr = 1e-18 * max_mag
        tie = ~near & (mag > thr * (1.0 - 1e-12)) & (mag < thr * (1.0 + 1e-12))
        if tie.any():
            mag[tie] = _c_abs(t_re[tie], t_im[tie])
        quiet = np.where(mag < thr, quiet + 1, 0)
        done = quiet >= _SERIES_QUIET_RUN
        if done.any():
            val.real[pos[done]] = acc_re[done]
            val.imag[pos[done]] = acc_im[done]
            err[pos[done]] = 4e-16 * max_mag[done]
            keep = ~done
            pos, nu_re, nu_im = pos[keep], nu_re[keep], nu_im[keep]
            t_re, t_im, acc_re, acc_im = t_re[keep], t_im[keep], acc_re[keep], acc_im[keep]
            cp_re, cp_im, max_mag, quiet = cp_re[keep], cp_im[keep], max_mag[keep], quiet[keep]
    return val, err


def _series_first_term(nu_re, nu_im, r: np.ndarray, x: float):
    """exp(nu log(x/2) - log Gamma(1 + nu) - log cosh(pi r)) as (re, im)."""
    lg = log_gamma_grid(_complex(1.0 + nu_re, 0.0 + nu_im))
    lc = np.fromiter(map(log_cosh, map(float, math.pi * r)), float, count=r.size)
    lt_re, lt_im = _c_prod(nu_re, nu_im, _log_half(x), 0.0)
    lt = map(complex, (lt_re - lg.real) - lc, (lt_im - lg.imag) - 0.0)
    term = np.fromiter(map(cmath.exp, lt), complex, count=r.size)
    return term.real.copy(), term.imag.copy()


def _hankel_batch(r: np.ndarray, x: float):
    """Large-argument (Hankel) expansion of J_{2ir}(x)/cosh(pi r) over an
    array of r.

    With nu = 2ir the trigonometric prefactors cos/sin(x - nu pi/2 - pi/4)
    divided by cosh(pi r) reduce to bounded real/imaginary combinations with
    tanh(pi r), so the whole evaluation stays in safe binary64 range.
    Returns (values, error estimates); an estimate is the smallest term of
    the (divergent) asymptotic series, reached before truncation.
    """
    u = x - 0.25 * math.pi
    cu, su = math.cos(u), math.sin(u)
    th = np.fromiter(map(math.tanh, map(float, math.pi * r)), float, count=r.size)
    four_nu2 = -16.0 * r * r
    p_acc = np.zeros(r.size)
    q_acc = np.zeros(r.size)
    tk = np.ones(r.size)
    best = np.full(r.size, math.inf)
    p_out, q_out, best_out = np.empty(r.size), np.empty(r.size), np.empty(r.size)
    pos = np.arange(r.size)
    sign_p = sign_q = 1.0
    kmax = int(2.5 * x) + 20
    k = 0
    while k < kmax and pos.size:
        if k % 2 == 0:
            p_acc = p_acc + sign_p * tk
            sign_p = -sign_p
        else:
            q_acc = q_acc + sign_q * tk
            sign_q = -sign_q
        nxt = tk * (four_nu2 - (2 * k + 1) ** 2) / (8.0 * x * (k + 1))
        mag = np.abs(nxt)
        stop = mag >= best
        if stop.any():
            p_out[pos[stop]], q_out[pos[stop]] = p_acc[stop], q_acc[stop]
            best_out[pos[stop]] = best[stop]
            keep = ~stop
            pos, four_nu2, p_acc, q_acc = pos[keep], four_nu2[keep], p_acc[keep], q_acc[keep]
            mag, nxt = mag[keep], nxt[keep]
        best = mag
        tk = nxt
        k += 1
    p_out[pos], q_out[pos], best_out[pos] = p_acc, q_acc, best
    # sqrt(2/(pi x)) * (cpart * p_acc - spart * q_acc) with cpart = cos u +
    # i sin(u) th and spart = sin u - i cos(u) th, each product in CPython's
    # complex form with the float operand as (value, 0.0)
    c_re, c_im = _c_prod(cu, su * th, p_out, 0.0)
    s_re, s_im = _c_prod(su, -cu * th, q_out, 0.0)
    v_re, v_im = _c_prod(math.sqrt(2.0 / (math.pi * x)), 0.0, c_re - s_re, c_im - s_im)
    return _complex(v_re, v_im), best_out


# ----------------------------------------------------------------------------
# Double-double series for the transition band |2r| ~ x
# ----------------------------------------------------------------------------
# A double-double is an unevaluated sum hi + lo with |lo| <= ulp(hi)/2, good
# to about 2^-104 relative (Dekker, "A floating-point technique for extending
# the available precision", Numer. Math. 18, 1971). Only exactly rounded
# numpy + - * / enter, so every node's result is the same in any batch.

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_DD_EPS = 2.0 ** -104
_DD_QUIET = 2.0 ** -106
_F64_EPS = 2.0 ** -52


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    """_two_sum for |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _two_prod(a, a_split, b, b_split):
    """(p, e) with p = fl(a b) and p + e = a b exactly, from split operands."""
    (a1, a2), (b1, b2) = a_split, b_split
    p = a * b
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _dd_add(a, b):
    s, e = _two_sum(a[0], b[0])
    return _quick_two_sum(s, e + (a[1] + b[1]))


def _dd_mul(a, b):
    p, e = _two_prod(a[0], _split(a[0]), b[0], _split(b[0]))
    return _quick_two_sum(p, e + (a[0] * b[1] + a[1] * b[0]))


def _dd_mul_d(a, a_split, b, b_split):
    """Double-double a (hi part already split) times the double b."""
    p, e = _two_prod(a[0], a_split, b, b_split)
    return _quick_two_sum(p, e + a[1] * b)


def _dd_div(a, b):
    """Dekker's div2."""
    c = a[0] / b[0]
    u, uu = _two_prod(c, _split(c), b[0], _split(b[0]))
    return _quick_two_sum(c, ((((a[0] - u) - uu) + a[1]) - c * b[1]) / b[0])


# Stirling coefficients B_2k / (2k (2k - 1)), k = 1..10
_STIRLING = tuple(b / ((2 * k) * (2 * k - 1))
                  for k, b in enumerate(_BERNOULLI_EVEN[:10], start=1))
_STIRLING_MIN_ABS = 15.0


def _log_gamma_stirling(z_re: np.ndarray, z_im: np.ndarray):
    """Principal log Gamma(z) for Re z > 0: (re, im, size).

    The argument is shifted up to |w| >= 15, where the Stirling series
    through B_20 is exact to about 1e-23. `size` sums the moduli of the
    parts added, so 4 * 2^-52 * size bounds the rounding. cmath.log is a
    per-element call.
    """
    acc_re, acc_im, size = np.zeros(z_re.size), np.zeros(z_re.size), np.zeros(z_re.size)
    w_re = z_re + 0.0
    while True:
        short = np.flatnonzero(w_re * w_re + z_im * z_im < _STIRLING_MIN_ABS ** 2)
        if not short.size:
            break
        lw = _cmath_log(w_re[short], z_im[short])
        acc_re[short] -= lw.real
        acc_im[short] -= lw.imag
        size[short] += np.abs(lw.real) + np.abs(lw.imag)
        w_re[short] += 1.0
    lw = _cmath_log(w_re, z_im)
    # (w - 1/2) log w - w + log(2 pi)/2 + sum_k c_k w^(1 - 2k)
    p_re, p_im = _c_prod(w_re - 0.5, z_im, lw.real, lw.imag)
    iw_re, iw_im = _c_quot(1.0, 0.0, w_re, z_im)
    iw2_re, iw2_im = _c_prod(iw_re, iw_im, iw_re, iw_im)
    h_re, h_im = np.full(z_re.size, _STIRLING[-1]), np.zeros(z_re.size)
    for c in _STIRLING[-2::-1]:
        h_re, h_im = _c_prod(h_re, h_im, iw2_re, iw2_im)
        h_re = h_re + c
    h_re, h_im = _c_prod(h_re, h_im, iw_re, iw_im)
    out_re = (((p_re - w_re) + _HALF_LOG_TWO_PI) + h_re) + acc_re
    out_im = ((p_im - z_im) + h_im) + acc_im
    size += (np.abs(p_re) + np.abs(p_im)) + (w_re + np.abs(z_im)) + 1.0
    return out_re, out_im, size


def _series_dd_batch(r: np.ndarray, x: float, target: np.ndarray):
    """Power series of J_{2ir}(x)/cosh(pi r), r >= 0, in complex double-double.

    Sums s_0 = 1, s_n = s_{n-1} (-x^2/4) / (n (n + 2ir)) and multiplies the
    sum in binary64 by t_0 = exp(2ir log(x/2) - log Gamma(1 + 2ir) -
    log cosh(pi r)). Returns (values, error estimates): the sum's rounding,
    n 2^-104 max|s_n| |t_0|, plus the rounding of t_0's exponent,
    4 2^-52 (1 + |2r log(x/2)| + size of log Gamma + log cosh) |value|.
    A node stops once n^2 >= x^2/2 (later terms at most halve) and its term
    is below 2^-106 max|s_n|; it leaves with estimate inf as soon as the
    sum's rounding alone exceeds its target.
    """
    val = np.full(r.size, math.nan, dtype=complex)
    err = np.full(r.size, math.inf)
    if r.size == 0:
        return val, err
    lg_re, lg_im, lg_size = _log_gamma_stirling(np.ones(r.size), 2.0 * r)
    lc = np.fromiter(map(log_cosh, map(float, math.pi * r)), float, count=r.size)
    phase = (2.0 * r) * _log_half(x)
    t0 = np.fromiter(map(cmath.exp, map(complex, -lg_re - lc, phase - lg_im)),
                     complex, count=r.size)
    t0_re, t0_im = t0.real, t0.imag
    t0_mag = np.abs(t0_re) + np.abs(t0_im)
    budget = target / (_DD_EPS * t0_mag)  # n max|s_n| must stay below this
    q = _two_prod(x, _split(x), x, _split(x))
    q = (-0.25 * q[0], -0.25 * q[1])  # -x^2/4, exact
    two_r = 2.0 * r
    two_r_split = _split(two_r)
    four_r2 = _two_prod(two_r, two_r_split, two_r, two_r_split)
    zero = np.zeros(r.size)
    s_re, s_im = (np.ones(r.size), zero), (zero, zero)
    acc_re, acc_im = s_re, s_im
    max_mag = np.ones(r.size)
    pos = np.arange(r.size)
    n = 0
    while pos.size:
        if n >= _SERIES_MAX_TERMS:
            raise ConvergenceError("double-double Bessel series hit the term cap")
        n += 1
        fn = float(n)
        n_split = _split(fn)
        # s *= q / (n (n + 2ir)) = q (n - 2ir) / (n^3 + 4 r^2 n)
        den = _dd_mul_d(four_r2, _split(four_r2[0]), fn, n_split)
        den = _dd_add(den, (fn * fn * fn, 0.0))
        g = _dd_div(q, den)
        re_split, im_split = _split(s_re[0]), _split(s_im[0])
        u_re = _dd_add(_dd_mul_d(s_re, re_split, fn, n_split),
                       _dd_mul_d(s_im, im_split, two_r, two_r_split))
        p = _dd_mul_d(s_re, re_split, two_r, two_r_split)
        u_im = _dd_add(_dd_mul_d(s_im, im_split, fn, n_split), (-p[0], -p[1]))
        s_re, s_im = _dd_mul(g, u_re), _dd_mul(g, u_im)
        acc_re, acc_im = _dd_add(acc_re, s_re), _dd_add(acc_im, s_im)
        mag = np.abs(s_re[0]) + np.abs(s_im[0])
        max_mag = np.maximum(max_mag, mag)
        lost = n * max_mag > budget
        done = ~lost & (mag < _DD_QUIET * max_mag) & (2.0 * fn * fn >= x * x)
        if done.any():
            i = pos[done]
            v_re, v_im = _c_prod(acc_re[0][done], acc_im[0][done], t0_re[i], t0_im[i])
            val[i] = _complex(v_re, v_im)
            err[i] = (n * _DD_EPS) * max_mag[done] * t0_mag[i] + (4.0 * _F64_EPS) * (
                ((1.0 + np.abs(phase[i])) + lg_size[i]) + lc[i]) * (np.abs(v_re) + np.abs(v_im))
        keep = ~(done | lost)
        if not keep.all():
            (pos, budget, max_mag, two_r, two_r_split, four_r2, s_re, s_im, acc_re,
             acc_im) = [tuple(v[keep] for v in a) if isinstance(a, tuple) else a[keep]
                        for a in (pos, budget, max_mag, two_r, two_r_split, four_r2,
                                  s_re, s_im, acc_re, acc_im)]
    return val, err


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def scaled_bessel_series_grid(r: np.ndarray, x: float) -> np.ndarray:
    """Vectorized J_{2ir_i}(x)/cosh(pi r_i) over an array of real r, x <= 36.

    Series route only (no cancellation below x ~ 36); used by quadrature
    grids where x = 4*pi*sqrt(mn)/c stays small.
    """
    if x > 36.0:
        raise DomainError("scaled_bessel_series_grid is limited to x <= 36")
    if not x > 0.0:
        raise DomainError("x must be positive")
    return _series_grid_sum(_series_grid_prefactor(r), x)


def _series_grid_prefactor(r: np.ndarray) -> tuple:
    """(nu, log Gamma(1 + nu), log cosh(pi r)) with nu = 2ir: the x-independent
    node factors of the series, computed once per node set."""
    r = np.asarray(r, dtype=float)
    nu = 2j * r
    lg = log_gamma_grid(1.0 + nu)
    return nu, lg, _log_cosh_vec(math.pi * r)


def _series_grid_sum(pre: tuple, x: float) -> np.ndarray:
    """The power series of J_{2ir}(x)/cosh(pi r) on the nodes of `pre`."""
    nu, lg, lc = pre
    log_t0 = nu * _log_half(x) - lg - lc
    term = np.exp(log_t0)
    acc = term.copy()
    q = -0.25 * x * x
    for n in range(1, 400):
        term = term * (q / (n * (n + nu)))
        acc += term
        if np.max(np.abs(term)) < 1e-18 * max(1.0, float(np.max(np.abs(acc)))):
            return acc
    raise ConvergenceError("vectorized Bessel series did not converge")


def _log_cosh_vec(y: np.ndarray) -> np.ndarray:
    a = np.abs(y)
    out = np.where(a < 20.0, np.log(np.cosh(np.minimum(a, 20.0))), a - math.log(2.0))
    big = a >= 20.0
    if np.any(big):
        out = out + np.where(big, np.log1p(np.exp(-2.0 * np.clip(a, 20.0, None))), 0.0)
    return out


# ----------------------------------------------------------------------------
# Zeta right of the 1-line (Euler-Maclaurin)
# ----------------------------------------------------------------------------

def _zeta_em(s: np.ndarray) -> np.ndarray:
    """zeta(s) on an array of s with Re(s) >= 1, s != 1, by Euler-Maclaurin
    with tail correction; the whole array shares one cutoff N."""
    n_cut = max(24, int(1.1 * float(np.max(np.abs(s.imag)))) + 16)
    ns = np.arange(1, n_cut, dtype=float)
    acc = np.exp(-np.multiply.outer(s, np.log(ns))).sum(axis=1)
    npow = np.exp(-s * math.log(n_cut))  # n_cut^{-s}
    acc += npow * n_cut / (s - 1.0)
    acc += 0.5 * npow
    # correction sum: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * n^{-s-2k+1}
    fac = npow / n_cut  # n^{-s-1}, running power
    for k, b in enumerate(_BERNOULLI_EVEN, start=1):
        if k == 1:
            poly = s
        else:
            poly = poly * (s + (2 * k - 3)) * (s + (2 * k - 2))
        acc += b / math.factorial(2 * k) * poly * fac
        fac /= n_cut * n_cut
    return acc


def zeta_right_of_one(s: complex) -> complex:
    """zeta(s) for Re(s) >= 1, s != 1, by Euler-Maclaurin with tail correction."""
    s = complex(s)
    if s.real < 1.0:
        raise DomainError("zeta_right_of_one requires Re(s) >= 1")
    if s == 1.0:
        raise PoleError("zeta has its pole at s = 1")
    return _check_finite(complex(_zeta_em(np.array([s]))[0]), "zeta_right_of_one")


def zeta_abs2_grid(r: np.ndarray) -> np.ndarray:
    """Vectorized |zeta(1 + 2ir)|^2 for large grids.

    The Euler-Maclaurin kernel of zeta_right_of_one, evaluated blockwise on
    magnitude-sorted chunks so each chunk shares one cutoff N. r = 0 maps to
    +inf.
    """
    r = np.asarray(r, dtype=float)
    flat = np.abs(r.ravel())
    out = np.empty_like(flat)
    order = np.argsort(flat)
    chunk = 1024
    for lo in range(0, order.size, chunk):
        idx = order[lo : lo + chunk]
        rv = flat[idx]
        zero = rv == 0.0
        vals = np.abs(_zeta_em(1.0 + 2j * np.where(zero, 1.0, rv))) ** 2
        vals[zero] = np.inf
        out[idx] = vals
    return out.reshape(r.shape)


# ----------------------------------------------------------------------------
# Large-order phase and leading asymptotic
# ----------------------------------------------------------------------------


def dunster_xi(z: float) -> float:
    """xi(z) = sqrt(1+z^2) + log(z / (1 + sqrt(1+z^2))) for z > 0."""
    z = float(z)
    if not z > 0.0:
        raise DomainError("dunster_xi requires z > 0")
    root = math.hypot(1.0, z)
    return root + math.log(z / (1.0 + root))


# Leading constant of the scaled large-order asymptotic, pinned by matching
# against the Hankel regime; equals exp(-i pi/4)/sqrt(2 pi) analytically.
DUNSTER_SCALED_CONSTANT = cmath.exp(-0.25j * math.pi) / math.sqrt(2.0 * math.pi)


def dunster_leading_term(r: float, x: float) -> complex:
    """Leading large-order approximation to J_{2ir}(x)/cosh(pi r).

    Relative accuracy is O(1/r); returns
    2*c * exp(2 i r xi(x/2r)) / (4 r^2 + x^2)^{1/4} with the pinned constant.
    """
    r = float(r)
    x = float(x)
    if not (r > 0.0 and x > 0.0):
        raise DomainError("dunster_leading_term requires r > 0 and x > 0")
    phase = 2.0 * r * dunster_xi(x / (2.0 * r))
    amp = (4.0 * r * r + x * x) ** -0.25
    return 2.0 * DUNSTER_SCALED_CONSTANT * cmath.exp(1j * phase) * amp
