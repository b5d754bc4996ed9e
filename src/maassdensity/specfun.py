"""Complex special functions: log-gamma, integer and imaginary-order Bessel J,
zeta right of the 1-line, and the large-order phase/leading asymptotic.

The imaginary-order Bessel function is only ever exposed pre-scaled by
1/cosh(pi*r); the unscaled J_{2ir} overflows binary64 already for r around
230 and every downstream use carries the cosh factor anyway.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from ._fastpath import j_array
from .errors import ConvergenceError, DomainError, OverflowGuardError, PoleError

__all__ = [
    "ScaledBesselValue",
    "log_gamma_complex",
    "bessel_j_int",
    "bessel_j_int_integral_check",
    "scaled_bessel_j_imag",
    "scaled_bessel_series_grid",
    "zeta_right_of_one",
    "zeta_abs2_grid",
    "dunster_xi",
    "dunster_leading_term",
    "log_cosh",
]

_TWO_PI = 2.0 * math.pi

# Lanczos approximation, g = 7, 9 terms. Validated in the test suite against
# the reflection and duplication identities rather than against a table.
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


def _check_finite(z: complex, what: str) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise OverflowGuardError(f"{what} produced a non-finite value")
    return z


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log Gamma via Lanczos, with reflection for Re z < 1/2.

    Raises PoleError at the non-positive integers.
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
    w = z - 1.0
    acc = complex(_LANCZOS_COEF[0])
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    out = _HALF_LOG_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)
    return _check_finite(out, "log_gamma_complex")


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

    Independent slow route used as an oracle for bessel_j_int.
    """
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


def _series_scaled(r: float, x: float):
    """Power series for J_{2ir}(x)/cosh(pi r), log-scaled leading factor.

    Returns (value, error_estimate). The error estimate is rounding noise at
    the largest term; the caller decides whether that is acceptable.
    """
    nu = 2j * r
    log_t0 = nu * math.log(0.5 * x) - log_gamma_complex(1.0 + nu) - log_cosh(math.pi * r)
    term = cmath.exp(log_t0)
    acc = term
    comp = 0.0 + 0.0j
    max_mag = abs(term)
    quiet = 0
    q = -0.25 * x * x
    n = 0
    while n < _SERIES_MAX_TERMS:
        n += 1
        term *= q / (n * (n + nu))
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        mag = abs(term)
        if mag > max_mag:
            max_mag = mag
        if mag < 1e-18 * max_mag:
            quiet += 1
            if quiet >= _SERIES_QUIET_RUN:
                return acc, 4e-16 * max_mag
        else:
            quiet = 0
    raise ConvergenceError("imaginary-order Bessel series hit the term cap")


def _hankel_scaled(r: float, x: float):
    """Large-argument (Hankel) expansion of J_{2ir}(x)/cosh(pi r).

    With nu = 2ir the trigonometric prefactors cos/sin(x - nu pi/2 - pi/4)
    divided by cosh(pi r) reduce to bounded real/imaginary combinations with
    tanh(pi r), so the whole evaluation stays in safe binary64 range.

    Returns (value, error_estimate); the estimate is the smallest term of the
    (divergent) asymptotic series, reached before truncation.
    """
    u = x - 0.25 * math.pi
    th = math.tanh(math.pi * r)
    cpart = complex(math.cos(u), math.sin(u) * th)
    spart = complex(math.sin(u), -math.cos(u) * th)
    four_nu2 = -16.0 * r * r  # 4*nu^2 for nu = 2ir
    p_acc = 0.0
    q_acc = 0.0
    tk = 1.0  # a_k / x^k, signed factors applied when accumulated
    best = math.inf
    k = 0
    sign_p = 1.0
    sign_q = 1.0
    kmax = int(2.5 * x) + 20
    while k < kmax:
        if k % 2 == 0:
            p_acc += sign_p * tk
            sign_p = -sign_p
        else:
            q_acc += sign_q * tk
            sign_q = -sign_q
        nxt = tk * (four_nu2 - (2 * k + 1) ** 2) / (8.0 * x * (k + 1))
        mag = abs(nxt)
        if mag >= best:
            break
        best = mag
        tk = nxt
        k += 1
    val = math.sqrt(2.0 / (math.pi * x)) * (cpart * p_acc - spart * q_acc)
    return val, best


def _mp_scaled(r: float, x: float) -> complex:
    """Arbitrary-precision fallback for the cancellation regime."""
    import mpmath as mp

    digits = int(0.23 * x) + 30
    with mp.workdps(digits):
        v = mp.besselj(2j * mp.mpf(r), mp.mpf(x)) / mp.cosh(mp.pi * mp.mpf(r))
        return complex(v)


def _scale_estimate(r: float, x: float) -> float:
    return (4.0 * r * r + x * x) ** -0.25


def scaled_bessel_j_imag(r: float, x: float) -> ScaledBesselValue:
    """J_{2ir}(x)/cosh(pi r) for real r and x > 0.

    Route choice: power series where its cancellation is below target,
    Hankel expansion for large argument, arbitrary-precision fallback in the
    transition region around |2r| ~ x where neither double route reaches
    1e-10. Satisfies value(-r, x) = conj(value(r, x)) exactly.
    """
    r = float(r)
    x = float(x)
    if not x > 0.0:
        raise DomainError("scaled_bessel_j_imag requires x > 0")
    if abs(r) > 1.0e4:
        raise DomainError("scaled_bessel_j_imag requires |r| <= 1e4")
    if r < 0.0:
        v = scaled_bessel_j_imag(-r, x).value
        return ScaledBesselValue(value=v.conjugate(), r=r, x=x)

    scale = _scale_estimate(r, x)
    target = _TARGET_REL * scale

    # Series first unless it is predictably hopeless.
    series_plausible = x <= 36.0 or 8.0 * r >= x * x / 12.0
    if series_plausible:
        val, err = _series_scaled(r, x)
        if err <= target:
            return ScaledBesselValue(value=val, r=r, x=x)
    if x > 20.0:
        val, err = _hankel_scaled(r, x)
        if err <= target:
            return ScaledBesselValue(value=val, r=r, x=x)
        if not series_plausible:
            val, err = _series_scaled(r, x)
            if err <= target:
                return ScaledBesselValue(value=val, r=r, x=x)
    return ScaledBesselValue(value=_mp_scaled(r, x), r=r, x=x)


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
    lg = np.array([log_gamma_complex(1.0 + v) for v in nu])
    return nu, lg, _log_cosh_vec(math.pi * r)


def _series_grid_sum(pre: tuple, x: float) -> np.ndarray:
    """The power series of J_{2ir}(x)/cosh(pi r) on the nodes of `pre`."""
    nu, lg, lc = pre
    log_t0 = nu * math.log(0.5 * x) - lg - lc
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
