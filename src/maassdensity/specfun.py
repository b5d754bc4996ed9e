"""Complex special functions: log-gamma, imaginary-order Bessel J, zeta right
of the 1-line, and the large-order phase.

The imaginary-order Bessel function is only ever exposed pre-scaled by
1/cosh(pi*r); the unscaled J_{2ir} overflows binary64 already for r around
230 and every downstream use carries the cosh factor anyway.

Log-gamma and the Bessel function are evaluated over arrays only
(`log_gamma_grid`, `scaled_bessel_j_imag_grid`); a single point is a
one-element array. `zeta_right_of_one` is the one scalar entry point.
"""

from __future__ import annotations

import cmath
import logging
import math

import numpy as np

from .errors import ConvergenceError, DomainError, OverflowGuardError, PoleError

__all__ = [
    "log_gamma_grid",
    "scaled_bessel_j_imag_grid",
    "scaled_bessel_series_grid",
    "zeta_right_of_one",
    "zeta_abs2_grid",
    "dunster_xi",
    "log_cosh",
]

_log = logging.getLogger("maassdensity")

# Lanczos approximation, g = 7, 9 terms. Validated in the test suite against
# Gamma(1/2), |Gamma(1 + iy)|, the recurrence and 40-digit mpmath.
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


def log_gamma_grid(z: np.ndarray) -> np.ndarray:
    """Principal log Gamma(z) over an array of z with Re z >= 1/2 (Lanczos,
    g = 7, 9 terms); DomainError left of 1/2, the poles included.

    Accuracy is absolute, not relative, and it degrades with |Im z|: on
    Re z = 1 against 40-digit mpmath (20,000 points) the error is at most
    8e-14 for Im z <= 12 and 2.4e-13, 3.1e-13, 3.8e-13 and 5.1e-13 at most on
    [12, 50], [50, 100], [100, 150] and [150, 200] (median about 2e-13 above
    Im z = 12). The double-double Bessel route therefore takes its prefactor
    from `_log_gamma_stirling`, not from here.

    The Lanczos sum runs on real arrays with CPython's complex formulas
    (`_c_prod`, `_c_quot`) and cmath.log is a per-element call on Python
    complexes fed from lists (`_cmath_log`), so an element's value does not
    depend on the batch it is in.
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


# Elementwise rules are plain numpy where numpy returns libm's bits (np.hypot
# is abs(complex) and complex np.exp is cmath.exp; tests pin both). The rules
# below, and the math.tanh map in `_hankel_batch`, keep CPython's or libm's
# own form (the maps through `_map_blocks`) because numpy's moves benchmark
# outputs: the D_J quadrature at X > 36 cancels by up to 5e10, so a node's
# last bit can reach a recorded digit. `_c_prod` and `_c_quot` are CPython's
# _Py_c_prod and _Py_c_quot on (real, imaginary) array pairs; a Python float
# operand enters as (value, 0.0).


def _c_prod(a_re, a_im, b_re, b_im):
    # numpy's complex * moves 48 of 1,020 recorded outputs, by up to 1e-7 relative
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _c_quot(a_re, a_im, b_re, b_im):
    """a / b for finite operands and b != 0."""
    # numpy's complex / moves 216 of 1,020 recorded outputs, by up to 0.24 relative
    first = np.abs(b_re) >= np.abs(b_im)
    num = np.where(first, b_im, b_re)
    den = np.where(first, b_re, b_im)
    ratio = num / den
    denom = den + num * ratio
    re = np.where(first, a_re + a_im * ratio, a_re * ratio + a_im)
    im = np.where(first, a_im - a_re * ratio, a_im * ratio - a_re)
    return re / denom, im / denom


def _cmath_log(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # np.log moves 103 of 1,020 recorded outputs, by up to 4.4e-5 relative
    return _map_blocks(cmath.log, _complex(re, im).ravel(), dtype=complex)


def _map_blocks(f, *arrays, dtype=float) -> np.ndarray:
    """[f(a, b, ...) for the elements of the equal-length 1-d arrays], with
    f called on Python scalars: `.tolist()` blocks of at most 4096 elements
    convert faster than numpy scalars and keep the lists small."""
    out = np.empty(arrays[0].size, dtype=dtype)
    for lo in range(0, out.size, 4096):
        out[lo:lo + 4096] = list(map(f, *(a[lo:lo + 4096].tolist() for a in arrays)))
    return out


def log_cosh(y):
    """log(cosh(y)) without overflow, elementwise over a float or an array."""
    a = np.abs(y)
    out = np.where(a < 20.0, np.log(np.cosh(np.minimum(a, 20.0))), a - math.log(2.0))
    big = a >= 20.0
    if np.any(big):
        out = out + np.where(big, np.log1p(np.exp(-2.0 * np.maximum(a, 20.0))), 0.0)
    return out[()]


# ----------------------------------------------------------------------------
# Imaginary-order Bessel J, pre-scaled by 1/cosh(pi r)
# ----------------------------------------------------------------------------


_SERIES_MAX_TERMS = 100_000
_SERIES_QUIET_RUN = 40
_TARGET_REL = 1e-11


def _scale_estimate(r, x: float):
    """(4r^2 + x^2)^(-1/4), elementwise over r."""
    s = 4.0 * r * r + x * x
    # s = 0 (both below ~1e-162): the same bound without squaring
    with np.errstate(divide="ignore"):
        return np.where(s == 0.0, 1.0 / np.sqrt(np.hypot(2.0 * r, x)), s ** -0.25)[()]


def _log_half(x: float) -> float:
    """log(x/2) for x > 0, also where x/2 loses bits or underflows (x < 1e-300)."""
    if x < 1e-300:
        return math.log(x) - math.log(2.0)
    return math.log(0.5 * x)


# Bytes of the complex values of one node block of scaled_bessel_j_imag_grid:
# 8192 nodes, whose route temporaries stay a few MB for any grid size.
_GRID_BLOCK_BYTES = 128 * 1024


def scaled_bessel_j_imag_grid(r: np.ndarray, x: float) -> np.ndarray:
    """J_{2ir_i}(x)/cosh(pi r_i) for every real r_i of an array, x > 0.

    Each node takes the first route that meets its target 1e-11 s(r, x),
    with s = (4r^2 + x^2)^(-1/4) the scale of the value (`_scale_estimate`):
    the power series where it is plausible (x <= 36 or 8r >= x^2/12), the
    Hankel expansion (x > 20), the series for the remaining implausible
    nodes, the double-double series for the nodes still left (the
    transition band |2r| ~ x), and the exact fixed-point series for those
    it misses. A node that the fixed-point route's estimate also misses
    raises ConvergenceError. Every route runs over all the nodes of a block
    of _GRID_BLOCK_BYTES // 16 at once with per-node state only; a node
    leaves the active arrays when its sum stops, so a node's value does not
    depend on the batch or the block it is in, and memory stays bounded for
    any number of nodes. Satisfies value(-r, x) = conj(value(r, x)) exactly.
    The route counts of the whole grid go to the "maassdensity" logger at
    DEBUG, in one record.
    """
    x = float(x)
    r = np.asarray(r, dtype=float)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError("scaled_bessel_j_imag_grid requires a finite x > 0")
    if not np.all(np.isfinite(r)):
        raise DomainError("scaled_bessel_j_imag_grid requires finite r")
    if np.any(np.abs(r) > 1.0e4):
        raise DomainError("scaled_bessel_j_imag_grid requires |r| <= 1e4")
    flat = r.ravel()
    out = np.empty(flat.shape, dtype=complex)
    counts = dict.fromkeys(("series", "hankel", "double_double", "fixed_point"), 0)
    missed = []  # |r| of the nodes that every route missed
    step = _GRID_BLOCK_BYTES // 16
    for lo in range(0, flat.size, step):
        part = flat[lo:lo + step]
        missed += np.abs(part[_grid_block(part, x, out[lo:lo + step], counts)]).tolist()
    if missed:
        raise ConvergenceError(
            f"fixed-point Bessel series misses its target at x = {x!r} on "
            f"{len(missed)} nodes, r = {missed[0]!r} first")
    _log.debug(
        "scaled Bessel grid at x = %(x)r: %(nodes)d nodes, %(series)d series, "
        "%(hankel)d Hankel, %(double_double)d double-double, "
        "%(fixed_point)d fixed-point",
        {"x": x, "nodes": flat.size, **counts},
    )
    return out.reshape(r.shape)


def _grid_block(r: np.ndarray, x: float, out: np.ndarray, counts: dict):
    """scaled_bessel_j_imag_grid on one block of nodes r, written to out;
    adds the block's route counts to counts and returns the indices of the
    nodes that every route missed."""
    neg = r < 0.0
    a = np.where(neg, -r, r)
    target = _TARGET_REL * _scale_estimate(a, x)
    plausible = (x <= 36.0) | (8.0 * a >= x * x / 12.0)
    pending = np.ones(a.size, dtype=bool)  # the nodes without a value yet

    def take(idx, val, err):
        """Store the nodes of idx whose route result (val, err) meets the
        target; return the indices of the others."""
        ok = err <= target[idx]
        out[idx[ok]] = val[ok]
        pending[idx[ok]] = False
        return idx[~ok]

    idx = np.flatnonzero(plausible)
    counts["series"] += idx.size - take(idx, *_series_batch(a[idx], x)).size
    if x > 20.0:
        idx = np.flatnonzero(pending)
        left = take(idx, *_hankel_batch(a[idx], x))
        counts["hankel"] += idx.size - left.size
        idx = left[~plausible[left]]
        counts["series"] += idx.size - take(idx, *_series_batch(a[idx], x)).size
    idx = np.flatnonzero(pending)
    left = take(idx, *_series_dd_batch(a[idx], x, target[idx]))
    counts["double_double"] += idx.size - left.size
    missed = take(left, *_series_fixed_batch(a[left], x))
    counts["fixed_point"] += left.size - missed.size
    out[neg] = out[neg].conj()
    return missed


def _series_batch(r: np.ndarray, x: float):
    """Power series of J_{2ir}(x)/cosh(pi r) over an array of r >= 0.

    Kahan-compensated, from the log-scaled leading term; a node stops after
    40 terms in a row below 1e-18 of its largest, or with estimate inf once
    a term overflows. A node whose sum provably cannot move any more stops
    earlier with the same bits (`_series_settled`). Returns (values, error
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
    max_mag = np.hypot(t_re, t_im)
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
        with np.errstate(over="ignore", invalid="ignore"):  # see `lost`
            t_re, t_im = _c_prod(t_re, t_im, f_re, f_im)
            # Kahan-compensated acc += term
            y_re = t_re - cp_re
            y_im = t_im - cp_im
            s_re = acc_re + y_re
            s_im = acc_im + y_im
            cp_re = (s_re - acc_re) - y_re
            cp_im = (s_im - acc_im) - y_im
            mag = np.hypot(t_re, t_im)
        acc_re, acc_im = s_re, s_im
        max_mag = np.fmax(max_mag, mag)
        thr = 1e-18 * max_mag
        quiet = np.where(mag < thr, quiet + 1, 0)
        done = quiet >= _SERIES_QUIET_RUN
        done |= _series_settled(n, nu_im, x, mag, acc_re, acc_im, cp_re, cp_im)
        if x > 700.0:
            # a term whose parts or modulus overflowed never turns quiet; it
            # leaves with estimate inf. Below, terms stay under I_0(x) < e^x.
            lost = ~np.isfinite(mag)
            max_mag[lost] = math.inf
            done |= lost
        if done.any():
            val.real[pos[done]] = acc_re[done]
            val.imag[pos[done]] = acc_im[done]
            err[pos[done]] = 4e-16 * max_mag[done]
            keep = ~done
            pos, nu_re, nu_im = pos[keep], nu_re[keep], nu_im[keep]
            t_re, t_im, acc_re, acc_im = t_re[keep], t_im[keep], acc_re[keep], acc_im[keep]
            cp_re, cp_im, max_mag, quiet = cp_re[keep], cp_im[keep], max_mag[keep], quiet[keep]
    return val, err


def _series_settled(n: int, two_r, x: float, mag, acc_re, acc_im, cp_re, cp_im):
    """The nodes of `_series_batch` whose sum no later term can move, after
    term n (of modulus mag).

    Once (n+1) max(n+1, 2r) >= 2|q| = x^2/2, every later term ratio
    |q / ((k+1)(k+1+2ir))| is at most 1/2, so the terms after t_n sum to at
    most |t_n|. A Kahan step whose y is below half the gap beneath |acc|
    leaves acc as it is and sets cp = -y, so from then on y is cp plus a
    partial tail. Where (|cp| + 1.01 |t_n|)(1 + 1e-6), the factors covering
    the rounding of the terms and of y, stays below that half-gap in both
    parts, acc never moves again, and max_mag, which smaller terms cannot
    raise, is final: the 40-term quiet run would return the same bits.
    """
    settled = (n + 1) * np.maximum(n + 1.0, two_r) >= 0.5 * x * x
    if not settled.any():
        return settled
    with np.errstate(over="ignore", invalid="ignore"):
        tail = 1.01 * mag
        for acc, cp in ((acc_re, cp_re), (acc_im, cp_im)):
            a = np.abs(acc)
            settled &= (np.abs(cp) + tail) * (1.0 + 1e-6) < 0.5 * (a - np.nextafter(a, 0.0))
    return settled


def _series_first_term(nu_re, nu_im, r: np.ndarray, x: float):
    """exp(nu log(x/2) - log Gamma(1 + nu) - log cosh(pi r)) as (re, im)."""
    lg = log_gamma_grid(_complex(1.0 + nu_re, 0.0 + nu_im))
    lt_re, lt_im = _c_prod(nu_re, nu_im, _log_half(x), 0.0)
    lc = log_cosh(math.pi * r)
    term = np.exp(_complex((lt_re - lg.real) - lc, (lt_im - lg.imag) - 0.0))
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
    # np.tanh differs from libm's on 2,081 of the benchmark's 66,901 Hankel nodes
    th = _map_blocks(math.tanh, math.pi * r)
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


def _series_t0(r: np.ndarray, x: float):
    """The leading term t_0 = exp(2ir log(x/2) - log Gamma(1 + 2ir) -
    log cosh(pi r)) of the series for r >= 0, in binary64: (re, im, rel).

    rel = 4 2^-52 (1 + |2r log(x/2)| + size of log Gamma + log cosh) bounds
    the relative rounding of t_0 and of one product with it; `size` sums the
    moduli of the parts log Gamma is built from (`_log_gamma_stirling`).
    The double-double route's D_J pins hold these bits. The term grows with
    r, so the fixed-point route takes the sharper `_fixed_t0`.
    """
    lg_re, lg_im, lg_size = _log_gamma_stirling(np.ones(r.size), 2.0 * r)
    lc = log_cosh(math.pi * r)
    phase = (2.0 * r) * _log_half(x)
    t0 = np.exp(_complex(-lg_re - lc, phase - lg_im))
    return t0.real, t0.imag, (4.0 * _F64_EPS) * (((1.0 + np.abs(phase)) + lg_size) + lc)


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
    t0_re, t0_im, t0_rel = _series_t0(r, x)
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
            err[i] = ((n * _DD_EPS) * max_mag[done] * t0_mag[i]
                      + t0_rel[i] * (np.abs(v_re) + np.abs(v_im)))
        keep = ~(done | lost)
        if not keep.all():
            (pos, budget, max_mag, two_r, two_r_split, four_r2, s_re, s_im, acc_re,
             acc_im) = [tuple(v[keep] for v in a) if isinstance(a, tuple) else a[keep]
                        for a in (pos, budget, max_mag, two_r, two_r_split, four_r2,
                                  s_re, s_im, acc_re, acc_im)]
    return val, err


# ----------------------------------------------------------------------------
# Exact fixed-point series for the nodes the double-double sum cannot hold
# ----------------------------------------------------------------------------
# Where the series cancels by more than 2^-104 can hold (x beyond about 70 in
# the transition band), exact integers at a fixed binary point sum it at any
# precision (Brent & Zimmermann, Modern Computer Arithmetic, 2010, ch. 1 and
# 4). The terms grow to at most I_0(x) < e^x before they decay, so
# P = 124 + floor(x / ln 2) keeps 124 bits below the largest. Its t_0 takes
# the phase's large part at the binary point 2^-128 too, so neither the sum
# nor t_0 loses bits as r and x grow.

_FIXED_GUARD_BITS = 124
_PHASE_BITS = 128


def _inverse_series(k: int, q: int, alternate: bool) -> int:
    """atan(1/k) (alternate) or atanh(1/k) at the binary point 2^-q, for an
    integer k >= 2, within j + 1 units for j terms."""
    power, total, j = (1 << q) // k, 0, 0
    while power:
        term = power // (2 * j + 1)
        total += -term if alternate and j % 2 else term
        power //= k * k
        j += 1
    return total


_LN2_FIXED = 2 * _inverse_series(3, _PHASE_BITS + 16, False) >> 16
# Machin: pi = 16 atan(1/5) - 4 atan(1/239)
_TWO_PI_FIXED = (32 * _inverse_series(5, _PHASE_BITS + 16, True)
                 - 8 * _inverse_series(239, _PHASE_BITS + 16, True)) >> 16


def _fixed_log(num: int, den: int) -> int:
    """ln(num / den) at the binary point 2^-128 for integers num, den > 0.

    num / den = 2^k f with f in [1/sqrt 2, sqrt 2], and ln f = 2 atanh(u),
    u = (f - 1)/(f + 1), |u| <= 0.172: about 26 terms, each exact integer
    arithmetic and one floor.
    """
    k = num.bit_length() - den.bit_length()
    a, b = (num, den << k) if k >= 0 else (num << -k, den)
    if a * a > 2 * b * b:
        b, k = b << 1, k + 1
    elif 2 * a * a < b * b:
        a, k = a << 1, k - 1
    d, s = abs(a - b), a + b
    power, total, j = (d << _PHASE_BITS) // s, 0, 0
    while power:
        total += power // (2 * j + 1)
        power = power * d * d // (s * s)
        j += 1
    return k * _LN2_FIXED + (2 * total if a >= b else -2 * total)


def _fixed_phase(y: float, x: float) -> tuple:
    """arg t_0 = y log(x/2) - Im log Gamma(1 + iy) mod 2 pi for y = 2r >= 0:
    (phase, size), where 4 2^-52 (1 + 2 pi + size) bounds its rounding.

    With w = m + iy, m the least positive integer with |w| >= 15, Stirling
    (as in `_log_gamma_stirling`) gives
        arg t_0 = [y log(x / (2|w|)) + y] - (m - 1/2) arg w - Im h(w)
                  + sum_{j < m} arg(j + iy),  h(w) = sum_k c_k w^(1 - 2k).
    The bracket grows with y; it is summed at the binary point 2^-128 from
    the exact dyadics x and y and reduced mod 2 pi there. The other parts
    stay below 45 in size and are summed in binary64.
    """
    m = 1
    while m * m + y * y < _STIRLING_MIN_ABS ** 2:
        m += 1
    bx, dx = x.as_integer_ratio()
    by, dy = y.as_integer_ratio()
    # x^2 / (4 |w|^2) = bx^2 dy^2 / (4 dx^2 (m^2 dy^2 + by^2))
    log_ratio = _fixed_log(bx * bx * dy * dy, 4 * dx * dx * (m * m * dy * dy + by * by))
    big = ((by * log_ratio) // (2 * dy) + (by << _PHASE_BITS) // dy) % _TWO_PI_FIXED
    w = complex(m, y)
    iw = 1.0 / w
    iw2 = iw * iw
    h = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        h = h * iw2 + c
    h *= iw
    arg_w = cmath.phase(w)
    shifts = math.fsum(math.atan2(y, j) for j in range(1, m))
    small = (shifts - (m - 0.5) * arg_w) - h.imag
    phase = big / (1 << _PHASE_BITS) + small
    return phase, shifts + (m - 0.5) * arg_w + abs(h)


def _fixed_t0(r: np.ndarray, x: float):
    """t_0 of the series for r >= 0 (see `_series_t0`) for the fixed-point
    route: (re, im, rel), rel bounding the relative rounding of t_0 and of
    one product with it.

    |t_0| = sqrt(tanh(pi r) / (pi r)), because |Gamma(1 + 2ir)|^2 =
    2 pi r / sinh(2 pi r); the phase is `_fixed_phase`. Neither rounds by
    more than a few dozen units of 2^-52, whatever r and x.
    """
    z = math.pi * r
    with np.errstate(invalid="ignore", divide="ignore"):
        mod = np.where(z > 1e-150, np.sqrt(np.tanh(z) / z), 1.0)
    phase, size = np.array([_fixed_phase(y, x) for y in (2.0 * r).tolist()]).reshape(-1, 2).T
    rel = (4.0 * _F64_EPS) * ((4.0 + 2.0 * math.pi) + size)
    return mod * np.cos(phase), mod * np.sin(phase), rel


def _series_fixed_batch(r: np.ndarray, x: float):
    """Power series of J_{2ir}(x)/cosh(pi r), r >= 0, summed exactly in
    integers at the fixed binary point 2^-P, P = 124 + floor(x / ln 2).

    Sums the series of `_series_dd_batch`, s_0 = 1 and s_n = s_{n-1} q /
    (n (n + 2ir)), q = -x^2/4, and multiplies the sum in binary64 by t_0
    from `_fixed_t0`. With x = B 2^-k and 2r = A 2^-D (one D for the batch)
    a step is
        S_n = floor(S_{n-1} K (n 2^D - iA) / (n (n^2 2^2D + A^2) 2^L)),
    K = -B^2 2^max(h, 0), L = max(-h, 0), h = D - 2k - 2: exact integer
    arithmetic and one floor per part, whose rational does not depend on D.
    The floors leave E_n = |rho_n| E_{n-1} + sqrt(2) units of 2^-P in S_n,
    |rho_n| = (x^2/4) / (n |n + 2ir|), computed alongside in binary64 as
    log2 E_n, which does not overflow where E_n does (x > 700). A node
    stops once 2n^2 >= x^2 (later ratios are at most 1/2, so the dropped
    tail is at most |s_n|) and its term is below 2^bits <= its running sum
    of E, bits = the term's bit length. Returns (values, error estimates):
    2^-P (sum E + tail) |t_0| plus `_fixed_t0`'s rounding term. P depends
    on x alone and each node stops on its own rule, so a node's bits do not
    depend on the batch it is in.
    """
    val = np.empty(r.size, dtype=complex)
    err = np.empty(r.size)
    if r.size == 0:
        return val, err
    t0_re, t0_im, t0_rel = _fixed_t0(r, x)
    prec = _FIXED_GUARD_BITS + math.floor(x / math.log(2.0))
    b, two_k = x.as_integer_ratio()
    ratios = [v.as_integer_ratio() for v in (2.0 * r).tolist()]
    d = max(den.bit_length() - 1 for _, den in ratios)
    a = np.array([num << (d - den.bit_length() + 1) for num, den in ratios], dtype=object)
    h = d - 2 * (two_k.bit_length() - 1) - 2
    k_mul = -(b * b) << max(h, 0)
    ka = a * k_mul
    a2 = (a * a) << max(-h, 0)
    unit = 1 << prec
    s_re = np.full(r.size, unit, dtype=object)
    s_im = np.zeros(r.size, dtype=object)
    acc_re, acc_im = s_re.copy(), s_im.copy()
    two_r = 2.0 * r
    log_q = 2.0 * math.log2(x) - 2.0  # log2(x^2/4)
    log_e = np.full(r.size, -math.inf)
    log_e_sum = np.full(r.size, -math.inf)
    pos = np.arange(r.size)
    n = 0
    while pos.size:
        if n >= _SERIES_MAX_TERMS:
            raise ConvergenceError("fixed-point Bessel series hit the term cap")
        n += 1
        fn = float(n)
        kn = k_mul * (n << d)
        den = (a2 + ((n * n) << (2 * d + max(-h, 0)))) * n
        s_re, s_im = (s_re * kn + s_im * ka) // den, (s_im * kn - s_re * ka) // den
        acc_re += s_re
        acc_im += s_im
        log_rho = (log_q - math.log2(fn)) - 0.5 * np.log2(fn * fn + two_r * two_r)
        log_e = np.logaddexp2(log_rho + log_e, 0.5)
        log_e_sum = np.logaddexp2(log_e_sum, log_e)
        if 2.0 * fn * fn < x * x:
            continue
        mag = np.abs(s_re) + np.abs(s_im)
        done = np.fromiter((m.bit_length() for m in mag), float, count=mag.size) <= log_e_sum
        if done.any():
            i = pos[done]
            v_re, v_im = _c_prod((acc_re[done] / unit).astype(float),
                                 (acc_im[done] / unit).astype(float), t0_re[i], t0_im[i])
            val[i] = _complex(v_re, v_im)
            log_tail = np.logaddexp2(
                log_e[done], [math.log2(m) if m else -math.inf for m in mag[done]])
            err[i] = (np.exp2(np.logaddexp2(log_e_sum[done], log_tail) - prec)
                      * (np.abs(t0_re[i]) + np.abs(t0_im[i]))
                      + t0_rel[i] * (np.abs(v_re) + np.abs(v_im)))
            keep = ~done
            pos, ka, a2, two_r, s_re, s_im, acc_re, acc_im, log_e, log_e_sum = (
                v[keep] for v in (pos, ka, a2, two_r, s_re, s_im, acc_re, acc_im,
                                  log_e, log_e_sum))
    return val, err


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def scaled_bessel_series_grid(r: np.ndarray, x: float) -> np.ndarray:
    """Vectorized J_{2ir_i}(x)/cosh(pi r_i) over an array of real r, x <= 36.

    Series route only; used by quadrature grids where x = 4*pi*sqrt(mn)/c
    stays small. The series cancels: its terms grow to about I_0(x), so on
    nodes r <= 2, where the value is near 0.1, it misses 60-digit mpmath by
    1.6e-9 at x = 20, 2.0e-5 at x = 30 and 3.4e-3 at x = 35.
    """
    if x > 36.0:
        raise DomainError("scaled_bessel_series_grid is limited to x <= 36")
    if not x > 0.0:
        raise DomainError("x must be positive")
    nu, lg, lc = _series_grid_prefactor(r)
    term = np.exp(nu * _log_half(x) - lg - lc)
    del lg, lc  # the loop needs only nu and the leading term
    return _series_grid_loop(nu, term, x)


def _series_grid_prefactor(r: np.ndarray) -> tuple:
    """(nu, log Gamma(1 + nu), log cosh(pi r)) with nu = 2ir: the x-independent
    node factors of the series, computed once per node set."""
    r = np.asarray(r, dtype=float)
    nu = 2j * r
    lg = log_gamma_grid(1.0 + nu)
    return nu, lg, log_cosh(math.pi * r)


def _series_grid_sum(pre: tuple, x: float) -> np.ndarray:
    """The power series of J_{2ir}(x)/cosh(pi r) on the nodes of `pre`."""
    nu, lg, lc = pre
    return _series_grid_loop(nu, np.exp(nu * _log_half(x) - lg - lc), x)


def _series_grid_loop(nu: np.ndarray, term: np.ndarray, x: float) -> np.ndarray:
    """The power series from its leading term, with one stop for the whole
    grid. Not blocked: besides the stop, numpy's complex multiply gives
    other bits with its operands swapped, which its temporary elision does
    from 16,384 elements up, so blocks would move the bits of a larger
    grid's nodes."""
    acc = term.copy()
    q = -0.25 * x * x
    for n in range(1, 400):
        term = term * (q / (n * (n + nu)))
        acc += term
        big = max(1.0, float(np.max(np.abs(acc), initial=0.0)))
        if np.max(np.abs(term), initial=0.0) < 1e-18 * big:
            return acc
    raise ConvergenceError("vectorized Bessel series did not converge")


# ----------------------------------------------------------------------------
# Zeta right of the 1-line (Euler-Maclaurin)
# ----------------------------------------------------------------------------

def _zeta_cutoff(t_max: float) -> int:
    """Euler-Maclaurin cutoff N for |Im s| <= t_max.

    The head sum runs over n < N, then the tail integral, the half term and
    the 14 Bernoulli terms B_2 ... B_28 of _BERNOULLI_EVEN. The remainder
    after them is at most |s+29|/(sigma+29) times the first omitted term
    B_30/30! s(s+1)...(s+28) N^{-s-29}, and |B_30|/30! ~ 2/(2 pi)^30, so

        |R| <= 2 N^{1-sigma}/(sigma+29) * rho^30,
        rho = geometric mean of |s+j|/(2 pi N), j = 0 ... 29.

    With N >= 0.65 |t| (and the +16 and 24 floors for small |t|), rho stays
    below its large-|t| limit 1/(2 pi 0.65) = 0.245, so |R| < (2/30) 0.245^30
    < 1e-19; a scan of t in [0, 1e5] at sigma = 1 finds at most 3.1e-20.
    """
    return max(24, int(0.65 * t_max) + 16)


def _zeta_plan(n_cut: int) -> tuple:
    """(primes, layers) for the powers n^{-s}, 1 <= n < n_cut.

    `primes` lists the primes below n_cut. Layer k lists (n, n/p, p) for the
    composite n in [2^k, 2^(k+1)), ascending, with p the smallest prime
    factor of n; both n/p and p lie below 2^k, so each layer reads only rows
    filled before it. Every array is ascending in n, so a smaller cutoff
    takes a prefix of each.
    """
    spf = np.zeros(n_cut, dtype=np.intp)  # smallest prime factor; 0 at primes
    for p in range(2, math.isqrt(n_cut - 1) + 1):
        if spf[p] == 0:
            mult = spf[p * p :: p]
            mult[mult == 0] = p
    comp = np.flatnonzero(spf)
    layers = []
    for k in range(2, (n_cut - 1).bit_length()):
        nk = comp[np.searchsorted(comp, 1 << k) : np.searchsorted(comp, 2 << k)]
        layers.append((nk, nk // spf[nk], spf[nk]))
    return np.flatnonzero(spf == 0)[2:], layers


def _power_table(s: np.ndarray, n_cut: int, plan: tuple) -> np.ndarray:
    """Rows n^{-s} for n < n_cut (row 0 unused), one column per s.

    n^{-s} is completely multiplicative, so exp runs only on the rows of the
    primes; every composite n is (n/p)^{-s} p^{-s}, filled layer by layer.
    """
    primes, layers = plan
    table = np.empty((n_cut, s.size), dtype=complex)
    table[1] = 1.0
    p = primes[: np.searchsorted(primes, n_cut)]
    rows = np.multiply.outer(np.log(p), -s)
    table[p] = np.exp(rows, out=rows)
    for n, q, f in layers:
        k = np.searchsorted(n, n_cut)
        if k == 0:
            break
        table[n[:k]] = table[q[:k]] * table[f[:k]]
    return table


def _zeta_em(s: np.ndarray, plan: tuple | None = None) -> np.ndarray:
    """zeta(s) on an array of s with Re(s) >= 1, s != 1, by Euler-Maclaurin
    with tail correction; the whole array shares one cutoff N (_zeta_cutoff).
    `plan` is a _zeta_plan of at least that cutoff; one is built if absent."""
    n_cut = _zeta_cutoff(float(np.max(np.abs(s.imag))))
    if plan is None:
        plan = _zeta_plan(n_cut)
    acc = _power_table(s, n_cut, plan)[1:].sum(axis=0)
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
    z = complex(_zeta_em(np.array([s]))[0])
    if not cmath.isfinite(z):
        raise OverflowGuardError("zeta_right_of_one produced a non-finite value")
    return z


def zeta_abs2_grid(r: np.ndarray) -> np.ndarray:
    """Vectorized |zeta(1 + 2ir)|^2 for large grids.

    The Euler-Maclaurin kernel of zeta_right_of_one, evaluated blockwise on
    magnitude-sorted chunks so each chunk shares one cutoff N; one
    _zeta_plan, built for the largest cutoff, serves every chunk. r = 0 maps
    to +inf.
    """
    r = np.asarray(r, dtype=float)
    flat = np.abs(r.ravel())
    out = np.empty_like(flat)
    order = np.argsort(flat)
    chunk = 256
    plan = _zeta_plan(_zeta_cutoff(2.0 * float(flat.max(initial=1.0))))
    for lo in range(0, order.size, chunk):
        idx = order[lo : lo + chunk]
        rv = flat[idx]
        zero = rv == 0.0
        vals = np.abs(_zeta_em(1.0 + 2j * np.where(zero, 1.0, rv), plan)) ** 2
        vals[zero] = np.inf
        out[idx] = vals
    return out.reshape(r.shape)


# ----------------------------------------------------------------------------
# Large-order phase
# ----------------------------------------------------------------------------


def dunster_xi(z: float) -> float:
    """xi(z) = sqrt(1+z^2) + log(z / (1 + sqrt(1+z^2))) for z > 0."""
    z = float(z)
    if not z > 0.0:
        raise DomainError("dunster_xi requires z > 0")
    root = math.hypot(1.0, z)
    return root + math.log(z / (1.0 + root))

