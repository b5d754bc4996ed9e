"""The admissible weight family: the band-limited factor s, the even weight
h(x) = x^M s(x)^2 with an order-M zero at 0, the spectral weight h_T, and the
odd companion g(x) = sgn(x) h(x) with its x-multiplied ("tilde") variants.

h is constructed exactly as a square times x^M, so the square-root condition
holds by construction. The Fourier transform of h is supported inside
(-2w, 2w) with w = bump_halfwidth <= 1/8, hence inside (-1/4, 1/4).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, OverflowGuardError, PoleError

__all__ = [
    "WeightFamily",
    "SpectralWeight",
    "make_weight_family",
    "make_spectral_weight",
    "default_family",
    "bump",
    "g_tilde_eval",
    "g_fourier_transform",
    "gauss_legendre",
]

_TWO_PI = 2.0 * math.pi


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1]: those of
    numpy.polynomial.legendre.leggauss(n), computed once per n and shared
    read-only."""
    n = int(n)
    if n < 1:
        raise DomainError("Gauss-Legendre order must be >= 1")
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# Bytes of the one work buffer of _transform_rows: a block of rows of the
# (points x nodes) matrix that stays in cache.
_ROW_BLOCK_BYTES = 512 * 1024


def _block_rows(k: int) -> int:
    """Rows per block of _transform_rows over k nodes: the largest multiple
    of 4 (at least 4) for which the last block, up to 2 * rows - 1 rows,
    fits in _ROW_BLOCK_BYTES."""
    return max(4, _ROW_BLOCK_BYTES // (16 * k) // 4 * 4)


def _transform_rows(fn, scale: float, x, a: np.ndarray, w: np.ndarray):
    """fn(scale * outer(x, a)) @ w, one block of rows at a time.

    The one home of the band-limited transforms: s on the real line and on
    the imaginary axis, and the test functions' phi. Each block is formed
    in place in a single buffer of at most _ROW_BLOCK_BYTES (outer product,
    scale, fn, matrix-vector product), never the whole matrix.

    Under one BLAS thread the result is bit for bit the dense expression.
    Every block's row count is a multiple of 4, since OpenBLAS dgemv_t sums
    rows four at a time and the leftover rows in another order; the last
    block takes the remainder, so no block is a 1-row product, which numpy
    sends down another BLAS path. A 0-d x is the dense expression itself.
    A 2-D w (nodes x columns) gives one column of output per column of w,
    each equal to the dense product up to the rounding of the matrix product.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return fn(scale * np.multiply.outer(x, a)) @ w
    flat = x.reshape(-1)
    n = flat.size
    rows = _block_rows(a.size)
    blocks = max(1, n // rows)
    buf = np.empty((min(n, 2 * rows - 1), a.size))
    out = np.empty((n,) + w.shape[1:])
    for b in range(blocks):
        lo = b * rows
        hi = n if b == blocks - 1 else lo + rows
        m = buf[: hi - lo]
        np.multiply.outer(flat[lo:hi], a, out=m)
        np.multiply(scale, m, out=m)
        fn(m, out=m)
        np.matmul(m, w, out=out[lo:hi])
    return out.reshape(x.shape + w.shape[1:])


def bump(u):
    """Unit smooth even bump exp(-1/(1-u^2)) on (-1, 1), 0 outside."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


@dataclass(frozen=True)
class WeightFamily:
    """Weight h(x) = x^M s(x)^2 with s the transform of a compact bump.

    M must be a multiple of 4: the even square-root x^{M/2} s(x) requires M/2
    even, and h(iy) >= 0 fails otherwise. Every s integral runs over the
    _BUMP_NODES-point Gauss-Legendre rule on the bump support (-w, w).
    """

    M: int
    bump_halfwidth: float
    _xi: np.ndarray = field(repr=False, compare=False)
    _wb: np.ndarray = field(repr=False, compare=False)

    # -- band-limited factor -------------------------------------------------

    def s(self, z: complex) -> complex:
        """s(z) = integral of b(xi) e(z xi) over the bump support."""
        zi = complex(z).imag
        if abs(zi) * _TWO_PI * self.bump_halfwidth > 700.0:
            raise OverflowGuardError("band_limited_eval growth guard tripped")
        vals = np.exp(2j * math.pi * complex(z) * self._xi)
        out = complex(np.dot(self._wb, vals))
        if z.imag == 0.0 or z.real == 0.0:
            # real on both axes (even real bump)
            return complex(out.real, 0.0)
        return out

    def s_real_grid(self, x: np.ndarray) -> np.ndarray:
        """Vectorized s on a real grid (cosine form, exactly real)."""
        return _transform_rows(np.cos, _TWO_PI, x, self._xi, self._wb)

    def s_imag_axis_scaled(self, y: np.ndarray):
        """s(iy) for y >= 0, returned as (mantissa, log_scale).

        s(iy) = exp(2 pi y w) * sum wb * exp(-2 pi y (xi + w)) keeps every
        exponent non-positive, so s(iy) = mantissa * exp(log_scale) is exact
        up to rounding even where s(iy) itself would overflow.
        """
        y = np.asarray(y, dtype=float)
        w = self.bump_halfwidth
        mant = _transform_rows(np.exp, -_TWO_PI, y, self._xi + w, self._wb)
        return mant, _TWO_PI * w * y

    def s_derivative(self, x: float, order: int) -> float:
        """d^order/dx^order s(x) at real x, order in {0, 1, 2}."""
        x = float(x)
        if order == 0:
            return float(np.dot(self._wb, np.cos(_TWO_PI * x * self._xi)))
        if order == 1:
            return float(
                np.dot(self._wb, -_TWO_PI * self._xi * np.sin(_TWO_PI * x * self._xi))
            )
        if order == 2:
            return float(
                np.dot(
                    self._wb,
                    -((_TWO_PI * self._xi) ** 2) * np.cos(_TWO_PI * x * self._xi),
                )
            )
        raise DomainError("s_derivative supports order 0..2")

    # -- the weight itself ---------------------------------------------------

    def h(self, z: complex) -> complex:
        """h(z) = z^M s(z)^2."""
        z = complex(z)
        sz = self.s(z)
        return (z ** self.M) * sz * sz

    def h_real(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        sx = self.s_real_grid(x)
        return (x ** self.M) * sx * sx

    def h_imag_axis(self, y) -> np.ndarray:
        """h(iy) for real y; real and >= 0 since M is a multiple of 4."""
        y = np.asarray(y, dtype=float)
        mant, logs = self.s_imag_axis_scaled(np.abs(y))
        val = (np.abs(y) ** self.M) * mant * mant * np.exp(2.0 * logs)
        return val

    def bump_moment(self, order: int) -> float:
        """integral of xi^order * b(xi) d xi over the support (0 for odd order)."""
        if order % 2 == 1:
            return 0.0
        return float(np.dot(self._wb, self._xi ** order))


# Gauss-Legendre order of the bump quadrature. At every half-width tried,
# from 1e-6 to 1/8, s at 256 nodes agrees with a 512-node rule to 3.6e-15 of
# its size at six probes on and off the real line.
_BUMP_NODES = 256


@lru_cache(maxsize=16)
def _cached_family(M: int, w: float) -> WeightFamily:
    x, gw = gauss_legendre(_BUMP_NODES)
    xi = x * w
    wb = gw * w * bump(xi / w)
    return WeightFamily(M=M, bump_halfwidth=w, _xi=xi, _wb=wb)


def make_weight_family(M: int, bump_halfwidth: float = 0.125) -> WeightFamily:
    """Validated constructor; M a multiple of 4, 0 < bump_halfwidth <= 1/8."""
    M = int(M)
    if M < 8:
        raise DomainError("weight order M must be >= 8")
    if M % 4 != 0:
        raise DomainError(
            "weight order M must be a multiple of 4: the even square-root "
            "x^{M/2} s(x) needs M/2 even, and h(iy) >= 0 fails otherwise"
        )
    w = float(bump_halfwidth)
    if not (0.0 < w <= 0.125):
        raise DomainError("bump_halfwidth must lie in (0, 1/8]")
    return _cached_family(M, w)


def default_family() -> WeightFamily:
    """The M = 8, bump_halfwidth = 1/8 family, used wherever an entry point's
    family argument is None."""
    return make_weight_family(8, 0.125)


# ----------------------------------------------------------------------------
# Spectral weight h_T
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralWeight:
    """h_T(r) = (r/T) h(ir/T) / sinh(pi r / T) for a large odd integer T."""

    family: WeightFamily
    T: int

    def h_T(self, r: complex) -> complex:
        """h_T at a complex point; PoleError at nonzero integer multiples of iT."""
        r = complex(r)
        if r == 0:
            return 0.0 + 0.0j
        if abs(r.real) < 1e-12 * max(1.0, abs(r.imag)):
            k = r.imag / self.T
            if abs(k - round(k)) < 1e-12 and round(k) != 0:
                raise PoleError(f"h_T has a pole at r = {r}")
        T = self.T
        return (r / T) * self.family.h(1j * r / T) / cmath.sinh(math.pi * r / T)


    def h_T_real(self, r) -> np.ndarray:
        """Vectorized h_T on a real grid; real, >= 0, with h_T(0) = 0.

        Computed log-scaled so that large r (where h(ir/T) alone would
        overflow) stays finite: the net decay is exp(-pi(1-4w)|r|/(2T)).
        """
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        y = np.abs(r) / self.T
        mant, logs = self.family.s_imag_axis_scaled(y)
        # h(iy) = y^M * (mant e^{logs})^2 ; h_T = y^{M+1} h-part / sinh(pi y)
        out = np.zeros_like(y)
        nz = y > 0.0
        ynz = y[nz]
        log_sinh = np.where(
            math.pi * ynz > 30.0,
            math.pi * ynz - math.log(2.0),
            np.log(np.sinh(np.minimum(math.pi * ynz, 30.0)) + (math.pi * ynz > 30.0)),
        )
        # at subnormal y, -log_sinh passes 709 and exp overflows (inf * 0 =
        # nan); y^{M+1} underflows to 0 long before, so the clamp changes no
        # finite value
        out[nz] = (
            ynz ** (self.family.M + 1)
            * mant[nz] ** 2
            * np.exp(np.minimum(2.0 * logs[nz] - log_sinh, 709.0))
        )
        return float(out[0]) if scalar else out

    def h_T_halfint_imag(self, k: int) -> float:
        """h_T((k + 1/2) i) in closed real form; never hits a pole."""
        k = int(k)
        if k < 0:
            raise DomainError("k must be >= 0")
        x = (k + 0.5) / self.T
        hx = float(self.family.h_real(np.array([x]))[0])
        return x * hx / math.sin(math.pi * x)


def _check_odd_T(T) -> int:
    """T as an int, for the one rule on T: an odd integer >= 3, given as any
    number of integral value (5, 5.0 and np.int64(5) alike); DomainError for
    anything else, a non-integral T included."""
    try:
        t = int(T)
    except (TypeError, ValueError, OverflowError):
        t = None
    if t is None or t != T or t < 3 or t % 2 == 0:
        raise DomainError(f"T must be an odd integer >= 3, got {T!r}")
    return t


def make_spectral_weight(family: WeightFamily, T: int) -> SpectralWeight:
    return SpectralWeight(family=family, T=_check_odd_T(T))


# ----------------------------------------------------------------------------
# The odd companion g and its tilde variants
# ----------------------------------------------------------------------------


def g_tilde_eval(
    family: WeightFamily, x: float, tilde_count: int = 0, derivative_order: int = 0
) -> float:
    """d^j/dx^j [ x^t * g(x) ] with g(x) = sgn(x) h(x), t = tilde_count.

    Derivatives are analytic through the product rule on x^{t+M} s(x)^2 with
    s', s'' from differentiating under the quadrature integral.
    """
    if tilde_count not in (0, 1, 2):
        raise DomainError("tilde_count must be 0, 1, or 2")
    if derivative_order not in (0, 1, 2):
        raise DomainError("derivative_order must be 0, 1, or 2")
    x = float(x)
    if x == 0.0:
        return 0.0  # order-M zero with M >= 8 kills derivatives up to 2
    sign = 1.0
    if x < 0.0:
        # x^t g(x) has parity (-1)^{t+1}; the j-th derivative flips by (-1)^j
        sign = (-1.0) ** (tilde_count + 1 + derivative_order)
        x = -x
    p = tilde_count + family.M
    s0 = family.s_derivative(x, 0)
    if derivative_order == 0:
        return sign * x ** p * s0 * s0
    s1 = family.s_derivative(x, 1)
    if derivative_order == 1:
        return sign * (p * x ** (p - 1) * s0 * s0 + 2.0 * x ** p * s0 * s1)
    s2 = family.s_derivative(x, 2)
    return sign * (
        p * (p - 1) * x ** (p - 2) * s0 * s0
        + 4.0 * p * x ** (p - 1) * s0 * s1
        + 2.0 * x ** p * (s1 * s1 + s0 * s2)
    )


def g_fourier_transform(family: WeightFamily, xi: float, terms: int = 40) -> complex:
    """Fourier transform of g at |xi| > 1/2, via the moment expansion.

    g-hat(xi) = (1/(pi i)) sum_j m_j xi^{-(j+1)} with m_j the moments of the
    transform of h, which vanish below j = M; the series converges
    geometrically for |xi| beyond the transform support.
    """
    xi = float(xi)
    if abs(xi) <= 0.5:
        raise DomainError("moment expansion requires |xi| > 1/2")
    M = family.M
    # nu_i = sum_l C(i,l) mu_l mu_{i-l}; m_{M+i} = (M+i)!/i! nu_i / (2 pi)^M
    acc = 0.0
    mu = [family.bump_moment(l) for l in range(terms + 1)]
    for i in range(0, terms + 1, 2):
        nu = sum(math.comb(i, l) * mu[l] * mu[i - l] for l in range(0, i + 1, 2))
        coeff = math.exp(
            math.lgamma(M + i + 1) - math.lgamma(i + 1) - M * math.log(2.0 * math.pi)
        )
        term = coeff * nu * xi ** -(M + i + 1)
        acc += term
        if abs(term) < 1e-18 * abs(acc):
            break
    return complex(0.0, -acc / math.pi)
