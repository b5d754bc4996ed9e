"""Elementary arithmetic ingredients: primes, Kloosterman sums (over a
batch of m and every modulus up to c_max) and complex-order divisor sums."""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, VerificationError

__all__ = [
    "primes_up_to",
    "kloosterman_sums",
    "divisor_sigma_complex",
]

_PRIME_CAP = 10 ** 9


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array (numpy sieve)."""
    n = int(n)
    if n > _PRIME_CAP:
        raise DomainError(f"prime sieve capped at {_PRIME_CAP}")
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


# c below this keeps every product of two residues inside int64
_MODULUS_CAP = 2 ** 31


def _check_modulus(c: int) -> int:
    c = int(c)
    if c < 1:
        raise DomainError("modulus c must be >= 1")
    if c >= _MODULUS_CAP:
        raise DomainError(f"modulus c must be < 2^31 (int64 products), got {c}")
    return c


# sized to cover the default c_max = 1000, so a repeated sweep over c never
# evicts its own entries
@lru_cache(maxsize=1024)
def _inv_table_cached(c: int) -> np.ndarray:
    """Modular inverses mod c: table[x] = xbar, or -1 where gcd(x, c) > 1.

    xbar = x^(phi(c) - 1) mod c (Euler), by square-and-multiply over all
    units at once; phi(c) is the number of units.
    """
    c = _check_modulus(c)
    table = np.full(c, -1, dtype=np.int64)
    x = np.arange(1, c, dtype=np.int64)
    x = x[np.gcd(x, c) == 1]
    base, e = x, max(x.size - 1, 0)
    xb = np.ones_like(x)
    while e:
        if e & 1:
            xb = xb * base % c
        base = base * base % c
        e >>= 1
    table[x] = xb
    return table


# elements of the (a, x) block of one _kloosterman_rows chunk
_TABLE_BLOCK = 1 << 19


def _kloosterman_rows(a: np.ndarray, n: int, c: int) -> np.ndarray:
    """[S(a_i, n; c)] for c > 1 and residues 0 <= a_i, n < c.

    The one Kloosterman kernel: each entry sums
    cos(2 pi ((a_i x + n xbar) mod c) / c) over the units x mod c, pairwise
    (numpy); the sine parts cancel under x -> -x. Rows are evaluated in
    blocks of about _TABLE_BLOCK terms, and a row's value does not depend
    on the block it is in.
    """
    inv = _inv_table_cached(c)
    x = np.nonzero(inv >= 0)[0]
    xb = inv[x]
    two_pi_over_c = 2.0 * math.pi / c
    out = np.empty(a.size)
    step = max(1, _TABLE_BLOCK // x.size)
    for lo in range(0, a.size, step):
        rows = a[lo : lo + step, None]
        terms = np.cos(two_pi_over_c * ((rows * x + n * xb) % c))
        out[lo : lo + step] = terms.sum(axis=1)
    return out


def kloosterman_sums(ms, n: int, c_max: int) -> np.ndarray:
    """[S(m_i, n; c)] for c = 1, ..., c_max: row i, column c - 1, with
    S(m, n; c) = sum over units x mod c of e((m x + n xbar)/c), which is
    real (x -> -x pairs the terms).

    Each modulus c makes one kernel call, on the distinct residues of the
    m_i mod c, so it costs at most c rows; an entry's bits do not depend on
    the other m_i. A single m skips the dedupe.
    """
    ms = np.asarray(ms, dtype=np.int64).ravel()
    n, c_max = int(n), _check_modulus(c_max)
    out = np.ones((ms.size, c_max))  # S(m, n; 1) = 1
    for c in range(2, c_max + 1):
        if ms.size == 1:
            out[:, c - 1] = _kloosterman_rows(ms % c, n % c, c)
        else:
            res, where = np.unique(ms % c, return_inverse=True)
            out[:, c - 1] = _kloosterman_rows(res, n % c, c)[where]
    return out


def kloosterman_sum_check(m: int, n: int, c: int) -> float:
    """Slow direct complex-exponential evaluation, for cross-checks."""
    m, n, c = int(m), int(n), int(c)
    if c == 1:
        return 1.0
    acc = 0.0 + 0.0j
    for x in range(1, c):
        if math.gcd(x, c) != 1:
            continue
        xb = pow(x, -1, c)
        acc += cmath.exp(2j * math.pi * (m * x + n * xb) / c)
    if abs(acc.imag) > 1e-9 * c:
        raise VerificationError(f"S({m},{n};{c}) imaginary part {acc.imag:.3e}")
    return acc.real


def divisor_sigma_complex(n: int, s: complex) -> complex:
    """sigma_s(n) = sum of d^s over divisors d of n, s complex."""
    n = int(n)
    if n < 1:
        raise DomainError("n must be >= 1")
    s = complex(s)
    out = 1.0 + 0.0j
    rem = n
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            k = 0
            while rem % p == 0:
                rem //= p
                k += 1
            out *= sum(cmath.exp(s * j * math.log(p)) for j in range(k + 1))
        p += 1 if p == 2 else 2
    if rem > 1:
        out *= 1.0 + cmath.exp(s * math.log(rem))
    return out

