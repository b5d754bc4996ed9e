"""Sieve, Kloosterman sums and divisor sums."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maassdensity import arithmetic
from maassdensity.arithmetic import (
    divisor_sigma_complex,
    kloosterman_sum_check,
    kloosterman_sums,
    primes_up_to,
)
from maassdensity.errors import DomainError


def test_prime_counts():
    assert primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert primes_up_to(1).size == 0
    assert primes_up_to(2).tolist() == [2]
    # pi(10^6) = 78498
    assert primes_up_to(10 ** 6).size == 78498


def test_sieve_cap():
    with pytest.raises(DomainError):
        primes_up_to(10 ** 9 + 1)


def _S(m, n, c):
    """S(m, n; c) alone: the (m, c) entry of a one-m kloosterman_sums batch."""
    return kloosterman_sums([m], n, c)[0, c - 1]


def test_kloosterman_fast_vs_slow():
    for c in range(1, 51):
        for (m, n) in ((1, 1), (2, 3), (5, 1)):
            fast = _S(m, n, c)
            slow = kloosterman_sum_check(m, n, c)
            assert abs(fast - slow) < 1e-9 * max(1.0, c)


def test_kloosterman_symmetry():
    for c in (7, 12, 35):
        assert _S(2, 9, c) == pytest.approx(
            _S(9, 2, c), abs=1e-10
        )


def test_kloosterman_weil_bound():
    # |S(m, n; c)| <= d(c) sqrt(gcd(m, n, c)) sqrt(c)
    for c in range(2, 120):
        d = sum(1 for k in range(1, c + 1) if c % k == 0)
        for (m, n) in ((1, 1), (4, 6)):
            g = math.gcd(math.gcd(m, n), c)
            assert abs(_S(m, n, c)) <= d * math.sqrt(g * c) + 1e-9


def test_kloosterman_prime_is_not_trivial():
    # at a prime the sum is a genuine character sum, nonzero generically
    assert abs(_S(1, 1, 7) - kloosterman_sum_check(1, 1, 7)) < 1e-10
    assert abs(_S(1, 1, 7)) > 1e-6


def test_kloosterman_domain():
    with pytest.raises(DomainError):
        _S(1, 1, 0)


_PRIMES = primes_up_to(5000).tolist()
# primes, prime powers and composites up to 5000
_MODULI = st.one_of(
    st.sampled_from(_PRIMES),
    st.sampled_from(_PRIMES[:15]).flatmap(
        lambda p: st.integers(2, int(math.log(5000, p))).map(lambda k: p ** k)),
    st.integers(1, 5000),
)


@settings(max_examples=60, deadline=None)
@given(_MODULI)
def test_inverse_table_against_pow(c):
    table = arithmetic._inv_table_cached(c)
    want = [pow(x, -1, c) if x and math.gcd(x, c) == 1 else -1 for x in range(c)]
    assert table.tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.integers(1, 1000))
def test_kloosterman_sum_against_check(m, n, c):
    assert abs(_S(m, n, c) - kloosterman_sum_check(m, n, c)) <= 1e-9 * c


def test_kloosterman_modulus_cap():
    # above 2^31 a product of two residues can overflow int64
    for fn in (lambda c: kloosterman_sums([1, 2], 1, c),
               arithmetic._inv_table_cached):
        with pytest.raises(DomainError):
            fn(2 ** 31)


def test_divisor_sigma():
    assert divisor_sigma_complex(12, 0.0).real == pytest.approx(6.0)  # d(12)
    assert divisor_sigma_complex(12, 1.0).real == pytest.approx(28.0)  # sigma(12)
    # sigma_{ir}(n) conjugate symmetry
    a = divisor_sigma_complex(30, 0.7j)
    b = divisor_sigma_complex(30, -0.7j)
    assert abs(a - b.conjugate()) < 1e-12

