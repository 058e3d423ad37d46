"""Sieve correctness against a trial-division oracle, plus invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusflow.errors import CapacityError, DomainError
from mobiusflow.mobius import liouville, mertens, mobius_sieve

ORACLE_LIMIT = 3000


def mobius_naive(n: int) -> int:
    """Trial-division oracle: mu(n) from the full factorization."""
    if n == 1:
        return 1
    sign = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    if m > 1:
        sign = -sign
    return sign


def omega_naive(n: int) -> int:
    count = 0
    m, p = n, 2
    while p * p <= m:
        while m % p == 0:
            m //= p
            count += 1
        p += 1
    return count + (1 if m > 1 else 0)


@pytest.fixture(scope="module")
def table():
    return mobius_sieve(10**4)


def test_definitional_values(table):
    assert table.mu(1) == 1
    assert table.mu(30) == -1      # 2*3*5
    assert table.mu(12) == 0       # 2^2 | 12
    assert table.mu(6) == 1


def test_mertens_100_matches_oracle(table):
    oracle = sum(mobius_naive(n) for n in range(1, 101))
    assert oracle == 1
    assert mertens(table, 100) == 1


def test_sieve_matches_trial_division(table):
    for n in range(1, ORACLE_LIMIT + 1):
        assert table.mu(n) == mobius_naive(n), n


def test_primes_are_minus_one(table):
    for p in (2, 3, 5, 7, 11, 97, 101, 9973):
        assert table.mu(p) == -1


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 99), st.integers(2, 99))
def test_multiplicative_on_coprime_pairs(a, b):
    t = mobius_sieve(a * b)
    if math.gcd(a, b) == 1:
        assert t.mu(a * b) == t.mu(a) * t.mu(b)


def test_divisor_sum_identity(table):
    """sum_{d|n} mu(d) = [n == 1], exhaustively for n <= 10^4."""
    N = 10**4
    acc = np.zeros(N + 1, dtype=np.int64)
    mu = table.mu_array()
    for d in range(1, N + 1):
        acc[d::d] += mu[d]
    assert acc[1] == 1
    assert not acc[2:].any()


def test_liouville_examples(table):
    assert liouville(table, 1) == 1
    assert liouville(table, 4) == 1       # 2*2
    assert liouville(table, 12) == -1     # 2^2 * 3, Omega = 3


def test_liouville_is_parity_of_omega(table):
    for n in range(1, 500):
        assert liouville(table, n) == (-1) ** omega_naive(n)


def test_liouville_equals_mobius_on_squarefree(table):
    for n in range(1, 10**4 + 1):
        m = table.mu(n)
        if m != 0:
            assert liouville(table, n) == m


def mobius_plain(n: int) -> np.ndarray:
    """Unsegmented reference: flip the sign at every multiple of every prime
    up to n, zero every multiple of every prime square.  int8, length n+1."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    for p in np.flatnonzero(is_prime).tolist():
        mu[p::p] *= -1
        if p * p <= n:
            mu[p * p :: p * p] = 0
    return mu


PLAIN_LIMIT = 2_000_003
# Segment edges of the wheel sieve, whose segments are 900,900 entries long
EDGE_LIMITS = (900_899, 900_900, 900_901, 1_801_801, PLAIN_LIMIT)


@pytest.fixture(scope="module")
def plain():
    return mobius_plain(PLAIN_LIMIT)


def test_sieve_matches_plain_sieve_at_small_limits(plain):
    for n in range(1, 401):
        assert np.array_equal(mobius_sieve(n).values, plain[: n + 1]), n


@pytest.mark.parametrize("n", EDGE_LIMITS)
def test_sieve_matches_plain_sieve_at_segment_edges(plain, n):
    values = mobius_sieve(n).values
    assert values.dtype == np.int8 and values.shape == (n + 1,)
    assert np.array_equal(values, plain[: n + 1])


# OEIS A002321, Mertens function M(10^k) for k = 0..7
MERTENS_POWERS_OF_TEN = (1, -1, 1, 2, -23, -48, 212, 1037)


def test_mertens_at_powers_of_ten():
    t = mobius_sieve(10**7)
    for k, expected in enumerate(MERTENS_POWERS_OF_TEN):
        assert mertens(t, 10**k) == expected, k


@pytest.mark.parametrize("limit", [0, -5])
def test_limit_below_one_is_a_domain_error(limit):
    with pytest.raises(DomainError) as excinfo:
        mobius_sieve(limit)
    assert type(excinfo.value) is DomainError


def test_capacity_errors():
    with pytest.raises(CapacityError) as excinfo:
        mobius_sieve(10**9 + 1)
    assert type(excinfo.value) is CapacityError


def test_range_errors(table):
    with pytest.raises(DomainError):
        table.mu(0)
    with pytest.raises(DomainError):
        liouville(table, 10**4 + 1)


def test_values_are_immutable(table):
    with pytest.raises(ValueError):
        table.values[3] = 1
