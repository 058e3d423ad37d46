"""Mobius and Liouville functions at scale.

mu(n) is 0 when n has a squared prime factor and (-1)^t when n is a product
of t distinct primes; lambda(n) = (-1)^Omega(n) counts prime factors with
multiplicity.  These are the arithmetic weights of every correlation sum in
the package, so the sieve is segmented and the table is immutable once built.

Each segment holds one int32 signed product per entry: every sieved prime p
multiplies its multiples by -p and every square p^2 zeroes its multiples.
The primes 2..13 and the squares 4, 9 and 25 repeat with period WHEEL =
900,900, so the segments are WHEEL entries long, start at multiples of it,
and each begins from a copy of one precomputed wheel pattern.  The output is
a pure function of `limit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError

# 4 * 9 * 25 * 7 * 11 * 13: the period of the wheel primes and squares
WHEEL = 900_900
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)

# Hard cap: an int8 value table at 10**9 is ~1 GB, the spec's stated ceiling.
MAX_LIMIT = 10**9


def _primes_upto(n: int) -> np.ndarray:
    """Primes <= n as int64, by a plain Eratosthenes sieve."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


@dataclass(frozen=True)
class MobiusTable:
    """Sieved mu(n) for 1 <= n <= limit.

    Attributes:
        limit: inclusive upper bound N
        values: int8 array of length N+1, values[n] = mu(n); index 0 unused
        base_primes: primes up to sqrt(N), kept for per-query factorization
    """

    limit: int
    values: np.ndarray = field(repr=False)
    base_primes: np.ndarray = field(repr=False)

    def mu(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise DomainError(f"n={n} outside sieved range [1, {self.limit}]")
        return int(self.values[n])

    def mu_array(self) -> np.ndarray:
        """Read-only view of mu over 0..limit (index 0 is 0)."""
        v = self.values.view()
        v.flags.writeable = False
        return v


def mobius_sieve(limit: int) -> MobiusTable:
    """Build a MobiusTable via a segmented sieve, O(N log log N).

    Args:
        limit: inclusive upper bound, 1 <= limit <= 10**9

    Raises:
        DomainError: limit < 1.
        CapacityError: limit beyond the supported ceiling MAX_LIMIT.
    """
    if limit < 1:
        raise DomainError(f"sieve limit must be >= 1, got {limit}")
    if limit > MAX_LIMIT:
        raise CapacityError(f"sieve limit {limit} exceeds supported {MAX_LIMIT}")

    primes = _primes_upto(math.isqrt(limit))
    sieved = [int(p) for p in primes if p > _WHEEL_PRIMES[-1]]

    mu = np.empty(limit + 1, dtype=np.int8)
    wheel = _wheel(min(WHEEL, limit + 1))
    # a one-segment sieve works in the pattern itself
    prod = wheel if limit < WHEEL else np.empty_like(wheel)
    for lo in range(0, limit + 1, WHEEL):
        hi = min(lo + WHEEL, limit + 1)
        seg = prod[: hi - lo]
        if prod is not wheel:
            np.copyto(seg, wheel[: hi - lo])
        _fill_segment(mu, lo, hi, seg, sieved)

    table = MobiusTable(limit=limit, values=mu, base_primes=primes)
    table.values.flags.writeable = False
    return table


def _wheel(length: int) -> np.ndarray:
    """Signed product of the wheel primes dividing n, for 0 <= n < length,
    and 0 where 4, 9 or 25 divides n."""
    prod = np.ones(length, dtype=np.int32)
    for p in _WHEEL_PRIMES:
        prod[::p] *= -p
    for p2 in (4, 9, 25):
        prod[::p2] = 0
    return prod


def _fill_segment(mu: np.ndarray, lo: int, hi: int, prod: np.ndarray,
                  primes: list[int]) -> None:
    """Fill mu[lo:hi] from the wheel pattern `prod` of lo..hi-1 (lo a
    multiple of WHEEL) and the primes above 13 up to at least sqrt(hi-1).

    prod becomes the signed product of the sieved primes dividing n, or 0 if
    a sieved square divides n.  Every prime up to sqrt(n) is sieved, so any
    residual factor n/|prod| > 1 is a single prime, one more sign flip.  The
    product divides n <= MAX_LIMIT < 2^31, so it fits int32.  prod is
    overwritten.
    """
    for p in primes:
        if p * p >= hi:
            break
        prod[(-lo) % p :: p] *= -p
        p2 = p * p
        prod[(-lo) % p2 :: p2] = 0
    for p2 in (49, 121, 169):
        prod[(-lo) % p2 :: p2] = 0

    out = mu[lo:hi]
    np.sign(prod, out=out, casting="unsafe")
    np.abs(prod, out=prod)
    # |prod| is n or at most n/2, so over a block m <= n < 2m the test
    # |prod| < n is |prod| < m; a segment past the first is one such block
    flip = np.zeros(hi - lo, dtype=bool)
    m = max(lo, 1)
    while m < hi:
        e = min(2 * m, hi)
        np.less(prod[m - lo : e - lo], m, out=flip[m - lo : e - lo])
        m = e
    sign = flip.view(np.int8)
    sign *= -2
    sign += 1
    out *= sign


def liouville(table: MobiusTable, n: int) -> int:
    """lambda(n) = (-1)^Omega(n), Omega counting prime factors with multiplicity.

    Factors on demand by trial division against the table's base primes; any
    residual cofactor is prime (it exceeds sqrt(limit) >= sqrt(n)).
    """
    if not 1 <= n <= table.limit:
        raise DomainError(f"n={n} outside sieved range [1, {table.limit}]")
    omega = 0
    m = n
    for p in table.base_primes:
        p = int(p)
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            omega += 1
    if m > 1:
        omega += 1
    return -1 if omega & 1 else 1


def mertens(table: MobiusTable, n: int) -> int:
    """Partial sum M(n) = sum_{k<=n} mu(k)."""
    if not 1 <= n <= table.limit:
        raise DomainError(f"n={n} outside sieved range [1, {table.limit}]")
    return int(table.values[1 : n + 1].sum(dtype=np.int64))
