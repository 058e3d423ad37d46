"""Mobius and Liouville functions at scale.

mu(n) is 0 when n has a squared prime factor and (-1)^t when n is a product
of t distinct primes; lambda(n) = (-1)^Omega(n) counts prime factors with
multiplicity.  These are the arithmetic weights of every correlation sum in
the package, so the sieve is segmented (default segment 2**20 entries) and
the table is immutable once built.

The construction is deterministic: the output is a pure function of `limit`,
independent of segment size, so chunked or threaded builds are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import CapacityError, DomainError

DEFAULT_SEGMENT = 1 << 20

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

    def __iter__(self) -> Iterator[tuple[int, int]]:
        vals = self.values
        for n in range(1, self.limit + 1):
            yield n, int(vals[n])

    def mu_array(self) -> np.ndarray:
        """Read-only view of mu over 0..limit (index 0 is 0)."""
        v = self.values.view()
        v.flags.writeable = False
        return v


def mobius_sieve(limit: int, segment: int = DEFAULT_SEGMENT) -> MobiusTable:
    """Build a MobiusTable via a segmented sieve, O(N log log N).

    Args:
        limit: inclusive upper bound, 1 <= limit <= 10**9
        segment: entries per segment; output does not depend on it

    Raises:
        CapacityError: limit < 1 or beyond the supported ceiling.
    """
    if limit < 1:
        raise CapacityError(f"sieve limit must be >= 1, got {limit}")
    if limit > MAX_LIMIT:
        raise CapacityError(f"sieve limit {limit} exceeds supported {MAX_LIMIT}")
    if segment < 8:
        segment = 8

    root = int(limit**0.5)
    while (root + 1) * (root + 1) <= limit:
        root += 1
    primes = _primes_upto(root)

    mu = np.zeros(limit + 1, dtype=np.int8)
    for lo in range(1, limit + 1, segment):
        hi = min(lo + segment, limit + 1)
        _fill_segment(mu, lo, hi, primes)
    mu[0] = 0

    table = MobiusTable(limit=limit, values=mu, base_primes=primes)
    table.values.flags.writeable = False
    return table


def _fill_segment(mu: np.ndarray, lo: int, hi: int, primes: np.ndarray) -> None:
    """Fill mu[lo:hi] given primes up to sqrt(hi-1).

    Tracks the product of sieved primes per entry; any residual factor > 1 is
    a single prime exceeding sqrt, contributing one extra sign flip.  The
    product divides n <= MAX_LIMIT < 2^31, so it fits int32.
    """
    length = hi - lo
    sign = np.ones(length, dtype=np.int8)
    prod = np.ones(length, dtype=np.int32)

    for p in primes:
        p = int(p)
        if p * p >= hi:
            break
        start = (-lo) % p
        sign[start::p] *= -1
        prod[start::p] *= p
        p2 = p * p
        sign[(-lo) % p2::p2] = 0

    # prod differs from n by a factor >= 2 when it differs at all, so where
    # hi <= 2 lo the test prod < n needs only prod < lo
    n = lo if hi <= 2 * lo else np.arange(lo, hi, dtype=np.int32)
    sign[prod < n] *= -1
    mu[lo:hi] = sign


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
