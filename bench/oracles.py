"""Reference computations made apart from mobiusflow.

Nothing here imports mobiusflow. Each function recomputes, by another route,
a quantity the program also computes, so that the benchmark can check the
program's outputs instead of comparing them with a stored copy:

* Mertens values M(10^k) from OEIS A084237, a plain mu sieve and mu by trial
  division;
* rotation sums over an int64 convergent p/q of sqrt(2) - 1;
* skew-product phases from the geometric-series closed form in mpmath, with
  the Fourier coefficients built here and the lacunary rotation number
  rebuilt from its rounding rule;
* monomial phases c n^d with a dyadic c, exact in uint64 wraparound;
* affine toral phases by exact matrix powers over rationals;
* Heisenberg orbits by exact iteration of the group law.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import mpmath
import numpy as np

# OEIS A084237: M(10^k) for k = 0..9.
MERTENS_DECADES = (1, -1, 1, 2, -23, -48, 212, 1037, 1928, -222)

TWO_PI = 2.0 * math.pi
SEGMENT = 1 << 20


def decade_checkpoints(N: int) -> list[int]:
    """10, 100, ... up to N, then N itself if it is not a power of ten."""
    cps = [10**k for k in range(1, len(str(N))) if 10**k <= N]
    if not cps or cps[-1] != N:
        cps.append(N)
    return cps


def circle_distance(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


# ---------------------------------------------------------------------------
# Mobius function


def mertens_mismatches(mu: np.ndarray, N: int) -> list[tuple[int, int, int]]:
    """(10^k, M from the table, OEIS value) for each decade <= N that differs."""
    bad = []
    total = 0
    lo = 1
    for k in range(len(MERTENS_DECADES)):
        hi = 10**k
        if hi > N:
            break
        total += int(mu[lo:hi + 1].sum(dtype=np.int64))
        lo = hi + 1
        if total != MERTENS_DECADES[k]:
            bad.append((hi, total, MERTENS_DECADES[k]))
    return bad


def mobius_plain_segments(N: int, segment: int = 1 << 22):
    """Yield (lo, mu(lo..hi-1)) as int8 over 0..N, segment by segment.

    Each prime p <= sqrt(N) flips the sign of its multiples and is divided
    out of them once; multiples of p^2 get 0. What is left of n is then 1
    or a single prime above sqrt(N), which flips the sign once more.
    """
    root = math.isqrt(N)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    primes = np.flatnonzero(is_prime).tolist()
    for lo in range(0, N + 1, segment):
        hi = min(lo + segment, N + 1)
        mu = np.ones(hi - lo, dtype=np.int8)
        rest = np.arange(lo, hi, dtype=np.int64)
        for p in primes:
            start = -lo % p
            mu[start::p] *= -1
            rest[start::p] //= p
            mu[-lo % (p * p)::p * p] = 0
        mu[rest > 1] *= -1
        if lo == 0:
            mu[0] = 0
        yield lo, mu


def mobius_trial_division(n: int) -> int:
    sign = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


# ---------------------------------------------------------------------------
# Checkpointed weighted sums


def weighted_sums(mu: np.ndarray, phases_of: Callable[[np.ndarray], np.ndarray],
                  checkpoints: Sequence[int]) -> list[complex]:
    """sum_{n <= N_i} mu(n) e(phase(n)) at each checkpoint N_i.

    phases_of maps an int64 array of n to their phases; it is called only
    where mu(n) != 0, segment by segment, so memory stays O(SEGMENT).
    """
    out = []
    running = 0j
    lo = 1
    for cp in sorted(checkpoints):
        for a in range(lo, cp + 1, SEGMENT):
            b = min(a + SEGMENT, cp + 1)
            seg = mu[a:b]
            nz = np.flatnonzero(seg)
            if nz.size:
                z = np.exp(2j * np.pi * phases_of(nz.astype(np.int64) + a))
                running += complex(np.dot(seg[nz].astype(np.float64), z))
        lo = cp + 1
        out.append(running)
    return out


def array_phases(phases: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """phases_of for a table with phases[n - 1] = phase(n)."""
    return lambda n: phases[n - 1]


# ---------------------------------------------------------------------------
# Rotation by a convergent of sqrt(2) - 1


def sqrt2m1_convergent(min_q: int) -> tuple[int, int, int]:
    """(p, q, q_next): the first convergent p/q of [0; 2, 2, ...] with q >= min_q."""
    p_prev, q_prev, p, q = 1, 0, 0, 1
    while q < min_q:
        p_prev, q_prev, p, q = p, q, 2 * p + p_prev, 2 * q + q_prev
    return p, q, 2 * q + q_prev


def rotation_phases(b1: int, x1: float, p: int, q: int) -> Callable[[np.ndarray], np.ndarray]:
    """n -> frac(b1 x1 + b1 n p / q), with b1 n p mod q exact in int64."""
    base = (b1 * x1) % 1.0

    def phases_of(n: np.ndarray) -> np.ndarray:
        if int(n[-1]) * abs(b1) * p >= 1 << 63:
            raise ValueError("n * b1 * p overflows int64")
        r = (n * (b1 * p)) % q
        return np.mod(base + r / q, 1.0)
    return phases_of


def rotation_tolerance(N: int, q: int, q_next: int) -> float:
    """Bound on |S_true(N) - S_pq(N)| plus a 2^-38 per-term phase allowance.

    |alpha - p/q| < 1/(q q_next), so the n-th phase moves by less than
    n/(q q_next) <= N/(q q_next).
    """
    return TWO_PI * N * (N / (q * q_next) + 2.0**-38)


# ---------------------------------------------------------------------------
# Skew products: geometric-series closed form in mpmath


def lacunary_quotients(tau: float) -> list[int]:
    """a_0 = 0, a_1 = 2, a_{k+1} = max(1, round(e^{tau q_k}/q_k)).

    Stops once q_k has more than 64 bits, where e^{tau q_k} has no
    representable size.
    """
    quots, q = [0, 2], [1, 2]
    while q[-1].bit_length() <= 64:
        digits = int(tau * q[-1] * math.log10(math.e)) + 40
        with mpmath.workdps(digits):
            a = int(mpmath.nint(mpmath.exp(mpmath.mpf(tau) * q[-1]) / q[-1]))
        a = max(1, a)
        quots.append(a)
        q.append(a * q[-1] + q[-2])
    return quots


def cf_value(quotients: Sequence[int]) -> Fraction:
    """[a_0; a_1, ..., a_K] as an exact fraction."""
    v = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        v = a + 1 / v
    return v


def e_minus_1(t) -> mpmath.mpc:
    """e(t) - 1 = 2i sin(pi t) e(t/2), without the cancellation near t = 0."""
    return 2j * mpmath.sinpi(t) * mpmath.expjpi(t)


def _signed_frac(x: Fraction) -> Fraction:
    """x minus the nearest integer, in [-1/2, 1/2)."""
    r = x % 1
    return r - 1 if r >= Fraction(1, 2) else r


def geometric_coeffs(tau: float, M: int, dps: int = 40) -> list[tuple[int, mpmath.mpf]]:
    """h_hat(m) = e^{-tau |m|} for 0 < |m| <= M."""
    with mpmath.workdps(dps):
        return [(m, mpmath.exp(-mpmath.mpf(tau) * abs(m))) for m in range(-M, M + 1) if m]


def lacunary_coeffs(alpha: Fraction, quotients: Sequence[int], tau: float, depth: int,
                    floor: float = 1e-30, dps: int = 40) -> list[tuple[int, mpmath.mpc]]:
    """The corrected lacunary series h + H of the Furstenberg construction.

    h_hat(+-q_k) = (e(+-q_k alpha) - 1)/k for 1 <= k <= depth, with q_k the
    denominators of `quotients`, and the smoothing term H_hat(m) =
    e^{-2 tau |m|} for every m down to the coefficient `floor`; the modes
    left out change a phase by far less than the checks' tolerance.
    """
    q = [1, quotients[1]]
    for a in quotients[2:]:
        q.append(a * q[-1] + q[-2])
    m_top = math.ceil(-math.log(floor) / (2 * tau))
    with mpmath.workdps(dps):
        out = [(m, mpmath.exp(-2 * mpmath.mpf(tau) * abs(m))) for m in range(-m_top, m_top + 1)]
        for k in range(1, depth + 1):
            for m in (q[k], -q[k]):
                t = _signed_frac(m * alpha)
                out.append((m, e_minus_1(mpmath.mpf(t.numerator) / t.denominator) / k))
    return out


class SkewPhaseOracle:
    """<b, T^n(x1, x2)> mod 1 for (x, y) -> (x + alpha, c x + y + h(x)).

    phase(n) = b1 (x1 + n alpha) + b2 (c n(n-1)/2 alpha + c n x1 + x2
               + h_0 n + sum_{m != 0} h_m e(m x1) (e(n m alpha) - 1)/(e(m alpha) - 1)),

    evaluated in mpmath at `dps` digits. The coefficients h_m come from the
    caller (repeated m add up). m alpha is reduced mod 1 in exact rational
    arithmetic before it is rounded, so that modes at huge m keep their
    phase; where it is an integer, the ratio is n. Modes whose whole contribution 2 |h_m| / |e(m alpha) - 1| is
    below 1e-20 are left out.
    """

    def __init__(self, alpha: Fraction, c: int, x1: float, x2: float, b1: int, b2: int,
                 coeffs: Sequence[tuple[int, complex]], dps: int = 40):
        self.dps = dps
        with mpmath.workdps(dps):
            summed: dict[int, mpmath.mpc] = {}
            for m, h in coeffs:
                summed[m] = summed.get(m, 0) + mpmath.mpc(h)
            self.alpha = mpmath.mpf(alpha.numerator) / alpha.denominator
            self.c, self.b1, self.b2 = int(c), int(b1), int(b2)
            self.x1, self.x2 = mpmath.mpf(x1), mpmath.mpf(x2)
            self.ramp = mpmath.mpc(0)
            self.modes = []
            for m, h in summed.items():
                r = _signed_frac(m * alpha)
                if r == 0:  # m alpha is an integer: the mode adds h_m e(m x1) per step
                    self.ramp += h * mpmath.expjpi(2 * m * self.x1)
                    continue
                t = mpmath.mpf(r.numerator) / r.denominator
                w = h * mpmath.expjpi(2 * m * self.x1) / e_minus_1(t)
                if 2 * abs(w) >= 1e-20:
                    self.modes.append((t, w))

    def phase(self, n: int) -> float:
        with mpmath.workdps(self.dps):
            a = self.alpha
            total = self.b1 * (self.x1 + n * a)
            birk = self.ramp * n + sum(
                (w * e_minus_1(n * t) for t, w in self.modes), mpmath.mpc(0))
            total += self.b2 * (self.c * (n * (n - 1) // 2) * a + self.c * n * self.x1
                                + self.x2 + mpmath.re(birk))
            return float(total - mpmath.floor(total))


# ---------------------------------------------------------------------------
# Monomial phases exact modulo 2^e


def monomial_phases(coefficient: float, degree: int) -> Callable[[np.ndarray], np.ndarray]:
    """n -> frac(c n^d) for a double c = m / 2^e, e <= 52, exact in uint64.

    n^d and m n^d wrap modulo 2^64, and 2^e divides 2^64, so the low e bits
    of the wrapped product are m n^d mod 2^e exactly.
    """
    m, den = Fraction(coefficient).as_integer_ratio()
    e = den.bit_length() - 1
    if den != 1 << e or e > 52:
        raise ValueError(f"{coefficient!r} is not m / 2^e with e <= 52")
    mask = np.uint64((1 << e) - 1)
    m64 = np.uint64(m % (1 << 64))

    def phases_of(n: np.ndarray) -> np.ndarray:
        nu = n.astype(np.uint64)
        power = np.ones_like(nu)
        for _ in range(degree):
            power = power * nu
        return ((power * m64) & mask).astype(np.float64) / float(1 << e)
    return phases_of


# ---------------------------------------------------------------------------
# Affine toral maps x -> W x + b (mod 1), exact


def affine_orbit_phase(W: Sequence[Sequence[int]], b: Sequence, x: Sequence,
                       v: Sequence[int], n: int) -> Fraction:
    """<v, T^n x> mod 1 for T x = W x + b (mod 1), by exact squaring.

    Works on the homogeneous matrix [[W, b], [0, 1]]; its translation
    column is reduced mod 1 after every product, which is exact because W
    is integral.
    """
    m = len(W)
    W = [[int(e) for e in row] for row in W]
    b = [Fraction(t) % 1 for t in b]

    def compose(A, B):
        (WA, bA), (WB, bB) = A, B
        Wc = [[sum(WA[i][k] * WB[k][j] for k in range(m)) for j in range(m)]
              for i in range(m)]
        bc = [(sum(WA[i][k] * bB[k] for k in range(m)) + bA[i]) % 1 for i in range(m)]
        return Wc, bc

    result = ([[int(i == j) for j in range(m)] for i in range(m)], [Fraction(0)] * m)
    step = (W, b)
    k = n
    while k:
        if k & 1:
            result = compose(step, result)
        step = compose(step, step)
        k >>= 1
    Wn, bn = result
    xs = [Fraction(t) for t in x]
    point = [(sum(Wn[i][j] * xs[j] for j in range(m)) + bn[i]) % 1 for i in range(m)]
    return sum(int(vi) * pi for vi, pi in zip(v, point)) % 1


# ---------------------------------------------------------------------------
# Heisenberg nilmanifold, exact iteration


def heisenberg_orbit_phases(g: Sequence, dsigma: Sequence[Sequence], x: Sequence,
                            pqr: tuple[int, int, int], N: int) -> np.ndarray:
    """frac(p v1 + q v2 + r v3) at T^n x Gamma for n = 1..N, as float64.

    Coordinates of the second kind: g = exp(v1 X1) exp(v2 X2) exp(v3 X3), with
    product (v1, v2, v3)(w1, w2, w3) = (v1 + w1, v2 + w2, v3 + w3 - w1 v2).
    sigma acts linearly by dsigma on the first-kind coordinates
    (v1, v2, v3 + v1 v2 / 2). T x = g sigma(x), and each point is moved by a
    lattice element on the right into [0, 1)^3.
    """
    g1, g2, g3 = (Fraction(t) for t in g)
    D = [[Fraction(e) for e in row] for row in dsigma]
    nonzero = [[(k, D[i][k]) for k in range(3) if D[i][k]] for i in range(3)]
    p, q, r = pqr
    half = Fraction(1, 2)

    def reduce(v1, v2, v3):
        # right product with (-a, -b, c): (v1 - a, v2 - b, v3 + c + a v2)
        a = math.floor(v1)
        b = math.floor(v2)
        w3 = v3 + a * v2
        return v1 - a, v2 - b, w3 - math.floor(w3)

    v = reduce(*(Fraction(t) for t in x))
    out = np.empty(N, dtype=np.float64)
    for n in range(N):
        v1, v2, v3 = v
        u = (v1, v2, v3 + half * v1 * v2)
        w1, w2, w3 = (sum(c * u[k] for k, c in row) for row in nonzero)
        s3 = w3 - half * w1 * w2
        v = reduce(g1 + w1, g2 + w2, g3 + s3 - w1 * g2)
        ph = (p * v[0] + q * v[1] + r * v[2]) % 1
        out[n] = ph.numerator / ph.denominator
    return out
