"""Mobius-weighted exponential sums and the analytic verifiers.

The central object is S(N) = sum_{n<=N} mu(n) e(<b, orbit(n)>) evaluated at
checkpoints.  Orbit phases come from closed forms, never from sequential
iteration.  On the skew products the rotation, linear and quadratic parts
are integer residues over one exact centre of alpha, summed in 64-bit fixed
point with per-call 128-bit tables; the Birkhoff part is the coboundary
G(frac(x1 + n alpha)) - G(x1), read from a per-call Taylor table of G on a
grid of at least 8 m_max points, at a cost per term that does not grow with
the mode count, and the error budget goes into the metadata.
Polynomial phases (`poly_exp_sum` of a `flows.PolyPhase`, the unipotent
affine maps, whose phase on each class is a `PolyPhase` too, and the
Heisenberg nilflows, bracket included) are walked in t on each residue
class n = nu t + l by the one exact phase source, `_Mod1Poly`, called
through `poly_mod1_array`: exact residues over a common denominator K, on
48-bit limbs for powers of two from 2^65 to 2^1074, split into uint64 and
int64 parts for K = 2^a m, or by Horner (`_horner_mod`), the bracket's three
residues too, and the exact rational rounded once to float64.  Every
correlator ends in `_weighted_sums`: work is split into pieces of at most
CHUNK = 8192 terms, cut at the checkpoints and at the multiples of CHUNK,
and e(phase), weighted by mu, comes from a 4096-entry table of e(k/4096)
and a short polynomial in the remainder (`_e_sums`, within 3 2^-53 per
term), summed per piece by numpy's pairwise reduction, with no BLAS call.
Pieces run in batches, the fixed windows of BATCH = 4 CHUNK terms (five
float64 scratch rows of 1.25 MB per worker), each of at most THREADS_MAX
= 256 workers sums one contiguous span of batches, the pieces add up in piece
order, so every correlator honours `threads` and its results are
bit-identical for any worker count and any BLAS.  Every phase source
fills a whole batch window in one call, `source(a, count, out)`; the skew
tracks step from the window's first term, so a phase does not depend on
where the checkpoints cut.

Rational data gives periodic phases, and then S(N) = sum_{r<P} e(phi(r))
M_r(N) with M_r(N) the sum of mu(n) over n <= N, n = r (mod P): mu in
arithmetic progressions.  Every `_Mod1Poly` carries its period P: K, or
lcm(K, D1 D2) with the Heisenberg bracket; a class chunk has nu lcm(P_l).
When P <= CLASS_PERIOD_MAX = 2^20 and CLASS_RATIO P len(checkpoints) <= N,
with CLASS_RATIO = 4, `_weighted_sums` takes the class route: P phases,
exact integer counts M_r per checkpoint, summed in bounded scratch, and
`_e_sums` weighted by M_r.  Measured on the rational nil maps with N >=
1000 (BENCH_class_route.json, "crossover"), the class route won at N / (P
len(checkpoints)) = 2 by 1.12x or more and at 4 by 1.5x or more, and lost
at 1 by up to 1.4x; below N = 1000 both routes take under 0.2 ms.  Its
sums are within twice `sum_bound` of the direct route's and do not depend
on `threads`; every other phase (skew products, float coefficients, float
g) keeps the direct route and its bits.

Also here: the bilinear-criterion test (small correlations against prime
dilations force small multiplicative-weighted sums), the polynomial
lower-bound verifier on the unit circle, the third-derivative van der
Corput bound (their fixed settings are the module constants BSZ_PRIME_CAP
and VDC_*), and the dilation-difference polynomials of the sharp-scale
analysis.
"""

from __future__ import annotations

import cmath
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Sequence

import mpmath
import numpy as np

from .analytic import AnalyticSeries, CaseReport, e2pi, e2pi_m1, scale_window
from .errors import DomainError, PrecisionError
from .flows import (Character, PolyPhase, SkewFlow, TorusPoint, UnipotentAffine,
                    integer_frequencies, unipotent_phase_poly)
from .mobius import MobiusTable, _primes_upto
from .polyutil import Poly

CHUNK = 8192  # the most terms in a piece: the piece layout, so every sum's bits, rest on it
# terms per unit of work of `_weighted_sums` and per phase call, whose first term the skew
# tracks step from, so the skew sums' bits rest on it too; its five float64 scratch rows take
# 1.25 MB, under one core's 2 MB L2, and `_e_sums` ran 8.0 to 8.4 ns/term at this width,
# against 9.1 to 10.2 at half and 9.7 to 10.8 at twice it (BENCH_batch_fill.json, "width")
BATCH = 4 * CHUNK
THREADS_MAX = 256  # the most workers a sum may ask for: one OS thread and 1.25 MB each
# the class route of `_weighted_sums` (see `sum_route`): the largest period, the least
# N / (P len(checkpoints)), and the row width of the class counts
CLASS_PERIOD_MAX = 1 << 20
CLASS_RATIO = 4
CLASS_ROW = 4096
TWO_PI = 2.0 * math.pi
# the skew coboundary tables' Taylor remainder, largest grid and modes above it (see there)
TAYLOR_FLOOR = 2.0**-60
TAYLOR_GRID = 1 << 16
SKEW_HIGH_MODES = 64
BSZ_PRIME_CAP = 10_000  # bsz_test takes primes up to min(e^(1/tau), this)
VDC_DERIVATIVE_SAMPLES = 200  # vdc_sum_check's samples of the third derivative
VDC_IMPLIED_CONSTANT = 10.0  # and the implied constant of its bound


@dataclass(frozen=True)
class CorrelationSeries:
    """Partial sums S(N_i) at increasing checkpoints, with provenance; |S(N)| <= sup_norm N."""

    checkpoints: tuple
    sums: tuple
    metadata: dict = field(default_factory=dict, compare=False)
    sup_norm: float = field(default=1.0, compare=False)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise DomainError("checkpoints must be strictly increasing")
        for cp, s in zip(self.checkpoints, self.sums):
            if abs(s) > self.sup_norm * cp * (1 + 1e-12):
                raise DomainError(f"|S({cp})| = {abs(s)} exceeds the trivial bound")

    @property
    def normalized(self) -> tuple:
        return tuple(abs(s) / cp for cp, s in zip(self.checkpoints, self.sums))

    def rows(self):
        for cp, s in zip(self.checkpoints, self.sums):
            yield cp, s.real, s.imag, abs(s) / cp

    def csv(self) -> str:
        """A header line, then one line N,re,im,abs_over_N per checkpoint."""
        rows = (f"{n},{re!r},{im!r},{a!r}" for n, re, im, a in self.rows())
        return "\n".join(["N,re,im,abs_over_N", *rows]) + "\n"


# ---------------------------------------------------------------------------
# Exact mod-1 evaluation of polynomial phases from integer residues

# Largest modulus K whose residue products (K-1)^2 + K - 1 stay within int64.
INT64_MODULUS_MAX = math.isqrt(2**63 - 1)
_U64 = 1 << 64


def _residue_dtype(*moduli: int):
    """uint64 if all moduli divide 2^64, else int64 if all are <= INT64_MODULUS_MAX, else object."""
    return (np.uint64 if all(_U64 % K == 0 for K in moduli) else
            np.int64 if max(moduli) <= INT64_MODULUS_MAX else object)


def _horner_mod(coeffs: Sequence[int], K: int, t0: int, count: int, dtype=None) -> np.ndarray:
    """P(t) mod K for t = t0..t0+count-1 and integer coefficients (low to high).

    dtype defaults to `_residue_dtype(K)`.  uint64 wraps mod 2^64, which K divides,
    and masks once at the end; int64 and Python ints reduce t and every step by `_mod`.
    """
    dtype = dtype or _residue_dtype(K)
    wrap = dtype is np.uint64
    t = np.arange(count, dtype=dtype)
    t += t0 % K
    if not wrap:
        t = _mod(t, K)
    acc = np.zeros(count, dtype=dtype)
    for c in reversed(coeffs):
        acc *= t
        acc += c % K
        if not wrap:
            acc = _mod(acc, K)
    if wrap:
        acc &= np.uint64(K - 1)
    return acc


def _mod(x: np.ndarray, K: int) -> np.ndarray:
    """x mod K in a dtype of `_residue_dtype`; in int64 as x - (x // K) K, at half the cost of %."""
    if x.dtype == np.uint64:
        return x & np.uint64(K - 1)
    return x - x // K * K if x.dtype == np.int64 else x % K


def _residues_mod1(r: np.ndarray, K: int, out: np.ndarray) -> np.ndarray:
    """r / K rounded once to float64 for residues 0 <= r < K (in uint64, 1/K scales exactly).

    Written into out, and returned; Python ints divide exactly and round once."""
    if r.dtype == np.uint64:
        return np.multiply(r, 1.0 / K, out=out)
    return np.true_divide(r, K, out=out, casting="unsafe")


def _round_limbs(limbs: list, width: int, k: int, sticky, out) -> np.ndarray:
    """(r + f) / 2^k rounded once to float64, for k <= 1074, written into out.

    r = sum limbs[l] 2^(width l) with 32 <= width <= 48, its bits from k on
    ignored; 0 <= f < 1 is nonzero exactly where sticky is 1, and there
    r >= 2^64.  A 64-bit window of bits s..s+63 < k, with a sticky bit for
    any nonzero bit below it, converts to float64 as r + f does once it
    holds 55 significant bits, so entries with fewer are retried 10 bits
    lower, down to s = 0.  With k <= 1074 a result below 2^-1022 comes only
    from s = 0, f = 0 and r < 2^53, where r 2^-k is a multiple of 2^-1074.
    """
    rows, s, L = slice(None), k - 64, len(limbs)
    while True:
        a, b = divmod(s, width)
        u = limbs[a] >> np.uint64(b)
        if a + 1 < L:
            u |= limbs[a + 1] << np.uint64(width - b)
        if a + 2 < L and b > 2 * width - 64:
            u |= limbs[a + 2] << np.uint64(2 * width - b)
        below = (limbs[a] & np.uint64((1 << b) - 1)) | sticky
        for limb in limbs[:a]:
            below |= limb
        u |= np.minimum(below, np.uint64(1))
        out[rows] = np.ldexp(u.astype(np.float64), s - k)
        redo = u < np.uint64(1 << 54)
        if s == 0 or not redo.any():
            return out
        rows = np.flatnonzero(redo) if isinstance(rows, slice) else rows[redo]
        limbs = [limb[redo] for limb in limbs]
        sticky = sticky[redo] if isinstance(sticky, np.ndarray) else sticky
        s = max(s - 10, 0)


_LIMB = 48  # limb width: a limb times t - t0 < 2^15, plus carry and coefficient, stays below 2^64
_LIMB_BLOCK = 1 << 15


def _pow2_limbs_mod1(B: Sequence[int], k: int, t0: int, count: int, out) -> np.ndarray:
    """frac(sum B_j t^j / 2^k) for t = t0..t0+count-1, exact, for 64 < k <= 1074.

    Per block of 2^15 values, the polynomial is shifted to i = t - t0 and
    Horner runs mod 2^(48 L) on L 48-bit limbs held in uint64; the residue
    is rounded once by `_round_limbs`, into out.
    """
    if count > _LIMB_BLOCK:
        for j in range(0, count, _LIMB_BLOCK):
            _pow2_limbs_mod1(B, k, t0 + j, min(_LIMB_BLOCK, count - j), out[j:j + _LIMB_BLOCK])
        return out
    mask, low = (1 << k) - 1, (1 << _LIMB) - 1
    Q = [sum(b * math.comb(m, j) * t0 ** (m - j) for m, b in enumerate(B) if m >= j) & mask
         for j in range(len(B))]
    L = -(-k // _LIMB)
    i = np.arange(count, dtype=np.uint64)
    limbs = [np.full(count, (Q[-1] >> (_LIMB * l)) & low, dtype=np.uint64) for l in range(L)]
    p, carry = np.empty(count, dtype=np.uint64), np.empty(count, dtype=np.uint64)
    for q in reversed(Q[:-1]):
        carry[:] = 0
        for l, limb in enumerate(limbs):
            np.multiply(limb, i, out=p)
            p += carry
            p += np.uint64((q >> (_LIMB * l)) & low)
            np.bitwise_and(p, np.uint64(low), out=limb)
            np.right_shift(p, np.uint64(_LIMB), out=carry)
    return _round_limbs(limbs, _LIMB, k, 0, out)


def _split_mod1(B: Sequence[int], a: int, m: int, t0: int, count: int, out) -> np.ndarray:
    """frac(sum B_j t^j / (2^a m)), exact, for a <= 64 and odd m <= INT64_MODULUS_MAX.

    With r = B(t) mod 2^a m, r / 2^a m = (Z + g/m) / 2^a where g = r mod m
    = B(t) mod m (int64 Horner) and Z = (r - g)/m = (B(t) - g) m^-1 mod 2^a
    (uint64 wraparound).  Three 32-bit digits of g/m by long division, and
    whether a remainder is left, let `_round_limbs` round once.
    """
    g = _horner_mod(B, m, t0, count).astype(np.uint64)
    Z = (_horner_mod(B, _U64, t0, count) - g) * np.uint64(pow(m, -1, _U64))  # bits from a ignored
    digits, rem, mu = [], g, np.uint64(m)
    for _ in range(3):
        rem = rem << np.uint64(32)
        digits.insert(0, rem // mu)
        rem -= digits[0] * mu
    limbs = digits + [Z & np.uint64(0xFFFFFFFF), Z >> np.uint64(32)]
    return _round_limbs(limbs, 32, a + 96, np.minimum(rem, np.uint64(1)), out)


def _horner_mod1(K: int, B: Sequence[int], dtype, bracket, t0: int, count: int, out) -> np.ndarray:
    """frac(B(t) / K + the bracket (c, D1, A1, D2, A2) of a `_Mod1Poly`, if any), into out."""
    residue = _horner_mod(B, K, t0, count, dtype)
    if bracket:  # floor(Z1) mod D2 = (D1 Z1 mod D1 D2) // D1
        c, D1, A1, D2, A2 = bracket
        floor_z1 = _horner_mod(A1, D1 * D2, t0, count, dtype) // D1
        product = _mod(c * floor_z1, K) * _horner_mod(A2, D2, t0, count, dtype)  # <= (K - 1)^2
        residue = _mod(product + residue, K)
    return _residues_mod1(residue, K, out)


class _Mod1Poly:
    """The one exact phase source, frac(P(t) + r floor(Z1(t)) Z2(t)), compiled once.

    bracket is (Z1, Z2, r) or None.  With D_i the common denominator of Z_i
    and K = lcm(the denominators of P, D2), P = B / K and the phase is B(t)
    + (r K / D2) floor(Z1) Z2 mod K, from three Horners in one dtype picked
    from K, D1 D2 and D2 (`_horner_mod1`), with the `period` lcm(K, D1 D2)
    of all three residues.  When D2 divides r, the bracket is an integer and
    is dropped (D1 = D2 = 1), the period is K, and K = 2^a m (m odd) picks
    the route: 48-bit limbs (`_pow2_limbs_mod1`) for m = 1 and 64 < a <=
    1074; uint64 mod 2^a and int64 mod m (`_split_mod1`) for a <= 64 and 1 <
    m <= INT64_MODULUS_MAX < K, e.g. a float mixed with 1/3; otherwise
    `_horner_mod1`.  Each rounds the exact rational once to float64.  A call
    source(t0, count, out) goes through `poly_mod1_array`; `period` stays in
    the instance __dict__, which `functools.wraps` copies.
    """

    def __init__(self, poly: Poly, bracket: tuple | None = None):
        Z1, Z2, r = bracket or (Poly(), Poly(), 0)
        D1, D2 = (math.lcm(*(c.denominator for c in Z.coeffs)) for Z in (Z1, Z2))
        if r % D2 == 0:  # r floor(Z1) Z2 is an integer
            Z1, Z2, D1, D2 = Poly(), Poly(), 1, 1
        K = math.lcm(D2, *(c.denominator for c in poly.coeffs))
        B, A1, A2 = ([c.numerator * (d // c.denominator) for c in Z.coeffs]
                     for Z, d in ((poly, K), (Z1, D1), (Z2, D2)))
        a = (K & -K).bit_length() - 1
        m = K >> a
        self.period = math.lcm(K, D1 * D2)
        if D2 > 1:
            self.route = partial(_horner_mod1, K, B, _residue_dtype(K, D1 * D2, D2),
                                 (r * (K // D2) % K, D1, A1, D2, A2))
        elif m == 1 and 64 < a <= 1074:
            self.route = partial(_pow2_limbs_mod1, B, a)
        elif K > INT64_MODULUS_MAX and a <= 64 and 1 < m <= INT64_MODULUS_MAX:
            self.route = partial(_split_mod1, B, a, m)
        else:
            self.route = partial(_horner_mod1, K, B, _residue_dtype(K), None)

    def __call__(self, t0: int, count: int, out: np.ndarray) -> np.ndarray:
        return poly_mod1_array(self, t0, count, out)


def poly_mod1_array(poly: Poly, t0: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """frac(poly(t)) for t = t0..t0+count-1: the exact rational, rounded once to float64.

    poly is a `Poly`, compiled here, or a `_Mod1Poly`, as every exact phase
    source is, bracket included; see there for the routes.  The values are
    written into out (float64, of length count), a new array when none is given.
    """
    compiled = poly if isinstance(poly, _Mod1Poly) else _Mod1Poly(poly)
    return compiled.route(t0, count, np.empty(count) if out is None else out)


# ---------------------------------------------------------------------------
# Skew-product phase assembly


def _fixed(r: int, D: int) -> int:
    """floor(2^64 r / D): the fraction r / D in [0, 1) as 64-bit fixed point."""
    return (r << 64) // D


def _times_fixed128(c: np.ndarray, x: int) -> np.ndarray:
    """floor(c x / 2^64) mod 2^64, less at most 2, for uint64 c < 2^32 and 0 <= x < 2^128."""
    hi, mid, lo = (np.uint64(v) for v in (x >> 64, (x >> 32) & 0xFFFFFFFF, x & 0xFFFFFFFF))
    sh = np.uint64(32)
    return c * hi + ((c * mid + ((c * lo) >> sh)) >> sh)


class _QuadraticTrack:
    """frac(K0 + A n + B C(n, 2)) for rational K0, A, B, as exact integer residues.

    At base u, n = u + j gives K0 + A n + B C(n, 2) = [K0 + A u + B C(u, 2)]
    + j (A + B u) + B C(j, 2).  Both anchors are residues over the common
    denominator D, floored to 64-bit fixed point, and B C(j, 2) for j <
    length is a table from B mod 1 floored to 128 bits (off by under 2 2^-64
    + C(j, 2) 2^-128).  The terms add in uint64 wraparound, i.e. mod 1, so
    each value is off by less than (j + 4) 2^-64.  When B is an integer, as
    on a rotation, j A is such a table instead, and the error under 4 2^-64.
    """

    def __init__(self, K0: Fraction, A: Fraction, B: Fraction, length: int):
        D = math.lcm(K0.denominator, A.denominator, B.denominator)
        self.k0, self.a, self.b = (int(x * D) for x in (K0, A, B))
        self.D = D
        self.j = np.arange(length, dtype=np.uint64)
        self.lin = self.quad = None
        if self.b % D:
            c = self.j * (self.j - np.uint64(1)) // np.uint64(2)  # C(j, 2) < 2^29 for j < BATCH
            self.quad = _times_fixed128(c, ((self.b % D) << 128) // D)
        else:
            self.lin = _times_fixed128(self.j, ((self.a % D) << 128) // D)

    def chunk(self, u: int, L: int, out: np.ndarray) -> np.ndarray:
        """64-bit fixed-point frac of the phase at n = u..u+L-1, L <= length, into uint64 out."""
        a0 = (self.k0 + self.a * u + self.b * (u * (u - 1) // 2)) % self.D
        a0 = np.uint64(_fixed(a0, self.D))
        if self.quad is None:
            return np.add(self.lin[:L], a0, out=out)
        np.multiply(self.j[:L], np.uint64(_fixed((self.a + self.b * u) % self.D, self.D)), out=out)
        out += a0
        out += self.quad[:L]
        return out


def _rows_times(a: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = a[i] v[i], one row at a time: a (w, 1) by (w, R) broadcast product is slower."""
    for i, c in enumerate(v.tolist()):
        np.multiply(a[i], c, out=out[i])
    return out


def _taylor_table(modes: Sequence[int], g: np.ndarray, R: int) -> tuple[np.ndarray, float]:
    """The Taylor table of G(y) = sum Re(g_m e(m y)) on the grid k / R, R >= 8 max m.

    Row q < P holds G^(q)(k / R) / (q! R^q) = sum f_q Re(i^q g e(m k / R)),
    f_q = (2 pi m / R)^q / q!, with e(m k / R) from `_e_table(R)`, summed
    elementwise over blocks of modes.  With H_q = sum |g| (pi m / R)^q / q!,
    which falls by pi m / R <= pi / 8 or more per degree, P is the least
    degree whose remainder H_P is below TAYLOR_FLOOR.  With u = 2^-53, the
    table and a Horner sum in |t| <= 1/2 are off by at most u sum_{q<P} (M +
    44 + 6 q) H_q: the rounding of g_m (16 u), f_q (3.5 q u), the entries (4
    u), the sum of the M modes ((M - 1) u) and the Horner steps ((2 q + 1)
    u), times |t|^q <= 2^-q, and of -G(x1) (21 u H_0).  Returns the table
    and that bound plus H_P.
    """
    H, term = [], np.abs(g)
    if not np.isfinite(term.sum()):
        raise PrecisionError("a coefficient of the coboundary G overflows double precision")
    M, (cos_table, sin_table) = len(modes), _e_table(R)
    x = np.pi / R * np.array([float(m) for m in modes])
    while term.sum() >= TAYLOR_FLOOR:
        H.append(float(term.sum()))
        term = term * x / len(H)
    table, k, step = np.zeros((len(H), R)), np.arange(R), max(1, 2**16 // R)
    # one block's (m k) mod R; cos, sin, Re and Im of g e(m k / R), and f_q times one of them
    w = min(step, M)
    index, scratch, total = np.empty((w, R), np.int64), np.empty((5, w, R)), np.empty(R)
    for s in range(0, M, step):
        ms, gr, gi = np.array(modes[s:s + step]), g[s:s + step].real, g[s:s + step].imag
        idx, (cos, sin, re, im, prod) = index[:len(ms)], scratch[:, :len(ms)]
        np.bitwise_and(np.multiply.outer(ms, k, out=idx), R - 1, out=idx)
        np.take(cos_table, idx, out=cos, mode="clip")
        np.take(sin_table, idx, out=sin, mode="clip")
        _rows_times(cos, gr, re)
        re -= _rows_times(sin, gi, prod)  # Re(g e(m k / R)) = gr cos - gi sin
        _rows_times(sin, gr, im)
        im += _rows_times(cos, gi, prod)  # Im(g e(m k / R)) = gr sin + gi cos
        f = np.ones(len(ms))
        for q, row in enumerate(table):
            np.add.reduce(_rows_times((re, im)[q % 2], f, prod), axis=0, out=total)
            (np.add, np.subtract, np.subtract, np.add)[q % 4](row, total, out=row)
            f = f * (2 * x[s:s + step]) / (q + 1)
    return table, float(term.sum()) + 2.0**-53 * sum((M + 44 + 6 * q) * Hq
                                                     for q, Hq in enumerate(H))


class _SkewPhaseContext:
    """Streams <b, orbit(n)> mod 1 for the normalized skew product, n <= nmax.

    All is taken over one exact centre of alpha, `_phase_center(bits)`, bits
    = 3 bitlen(nmax) + 8.  The polynomial part b1 (x1 + n alpha) + b2 (x2 +
    c n x1 + c C(n, 2) alpha), with the ramp modes folded in, is one
    `_QuadraticTrack`.  With delta_m = m alpha mod 1 in [-1/2, 1/2), the
    integer residue `AlphaSpec.signed_residue(m, bits)` rounded once, the
    Birkhoff part b2 sum_{m>0} 2 Re(h_hat(m) e(m x1) (e(n delta_m) - 1) /
    (e(delta_m) - 1)) is G(y_n) - G(x1), y_n = frac(x1 + n alpha), for the
    coboundary G(y) = sum Re(g_m e(m y)), g_m = 2 b2 h_hat(m) / (e(delta_m) -
    1); -G(x1) joins the constant by math.fsum, and frac(m x1) is formed for
    the kept modes only.  y_n is a second track; its bits give the nearest
    grid point k / R and t = R y_n - k in [-1/2, 1/2), and G(y_n) is the
    Horner sum in t of the `_taylor_table` rows at k.  It
    rests on m_max << R: the degree P, so the cost per term, and the error
    grow with pi m_max / R, not with the mode count; R = max(4096, 8 m_max)
    rounded up to a power of two.  A mode m over
    TAYLOR_GRID / 8 is a table of Re(g_m e(z)) of its own, R = 4096, at z_n =
    frac(m x1 + n m alpha), and bits grows by the top mode's bit length; over
    SKEW_HIGH_MODES such modes raise `PrecisionError`.  No call uses BLAS.
    `table_sizes`, the `tables` of the metadata, holds (modes, R, P) per
    table: building one costs M R P multiply-adds, once per call.
    Every caller (`_weighted_sums`, `_fill`) starts `chunk` at the first term
    of a batch window, so no phase depends on where the checkpoints cut.

    Error budget.  A mode with |2 h_hat / (e(delta) - 1)| below MODE_FLOOR
    (a ramp mode: |h_hat| nmax) is dropped, and `dropped_bound` bounds the
    dropped part of each phase.  `phase_error` bounds the rest, the sum of:

    - per table, the bound of `_taylor_table` and |G'| 2^-61, |G'| <= 2 pi
      sum m |g_m| in its own variable y_n or z_n, which is off by under 4
      2^-64 in fixed point, 2^-54 / R in t and 2^-70 from the centre;
    - 2 2^-53 per mode over TAYLOR_GRID / 8, the addition of its term;
    - 2 |G'| 2^-(bits + 60) / min |e(delta_m) - 1|, the centre's move of g_m;
    - (|b1| + |b2 c|) 2^-69, the centre's drift on the polynomial part, and
      |b2| nmax 2^-124 sum 2 |h_hat(m)| over the ramp modes (128 bits);
    - (BATCH + 3) 2^-64, just over 16 2^-53: the polynomial part in fixed
      point, off by under (j + 4) 2^-64 at term u + j of a call, j < BATCH;
    - 9 2^-53, the constant, the conversion from fixed point and the
      additions, and 3 2^-53, `E_TERM_ERROR`.

    2 pi N `phase_error` bounds the error it puts on S(N), and
    `table_anchor_bound` adds `reduction_bound`, the error of the sums.
    """

    MODE_FLOOR = 1e-18

    def __init__(self, flow: SkewFlow, p: TorusPoint, b: Character, nmax: int):
        if not flow.normalized:
            raise DomainError("correlator needs the normalized skew form a = d = 1")
        b = Character(*integer_frequencies((b.b1, b.b2)))
        h, x1, top = flow.h, Fraction(p.x1), max(flow.h.support(), default=0)
        bits = 3 * max(nmax, 2).bit_length() + 8 + top.bit_length() * (8 * top > TAYLOR_GRID)
        center = flow.alpha._phase_center(bits)
        ramp = Fraction(h.coeff(0).real)  # plus the ramp modes' 2 Re(h_hat(m) e(m x1))
        self.dropped_bound, self.modes_dropped, ramps, ramp_size = 0.0, 0, 0, 0.0
        low, high, g_x1, min_den = [], [], [], math.inf
        for m, c in (h.items() if b.b2 else ()):
            if m <= 0:
                continue
            r, q = flow.alpha.signed_residue(m, bits)
            df = r / q
            den = e2pi_m1(df)
            # a ramp: (e(n delta) - 1) / (e(delta) - 1) = n to double precision
            is_ramp = df == 0.0 or abs(df) < 1e-250 or den == 0
            size = abs(c) * nmax if is_ramp else abs(2.0 * c / den)
            if df != 0.0 and size < self.MODE_FLOOR:
                self.dropped_bound += abs(b.b2) * 2.0 * size
                self.modes_dropped += 1
                continue
            arg = m * x1 % 1
            if is_ramp:
                with mpmath.workprec(128):
                    z = mpmath.mpc(c) * mpmath.expjpi(mpmath.mpf(2 * arg.numerator)
                                                      / arg.denominator)
                man, exp = z.real.man_exp
                ramp += 2 * Fraction(man) * Fraction(2) ** exp
                ramp_size, ramps = ramp_size + 2.0 * abs(c), ramps + 1
            else:
                g = b.b2 * (2.0 * c / den)
                (low if 8 * m <= TAYLOR_GRID else high).append((m, g))
                g_x1.append((g * e2pi(arg.numerator / arg.denominator)).real)
                min_den = min(min_den, abs(den))
        if len(high) > SKEW_HIGH_MODES:
            raise PrecisionError(f"modes above {TAYLOR_GRID // 8}: {len(high)} > {SKEW_HIGH_MODES}")
        self.nmax, self.length = nmax, max(1, min(nmax, BATCH))
        self.modes_kept = len(low) + len(high) + ramps
        b2c = b.b2 * flow.c
        self.track = _QuadraticTrack(
            b.b1 * x1 + b.b2 * Fraction(p.x2),
            b.b1 * center + b2c * x1 + b.b2 * ramp,
            b2c * center, self.length)
        self.const = -math.fsum(g_x1) % 1.0  # -G(x1)
        self.phase_error = ((BATCH + 3) * 2.0**-64 + 9 * 2.0**-53 + E_TERM_ERROR
                            + (abs(b.b1) + abs(b2c)) * 2.0**-69
                            + abs(b.b2) * nmax * ramp_size * 2.0**-124 + 2 * 2.0**-53 * len(high))
        # (multiplier s, modes of G_s(z), z = frac(s y)): the low modes, then each high mode
        self.tables, self.table_sizes = [], []
        for s, part in ([(1, low)] if low else []) + [(m, [(1, g)]) for m, g in high]:
            R = max(E_TABLE_SIZE, 1 << (8 * max(part)[0] - 1).bit_length())
            table, error = _taylor_table([m for m, _ in part], np.array([g for _, g in part]), R)
            track = _QuadraticTrack(s * x1, s * center, Fraction(0), self.length)
            self.tables.append((track, table))
            self.table_sizes.append((len(part), R, len(table)))
            self.phase_error += error + TWO_PI * math.fsum(m * abs(g) for m, g in part) * 2.0**-61
        if g_x1:
            slope = TWO_PI * math.fsum(m * abs(g) for m, g in low + high)  # >= |G'|
            self.phase_error += slope * 2 * 2.0**-(bits + 60) / min_den

    def budget(self, checkpoints: Sequence[int]) -> dict:
        """The error budget of a correlation at these checkpoints (see the class docstring)."""
        reduce = reduction_bound(self.nmax, len(_pieces(self.nmax, checkpoints)))
        return {"modes_kept": self.modes_kept, "modes_dropped": self.modes_dropped,
                "tables": self.table_sizes, "dropped_bound": self.dropped_bound,
                "table_anchor_bound": TWO_PI * self.nmax * self.phase_error + reduce}

    def chunk(self, u: int, L: int, out: np.ndarray) -> np.ndarray:
        """<b, orbit(n)> mod 1 for n = u..u+L-1, L <= length, written into out (float64)."""
        self.track.chunk(u, L, out.view(np.uint64))
        np.multiply(out.view(np.int64), 2.0**-64, out=out)
        out += self.const
        t, acc = np.empty((2, L))
        y, k = np.empty((2, L), dtype=np.uint64)  # y is spent once k is read: it takes row[k]
        for track, table in self.tables:
            bits = table.shape[1].bit_length() - 1
            track.chunk(u, L, y)
            np.left_shift(y, np.uint64(bits), out=k)
            np.multiply(k.view(np.int64), 2.0**-64, out=t)  # R y - k in [-1/2, 1/2)
            y += np.uint64(1 << (63 - bits))
            np.right_shift(y, np.uint64(64 - bits), out=k)  # the nearest grid point k / R
            np.take(table[-1], k.view(np.int64), out=acc, mode="clip")
            for row in table[-2::-1]:
                acc *= t
                acc += np.take(row, k.view(np.int64), out=y.view(np.float64), mode="clip")
            out += acc
        out -= np.floor(out, out=t)  # the bits of np.mod(out, 1.0), at a fraction of its cost
        return out


def _fill(phase_chunk: Callable[..., np.ndarray], out: np.ndarray) -> np.ndarray:
    """out[i] = phase(i + 1) for every i, one phase_chunk call per batch window, as sums call it."""
    for a in range(0, len(out), BATCH):
        phase_chunk(a + 1, len(out[a:a + BATCH]), out[a:a + BATCH])
    return out


def character_phase_array(flow: SkewFlow, p: TorusPoint, b: Character, N: int) -> np.ndarray:
    """Phases <b, orbit(n)> mod 1 for n = 1..N: those of a sum to N at any checkpoints, bit for bit."""
    return _fill(_SkewPhaseContext(flow, p, b, N).chunk, np.empty(N))


# ---------------------------------------------------------------------------
# e(phase) weighted by mu and reduced in a fixed order


@cache
def _e_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi k / size for k < size, correctly rounded.

    The first octant k <= size / 8 comes from mpmath, the rest by symmetry:
    e(1/4 - x) = i conj(e(x)) and e(q/4 + x) = i^q e(x).
    """
    with mpmath.workprec(64):
        octant = [(float(mpmath.cospi(mpmath.mpf(2 * j) / size)),
                   float(mpmath.sinpi(mpmath.mpf(2 * j) / size))) for j in range(size // 8 + 1)]
    c8, s8 = np.array(octant).T
    q, r = np.divmod(np.arange(size), size // 4)
    j = np.minimum(r, size // 4 - r)
    swap = r > size // 8
    c, s = np.where(swap, s8[j], c8[j]), np.where(swap, c8[j], s8[j])
    return np.choose(q, (c, -s, -c, s)), np.choose(q, (s, c, -s, -c))


E_TABLE_SIZE = 4096
_E_COS, _E_SIN = _e_table(E_TABLE_SIZE)
# bound on |mu e(phi) as computed by `_e_sums` - mu e(phi)| per term (see there)
E_TERM_ERROR = 3 * 2.0**-53
_ROUND_BITS = 1.5 * 2.0**52  # an integer k plus this holds k mod 2^51 in its low bits


def _e_sums(mu: np.ndarray, starts: Sequence[int], rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of sum mu e(ph) over each segment ph[starts[i]:starts[i + 1]].

    ph, with entries in [0, 1], is rows[0, :len(mu)], and rows is float64
    scratch of five rows; all five are overwritten.  With y = 4096 ph
    (exact) and k = rint(y), theta = 2 pi (y - k) / 4096, |theta| <= pi /
    4096, and e(ph) = T[k mod 4096] (cos theta + i sin theta) with the table
    T of `_e_table`, cos theta = 1 - theta^2/2 + theta^4/24 (truncation
    below 2^-71) and sin theta = theta - theta^3/6 (below 2^-58); mu is
    folded into both before the product.  Per term the error is at most
    `E_TERM_ERROR`: the table entry 2^-53 / sqrt 2, cos theta + i sin theta
    0.53 2^-53, the product's rounding 2^-53 in each of Re and Im, 2.65
    2^-53 together.  Each segment is summed by np.add.reduceat, numpy's
    pairwise summation, in an order set by the segment length alone (see
    `reduction_bound`).
    """
    y, k, t, c, s = rows[:, :len(mu)]
    idx = k.view(np.int64)
    y *= E_TABLE_SIZE
    np.rint(y, out=t)
    np.add(t, _ROUND_BITS, out=k)
    idx &= E_TABLE_SIZE - 1
    y -= t
    y *= TWO_PI / E_TABLE_SIZE  # theta
    np.multiply(y, y, out=t)
    np.multiply(t, 1 / 24, out=c)
    c -= 0.5
    c *= t
    c += 1.0
    c *= mu  # mu cos theta
    np.multiply(t, -1 / 6, out=s)
    s *= y
    s += y
    s *= mu  # mu sin theta
    np.take(_E_SIN, idx, out=t, mode="clip")
    np.take(_E_COS, idx, out=y, mode="clip")
    np.multiply(t, s, out=k)
    s *= y
    y *= c
    c *= t
    y -= k  # Re: T_re mu cos - T_im mu sin
    c += s  # Im: T_im mu cos + T_re mu sin
    return np.add.reduceat(y, starts), np.add.reduceat(c, starts)


def reduction_bound(N: int, pieces: int) -> float:
    """Bound on what the reduction can move |S(N)|, for N terms of modulus <= 1 + E_TERM_ERROR.

    numpy's pairwise sum of n terms adds each term at most 25 times in a
    block of <= 128 (16-term runs in 8 accumulators, three levels to join
    them, up to 7 left over), plus one per halving of n, <= max(0,
    bit_length(n) - 6) of them; reduceat adds that to the segment's first
    term, so a piece of L <= min(N, CHUNK) terms is within (20 + max(6,
    bit_length(L - 1))) u of the sum of its moduli, u = 2^-53.  Adding the
    pieces in order costs at most pieces u N more, and Re and Im together at
    most twice.
    """
    depth = 20 + max(6, (min(N, CHUNK) - 1).bit_length())
    return 2.0 * N * (depth + pieces) * 2.0**-53


def sum_bound(N: int, pieces: int) -> float:
    """Bound on |S(N) - S_exact(N)| for phases that are exact rationals rounded once.

    A rounded phase is within 2^-54 of the exact one, so its e(.) within 2 pi
    2^-54; `_e_sums` adds E_TERM_ERROR per term and the reduction
    `reduction_bound`.  On the class route of `_weighted_sums` the terms are
    M_j e(phase_j), every error scales with |M_j|, sum |M_j| <= N, and at
    most min(P, CHUNK) classes are summed at a time, in fewer blocks than
    the direct route has pieces, so the same bound holds.  The two routes
    differ by at most twice it.
    """
    return N * (TWO_PI * 2.0**-54 + E_TERM_ERROR) + reduction_bound(N, pieces)


# ---------------------------------------------------------------------------
# Checkpointed mu-weighted summation with deterministic chunking


def _pieces(N: int, checkpoints: Sequence[int]) -> list[tuple[int, int]]:
    cuts = {0, N}
    cuts.update(int(c) for c in checkpoints)
    cuts.update(range(0, N, CHUNK))
    cuts = sorted(c for c in cuts if 0 <= c <= N)
    return [(a + 1, b) for a, b in zip(cuts, cuts[1:])]


def _class_phase_chunk(sources: Sequence) -> Callable[..., np.ndarray]:
    """phase_chunk(u, L, out) for n = u..u+L-1 from one source per residue class.

    sources[l](t0, count, out) writes the phases of n = nu t + l for t = t0..t0
    + count - 1 into out, with nu = len(sources), as the exact sources
    (`_Mod1Poly`) do.  When every source has a `period`, phase_chunk has the
    period nu lcm(periods).
    """
    nu = len(sources)

    def phase_chunk(u, L, out):
        # class l fills out[s::nu], from n = u + s = t nu + l on
        for l, source in enumerate(sources):
            s = (l - u) % nu
            source((u + s - l) // nu, len(range(s, L, nu)), out[s::nu])
        return out
    periods = [getattr(source, "period", None) for source in sources]
    if None not in periods:  # a period P_l in t is nu P_l in n
        phase_chunk.period = nu * math.lcm(*periods)
    return phase_chunk


def _checked_checkpoints(checkpoints: Sequence[int], limit: float) -> tuple[list, int]:
    """The checkpoints sorted, and the last one N, which must not pass limit (the sieve's).

    They must be distinct integers (1e3 as a float included), refused before any work."""
    given, checkpoints = checkpoints, sorted({int(c) for c in checkpoints})
    if len(checkpoints) < len(given) or any(c != int(c) for c in given):
        raise DomainError(f"checkpoints must be distinct integers, got {list(given)!r}")
    if not checkpoints:
        raise DomainError("need at least one checkpoint")
    if checkpoints[0] < 1:
        raise DomainError(f"checkpoints must be >= 1, got {checkpoints[0]}")
    N = checkpoints[-1]
    if N > limit:
        raise DomainError(f"checkpoint {N} beyond sieve limit {limit}")
    return checkpoints, N


def _checked_threads(threads) -> None:
    """Refuse a thread count that is not an integer from 1 to THREADS_MAX (True included)."""
    if (not isinstance(threads, (int, np.integer)) or isinstance(threads, bool)
            or not 1 <= threads <= THREADS_MAX):
        raise DomainError(f"threads must be an integer >= 1 and <= {THREADS_MAX}, got {threads!r}")


def _batches(pieces: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """The pieces grouped by their window of terms k BATCH + 1..(k + 1) BATCH.

    No piece crosses a window: `_pieces` cuts at every multiple of CHUNK."""
    return [list(run) for _, run in itertools.groupby(pieces, lambda ab: (ab[0] - 1) // BATCH)]


def sum_route(phase_chunk: Callable[..., np.ndarray], N: int,
              checkpoints: Sequence[int]) -> tuple[str, int | None]:
    """The route of `_weighted_sums` and the period P of phase_chunk (None if it has none).

    "classes" when P <= CLASS_PERIOD_MAX and CLASS_RATIO P len(checkpoints)
    <= N, else "direct".
    """
    P = getattr(phase_chunk, "period", None)
    classes = P is not None and P <= CLASS_PERIOD_MAX and CLASS_RATIO * P * len(checkpoints) <= N
    return ("classes" if classes else "direct"), P


def _add_class_counts(counts: np.ndarray, weights: np.ndarray, a: int, b: int) -> None:
    """counts[j mod P] += weights[j] for a <= j < b, P = len(counts), in exact integers.

    Whole rows of L = P ceil(CLASS_ROW / P) terms are summed in int16, at
    most 1024 rows at a time, and folded mod P; the terms before the first
    and after the last whole row of P go to their classes directly.  Scratch
    is O(L) whatever b - a is, and no weight is copied.
    """
    P = len(counts)
    head = min(b, -(-a // P) * P)
    counts[a % P:a % P + head - a] += weights[a:head]
    L = P * -(-CLASS_ROW // P)
    body = head + (b - head) // L * L
    for s in range(head, body, 1024 * L):
        rows = weights[s:min(s + 1024 * L, body)].reshape(-1, L)
        counts += rows.sum(axis=0, dtype=np.int16).reshape(-1, P).sum(axis=0)
    rest = body + (b - body) // P * P
    counts += weights[body:rest].reshape(-1, P).sum(axis=0)
    counts[:b - rest] += weights[rest:b]


def _class_sums(phase_chunk: Callable[..., np.ndarray], weights: np.ndarray, P: int,
                checkpoints: Sequence[int]) -> list[complex]:
    """The sums of `_weighted_sums` for phases of period P, as sums over the P classes.

    With M_j(c) the sum of weights[i - 1] over i <= c, i - 1 = j (mod P), an
    exact integer (`_add_class_counts`), S(c) = sum_j M_j(c) e(phase(j + 1)):
    phase_chunk runs on 1..P alone (`_fill`), and `_e_sums` weighs each
    block of at most CHUNK classes by M_j; the blocks add in order.  All of
    it runs in the calling thread, so the result does not depend on `threads`.
    """
    phases = _fill(phase_chunk, np.empty(P))
    counts, rows, done, at = np.zeros(P, dtype=np.int64), np.empty((5, min(P, CHUNK))), 0, {}
    for c in sorted(set(checkpoints)):
        _add_class_counts(counts, weights, done, c)
        done, at[c] = c, 0j
        for s in range(0, P, CHUNK):
            block = counts[s:s + CHUNK].astype(np.float64)
            rows[0, :len(block)] = phases[s:s + CHUNK]
            re, im = _e_sums(block, [0], rows)
            at[c] += complex(re[0], im[0])
    return [at[c] for c in checkpoints]


def _weighted_sums(phase_chunk: Callable[..., np.ndarray], weights: np.ndarray,
                   N: int, checkpoints: Sequence[int], threads: int) -> list[complex]:
    """sum_{i<=N} weights[i - 1] e(phase(i)) snapshotted at the sorted checkpoints.

    phase_chunk(a, L, out) writes the phases in [0, 1] of terms a..a+L-1
    into out; weights is mu[1:] for a sum over n, or a strided view of mu
    for a residue class.  A phase_chunk whose phases repeat with a `period`
    P takes the class route (`_class_sums`) when `sum_route` says so; it is
    within twice `sum_bound` of the direct route below.

    On the direct route the piece layout depends only on (N, checkpoints).
    Each piece is summed by `_e_sums` in its batch (`_batches`).  The
    batches are split into min(batches, threads) contiguous spans whose
    sizes differ by at most one; a worker sums one span in its own five
    rows of min(N, BATCH) scratch, a single span runs in the calling
    thread, and the piece sums are added in piece order, so the result is
    bit-identical for any number of threads.  phase_chunk is called once
    per batch, over the terms A..B of its window, into scratch row 0, so
    the phases do not depend on the checkpoints either.
    """
    _checked_threads(threads)
    route, P = sum_route(phase_chunk, N, checkpoints)
    if route == "classes":
        return _class_sums(phase_chunk, weights, P, checkpoints)
    pieces = _pieces(N, checkpoints)
    batches = _batches(pieces)
    width = min(N, BATCH)
    workers = max(1, min(len(batches), threads))
    cuts = [len(batches) * i // workers for i in range(workers + 1)]
    spans = [batches[a:b] for a, b in zip(cuts, cuts[1:])]

    def span_sums(span: list[list[tuple[int, int]]]) -> list[complex]:
        rows, sums = np.empty((5, width)), []
        for run in span:
            A, B = run[0][0], run[-1][1]
            phase_chunk(A, B - A + 1, rows[0, :B - A + 1])
            re, im = _e_sums(weights[A - 1:B], [a - A for a, _ in run], rows)
            sums += map(complex, re.tolist(), im.tolist())
        return sums

    if len(spans) > 1:
        with ThreadPoolExecutor(len(spans)) as ex:
            sums = [s for part in ex.map(span_sums, spans) for s in part]
    else:
        sums = span_sums(batches)

    running, at = 0j, {0: 0j}
    for (a, b), s in zip(pieces, sums):
        running += s
        at[b] = running
    return [at[c] for c in checkpoints]


def mobius_correlate(flow, x, b, table: MobiusTable, checkpoints: Sequence[int],
                     threads: int = 1) -> CorrelationSeries:
    """S(N_i) = sum_{n<=N_i} mu(n) e(<b, orbit(n)>) at each checkpoint.

    flow: a SkewFlow (normalized) with x a TorusPoint and b a Character, or
    a UnipotentAffine with x a coordinate sequence and b an integer vector.
    The metadata records the `route` of the sum and the `period` of the
    phases (None on a skew product); see `sum_route`.
    A skew series carries its error budget in the metadata: `modes_kept`,
    `modes_dropped`, `tables` ((modes, R, P) per coboundary table),
    `dropped_bound` (on each term's phase) and `table_anchor_bound` (on
    |S(N)|); see `_SkewPhaseContext`.  An affine series carries `sum_bound`
    (on |S(N)|, N the last checkpoint), its phases being exact rationals.
    """
    checkpoints, N = _checked_checkpoints(checkpoints, table.limit)
    if isinstance(flow, SkewFlow):
        if not isinstance(b, Character):
            b = Character(*b)
        p = x if isinstance(x, TorusPoint) else TorusPoint(*x)
        ctx = _SkewPhaseContext(flow, p, b, N)
        phase_chunk, budget = ctx.chunk, ctx.budget(checkpoints)
        meta_flow = f"skew(c={flow.c}, alpha={flow.alpha.label}, h={flow.h.label})"
    elif isinstance(flow, UnipotentAffine):
        v = integer_frequencies((b.b1, b.b2) if isinstance(b, Character) else b)
        if len(v) != flow.dimension:
            raise DomainError("observable vector dimension mismatch")
        tpolys = [unipotent_phase_poly(flow, x, v, l).as_poly().compose_linear(flow.nu, l)
                  for l in range(flow.nu)]
        phase_chunk = _class_phase_chunk([_Mod1Poly(P) for P in tpolys])
        meta_flow = f"unipotent_affine(dim={flow.dimension}, nu={flow.nu})"
        budget = {"sum_bound": sum_bound(N, len(_pieces(N, checkpoints)))}
    else:
        raise DomainError(f"unsupported flow type {type(flow).__name__}")

    sums = _weighted_sums(phase_chunk, table.mu_array()[1:], N, checkpoints, threads)
    route, period = sum_route(phase_chunk, N, checkpoints)
    meta = {"flow": meta_flow, "observable": str(b), "threads": threads, "N": N,
            "route": route, "period": period, **budget}
    return CorrelationSeries(checkpoints=tuple(checkpoints), sums=tuple(sums),
                             metadata=meta)


def poly_exp_sum(phase: PolyPhase, table: MobiusTable, N: int,
                 threads: int = 1) -> complex:
    """sum_{n<=N, n = l (mod nu)} mu(n) e(phi(n)) with exact mod-1 phases.

    The class is walked in t: term t is n = n_start + nu (t - 1), and the sum
    is one `_weighted_sums` pass of its `_Mod1Poly` over the strided view
    mu[n_start::nu], so `threads` is honoured, the sum is bit-identical for
    any thread count, and mu is not copied, on either route.
    """
    if N > table.limit:
        raise DomainError(f"N={N} beyond sieve limit {table.limit}")
    nu, l = phase.nu, phase.residue
    n_start = l if l >= 1 else nu
    count = (N - n_start) // nu + 1 if N >= n_start else 0
    phase_chunk = _Mod1Poly(phase.as_poly().compose_linear(nu, n_start - nu))
    weights = table.mu_array()[n_start::nu]
    return _weighted_sums(phase_chunk, weights, count, [count], threads)[0]


# ---------------------------------------------------------------------------
# Bilinear criterion (small prime-dilation correlations force small sums)


def bsz_test(f: Callable[[np.ndarray], np.ndarray], tau: float, M: int, N: int,
             table: MobiusTable) -> dict:
    """Check the bilinear hypothesis and the multiplicative-sum conclusion.

    Hypothesis: |sum_{m<=M} f(p1 m) conj(f(p2 m))| <= tau M for all primes
    p1 != p2 <= e^{1/tau} (the prime range is capped at BSZ_PRIME_CAP,
    recorded).  Conclusion: |sum_{n<=N} mu(n) f(n)| <= 2 sqrt(tau log(1/tau)) N.
    Both sums are numpy's pairwise sums of the products, with no BLAS call.
    """
    if not 0.0 < tau < 1.0 / math.e:
        raise DomainError("tau must lie in (0, 1/e)")
    if M < 1 or not 1 <= N <= table.limit:
        raise DomainError(f"need M >= 1 and 1 <= N <= {table.limit}, got M={M}, N={N}")
    bound = math.exp(1.0 / tau)
    capped = bound > BSZ_PRIME_CAP
    pbound = min(int(bound), BSZ_PRIME_CAP)
    primes = _primes_upto(pbound)
    if primes.size < 2:
        raise DomainError(f"prime range e^(1/tau)={bound:.1f} holds fewer than two primes")

    ms = np.arange(1, M + 1, dtype=np.int64)
    fp = {p: np.asarray(f(p * ms), dtype=np.complex128) for p in primes.tolist()}
    if any(np.max(np.abs(v)) > 1.0 + 1e-9 for v in fp.values()):
        raise DomainError("sequence oracle must satisfy |f| <= 1")

    worst_pair, worst_abs = None, -1.0
    hypothesis_holds = True
    for p1, p2 in itertools.combinations(fp, 2):
        s = abs(np.add.reduce(fp[p1] * np.conj(fp[p2])))
        if s > worst_abs:
            worst_abs, worst_pair = s, (p1, p2)
        if s > tau * M:
            hypothesis_holds = False

    mu = table.mu_array()
    ns = np.arange(1, N + 1, dtype=np.int64)
    fn = np.asarray(f(ns), dtype=np.complex128)
    msum = complex(np.add.reduce(mu[1:N + 1] * fn))
    conclusion_bound = 2.0 * math.sqrt(tau * math.log(1.0 / tau))
    return {
        "tau": tau, "M": M, "N": N,
        "prime_bound": pbound, "prime_count": int(primes.size), "capped": capped,
        "worst_pair": worst_pair,
        "worst_bilinear_ratio": worst_abs / M,
        "hypothesis_holds": hypothesis_holds,
        "mobius_sum_ratio": abs(msum) / N,
        "conclusion_bound": conclusion_bound,
        "conclusion_holds": abs(msum) / N <= conclusion_bound,
    }


# ---------------------------------------------------------------------------
# Sharp-scale dilation polynomials (case C machinery)


@dataclass(frozen=True)
class PhiPolys:
    """phi and its cut phi_D as frequency->coefficient maps, with norms."""

    phi: dict
    phi_D: dict
    Phi: float
    norm_phi_D: float
    norm_parts: tuple
    tail_bound: float
    D: int
    d1: int
    d2: int

    def eval_phi(self, x: float) -> complex:
        return sum(c * e2pi(f * x) for f, c in self.phi.items())

    def eval_phi_D(self, x: float) -> complex:
        return sum(c * e2pi(f * x) for f, c in self.phi_D.items())


def phi_polys(report: CaseReport, h: AnalyticSeries, d1: int, d2: int,
              x1: float) -> PhiPolys:
    """Build phi(x) = sum m^2 h_hat(m m_J) e(m m_J x1) (d1^3 e(d1 m x) - d2^3 e(d2 m x))
    over the top-scale window, its |m| <= D cut, and the norm data.

    Phi = (sum_{|m|<=D} m^4 |h_hat(m m_J)|^2)^(1/2); each one-dilation part
    has Fourier norm d_l^3 Phi, and the triangle inequality gives
    ||phi_D||_2 >= (d1^3 - d2^3) Phi >= Phi.  The tail |phi - phi_D| is
    bounded by (d1^3 + d2^3) * sum_{|m|>D} m^2 |h_hat(m m_J)|.
    """
    if not d1 > d2 >= 1:
        raise DomainError("need d1 > d2 >= 1")
    if report.J == 0:
        raise DomainError("no sharp scale available")
    mJ, MJ, D = report.scales[-1], report.M[-1], report.D
    window = scale_window(h, mJ, MJ)
    phi, phi_D, Phi2, tail = {}, {}, 0.0, 0.0
    for m, hm in window:
        base = (m * m) * hm * e2pi(m * mJ * x1)
        for dl, sign in ((d1, 1.0), (d2, -1.0)):
            f = dl * m
            w = sign * dl**3 * base
            phi[f] = phi.get(f, 0j) + w
            if abs(m) <= D:
                phi_D[f] = phi_D.get(f, 0j) + w
        if abs(m) <= D:
            Phi2 += float(abs(m))**4 * abs(hm)**2
        else:
            tail += (d1**3 + d2**3) * (m * m) * abs(hm)
    Phi = math.sqrt(Phi2)
    norm_phi_D = math.sqrt(sum(abs(c)**2 for c in phi_D.values()))
    return PhiPolys(phi=phi, phi_D=phi_D, Phi=Phi, norm_phi_D=norm_phi_D,
                    norm_parts=(d1**3 * Phi, d2**3 * Phi), tail_bound=tail,
                    D=D, d1=d1, d2=d2)


# ---------------------------------------------------------------------------
# Lemma verifiers


def poly_lower_bound_check(coefficients: Sequence[complex], delta: float,
                           samples: int = 10_000) -> dict:
    """min |P(z)| / ((delta/3)^n ||P||_2) over circle points off the root discs.

    The claim under test: the ratio is always >= 1.
    """
    coeffs = np.asarray(list(coefficients), dtype=np.complex128)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    n = len(coeffs) - 1
    if n < 1:
        raise DomainError("degree must be >= 1")
    if not 0.0 < delta < 0.5:
        raise DomainError("delta must lie in (0, 1/2)")
    norm2 = float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))
    try:
        roots = np.roots(coeffs[::-1])
    except np.linalg.LinAlgError as exc:
        raise PrecisionError(f"root finder failed: {exc}") from exc
    if not np.all(np.isfinite(roots)):
        raise PrecisionError("root finder returned non-finite roots")
    z = np.exp(2j * np.pi * np.arange(samples) / samples)
    keep = np.ones(samples, dtype=bool)
    for r in roots:
        keep &= np.abs(z - r) >= delta
    if not keep.any():
        raise DomainError("every sample point fell inside an excluded disc")
    vals = np.polyval(coeffs[::-1], z[keep])
    floor = (delta / 3.0) ** n * norm2
    min_abs = float(np.min(np.abs(vals)))
    return {
        "degree": n,
        "norm2": norm2,
        "floor": floor,
        "min_abs_off_discs": min_abs,
        "min_ratio": min_abs / floor,
        "samples_kept": int(keep.sum()),
        "pass": min_abs >= floor,
    }


def vdc_sum_check(F_value: Callable[[float], float],
                  F_third: Callable[[float], float],
                  Lambda: float, eta: float, a: float, b: float) -> dict:
    """Compare |sum_{a<n<b} e(F(n))| with the third-derivative bound.

    Bound: VDC_IMPLIED_CONSTANT * (eta^(1/2) Lambda^(1/6) (b-a) +
    Lambda^(-1/6) (b-a)^(1/2)), valid when Lambda <= |F'''| <= eta Lambda
    on (a, b).  The derivative window is checked at VDC_DERIVATIVE_SAMPLES
    points; violations are reported, not raised.
    """
    if b - a < 1:
        raise DomainError("need b - a >= 1")
    if Lambda <= 0 or eta < 1:
        raise DomainError("need Lambda > 0 and eta >= 1")
    xs = np.linspace(a + 1e-9 * (b - a), b - 1e-9 * (b - a), VDC_DERIVATIVE_SAMPLES)
    d3 = np.array([abs(F_third(float(x))) for x in xs])
    precondition_ok = bool(np.all(d3 >= Lambda * (1 - 1e-9))
                           and np.all(d3 <= eta * Lambda * (1 + 1e-9)))
    total = sum((cmath.exp(2j * math.pi * (F_value(float(n)) % 1.0))
                 for n in range(math.floor(a) + 1, math.ceil(b))), 0j)
    bound = VDC_IMPLIED_CONSTANT * (math.sqrt(eta) * Lambda ** (1 / 6) * (b - a)
                                + Lambda ** (-1 / 6) * math.sqrt(b - a))
    return {
        "precondition_ok": precondition_ok,
        "d3_min": float(d3.min()), "d3_max": float(d3.max()),
        "sum_abs": abs(total),
        "bound": bound,
        "ratio": abs(total) / bound,
        "pass": abs(total) <= bound,
    }
