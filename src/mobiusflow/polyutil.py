"""Exact univariate polynomials over Fraction coefficients, and the exact
matrix core of the quasi-unipotent orbits.

Small helper used wherever orbits reduce to polynomial phases: binomial
expansion of unipotent powers, discrete antiderivatives (Faulhaber sums),
and substitutions like q -> (n - l)/nu.  Everything is exact so that
orbit-representation identities can be asserted with == rather than a
tolerance.

The matrix core serves the affine toral maps of `flows` and the Heisenberg
automorphisms of `nilflow` alike: `mat_mul`, `mat_vec` and `mat_pow` over
int or Fraction entries, the one quasi-unipotence detector
`quasi_unipotent` (A^nu = I + N with N nilpotent), and
`unipotent_orbit_polys`, which writes (I + N)^q x as polynomials in q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Optional, Sequence

# the largest exponent nu that quasi_unipotent tries
MAX_QUASIUNIPOTENT_ORDER = 2520


class Poly:
    """Polynomial sum_i c_i x^i with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls([Fraction(c)])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly([a * c for a in self.coeffs])

    def shift(self, c) -> "Poly":
        """Add a constant."""
        cs = list(self.coeffs) if self.coeffs else [Fraction(0)]
        cs[0] += Fraction(c)
        return Poly(cs)

    def eval(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_linear(self, a, b) -> "Poly":
        """p(a*x + b), exact."""
        a, b = Fraction(a), Fraction(b)
        if (a, b) == (1, 0):
            return self
        acc = Poly()
        lin = Poly([b, a])
        for c in reversed(self.coeffs):
            acc = acc * lin + Poly.const(c)
        return acc

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"


@lru_cache(maxsize=None)
def _bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k with the B_1 = -1/2 convention."""
    if k == 0:
        return Fraction(1)
    # B_k = -1/(k+1) * sum_{j<k} C(k+1, j) B_j
    s = Fraction(0)
    for j in range(k):
        s += comb(k + 1, j) * _bernoulli(j)
    return -s / (k + 1)


@lru_cache(maxsize=None)
def power_sum_poly(p: int) -> Poly:
    """Polynomial S_p(T) = sum_{t=0}^{T-1} t^p (Faulhaber).

    S_p(T) = (1/(p+1)) sum_{j=0}^{p} C(p+1, j) B_j T^{p+1-j}.
    """
    if p < 0:
        raise ValueError("power must be >= 0")
    coeffs = [Fraction(0)] * (p + 2)
    for j in range(p + 1):
        coeffs[p + 1 - j] += Fraction(comb(p + 1, j)) * _bernoulli(j) / (p + 1)
    return Poly(coeffs)


@lru_cache(maxsize=None)
def binomial_poly(t: int) -> Poly:
    """C(q, t) = q(q-1)...(q-t+1)/t! as a polynomial in q."""
    out = Poly.const(1)
    for i in range(t):
        out = out * Poly([Fraction(-i), Fraction(1)])
    return out.scale(Fraction(1, factorial(t)))


def prefix_sum_poly(p: Poly) -> Poly:
    """Polynomial P(T) = sum_{t=0}^{T-1} p(t), exact in T."""
    out = Poly()
    for k, c in enumerate(p.coeffs):
        if c:
            out = out + power_sum_poly(k).scale(c)
    return out


# ---------------------------------------------------------------------------
# Exact matrices: tuples of rows, entries int or Fraction


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> tuple:
    m = len(B)
    return tuple(tuple(sum(row[k] * B[k][j] for k in range(m)) for j in range(len(B[0])))
                 for row in A)


def mat_vec(A: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(sum(a * x for a, x in zip(row, v) if a) for row in A)


def mat_pow(A: Sequence[Sequence], k: int) -> tuple:
    """A^k for k >= 0; A^0 is the integer identity."""
    P = tuple(tuple(int(i == j) for j in range(len(A))) for i in range(len(A)))
    for _ in range(k):
        P = mat_mul(P, A)
    return P


def quasi_unipotent(A: Sequence[Sequence]) -> Optional[tuple[int, tuple]]:
    """(nu, N) with A^nu = I + N, N nilpotent and nu least, or None.

    A quasi-unipotent m x m matrix has only roots of unity as eigenvalues,
    so |tr A^j| <= m for every j, with equality to m exactly where A^j - I
    is nilpotent.  The search gives up at the first power past that bound,
    and after MAX_QUASIUNIPOTENT_ORDER powers; a power of trace m is tested
    by N^(2^k) = 0 with 2^k >= m, which holds iff N is nilpotent.
    """
    m = len(A)
    P = A
    for nu in range(1, MAX_QUASIUNIPOTENT_ORDER + 1):
        trace = sum(P[i][i] for i in range(m))
        if abs(trace) > m:
            return None
        if trace == m:
            N = tuple(tuple(P[i][k] - (1 if i == k else 0) for k in range(m))
                      for i in range(m))
            Q = N
            for _ in range((m - 1).bit_length()):
                Q = mat_mul(Q, Q)
            if not any(map(any, Q)):
                return nu, N
        P = mat_mul(P, A)
    return None


def unipotent_orbit_polys(N: Sequence[Sequence], base: Sequence,
                          rows: Optional[Sequence[Sequence]] = None) -> tuple[Poly, ...]:
    """(I + N)^q base = sum_t C(q, t) N^t base, one polynomial in q per coordinate.

    N is nilpotent, and the sum stops at the first t with N^t base = 0.
    With `rows` given, the polynomials are those of <row, (I + N)^q base>,
    one per row, so a projection is expanded only in the coordinates asked for.
    """
    terms = []
    x = tuple(base)
    for _ in range(len(x)):
        if not any(x):
            break
        terms.append(x if rows is None else mat_vec(rows, x))
        x = mat_vec(N, x)
    width = len(base) if rows is None else len(rows)
    return tuple(sum((binomial_poly(t).scale(c[i]) for t, c in enumerate(terms) if c[i]),
                     Poly()) for i in range(width))
