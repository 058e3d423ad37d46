"""Exact univariate polynomials over Fraction coefficients, and the exact
matrix core of the quasi-unipotent orbits.

Small helper used wherever orbits reduce to polynomial phases: binomial
expansion of unipotent powers and substitutions like t -> (n - l)/nu.
Everything is exact so that orbit-representation identities can be
asserted with == rather than a tolerance.

The matrix core serves the affine toral maps of `flows` and the Heisenberg
automorphisms of `nilflow` alike: `mat_mul` and `mat_vec` over int or
Fraction entries, the one quasi-unipotence detector
`quasi_unipotent` (A^nu = I + N with N nilpotent), and `affine_orbit_polys`,
which writes the orbit of an affine recursion u_n = M u_{n-1} + b with
quasi-unipotent M as polynomials in t on each residue class n = nu t + l.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Optional, Sequence

# the largest exponent nu that quasi_unipotent tries
MAX_QUASIUNIPOTENT_ORDER = 2520


class Poly:
    """Polynomial sum_i c_i x^i with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls([Fraction(c)])

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
def binomial_poly(t: int) -> Poly:
    """C(q, t) = q(q-1)...(q-t+1)/t! as a polynomial in q."""
    out = Poly.const(1)
    for i in range(t):
        out = out * Poly([Fraction(-i), Fraction(1)])
    return out.scale(Fraction(1, factorial(t)))


# ---------------------------------------------------------------------------
# Exact matrices: tuples of rows, entries int or Fraction


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> tuple:
    m = len(B)
    return tuple(tuple(sum(row[k] * B[k][j] for k in range(m)) for j in range(len(B[0])))
                 for row in A)


def mat_vec(A: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(sum(a * x for a, x in zip(row, v) if a) for row in A)


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


def affine_orbit_polys(M: Sequence[Sequence], b: Sequence, x: Sequence, nu: int, l: int,
                       rows: Optional[Sequence[Sequence]] = None) -> tuple[Poly, ...]:
    """u_n along u_n = M u_{n-1} + b, u_0 = x, as polynomials in t on n = nu t + l.

    H = [[M, b], [0, 1]] acts on (u, 1).  M^nu must be unipotent, so that
    H^nu = I + N with N nilpotent and u_{nu t + l} = sum_k C(t, k) N^k H^l (x, 1);
    the sum stops at the first k with N^k H^l (x, 1) = 0.  One polynomial per
    coordinate, or with `rows` given one per row, of <row, u_n>.  H is only
    ever applied to vectors, so N y is H^nu y - y by nu steps.
    """
    m = len(x)
    H = tuple(tuple(row) + (c,) for row, c in zip(M, b)) + ((0,) * m + (1,),)

    def steps(y, count):
        for _ in range(count):
            y = mat_vec(H, y)
        return y

    y = steps(tuple(x) + (1,), l)
    terms = []
    for _ in range(m + 1):
        if not any(y):
            break
        terms.append(y[:m] if rows is None else mat_vec(rows, y))
        y = tuple(a - c for a, c in zip(steps(y, nu), y))
    return tuple(sum((binomial_poly(k).scale(c[i]) for k, c in enumerate(terms) if c[i]),
                     Poly()) for i in range(len(terms[0])))
