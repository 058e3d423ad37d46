"""Exact univariate polynomials over Fraction coefficients.

Small helper used wherever orbits reduce to polynomial phases: binomial
expansion of unipotent powers, discrete antiderivatives (Faulhaber sums),
and substitutions like q -> (n - l)/nu.  Everything is exact so that
orbit-representation identities can be asserted with == rather than a
tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence


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
