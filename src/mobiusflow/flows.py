"""Zero-entropy flows on tori: analytic skew products and affine maps.

The skew product

    T(x, y) = (a x + alpha, c x + d y + h(x))        a, c, d in Z, ad = +-1

is iterated either step by step or through the closed orbit form (for the
normalized case a = d = 1)

    y1(n) = x1 + n alpha
    y2(n) = c n(n-1)/2 alpha + c n x1 + x2 + sum_{j<n} h(x1 + j alpha),

where the quadratic term uses the exact integer n(n-1)/2 before any mod-1
reduction and the Birkhoff sum is summed directly.  Affine maps x -> Wx + b
with quasi-unipotent integer W reduce, through the linear map [[W, b], [0, 1]]
on (x, 1), to polynomial character phases: psi(T^n x) = e(phi(n)) on each
residue class n = nu t + l, with deg phi at most the nilpotency order plus
one.  `PolyPhase` holds such a phi with exact coefficients; it is the one
phase-polynomial type of the package, and `poly_exp_sum` sums it.

Finite cyclic factors are modeled as rational coordinates (C_M embeds in the
circle as {k/M}); full generality of finite abelian factors is not modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .analytic import AnalyticSeries, birkhoff_sum_direct, eval_series
from .cfrac import AlphaSpec
from .errors import DomainError
from .polyutil import Poly, affine_orbit_polys, mat_mul, mat_vec, quasi_unipotent


@dataclass(frozen=True)
class TorusPoint:
    """Point of the 2-torus, coordinates reduced to [0, 1)."""

    x1: float
    x2: float

    def __post_init__(self):
        object.__setattr__(self, "x1", float(self.x1) % 1.0)
        object.__setattr__(self, "x2", float(self.x2) % 1.0)

    def close_to(self, other: "TorusPoint", tol: float) -> bool:
        def circ(a, b):
            d = abs(a - b) % 1.0
            return min(d, 1.0 - d)
        return circ(self.x1, other.x1) <= tol and circ(self.x2, other.x2) <= tol


@dataclass(frozen=True)
class Character:
    """Torus character x -> e(b1 x1 + b2 x2); b2 != 0 is the nontrivial regime."""

    b1: int
    b2: int


@dataclass(eq=False)
class SkewFlow:
    """Triangular skew product with zero entropy (ad = +-1)."""

    a: int
    c: int
    d: int
    alpha: AlphaSpec
    h: AnalyticSeries

    def __post_init__(self):
        if self.a * self.d not in (1, -1):
            raise DomainError(f"need ad = +-1, got a={self.a}, d={self.d}")
        if not self.h.is_real:
            raise DomainError("skew product needs a real-valued h")

    @property
    def normalized(self) -> bool:
        return self.a == 1 and self.d == 1

    @cached_property
    def alpha_float(self) -> float:
        """alpha mod 1 as a double, read once per flow by `skew_step`."""
        return self.alpha.frac_float(1)


def skew_step(flow: SkewFlow, p: TorusPoint) -> TorusPoint:
    """One application of T; h is evaluated at the incoming x1."""
    hval = eval_series(flow.h, p.x1).real
    x1 = (flow.a * p.x1 + flow.alpha_float) % 1.0
    x2 = (flow.c * p.x1 + flow.d * p.x2 + hval) % 1.0
    return TorusPoint(x1, x2)


def skew_orbit_iter(flow: SkewFlow, p: TorusPoint, n: int) -> TorusPoint:
    for _ in range(n):
        p = skew_step(flow, p)
    return p


def skew_orbit_closed(flow: SkewFlow, p: TorusPoint, n: int) -> TorusPoint:
    """Orbit at time n from the closed form (normalized flows only)."""
    if n < 0:
        raise DomainError("orbit time must be >= 0")
    if not flow.normalized:
        raise DomainError("closed orbit form assumes the normalized case a = d = 1; iterate instead")
    if n == 0:
        return p
    alpha = flow.alpha
    x1f = Fraction(p.x1)
    y1 = float((x1f + alpha.frac_fraction(n)) % 1)

    quad = alpha.frac_fraction(flow.c * (n * (n - 1) // 2))
    lin = (flow.c * n * x1f) % 1
    bsum = birkhoff_sum_direct(flow.h, p.x1, alpha, n)
    y2 = (float(quad) + float(lin) + p.x2 + bsum.real) % 1.0
    return TorusPoint(y1, y2)


def character_phase(flow: SkewFlow, p: TorusPoint, b: Character, n: int) -> float:
    """<b, orbit(n)> mod 1.

    With b2 = 0 the phase depends only on the rotation factor and no h
    evaluation is performed.
    """
    if n < 0:
        raise DomainError("orbit time must be >= 0")
    if not flow.normalized:
        raise DomainError("character phases use the normalized closed form")
    alpha = flow.alpha
    x1f = Fraction(p.x1)
    if b.b2 == 0:
        return float((b.b1 * (x1f + alpha.frac_fraction(n))) % 1)
    # P(n) = b1 (x1 + n alpha) + b2 (c n(n-1)/2 alpha + c n x1 + x2)
    poly_part = (b.b1 * x1f
                 + alpha.frac_fraction(b.b1 * n + b.b2 * flow.c * (n * (n - 1) // 2))
                 + b.b2 * flow.c * n * x1f
                 + b.b2 * Fraction(p.x2)) % 1
    bsum = birkhoff_sum_direct(flow.h, p.x1, alpha, n)
    return (float(poly_part) + b.b2 * bsum.real) % 1.0


# ---------------------------------------------------------------------------
# Affine maps with quasi-unipotent linear part


def _mat_det(A) -> int:
    # Bareiss fraction-free elimination, exact over Z.
    m = len(A)
    M = [list(map(int, row)) for row in A]
    sign = 1
    prev = 1
    for k in range(m - 1):
        if M[k][k] == 0:
            for r in range(k + 1, m):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[m - 1][m - 1]


@dataclass(eq=False)
class UnipotentAffine:
    """Affine toral map x -> Wx + b with quasi-unipotent W in GL_m(Z).

    nu is the least exponent with W^nu = I + N, N nilpotent of order k
    (N^{k+1} = 0); both are computed and validated at construction.
    """

    matrix: tuple
    translation: tuple
    nu: int = field(init=False)
    nilpotent: tuple = field(init=False)
    nilpotency_order: int = field(init=False)

    def __post_init__(self):
        if any(e != int(e) for row in self.matrix for e in row):
            raise DomainError("matrix entries must be integers")
        W = [list(map(int, row)) for row in self.matrix]
        m = len(W)
        if m == 0 or any(len(row) != m for row in W):
            raise DomainError("matrix must be square and non-empty")
        if len(self.translation) != m:
            raise DomainError("translation dimension mismatch")
        if _mat_det(W) not in (1, -1):
            raise DomainError("matrix must lie in GL_m(Z) (det = +-1)")
        self.matrix = tuple(tuple(row) for row in W)
        self.translation = tuple(Fraction(t) for t in self.translation)

        found = quasi_unipotent(self.matrix)
        if found is None:
            raise DomainError("matrix is not quasi-unipotent (positive entropy)")
        self.nu, self.nilpotent = found
        k, Npow = 0, self.nilpotent
        while any(map(any, Npow)):
            k += 1
            Npow = mat_mul(Npow, self.nilpotent)
        self.nilpotency_order = k

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def step(self, x: Sequence[Fraction]) -> list[Fraction]:
        v = mat_vec(self.matrix, [Fraction(t) for t in x])
        return [(v[i] + self.translation[i]) % 1 for i in range(self.dimension)]

    def orbit_point(self, x: Sequence[Fraction], n: int) -> list[Fraction]:
        p = [Fraction(t) for t in x]
        for _ in range(n):
            p = self.step(p)
        return p


@dataclass(frozen=True)
class PolyPhase:
    """Real phase phi(n) on n = residue (mod nu); exact Fraction coefficients, low to high."""

    coeffs: tuple
    nu: int = 1
    residue: int = 0

    def __post_init__(self):
        if not 0 <= self.residue < self.nu:
            raise DomainError("need 0 <= residue < nu")
        if len(self.coeffs) < 1:
            raise DomainError("need at least a constant coefficient")
        if any(isinstance(c, float) and not math.isfinite(c) for c in self.coeffs):
            raise DomainError(f"coefficients must be finite, got {self.coeffs}")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def as_poly(self) -> Poly:
        return Poly(self.coeffs)

    def value_fraction(self, n: int) -> Fraction:
        if n % self.nu != self.residue:
            raise DomainError(f"n={n} is not {self.residue} mod {self.nu}")
        return self.as_poly().eval(n)

    def value_mod1(self, n: int) -> float:
        return float(self.value_fraction(n) % 1)


def unipotent_phase_poly(aff: UnipotentAffine, x: Sequence, v: Sequence[int],
                         l: int) -> PolyPhase:
    """Exact polynomial phase of the character e(<v, .>) along the orbit.

    The orbit is the affine recursion x_n = W x_{n-1} + b, and with
    W^nu unipotent `affine_orbit_polys` writes <v, x_n> at n = nu t + l as a
    polynomial in t, rewritten here in n.  Coefficients are exact Fractions
    (floats are converted exactly).
    """
    if not 0 <= l < aff.nu:
        raise DomainError(f"residue l={l} outside [0, {aff.nu})")
    if len(x) != aff.dimension or len(v) != aff.dimension:
        raise DomainError(f"the map acts on {aff.dimension} coordinates; the point has "
                          f"{len(x)} and the character {len(v)}")
    (poly,) = affine_orbit_polys(aff.matrix, aff.translation, [Fraction(t) for t in x],
                                 aff.nu, l, rows=([int(c) for c in v],))
    # t = (n - l)/nu
    poly_n = poly.compose_linear(Fraction(1, aff.nu), Fraction(-l, aff.nu))
    return PolyPhase(poly_n.coeffs or (Fraction(0),), nu=aff.nu, residue=l)


def character_value(aff: UnipotentAffine, x: Sequence, v: Sequence[int], n: int) -> complex:
    """psi(T^n x) computed by exact matrix iteration (oracle path)."""
    p = aff.orbit_point(x, n)
    phase = sum(Fraction(int(vi)) * pi for vi, pi in zip(v, p)) % 1
    return complex(math.cos(2 * math.pi * float(phase)),
                   math.sin(2 * math.pi * float(phase)))
