"""Affine flows on the 3-dimensional Heisenberg nilmanifold.

Model: G = upper unitriangular 3x3 real matrices with Lie algebra basis
X1 = E12, X2 = E23, X3 = E13, so [X1, X2] = X3 and X3 is central.  Points
are held in coordinates of the second kind, g = exp(v1 X1) exp(v2 X2)
exp(v3 X3), where the group law is polynomial:

    (v1, v2, v3) * (w1, w2, w3) = (v1+w1, v2+w2, v3+w3 - w1 v2)

and the lattice of integer-coordinate points is precisely the integer
matrices.  Coordinates of the first kind (single exponential) differ by the
degree-2 maps u3 = v3 + v1 v2 / 2 and back.

An affine map T = (left translation by g) o sigma with sigma an
automorphism fixing the lattice is iterated exactly over rationals.  In
first-kind coordinates the Baker-Campbell-Hausdorff series stops at step 2,
so T lifts to the affine map u -> (I + ad_gamma / 2) dsigma u + gamma with
gamma = log g.  When dsigma is quasi-unipotent, so is that map, and the
time-n point is a finite product b_1^{h_1(n)} ... b_k^{h_k(n)} with k
independent of n: the factors are generator exponentials and the exponents
are monomials whose exact rational coefficients come from binomial
expansion of the unipotent part; `PolyOrbitRep` reads them off the
second-kind coordinate polynomials Z_i(n), which is all it stores.  This
form is what the Mobius correlator evaluates (random access in n, no orbit
recursion).

Fundamental domain: v1, v2, v3 in [0, 1), reduced in the order v1, v2 then
v3 (the central correction is applied last).  Character observables
e(p v1 + q v2) are lattice-invariant; a central factor e(r v3) is evaluated
on the canonical representative, where the phase is the bracket polynomial
frac(p Z1 + q Z2 + r (Z3 + floor(Z1) Z2)) of the orbit coordinates Z_i(n).
The correlator walks each residue class n = nu t + l in t, as the affine
one does, with `_residue_phase`: the one exact phase source
`correlate._Mod1Poly` of the bracket (Z1, Z2, r), called through
`correlate.poly_mod1_array` and rounded once to float64 (see there for its
routes and dtypes).  Every name of `correlate` is looked up at call time,
so `correlate` alone decides how a sum runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np  # noqa: F401 (bench/spans.py wraps nilflow.np.exp)

from . import correlate
from .analytic import e2pi
from .errors import DomainError
from .flows import integer_frequencies
from .mobius import MobiusTable
from .polyutil import affine_orbit_polys, mat_vec, quasi_unipotent


@dataclass(frozen=True)
class HeisenbergElement:
    """Group element in coordinates of the second kind (exact rationals)."""

    v1: Fraction
    v2: Fraction
    v3: Fraction

    def __init__(self, v1, v2, v3):
        for name, v in (("v1", v1), ("v2", v2), ("v3", v3)):
            object.__setattr__(self, name, Fraction(v))

    @classmethod
    def identity(cls) -> "HeisenbergElement":
        return cls(0, 0, 0)

    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.v1, self.v2, self.v3)

    def is_lattice(self) -> bool:
        return all(c.denominator == 1 for c in self.coords())

    def floats(self) -> tuple[float, float, float]:
        return (float(self.v1), float(self.v2), float(self.v3))


def heis_mul(a: HeisenbergElement, b: HeisenbergElement) -> HeisenbergElement:
    """Product ab in second-kind coordinates (polynomial group law)."""
    return HeisenbergElement(a.v1 + b.v1, a.v2 + b.v2, a.v3 + b.v3 - b.v1 * a.v2)


def heis_inv(a: HeisenbergElement) -> HeisenbergElement:
    return HeisenbergElement(-a.v1, -a.v2, -a.v3 - a.v1 * a.v2)


def coord_first_from_second(v: Sequence) -> tuple[Fraction, Fraction, Fraction]:
    """psi_exp o psi^{-1}: (v1, v2, v3) -> (v1, v2, v3 + v1 v2 / 2)."""
    v1, v2, v3 = (Fraction(t) for t in v)
    return (v1, v2, v3 + v1 * v2 / 2)


def coord_second_from_first(u: Sequence) -> tuple[Fraction, Fraction, Fraction]:
    """psi o psi_exp^{-1}: (u1, u2, u3) -> (u1, u2, u3 - u1 u2 / 2)."""
    u1, u2, u3 = (Fraction(t) for t in u)
    return (u1, u2, u3 - u1 * u2 / 2)


def reduce_to_fundamental(x: HeisenbergElement) -> HeisenbergElement:
    """Canonical representative of x Gamma with coordinates in [0, 1).

    Right-multiplies by a lattice element; v1 and v2 are reduced first, the
    central coordinate picks up the integer shear correction and is reduced
    last.  Idempotent, and the result differs from x by a lattice element.
    """
    g1, g2 = -(x.v1 // 1), -(x.v2 // 1)
    v3 = x.v3 - g1 * x.v2
    return HeisenbergElement(x.v1 + g1, x.v2 + g2, v3 - v3 // 1)


# ---------------------------------------------------------------------------
# Automorphisms and affine maps


def _mat_of_fractions(rows) -> tuple:
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def _inv3(A):
    a, b, c = A[0]
    d, e, f = A[1]
    g, h, i = A[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if det == 0:
        raise DomainError("automorphism differential is singular")
    cof = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return tuple(tuple(cof[i][j] / det for j in range(3)) for i in range(3))


def make_automorphism(S: Sequence[Sequence[int]], e: int = 0, f: int = 0):
    """Differential matrix for the lattice automorphism induced by S in GL2(Z).

    The abelianized action is S; the central direction scales by det S, and
    the mixed row carries the half-integer corrections that keep the integer
    lattice invariant: w1 = e + s11 s21 / 2, w2 = f + s12 s22 / 2.
    """
    (s11, s12), (s21, s22) = ((int(S[0][0]), int(S[0][1])),
                              (int(S[1][0]), int(S[1][1])))
    det = s11 * s22 - s12 * s21
    if det not in (1, -1):
        raise DomainError("S must lie in GL2(Z)")
    w1 = Fraction(e) + Fraction(s11 * s21, 2)
    w2 = Fraction(f) + Fraction(s12 * s22, 2)
    return ((Fraction(s11), Fraction(s12), Fraction(0)),
            (Fraction(s21), Fraction(s22), Fraction(0)),
            (w1, w2, Fraction(det)))


@dataclass(eq=False)
class HeisenbergAffine:
    """T(x Gamma) = g sigma(x) Gamma with sigma(exp X) = exp(dsigma X).

    dsigma is given in the basis (X1, X2, X3); rational entries are allowed
    (lattice-preserving shears need half-integer central corrections).
    Validated: bracket compatibility, lattice invariance both ways, and
    quasi-unipotence (zero entropy).
    """

    g: HeisenbergElement
    dsigma: tuple
    nu: int = field(init=False)
    nilpotent: tuple = field(init=False)

    def __post_init__(self):
        A = _mat_of_fractions(self.dsigma)
        if len(A) != 3 or any(len(r) != 3 for r in A):
            raise DomainError("dsigma must be 3x3")
        det2 = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        if A[0][2] != 0 or A[1][2] != 0 or A[2][2] != det2:
            raise DomainError("dsigma must fix the center: column 3 = (0, 0, det of upper block)")
        if det2 not in (1, -1):
            raise DomainError("abelianized automorphism must lie in GL2(Z)")
        self.dsigma = A
        self.g = self.g if isinstance(self.g, HeisenbergElement) else HeisenbergElement(*self.g)

        Ainv = _inv3(A)
        for M, name in ((A, "sigma"), (Ainv, "sigma^-1")):
            for gen in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                img = coord_second_from_first(mat_vec(M, coord_first_from_second(gen)))
                if any(c.denominator != 1 for c in img):
                    raise DomainError(f"{name} does not preserve the integer lattice")

        found = quasi_unipotent(A)
        if found is None:
            raise DomainError("dsigma is not quasi-unipotent (positive entropy)")
        self.nu, self.nilpotent = found

    def sigma(self, x: HeisenbergElement) -> HeisenbergElement:
        u = coord_first_from_second(x.coords())
        return HeisenbergElement(*coord_second_from_first(mat_vec(self.dsigma, u)))


def nil_step(T: HeisenbergAffine, x: HeisenbergElement) -> HeisenbergElement:
    """One application: the canonical representative of g sigma(x) Gamma."""
    return reduce_to_fundamental(heis_mul(T.g, T.sigma(x)))


def nil_orbit_iter(T: HeisenbergAffine, x: HeisenbergElement, n: int) -> HeisenbergElement:
    p = reduce_to_fundamental(x)
    for _ in range(n):
        p = nil_step(T, p)
    return p


# ---------------------------------------------------------------------------
# Polynomial orbit representation


@dataclass(frozen=True)
class PolyOrbitRep:
    """T^n(x Gamma) = b_1^{h_1(n)} ... b_k^{h_k(n)} Gamma on n = l (mod nu).

    Stored as the second-kind coordinate polynomials Z_axis(n); a factor
    (axis, degree, c) means exp(c X_axis)^(n^degree).  Every X1 factor comes
    before the first X2 factor, so the group law's term -w1 v2 is always 0
    and the product is (Z1(n), Z2(n), Z3(n)).  k never depends on n.
    """

    nu: int
    residue: int
    coord_polys: tuple

    @property
    def factors(self) -> tuple:
        return tuple((axis, degree, c) for axis, P in enumerate(self.coord_polys)
                     for degree, c in enumerate(P.coeffs) if c)

    @property
    def k(self) -> int:
        return len(self.factors)

    def evaluate(self, n: int) -> HeisenbergElement:
        """Unreduced group element at time n (n = residue mod nu, n >= 0)."""
        if n < 0 or n % self.nu != self.residue:
            raise DomainError(f"n={n} is not {self.residue} (mod {self.nu})")
        return HeisenbergElement(*(Z.eval(n) for Z in self.coord_polys))

    def evaluate_reduced(self, n: int) -> HeisenbergElement:
        return reduce_to_fundamental(self.evaluate(n))


def compile_poly_orbit(T: HeisenbergAffine, x: HeisenbergElement, l: int) -> PolyOrbitRep:
    """Exact polynomial form of the orbit on the residue class n = l (mod nu).

    In first-kind coordinates u = log x the Baker-Campbell-Hausdorff series
    stops at log(e^X e^Y) = X + Y + [X, Y]/2, so the orbit x_n = g sigma(x_{n-1})
    is the affine recursion u_n = M u_{n-1} + gamma with gamma = log g and
    M = (I + ad_gamma / 2) dsigma.  M has the diagonal blocks of dsigma, so M^nu
    is unipotent and `affine_orbit_polys` writes u_n as polynomials in t on
    n = nu t + l.  The central coordinate goes back to the second kind,
    Z3 = u3 - u1 u2 / 2, and all three are rewritten in n.  Everything is
    Fraction-exact, so the equality with step-by-step iteration is literal
    (acceptance checks use ==).
    """
    if not 0 <= l < T.nu:
        raise DomainError(f"residue l={l} outside [0, {T.nu})")
    nu, A = T.nu, T.dsigma
    gamma = coord_first_from_second(T.g.coords())
    # [gamma, w] = (gamma1 w2 - gamma2 w1) X3: half of it joins the third row
    M = A[:2] + (tuple(a3 + (gamma[0] * a2 - gamma[1] * a1) / 2 for a1, a2, a3 in zip(*A)),)
    u1, u2, u3 = affine_orbit_polys(M, gamma, coord_first_from_second(x.coords()), nu, l)
    Zn = tuple(P.compose_linear(Fraction(1, nu), Fraction(-l, nu))
               for P in (u1, u2, u3 - u1 * u2.scale(Fraction(1, 2))))
    return PolyOrbitRep(nu=nu, residue=l, coord_polys=Zn)


# ---------------------------------------------------------------------------
# Observables and the correlator


@dataclass(frozen=True)
class NilObservable:
    """Finite sum of character terms w * e(p v1 + q v2 + r v3).

    Horizontal characters (r = 0) are genuine functions on the quotient;
    central terms are evaluated on the canonical representative.
    """

    terms: tuple

    @classmethod
    def character(cls, p: int, q: int, r: int = 0) -> "NilObservable":
        return cls(terms=((1 + 0j, *integer_frequencies((p, q, r))),))

    @classmethod
    def from_json(cls, spec: dict) -> "NilObservable":
        p, q = spec.get("horizontal", (0, 0))
        r = spec.get("central", 0)
        return cls.character(p, q, r)

    def value(self, x: HeisenbergElement) -> complex:
        v1, v2, v3 = reduce_to_fundamental(x).floats()
        return sum((w * e2pi(p * v1 + q * v2 + r * v3) for w, p, q, r in self.terms), 0j)


def _residue_phase(rep: PolyOrbitRep, p: int, q: int, r: int):
    """frac(p Z1 + q Z2 + r (Z3 + floor(Z1) Z2)) at n = nu t + l, as a `_Mod1Poly` in t."""
    Z1, Z2, Z3 = (Z.compose_linear(rep.nu, rep.residue) for Z in rep.coord_polys)
    return correlate._Mod1Poly(Z1.scale(p) + Z2.scale(q) + Z3.scale(r), (Z1, Z2, r))


def correlate_nil(T: HeisenbergAffine, x: HeisenbergElement, f: NilObservable,
                  table: MobiusTable, checkpoints: Sequence[int],
                  threads: int = 1) -> correlate.CorrelationSeries:
    """S(N_i) = sum_{n<=N_i} mu(n) f(T^n x Gamma) via the polynomial orbit form.

    Every term's phase is an exact rational from integer residues, central
    terms included, rounded once to float64.  Each term is one
    `_weighted_sums` pass scaled by its weight, so `threads` is honoured,
    sums are bit-identical for any thread count, and memory beyond the mu
    table is O(CHUNK), or O(P) on the class route.  The metadata records
    each term's `route` (joined by commas) and the lcm of their periods P,
    which are finite: every phase here is rational (see `correlate.sum_route`).
    Its `sum_bound` on |S(N)|, N the last checkpoint, is sum |w| times
    `correlate.sum_bound` at two more pieces per term, which cover the
    rounding of the products w S_term and of their additions.  The series'
    `sup_norm` is sum |w| >= |f|, so its trivial bound is sum |w| N.
    """
    checkpoints, N = correlate._checked_checkpoints(checkpoints, table.limit)
    reps = [compile_poly_orbit(T, x, l) for l in range(T.nu)]

    sums, routes, periods = [0j] * len(checkpoints), [], []
    for w, p, q, r in f.terms:
        phase_chunk = correlate._class_phase_chunk([_residue_phase(rep, p, q, r) for rep in reps])
        term = correlate._weighted_sums(phase_chunk, table.mu_array()[1:], N, checkpoints,
                                        threads)
        sums = [s + w * t for s, t in zip(sums, term)]
        route, period = correlate.sum_route(phase_chunk, N, checkpoints)
        routes.append(route)
        periods.append(period)
    pieces = len(correlate._pieces(N, checkpoints)) + 2 * len(f.terms)
    sup_norm = sum(abs(w) for w, *_ in f.terms)
    meta = {"flow": f"heisenberg(nu={T.nu})", "observable": str(f.terms),
            "threads": threads, "N": N, "route": ",".join(routes),
            "period": math.lcm(*periods), "sum_bound": sup_norm * correlate.sum_bound(N, pieces)}
    return correlate.CorrelationSeries(checkpoints=tuple(checkpoints), sums=tuple(sums),
                                       metadata=meta, sup_norm=sup_norm)
