"""Skew products: closed orbit vs iteration; affine maps: phase polynomials."""

import cmath
import itertools
from fractions import Fraction

import numpy as np
import pytest

from mobiusflow import flows
from mobiusflow.analytic import AnalyticSeries
from mobiusflow.cfrac import AlphaSpec
from mobiusflow.errors import DomainError
from mobiusflow.flows import (Character, SkewFlow, TorusPoint, UnipotentAffine,
                              character_phase, character_value, skew_orbit_closed,
                              skew_orbit_iter, skew_step, unipotent_phase_poly)
from mobiusflow.nilflow import HeisenbergAffine, HeisenbergElement, make_automorphism

RNG = np.random.default_rng(11)
SQRT2 = AlphaSpec.sqrt2_minus_1()
EMPTY = AnalyticSeries.from_entries([], tau=1.0)


def random_flow(rng) -> tuple[SkewFlow, TorusPoint]:
    c = int(rng.integers(-5, 6))
    tau = float(rng.uniform(1.0, 3.0))
    entries = []
    for m in range(1, 6):
        z = complex(rng.normal(), rng.normal()) * np.exp(-tau * m) * 0.3
        entries += [(m, z), (-m, z.conjugate())]
    h = AnalyticSeries.from_entries(entries, tau=tau)
    flow = SkewFlow(1, c, 1, SQRT2, h)
    return flow, TorusPoint(float(rng.random()), float(rng.random()))


def test_zero_entropy_guard():
    with pytest.raises(DomainError):
        SkewFlow(2, 0, 1, SQRT2, EMPTY)
    with pytest.raises(DomainError):
        SkewFlow(1, 0, 2, SQRT2, EMPTY)
    SkewFlow(-1, 3, -1, SQRT2, EMPTY)   # ad = 1 variant is legal


def test_step_degenerate_rotation():
    flow = SkewFlow(1, 0, 1, SQRT2, EMPTY)
    p = skew_step(flow, TorusPoint(0.25, 0.6))
    assert p.x1 == pytest.approx((0.25 + float(SQRT2.frac_fraction(1))) % 1)
    assert p.x2 == pytest.approx(0.6)


def test_step_at_origin():
    flow = SkewFlow(1, 1, 1, AlphaSpec.rational(1, 4), EMPTY)
    p = skew_step(flow, TorusPoint(0.0, 0.0))
    assert (p.x1, p.x2) == (0.25, 0.0)


def test_closed_orbit_trivials():
    flow, p = random_flow(RNG)
    assert skew_orbit_closed(flow, p, 0) == p
    got = skew_orbit_closed(flow, p, 1)
    want = skew_step(flow, p)
    assert got.close_to(want, 1e-11)


def test_closed_orbit_matches_iteration():
    for _ in range(5):
        flow, p = random_flow(RNG)
        q_iter = skew_orbit_iter(flow, p, 2000)
        assert skew_orbit_closed(flow, p, 2000).close_to(q_iter, 1e-9)


def test_closed_orbit_requires_normalized():
    flow = SkewFlow(-1, 1, -1, SQRT2, EMPTY)
    with pytest.raises(DomainError):
        skew_orbit_closed(flow, TorusPoint(0.1, 0.2), 5)
    # the general iteration still runs
    skew_orbit_iter(flow, TorusPoint(0.1, 0.2), 5)


def test_semigroup_property():
    flow, p = random_flow(RNG)
    for n, m in ((10, 7), (100, 55), (321, 123)):
        whole = skew_orbit_closed(flow, p, n + m)
        part = skew_orbit_closed(flow, skew_orbit_closed(flow, p, n), m)
        assert whole.close_to(part, 1e-9)


def test_distality_vertical_offset_preserved():
    """Points differing only in x2 keep the exact same x2 difference."""
    flow, p = random_flow(RNG)
    offset = 0.3125  # exact binary fraction
    p2 = TorusPoint(p.x1, (p.x2 + offset) % 1.0)
    a, b = p, p2
    for _ in range(200):
        a, b = skew_step(flow, a), skew_step(flow, b)
        assert (b.x2 - a.x2) % 1.0 == pytest.approx(offset, abs=1e-12)


def test_character_phase_trivials():
    flow, p = random_flow(RNG)
    assert character_phase(flow, p, Character(0, 0), 123) == 0.0
    got = character_phase(flow, p, Character(1, 0), 123)
    want = (p.x1 + float(flow.alpha.frac_fraction(123))) % 1.0
    assert got == pytest.approx(want % 1.0, abs=1e-12)


def test_character_phase_matches_orbit():
    flow, p = random_flow(RNG)
    b = Character(2, 3)
    for n in RNG.integers(1, 2000, size=12):
        n = int(n)
        q = skew_orbit_closed(flow, p, n)
        lhs = cmath.exp(2j * cmath.pi * character_phase(flow, p, b, n))
        rhs = cmath.exp(2j * cmath.pi * ((b.b1 * q.x1 + b.b2 * q.x2) % 1.0))
        assert abs(lhs - rhs) < 1e-8


def test_b2_zero_never_evaluates_h(monkeypatch):
    flow, p = random_flow(RNG)
    calls = {"n": 0}

    def poisoned(*a, **k):
        calls["n"] += 1
        raise AssertionError("h must not be evaluated when b2 = 0")
    monkeypatch.setattr(flows, "birkhoff_sum_direct", poisoned)
    character_phase(flow, p, Character(5, 0), 77)
    assert calls["n"] == 0
    # the patch reaches the closed form: with b2 != 0 it is called
    with pytest.raises(AssertionError, match="must not be evaluated"):
        character_phase(flow, p, Character(5, 1), 77)
    assert calls["n"] == 1


# ---------------------------------------------------------------------------
# Affine maps


def test_identity_matrix_constant_phase():
    aff = UnipotentAffine(matrix=((1, 0), (0, 1)), translation=(0, 0))
    pp = unipotent_phase_poly(aff, (Fraction(3, 7), Fraction(1, 5)), (2, 1), 0)
    assert pp.degree == 0
    assert pp.value_fraction(4) == Fraction(2) * Fraction(3, 7) + Fraction(1, 5)


def test_shear_linear_phase():
    aff = UnipotentAffine(matrix=((1, 0), (1, 1)), translation=(0, 0))
    x = (Fraction(3, 7), Fraction(1, 5))
    pp = unipotent_phase_poly(aff, x, (0, 1), 0)
    assert pp.coeffs == (Fraction(1, 5), Fraction(3, 7))  # x2 + n x1


def test_phase_poly_vs_matrix_power_oracle():
    mats = [((1, 1, 0), (0, 1, 1), (0, 0, 1)),
            ((1, 0, 0), (2, 1, 0), (1, 3, 1)),
            ((1, -1, 2), (0, 1, 1), (0, 0, 1))]
    for W in mats:
        aff = UnipotentAffine(matrix=W, translation=(0, 0, 0))
        x = tuple(Fraction(int(a), int(b)) for a, b in
                  zip(RNG.integers(0, 50, 3), RNG.integers(1, 50, 3)))
        v = tuple(int(t) for t in RNG.integers(-4, 5, 3))
        pp = unipotent_phase_poly(aff, x, v, 0)
        for n in (0, 1, 7, 103, 1000):
            lhs = cmath.exp(2j * cmath.pi * pp.value_mod1(n))
            rhs = character_value(aff, x, v, n)
            assert abs(lhs - rhs) < 1e-10, (W, n)


def test_phase_poly_affine_translation():
    aff = UnipotentAffine(matrix=((1, 1), (0, 1)),
                          translation=(Fraction(1, 3), Fraction(2, 7)))
    x = (Fraction(1, 11), Fraction(5, 13))
    v = (1, -2)
    pp = unipotent_phase_poly(aff, x, v, 0)
    for n in (0, 1, 2, 9, 50):
        lhs = cmath.exp(2j * cmath.pi * pp.value_mod1(n))
        rhs = character_value(aff, x, v, n)
        assert abs(lhs - rhs) < 1e-10


def test_phase_poly_residue_classes():
    aff = UnipotentAffine(matrix=((0, -1), (1, 0)),
                          translation=(Fraction(1, 3), Fraction(1, 7)))
    assert aff.nu == 4
    x = (Fraction(2, 9), Fraction(5, 11))
    v = (1, 2)
    for l in range(4):
        pp = unipotent_phase_poly(aff, x, v, l)
        for n in (l, l + 4, l + 20):
            lhs = cmath.exp(2j * cmath.pi * pp.value_mod1(n))
            rhs = character_value(aff, x, v, n)
            assert abs(lhs - rhs) < 1e-10
        with pytest.raises(DomainError):
            pp.value_fraction(l + 1)


def test_phase_poly_degree_bound():
    """deg phi <= nilpotency order of the linearized (doubled) map."""
    aff = UnipotentAffine(matrix=((1, 1, 0), (0, 1, 1), (0, 0, 1)),
                          translation=(Fraction(1, 3), 0, 0))
    # Wtilde (x, b) = (Wx + b, b) on T^6
    m = aff.dimension
    eye = [[int(i == j) for j in range(m)] for i in range(m)]
    wtilde = [list(aff.matrix[i]) + eye[i] for i in range(m)] + [[0] * m + row for row in eye]
    doubled = UnipotentAffine(matrix=tuple(map(tuple, wtilde)), translation=(0,) * 6)
    x = (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))
    pp = unipotent_phase_poly(aff, x, (1, 1, 1), 0)
    assert pp.degree <= doubled.nilpotency_order


def test_phase_poly_checks_dimensions():
    """A point or character of the wrong length is refused, not truncated by zip."""
    aff = UnipotentAffine(matrix=((1, 1), (0, 1)), translation=(Fraction(1, 3), 0))
    for x in ((0.1,), (0.1, 0, 5)):
        with pytest.raises(DomainError, match="2 coordinates"):
            unipotent_phase_poly(aff, x, (0, 1), 0)
    with pytest.raises(DomainError, match="2 coordinates"):
        unipotent_phase_poly(aff, (0.1, 0.2), (0, 1, 1), 0)


def test_matrix_must_be_nonempty_and_integral():
    for W in (((1, 1.5), (0, 1)), ((1, Fraction(1, 2)), (0, 1))):
        with pytest.raises(DomainError, match="integers"):
            UnipotentAffine(matrix=W, translation=(0, 0))
    with pytest.raises(DomainError, match="non-empty"):
        UnipotentAffine(matrix=(), translation=())


def test_entropy_guard_hyperbolic():
    with pytest.raises(DomainError, match="quasi-unipotent"):
        UnipotentAffine(matrix=((2, 1), (1, 1)), translation=(0, 0))


def test_determinant_guard():
    with pytest.raises(DomainError, match="GL_m"):
        UnipotentAffine(matrix=((2, 0), (0, 1)), translation=(0, 0))


def test_quasi_unipotence_sweep_over_gl2():
    """Every S in GL2(Z) with entries in [-2, 2]: the affine map of S and the
    Heisenberg automorphism of S are accepted exactly when S is elliptic or
    parabolic (det 1, |tr| <= 2) or a reflection (det -1, tr 0), and nu is
    the least power with S^nu - I nilpotent."""
    def nu_or_none(build):
        try:
            return build().nu
        except DomainError as exc:
            assert "quasi-unipotent" in str(exc)
            return None

    def nilpotent_power(S, j):
        M = np.linalg.matrix_power(np.array(S, dtype=np.int64), j) - np.eye(2, dtype=np.int64)
        return not (M @ M).any()

    count = 0
    for s in itertools.product(range(-2, 3), repeat=4):
        S = (s[:2], s[2:])
        det, tr = s[0] * s[3] - s[1] * s[2], s[0] + s[3]
        if det not in (1, -1):
            continue
        count += 1
        nus = [nu_or_none(lambda: UnipotentAffine(matrix=S, translation=(0, 0))),
               nu_or_none(lambda: HeisenbergAffine(HeisenbergElement.identity(),
                                                   make_automorphism(S)))]
        if not (det == 1 and abs(tr) <= 2 or det == -1 and tr == 0):
            assert nus == [None, None], S
            continue
        nu = nus[0]
        assert nu is not None and nus == [nu, nu], (S, nus)
        assert nilpotent_power(S, nu), S
        assert not any(nilpotent_power(S, j) for j in range(1, nu)), S
    assert count == 104


NON_FINITE = (float("nan"), float("inf"), -float("inf"))


@pytest.mark.parametrize("v", NON_FINITE)
def test_torus_point_refuses_non_finite_coordinates(v):
    """TorusPoint(nan, 0) used to be accepted with x1 = nan."""
    for xs in ((v, 0.0), (0.0, v)):
        with pytest.raises(DomainError, match="finite"):
            TorusPoint(*xs)


@pytest.mark.parametrize("v", NON_FINITE)
def test_affine_matrix_refuses_non_finite_entries(v):
    """A NaN entry used to raise ValueError, and an infinite one OverflowError."""
    with pytest.raises(DomainError, match="integers"):
        UnipotentAffine(matrix=((1, v), (0, 1)), translation=(0, 0))


@pytest.mark.parametrize("v", NON_FINITE)
def test_affine_translation_and_point_refuse_non_finite_coordinates(v):
    """Fraction() of NaN or an infinity used to escape as ValueError or OverflowError."""
    with pytest.raises(DomainError, match="translation coordinates must be finite"):
        UnipotentAffine(matrix=((1, 1), (0, 1)), translation=(v, 0))
    aff = UnipotentAffine(matrix=((1, 1), (0, 1)), translation=(Fraction(1, 3), 0))
    for call in (lambda x: unipotent_phase_poly(aff, x, (0, 1), 0),
                 lambda x: aff.orbit_point(x, 3), aff.step):
        with pytest.raises(DomainError, match="point coordinates must be finite"):
            call((0.25, v))
