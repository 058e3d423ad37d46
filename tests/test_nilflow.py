"""Heisenberg group calculus and the polynomial orbit representation.

All algebra here is exact over Fractions; equality assertions are literal.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusflow.errors import DomainError
from mobiusflow.correlate import INT64_MODULUS_MAX, mobius_correlate
from mobiusflow.flows import UnipotentAffine
from mobiusflow.mobius import mobius_sieve, mertens
from mobiusflow.nilflow import (HeisenbergAffine, HeisenbergElement,
                                NilObservable, _residue_phase, compile_poly_orbit,
                                coord_first_from_second, coord_second_from_first,
                                correlate_nil, heis_inv, heis_mul, make_automorphism,
                                nil_orbit_iter, nil_step, reduce_to_fundamental)
from test_golden import HEIS, _heisenberg

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def elements_st():
    return st.builds(HeisenbergElement, fractions_st, fractions_st, fractions_st)


QU_BLOCKS = [((1, 0), (1, 1)), ((1, 2), (0, 1)), ((0, -1), (1, 0)),
             ((-1, 0), (0, -1)), ((0, 1), (1, 0)), ((1, 0), (0, 1))]


def test_identity_and_central_discrepancy():
    a = HeisenbergElement(1, 0, 0)
    b = HeisenbergElement(0, 1, 0)
    e = HeisenbergElement.identity()
    assert heis_mul(a, e).coords() == a.coords()
    assert heis_mul(e, a).coords() == a.coords()
    ab, ba = heis_mul(a, b), heis_mul(b, a)
    # exp(X1)exp(X2) = exp(X2)exp(X1) exp(X3): commutators are central
    assert heis_mul(ba, HeisenbergElement(0, 0, 1)).coords() == ab.coords()


@settings(max_examples=120, deadline=None)
@given(elements_st(), elements_st(), elements_st())
def test_associativity_exact(x, y, z):
    assert heis_mul(heis_mul(x, y), z).coords() == heis_mul(x, heis_mul(y, z)).coords()


@settings(max_examples=60, deadline=None)
@given(elements_st())
def test_inverse_exact(x):
    assert heis_mul(x, heis_inv(x)).coords() == (0, 0, 0)
    assert heis_mul(heis_inv(x), x).coords() == (0, 0, 0)


def test_coordinate_maps_trivials():
    assert coord_first_from_second((0, 0, 0)) == (0, 0, 0)
    v = Fraction(7, 3)
    assert coord_first_from_second((v, 0, 0)) == (v, 0, 0)
    assert coord_second_from_first((v, 0, 0)) == (v, 0, 0)


@settings(max_examples=80, deadline=None)
@given(elements_st())
def test_coordinate_roundtrip_exact(x):
    u = coord_first_from_second(x.coords())
    assert coord_second_from_first(u) == x.coords()


@settings(max_examples=60, deadline=None)
@given(elements_st())
def test_reduction_idempotent_and_lattice(x):
    r = reduce_to_fundamental(x)
    assert all(0 <= c < 1 for c in r.coords())
    assert reduce_to_fundamental(r).coords() == r.coords()
    gamma = heis_mul(heis_inv(x), r)
    assert gamma.is_lattice()


def test_trivial_affine_map():
    T = HeisenbergAffine(g=HeisenbergElement.identity(),
                         dsigma=make_automorphism(((1, 0), (0, 1))))
    x = HeisenbergElement(Fraction(1, 3), Fraction(2, 5), Fraction(1, 7))
    assert nil_step(T, x).coords() == reduce_to_fundamental(x).coords()


def test_translation_orbit_is_power():
    g = HeisenbergElement(Fraction(1, 3), Fraction(1, 5), Fraction(2, 7))
    T = HeisenbergAffine(g=g, dsigma=make_automorphism(((1, 0), (0, 1))))
    x = HeisenbergElement(Fraction(1, 9), 0, 0)
    acc = x
    for n in range(1, 30):
        acc = heis_mul(g, acc)
        assert nil_orbit_iter(T, x, n).coords() == reduce_to_fundamental(acc).coords()


def test_compile_pure_translation():
    T = HeisenbergAffine(g=HeisenbergElement(1, 0, 0),
                         dsigma=make_automorphism(((1, 0), (0, 1))))
    rep = compile_poly_orbit(T, HeisenbergElement.identity(), 0)
    assert rep.factors == ((0, 1, Fraction(1)),)   # exp(X1)^n


def test_compile_trivial_orbit():
    T = HeisenbergAffine(g=HeisenbergElement.identity(),
                         dsigma=make_automorphism(((1, 0), (0, 1))))
    rep = compile_poly_orbit(T, HeisenbergElement.identity(), 0)
    assert rep.factors == ()
    assert rep.evaluate(5).coords() == (0, 0, 0)


def test_factor_count_independent_of_n():
    ds = make_automorphism(((1, 0), (1, 1)), e=1)
    T = HeisenbergAffine(g=HeisenbergElement(Fraction(1, 2), Fraction(1, 3), 0),
                         dsigma=ds)
    rep = compile_poly_orbit(T, HeisenbergElement.identity(), 0)
    k = rep.k
    for n in (0, 3, 50, 700):
        rep.evaluate(n)
    assert rep.k == k


def test_shear_rep_equals_iteration_exactly():
    ds = make_automorphism(((1, 0), (1, 1)))
    T = HeisenbergAffine(g=HeisenbergElement(1, 0, 0), dsigma=ds)
    x = HeisenbergElement.identity()
    rep = compile_poly_orbit(T, x, 0)
    p = reduce_to_fundamental(x)
    for n in range(0, 60):
        assert rep.evaluate_reduced(n).coords() == p.coords()
        p = nil_step(T, p)


def test_random_quasiunipotent_reps_exact():
    rng = random.Random(5)

    def rand_el():
        return HeisenbergElement(*[Fraction(rng.randint(-12, 12), rng.randint(1, 8))
                                   for _ in range(3)])
    for S in QU_BLOCKS:
        ds = make_automorphism(S, e=rng.randint(-2, 2), f=rng.randint(-2, 2))
        T = HeisenbergAffine(g=rand_el(), dsigma=ds)
        x = reduce_to_fundamental(rand_el())
        orbit = [reduce_to_fundamental(x)]
        for _ in range(59):
            orbit.append(nil_step(T, orbit[-1]))
        for l in range(T.nu):
            rep = compile_poly_orbit(T, x, l)
            for n in range(l, 60, T.nu):
                assert rep.evaluate_reduced(n).coords() == orbit[n].coords(), (S, l, n)



def _factor_product(rep, n):
    """b_1^{h_1(n)} ... b_k^{h_k(n)}: the factors multiplied in order by heis_mul."""
    acc = HeisenbergElement.identity()
    for axis, degree, c in rep.factors:
        coords = [0, 0, 0]
        coords[axis] = c * n**degree
        acc = heis_mul(acc, HeisenbergElement(*coords))
    return acc


def _golden_and_random_maps():
    maps = [_heisenberg(name) for name in sorted(HEIS)]
    rng = random.Random(7)

    def rand_el():
        return HeisenbergElement(*[Fraction(rng.randint(-12, 12), rng.randint(1, 8))
                                   for _ in range(3)])
    for S in QU_BLOCKS:
        ds = make_automorphism(S, e=rng.randint(-2, 2), f=rng.randint(-2, 2))
        maps.append((HeisenbergAffine(g=rand_el(), dsigma=ds), rand_el()))
    return maps


def test_factor_product_is_the_orbit_form():
    """The time-n point is the product of the generator factors, in order."""
    for T, x in _golden_and_random_maps():
        for l in range(T.nu):
            rep = compile_poly_orbit(T, x, l)
            assert rep.k == len(rep.factors)
            for n in list(range(l, 40, T.nu)) + [l + 1001 * T.nu]:
                assert _factor_product(rep, n).coords() == rep.evaluate(n).coords(), (l, n)

def test_lattice_preservation_guard():
    # a naive integer shear misses the half-integer central correction
    bad = ((1, 0, 0), (1, 1, 0), (0, 0, 1))
    with pytest.raises(DomainError, match="lattice"):
        HeisenbergAffine(g=HeisenbergElement.identity(), dsigma=bad)


def test_bracket_guard():
    bad = ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    with pytest.raises(DomainError, match="center"):
        HeisenbergAffine(g=HeisenbergElement.identity(), dsigma=bad)


def test_entropy_guard():
    with pytest.raises(DomainError, match="quasi-unipotent"):
        HeisenbergAffine(g=HeisenbergElement.identity(),
                         dsigma=make_automorphism(((2, 1), (1, 1))))


def test_residue_guard():
    T = HeisenbergAffine(g=HeisenbergElement(1, 0, 0),
                         dsigma=make_automorphism(((0, -1), (1, 0))))
    assert T.nu == 4
    with pytest.raises(DomainError):
        compile_poly_orbit(T, HeisenbergElement.identity(), 4)
    rep = compile_poly_orbit(T, HeisenbergElement.identity(), 1)
    with pytest.raises(DomainError):
        rep.evaluate(2)


@pytest.fixture(scope="module")
def table():
    return mobius_sieve(50_000)


def test_observable_frequencies_must_be_integers():
    for pqr in ((1.5, 2, 0), (1, 2, 0.5), (1, True, 0), (1, "2", 0)):
        with pytest.raises(DomainError, match="integers"):
            NilObservable.character(*pqr)
    with pytest.raises(DomainError, match="integers"):
        NilObservable.from_json({"horizontal": [1, 2], "central": 1.5})
    assert NilObservable.from_json({"horizontal": [1, 2], "central": 3}).terms == ((1, 1, 2, 3),)


def test_correlate_constant_is_mertens(table):
    ds = make_automorphism(((1, 0), (1, 1)))
    T = HeisenbergAffine(g=HeisenbergElement(Fraction(1, 3), Fraction(1, 7), 0),
                         dsigma=ds)
    x = HeisenbergElement.identity()
    series = correlate_nil(T, x, NilObservable.character(0, 0, 0), table, [100, 5000])
    assert series.sums[0].real == pytest.approx(mertens(table, 100))
    assert series.sums[1].real == pytest.approx(mertens(table, 5000))


def test_correlate_pure_rotation_cross_module(table):
    """sigma = id, g = (a, 0, 0): the nil correlator must reproduce the
    linear-phase Mobius sum of the rotation factor."""
    from mobiusflow.correlate import PolyPhase, poly_exp_sum
    a = Fraction(5, 17)
    T = HeisenbergAffine(g=HeisenbergElement(a, 0, 0),
                         dsigma=make_automorphism(((1, 0), (0, 1))))
    series = correlate_nil(T, HeisenbergElement.identity(),
                           NilObservable.character(1, 0, 0), table, [20_000])
    want = poly_exp_sum(PolyPhase((0.0, float(a)), 1, 0), table, 20_000)
    assert abs(series.sums[0] - want) < 1e-7


def test_correlate_horizontal_vs_iteration_oracle(table):
    ds = make_automorphism(((1, 0), (1, 1)), e=1, f=0)
    T = HeisenbergAffine(g=HeisenbergElement(Fraction(1, 3), Fraction(1, 7),
                                             Fraction(2, 5)), dsigma=ds)
    x = HeisenbergElement(Fraction(1, 11), Fraction(3, 13), 0)
    obs = NilObservable.character(1, 2, 0)
    series = correlate_nil(T, x, obs, table, [1500])
    mu = table.mu_array()
    p = reduce_to_fundamental(x)
    brute = 0j
    for n in range(1, 1501):
        p = nil_step(T, p)
        brute += int(mu[n]) * obs.value(p)
    assert abs(series.sums[0] - brute) < 1e-7


def test_correlate_central_vs_iteration_oracle(table):
    ds = make_automorphism(((1, 0), (1, 1)))
    T = HeisenbergAffine(g=HeisenbergElement(Fraction(1, 3), Fraction(1, 7),
                                             Fraction(2, 5)), dsigma=ds)
    x = HeisenbergElement.identity()
    obs = NilObservable.character(1, 1, 1)
    series = correlate_nil(T, x, obs, table, [800])
    mu = table.mu_array()
    p = reduce_to_fundamental(x)
    brute = 0j
    for n in range(1, 801):
        p = nil_step(T, p)
        brute += int(mu[n]) * obs.value(p)
    assert abs(series.sums[0] - brute) < 1e-9


def test_correlate_decay_trend():
    big = mobius_sieve(10**6)
    ds = make_automorphism(((1, 0), (1, 1)), e=0, f=1)
    T = HeisenbergAffine(g=HeisenbergElement(Fraction(1, 3), Fraction(1, 7),
                                             Fraction(2, 5)), dsigma=ds)
    x = HeisenbergElement(Fraction(1, 11), Fraction(3, 13), 0)
    series = correlate_nil(T, x, NilObservable.character(1, 2, 0), big,
                           [1000, 10**6])
    assert series.normalized[1] < series.normalized[0]


def _exact_phase(rep, n, p, q, r):
    """float of frac(p v1 + q v2 + r v3) on the exact reduced representative."""
    v1, v2, v3 = rep.evaluate_reduced(n).coords()
    return float((p * v1 + q * v2 + r * v3) % 1)


def _iteration_sum(T, x, obs, mu, N):
    p = reduce_to_fundamental(x)
    total = 0j
    for n in range(1, N + 1):
        p = nil_step(T, p)
        total += int(mu[n]) * obs.value(p)
    return total


def test_residue_phases_equal_exact_phases():
    """The integer-residue phases are the exact rationals rounded once: == float(Fraction)."""
    rng = random.Random(8)

    def rand_el():
        return HeisenbergElement(*[Fraction(rng.randint(-12, 12), rng.randint(1, 8))
                                   for _ in range(3)])
    seen_nu, seen_r, moved_x = set(), set(), 0
    for i in range(36):
        ds = make_automorphism(QU_BLOCKS[i % len(QU_BLOCKS)], e=rng.randint(-2, 2),
                               f=rng.randint(-2, 2))
        T = HeisenbergAffine(g=rand_el(), dsigma=ds)
        x = reduce_to_fundamental(rand_el())
        moved_x += x.coords() != (0, 0, 0)
        p, q, r = rng.randint(-3, 3), rng.randint(-3, 3), (1, -2, 3, 0)[i % 4]
        seen_nu.add(T.nu)
        seen_r.add(r)
        for l in range(T.nu):
            rep = compile_poly_orbit(T, x, l)
            ns = list(range(l or T.nu, 300, T.nu)) + [l + T.nu * k for k in (10**5, 10**7 + 3)]
            runs = [((l or T.nu) // T.nu, len(range(l or T.nu, 300, T.nu))), (10**5, 1),
                    (10**7 + 3, 1)]  # ns as (t0, count), n = nu t + l
            source = _residue_phase(rep, p, q, r)
            got = np.concatenate([source(*run, np.empty(run[1])) for run in runs])
            assert got.tolist() == [_exact_phase(rep, n, p, q, r) for n in ns], (i, l)
    assert seen_nu >= {1, 2, 4} and seen_r == {1, -2, 3, 0} and moved_x >= 30


def test_dyadic_bracket_phases_equal_exact_phases():
    """Dyadic g and x: the bracket phases are == float(Fraction) on every class.

    g3 = 3/2^64 takes K to 2^64 on some classes.  With g1 = 1/8 and a
    unipotent block the 1/6 of the cubic coefficient leaves a 3 in K while
    D1 D2 and D2 stay powers of two, so the three residues share one dtype."""
    rng = random.Random(9)
    gs = [("3/8", "3/16", "5/32"), ("1/8", "3/16", "5/32"), ("1/2", "1/4", Fraction(3, 2**64))]
    kinds = set()  # (K, D1 D2, D2 divide 2^64; K == 2^64) of each bracket term
    for i, (g, block) in enumerate((g, block) for g in gs for block in QU_BLOCKS):
        T = HeisenbergAffine(g=HeisenbergElement(*g), dsigma=make_automorphism(block))
        x = HeisenbergElement(*[Fraction(rng.randint(-12, 12), 2**rng.randint(0, 5))
                                for _ in range(3)])
        p, q, r = rng.randint(-3, 3), rng.randint(-3, 3), (1, -2, 3)[i % 3]
        for l in range(T.nu):
            rep = compile_poly_orbit(T, x, l)
            Z1, Z2, Z3 = (Z.compose_linear(T.nu, l) for Z in rep.coord_polys)
            D1, D2 = (math.lcm(*(c.denominator for c in Z.coeffs)) for Z in (Z1, Z2))
            P = Z1.scale(p) + Z2.scale(q) + Z3.scale(r)
            K = math.lcm(D2, *(c.denominator for c in P.coeffs))
            if r % D2:
                kinds.add(tuple(2**64 % m == 0 for m in (K, D1 * D2, D2)) + (K == 2**64,))
            ns = list(range(l or T.nu, 300, T.nu)) + [l + T.nu * k for k in (10**5, 10**7 + 3)]
            runs = [((l or T.nu) // T.nu, len(range(l or T.nu, 300, T.nu))), (10**5, 1),
                    (10**7 + 3, 1)]  # ns as (t0, count), n = nu t + l
            source = _residue_phase(rep, p, q, r)
            got = np.concatenate([source(*run, np.empty(run[1])) for run in runs])
            assert got.tolist() == [_exact_phase(rep, n, p, q, r) for n in ns], (i, l)
    assert {(True, True, True, False), (True, True, True, True)} <= kinds
    assert any(not k and d1d2 and d2 for k, d1d2, d2, _ in kinds)


def test_residue_phases_beyond_int64_guard_stay_exact():
    g = HeisenbergElement(Fraction(1, 1000003), Fraction(1, 999983), Fraction(1, 65537))
    T = HeisenbergAffine(g=g, dsigma=make_automorphism(((1, 0), (1, 1))))
    x = HeisenbergElement(Fraction(1, 3), Fraction(2, 7), 0)
    rep = compile_poly_orbit(T, x, 0)
    Z1, Z2, _ = rep.coord_polys
    D1, D2 = (max(c.denominator for c in Z.coeffs) for Z in (Z1, Z2))
    assert D1 * D2 > INT64_MODULUS_MAX
    ns = list(range(1, 200)) + [10**6 + 7, 10**9 + 9]
    runs = [(1, 199), (10**6 + 7, 1), (10**9 + 9, 1)]  # ns as (t0, count), nu = 1
    got = np.concatenate([_residue_phase(rep, 1, 2, 1)(*run, np.empty(run[1])) for run in runs])
    assert got.tolist() == [_exact_phase(rep, n, 1, 2, 1) for n in ns]
    table = mobius_sieve(1500)
    obs = NilObservable.character(1, 2, 1)
    series = correlate_nil(T, x, obs, table, [1500])
    assert abs(series.sums[0] - _iteration_sum(T, x, obs, table.mu_array(), 1500)) < 1e-9 * 1500


def test_two_term_weighted_observable_vs_iteration(table):
    ds = make_automorphism(((0, -1), (1, 0)), e=1, f=-1)
    T = HeisenbergAffine(g=HeisenbergElement(Fraction(2, 3), Fraction(-1, 5),
                                             Fraction(3, 7)), dsigma=ds)
    assert T.nu == 4
    x = HeisenbergElement(Fraction(1, 4), Fraction(5, 6), Fraction(1, 9))
    obs = NilObservable(terms=((0.5 + 0j, 1, 2, -2), (0.25j, 0, 1, 3)))
    series = correlate_nil(T, x, obs, table, [700, 1500])
    want = _iteration_sum(T, x, obs, table.mu_array(), 1500)
    assert abs(series.sums[1] - want) < 1e-9 * 1500


def test_correlate_threads_bit_identical(table):
    ds = make_automorphism(((-1, 0), (0, -1)), e=1)
    T = HeisenbergAffine(g=HeisenbergElement(Fraction(1, 3), Fraction(1, 7),
                                             Fraction(2, 5)), dsigma=ds)
    x = HeisenbergElement(Fraction(1, 11), Fraction(3, 13), 0)
    cps = [10, 9000, 20_000, 50_000]
    for obs in (NilObservable.character(1, 2, 0), NilObservable.character(1, 2, 1)):
        one = correlate_nil(T, x, obs, table, cps, threads=1)
        two = correlate_nil(T, x, obs, table, cps, threads=2)
        assert one.sums == two.sums
        assert (one.metadata["threads"], two.metadata["threads"]) == (1, 2)


def test_correlate_central_vs_iteration_at_1e5():
    big = mobius_sieve(10**5)
    T = HeisenbergAffine(g=HeisenbergElement(Fraction(1, 3), Fraction(1, 7),
                                             Fraction(2, 5)),
                         dsigma=make_automorphism(((1, 0), (1, 1))))
    x = HeisenbergElement.identity()
    obs = NilObservable.character(1, 2, 1)
    series = correlate_nil(T, x, obs, big, [10**5])
    assert abs(series.sums[0] - _iteration_sum(T, x, obs, big.mu_array(), 10**5)) < 1e-9 * 10**5


@pytest.mark.parametrize("checkpoints", [[-5, 100], [0, 100], [0]])
def test_correlators_refuse_checkpoints_below_one(table, checkpoints):
    """No piece ends at a checkpoint <= 0, so its sum would be dropped silently."""
    aff = UnipotentAffine(matrix=((1, 1), (0, 1)), translation=(0.2, 0.0))
    with pytest.raises(DomainError, match="checkpoints must be >= 1"):
        mobius_correlate(aff, (0.2, 0.51), (1, 2), table, checkpoints)
    T, x = _heisenberg("readme")
    with pytest.raises(DomainError, match="checkpoints must be >= 1"):
        correlate_nil(T, x, NilObservable.character(1, 2, 1), table, checkpoints)


def test_correlate_needs_a_checkpoint(table):
    T = HeisenbergAffine(g=HeisenbergElement(1, 0, 0),
                         dsigma=make_automorphism(((1, 0), (0, 1))))
    with pytest.raises(DomainError, match="need at least one checkpoint"):
        correlate_nil(T, HeisenbergElement.identity(), NilObservable.character(1, 0, 0),
                      table, [])
