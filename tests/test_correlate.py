"""Correlators against scalar oracles, the bilinear criterion, and the
lemma verifiers."""

import cmath
import functools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mobiusflow.analytic import AnalyticSeries, ScaleFunction, e2pi, e2pi_m1, geometric_ratio
from mobiusflow.cfrac import AlphaSpec, cf_expand, classify_case
from mobiusflow.correlate import (_E_COS, _E_SIN, BATCH, CHUNK, CLASS_PERIOD_MAX, CLASS_RATIO,
                                  E_TABLE_SIZE, E_TERM_ERROR, INT64_MODULUS_MAX, THREADS_MAX,
                                  CorrelationSeries, PolyPhase, _SkewPhaseContext, _batches,
                                  _e_sums, _pieces, bsz_test, character_phase_array,
                                  mobius_correlate, phi_polys, poly_exp_sum,
                                  poly_lower_bound_check, poly_mod1_array, reduction_bound,
                                  sum_bound, sum_route, vdc_sum_check)
from mobiusflow.errors import DomainError, PrecisionError
from mobiusflow.flows import (Character, SkewFlow, TorusPoint, UnipotentAffine, character_phase,
                              unipotent_phase_poly)
from mobiusflow.furstenberg import FurstenbergSystem, irregularity_probe
from mobiusflow.mobius import mertens, mobius_sieve
from mobiusflow import correlate
from mobiusflow.nilflow import (HeisenbergAffine, HeisenbergElement, NilObservable,
                                _residue_phase, compile_poly_orbit, correlate_nil)
from mobiusflow.polyutil import Poly
from test_golden import AFFINE, _heisenberg

RNG = np.random.default_rng(99)
SQRT2 = AlphaSpec.sqrt2_minus_1()


@pytest.fixture(scope="module")
def table():
    return mobius_sieve(10**6)


@pytest.fixture(scope="module")
def skew():
    h = AnalyticSeries.geometric(1.5)
    return SkewFlow(1, 1, 1, SQRT2, h), TorusPoint(0.3, 0.7)


@pytest.fixture(scope="module")
def lacunary():
    """The criterion 9 lacunary flow (tau = 1, depth 4, corrected): its modes
    +-q_k have tiny delta, and its centre has an 11,689-bit denominator."""
    return FurstenbergSystem.build(1.0, 4).flow(c=0, corrected=True)


def ramp_flow():
    """alpha = 1/(3 + 10^-300): delta_3 and delta_6 are below 1e-250, so modes
    3 and 6 are ramps; modes 1, 2 and 4 are tabled."""
    alpha = AlphaSpec.from_quotients([0, 3, 10**300])
    h = AnalyticSeries.from_entries([(1, 0.4), (-1, 0.4), (2, 0.1 + 0.2j), (-2, 0.1 - 0.2j),
                                     (3, 0.3 - 0.1j), (-3, 0.3 + 0.1j), (4, 0.05), (-4, 0.05),
                                     (6, 0.02j), (-6, -0.02j)], tau=0.5)
    return SkewFlow(1, 2, 1, alpha, h)


def _assert_exact_mod1(poly, t0, count):
    got = poly_mod1_array(poly, t0, count)
    assert got.dtype == np.float64 and got.shape == (count,)
    for i in range(count):
        assert got[i] == float(poly.eval(t0 + i) % 1), (poly, t0 + i)


def test_poly_mod1_array_exact():
    """The exact rational frac(P(t)) rounded once: == float(P(t) % 1) on
    random polynomials of degree 0-4 with signed coefficients."""
    rng = random.Random(7)
    _assert_exact_mod1(Poly([Fraction(1, 7), Fraction(3, 11), Fraction(1, 13),
                             Fraction(2, 17)]), 5, 4000)
    dens = [1, 2**52, 7 * 11 * 13 * 17, 3 * 2**20, 10**13 + 37, 2**70]
    for _ in range(60):
        den = rng.choice(dens)
        coeffs = [Fraction(rng.randint(-10**25, 10**25), rng.choice((den, 2 * den)))
                  for _ in range(rng.randint(1, 5))]
        coeffs += [rng.uniform(-1e6, 1e6)] if rng.random() < 0.3 else []
        for t0 in (0, 10**9 + rng.randrange(10**6)):
            _assert_exact_mod1(Poly(coeffs), t0, 40)


@pytest.mark.parametrize("K", [2**64, 2**65, 2**1074, 2**1075, INT64_MODULUS_MAX,
                               INT64_MODULUS_MAX + 2, 2**10 * 3, 2**40 * 3, 2**61 * 5,
                               2**64 * INT64_MODULUS_MAX, 2**65 * 3, 2**20 * (INT64_MODULUS_MAX + 2)])
def test_poly_mod1_array_paths_at_their_edges(K):
    """uint64 wraparound up to K = 2^64, 48-bit limbs from 2^65 to 2^1074,
    int64 Horner up to INT64_MODULUS_MAX (odd, as is the next odd modulus),
    the 2^a / odd m split for a <= 64 and m <= INT64_MODULUS_MAX, Python
    ints beyond (2^1075, 2^65 * 3, an odd part past the int64 guard);
    residues next to K round the way float(Fraction) does."""
    rng = random.Random(K)
    for top in (1, K - 1, K // 2 + 1, rng.randrange(1, K)):
        # the leading -1/K at t = -1 (mod K) makes the first Horner product (K - 1)^2
        poly = Poly([Fraction(-top, K), Fraction(rng.randrange(K), K),
                     Fraction(rng.randrange(-K, K) | 1, K), Fraction(-1, K)])
        assert math.lcm(*(c.denominator for c in poly.coeffs)) == K
        for t0 in (0, K - 6, 10**9 + 7, 2**64 - 5):
            _assert_exact_mod1(poly, t0, 12)


@pytest.mark.parametrize("k", [65, 96, 97, 113, 144, 500])
def test_poly_mod1_array_power_of_two_limbs(k):
    """K = 2^k past 2^64 takes 48-bit limbs: exact at t0 up to 2^80, across
    the 2^15-value blocks, and for residues far below K, which the limb
    window retries lower down."""
    K = 2**k
    rng = random.Random(k)
    for deg in range(5):
        poly = Poly([Fraction(rng.randrange(-K, K), K) for _ in range(deg)] + [Fraction(1, K)])
        for t0 in (0, 10**9 + 7, 2**80 + 3):
            _assert_exact_mod1(poly, t0, 30)
    small = Poly([Fraction(0), Fraction(rng.randrange(2**20) | 1, K)])  # r/K < 2^-k+20 t
    _assert_exact_mod1(small, 1, 200)
    count = 2**15 + 9
    got = poly_mod1_array(poly, 5, count)
    for i in list(range(2**15 - 5, count)) + [0, 1234]:
        assert got[i] == float(poly.eval(5 + i) % 1)


def test_poly_mod1_array_limbs_round_once_at_every_bit():
    """The limb window rounds r/K as float(Fraction) does, at ties and next
    to them, for every position of r's leading one."""
    k = 200
    K = 2**k
    for j in range(k):
        for r in {1 << j, (1 << j) + (1 << max(j - 53, 0)), (1 << j) + (1 << max(j - 53, 0)) + 1,
                  (1 << j) + (3 << max(j - 54, 0)), (2 << j) - 1}:
            _assert_exact_mod1(Poly([Fraction(r % K, K), Fraction(1, K)]), 0, 2)


@pytest.mark.parametrize("a, m", [(1, INT64_MODULUS_MAX), (1, 3036971475), (32, 3), (52, 3),
                                  (64, 7)])
def test_poly_mod1_array_split_rounds_once(a, m):
    """K = 2^a m split into a uint64 part and an int64 part: residues that
    are multiples of m (dyadic values), ties of the 2^a part and residues
    far below K round as float(Fraction) does.  For m = 3036971475, 1/K
    reads as an exact tie in its first 96 bits, so only the remainder of
    the long division rounds it up."""
    K = 2**a * m
    rs = {0, 1, m, 2 * m, K - 1, K - m, K // 2, K // 2 + 1}
    rs |= {(1 << j) % K for j in range(K.bit_length())} | {(m << j) % K for j in range(a)}
    for r in rs:
        _assert_exact_mod1(Poly([Fraction(r, K), Fraction(1, K)]), 0, 2)


def test_poly_exp_sum_threads_bit_identical(table):
    phase = PolyPhase((0.25, -0.1, math.sqrt(3), math.sqrt(2)), nu=3, residue=1)
    N = 300_001
    sums = [poly_exp_sum(phase, table, N, threads=t) for t in (1, 2)]
    assert sums[0] == sums[1]


@pytest.mark.parametrize("l", [0, 1, 2])
def test_poly_exp_sum_residue_class_direct(table, l):
    coeffs = (Fraction(1, 3), -math.sqrt(5), Fraction(2, 7), math.pi)
    poly = Poly([Fraction(c) for c in coeffs])
    mu = table.mu_array()
    N = 30_001  # two pieces in t on each class
    want = sum(int(mu[n]) * cmath.exp(2j * math.pi * float(poly.eval(n) % 1))
               for n in range(1, N + 1) if n % 3 == l)
    got = poly_exp_sum(PolyPhase(coeffs, nu=3, residue=l), table, N)
    assert abs(got - want) < 1e-12 * N


def test_poly_exp_sum_cubic_against_uint64(table):
    """sqrt(2) n^3 = m n^3 / 2^e: the phases from an independent uint64
    computation, the sum within 1e-10 N."""
    m, den = math.sqrt(2).as_integer_ratio()
    N = 10**5
    n = np.arange(1, N + 1, dtype=np.uint64)
    frac = ((n * n * n * np.uint64(m)) & np.uint64(den - 1)).astype(np.float64) / den
    want = complex(np.dot(table.mu_array()[1:N + 1].astype(np.float64),
                          np.exp(2j * np.pi * frac)))
    got = poly_exp_sum(PolyPhase((0.0, 0.0, 0.0, math.sqrt(2))), table, N)
    assert abs(got - want) < 1e-10 * N


def test_poly_phase_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            PolyPhase((0.0, bad))


def test_trivial_character_is_mertens(table, skew):
    flow, p = skew
    series = mobius_correlate(flow, p, Character(0, 0), table, [100, 1000])
    assert series.sums[0].real == pytest.approx(mertens(table, 100))
    assert series.sums[1].real == pytest.approx(mertens(table, 1000))


def test_rotation_factor_reduces_to_linear_sum(table):
    """h = 0, c = 0, b = (1,0): a pure linear-phase Mobius sum."""
    flow = SkewFlow(1, 0, 1, SQRT2, AnalyticSeries.from_entries([], tau=1.0))
    p = TorusPoint(0.37, 0.0)
    N = 30_000
    series = mobius_correlate(flow, p, Character(1, 0), table, [N])
    alpha = float(SQRT2.frac_fraction(1))
    want = poly_exp_sum(PolyPhase((p.x1, alpha), 1, 0), table, N)
    assert abs(series.sums[0] - want) < 1e-7


def test_correlator_matches_scalar_oracle(table, skew):
    flow, p = skew
    b = Character(3, 2)
    N = 400
    mu = table.mu_array()
    want = sum(int(mu[n]) * cmath.exp(2j * cmath.pi * character_phase(flow, p, b, n))
               for n in range(1, N + 1))
    series = mobius_correlate(flow, p, b, table, [N])
    assert abs(series.sums[0] - want) < 1e-8


def test_phase_array_matches_scalar(skew):
    flow, p = skew
    b = Character(0, 1)
    ph = character_phase_array(flow, p, b, 1500)
    for n in (1, 2, 100, 1499):
        want = character_phase(flow, p, b, n)
        d = abs(ph[n - 1] - want) % 1.0
        assert min(d, 1.0 - d) < 1e-9


@pytest.mark.parametrize("flow, b", [
    (SkewFlow(-1, 1, 1, SQRT2, AnalyticSeries.geometric(1.5)), Character(1, 0)),
    (SkewFlow(1, 1, -1, SQRT2, AnalyticSeries.from_entries([], tau=1.0)), Character(0, 1)),
])
def test_skew_phases_refuse_non_normalized_flows(table, flow, b):
    """With a or d = -1 the orbit is not x1 + n alpha, so the rotation-only
    paths (b2 = 0, or h empty) must refuse the flow as the mode path does."""
    p = TorusPoint(0.3, 0.7)
    with pytest.raises(DomainError, match="normalized"):
        mobius_correlate(flow, p, b, table, [1000])
    with pytest.raises(DomainError, match="normalized"):
        character_phase_array(flow, p, b, 1000)
    with pytest.raises(DomainError, match="normalized"):
        character_phase(flow, p, b, 10)


@pytest.mark.parametrize("b", [(1, 0.5), (True, 1), Character(2, 0.5)])
def test_affine_correlation_refuses_non_integer_characters(table, b):
    """(1, 0.5) used to be summed as (1, 0), int() truncating it, while the
    metadata recorded (1, 0.5); a non-integer or bool frequency is refused,
    and an integer-valued float sums as its integer."""
    W, t, x, _ = AFFINE["order4"]
    aff = UnipotentAffine(matrix=W, translation=tuple(Fraction(s) for s in t))
    x = tuple(Fraction(s) for s in x)
    with pytest.raises(DomainError, match="frequencies must be integers"):
        mobius_correlate(aff, x, b, table, [100])
    assert (mobius_correlate(aff, x, (2.0, -1.0), table, [100]).sums
            == mobius_correlate(aff, x, (2, -1), table, [100]).sums)


@pytest.mark.parametrize("b", [Character(0.5, 1), Character(1, 0.5), (0.5, 1)])
def test_skew_correlation_refuses_non_integer_characters(table, skew, b):
    """A skew flow with Character(0.5, 1) used to end in an AttributeError in
    the phase set-up; the skew context refuses it, on every path into it."""
    flow, p = skew
    with pytest.raises(DomainError, match="frequencies must be integers"):
        mobius_correlate(flow, p, b, table, [100])
    with pytest.raises(DomainError, match="frequencies must be integers"):
        character_phase_array(flow, p, Character(*b) if isinstance(b, tuple) else b, 100)


def test_thread_count_determinism(table, skew, lacunary):
    b = Character(0, 1)
    cps = [10**4, 10**5]
    for flow, p in (skew, (lacunary, TorusPoint(0.37, 0.12))):
        runs = [mobius_correlate(flow, p, b, table, cps, threads=t).sums
                for t in (1, 2, 4, 8)]
        assert runs[0] == runs[1] == runs[2] == runs[3]


def test_checkpoint_beyond_sieve(table, skew):
    flow, p = skew
    with pytest.raises(DomainError):
        mobius_correlate(flow, p, Character(0, 1), table, [table.limit + 1])


def test_correlation_series_trivial_bound():
    with pytest.raises(DomainError):
        CorrelationSeries(checkpoints=(10,), sums=(11.0 + 0j,))
    with pytest.raises(DomainError):
        CorrelationSeries(checkpoints=(10, 10), sums=(1.0, 1.0))


def test_unipotent_correlator_matches_character_values(table):
    from fractions import Fraction
    from mobiusflow.flows import character_value
    aff = UnipotentAffine(matrix=((1, 1), (0, 1)),
                          translation=(Fraction(1, 3), 0))
    x = (Fraction(1, 7), Fraction(2, 5))
    v = (1, 2)
    N = 500
    mu = table.mu_array()
    want, p = 0j, list(x)  # one walk; character_value at T^n x with n = 0 is psi(T^n x)
    for n in range(1, N + 1):
        p = aff.step(p)
        want += int(mu[n]) * character_value(aff, p, v, 0)
    series = mobius_correlate(aff, x, v, table, [N])
    assert abs(series.sums[0] - want) < 1e-8


def test_poly_exp_sum_trivials(table):
    assert poly_exp_sum(PolyPhase((0.0,), 1, 0), table, 100).real == \
        pytest.approx(mertens(table, 100))
    # 9-term hand-checkable sum with phi(n) = n/3
    mu = table.mu_array()
    want = sum(int(mu[n]) * cmath.exp(2j * cmath.pi * (n / 3.0)) for n in range(1, 10))
    got = poly_exp_sum(PolyPhase((0.0, 1.0 / 3.0), 1, 0), table, 9)
    assert abs(got - want) < 1e-12


def test_poly_exp_sum_residue_classes(table):
    phase = PolyPhase((0.1, 0.37), nu=3, residue=2)
    mu = table.mu_array()
    want = sum(int(mu[n]) * cmath.exp(2j * cmath.pi * ((0.1 + 0.37 * n) % 1))
               for n in range(1, 301) if n % 3 == 2)
    got = poly_exp_sum(phase, table, 300)
    assert abs(got - want) < 1e-10


def test_poly_exp_sum_quadratic_decay(table):
    phase = PolyPhase((0.0, 0.0, math.sqrt(2)), 1, 0)
    r3 = abs(poly_exp_sum(phase, table, 10**3)) / 10**3
    r5 = abs(poly_exp_sum(phase, table, 10**5)) / 10**5
    assert r5 < r3


# ---------------------------------------------------------------------------
# Bilinear criterion


def rotation_sequence(theta):
    def f(n):
        return np.exp(2j * np.pi * np.mod(np.asarray(n, dtype=np.float64) * theta, 1.0))
    return f


def test_bsz_constant_sequence_fails_hypothesis(table):
    f = lambda n: np.ones(np.asarray(n).shape, dtype=np.complex128)
    rep = bsz_test(f, tau=0.25, M=2000, N=10**5, table=table)
    assert not rep["hypothesis_holds"]
    assert rep["worst_bilinear_ratio"] == pytest.approx(1.0)


def test_bsz_rotation_hypothesis_holds(table):
    theta = math.sqrt(2) - 1
    rep = bsz_test(rotation_sequence(theta), tau=0.25, M=4000, N=10**5, table=table)
    assert rep["hypothesis_holds"]
    assert rep["conclusion_holds"]


def test_bsz_bilinear_matches_geometric_closed_form(table):
    """|sum_{m<=M} e(d m theta)| = |sin(pi M d theta)| / |sin(pi d theta)|."""
    theta = math.sqrt(2) - 1
    M = 3000
    ms = np.arange(1, M + 1)
    for d in (1, 3, 10):
        direct = abs(np.sum(np.exp(2j * np.pi * np.mod(d * ms * theta, 1.0))))
        closed = abs(math.sin(math.pi * M * d * theta)
                     / math.sin(math.pi * d * theta))
        assert direct == pytest.approx(closed, abs=1e-6)


def test_bsz_implication_on_constructed_instances(table):
    """Whenever the bilinear hypothesis verifies, the conclusion must hold."""
    thetas = [math.sqrt(2) - 1, math.sqrt(3) - 1, math.pi - 3]
    for theta in thetas:
        for tau in (0.2, 0.3):
            rep = bsz_test(rotation_sequence(theta), tau=tau, M=2500, N=10**5,
                           table=table)
            if rep["hypothesis_holds"]:
                assert rep["conclusion_holds"], (theta, tau)


def test_bsz_tau_domain(table):
    with pytest.raises(DomainError):
        bsz_test(rotation_sequence(0.3), tau=0.5, M=100, N=1000, table=table)


@pytest.mark.parametrize("M, N", [(0, 1000), (-5, 1000), (100, 0), (100, -3), (100, 10**9)])
def test_bsz_refuses_empty_or_unsieved_ranges(table, M, N):
    with pytest.raises(DomainError):
        bsz_test(rotation_sequence(0.3), tau=0.25, M=M, N=N, table=table)


# ---------------------------------------------------------------------------
# Sharp-scale dilation polynomials


def _context():
    alpha = AlphaSpec.quadratic([0, 2, 64], [1])
    h = AnalyticSeries.geometric(2.0)
    cf = cf_expand(alpha, 40)
    rep = classify_case(cf, h, 10**4, d1=2, b2=1, B=2)
    return h, rep


def test_phi_polys_single_coefficient():
    from fractions import Fraction
    h, rep = _context()
    v = 0.4 + 0.2j
    single = AnalyticSeries.from_entries([(rep.m_J, v)], tau=1.0)
    single.tau2 = 1.0
    pp = phi_polys(rep, single, d1=3, d2=2, x1=0.0)
    # window holds only m = 1: phi_D = 9v e(d1 x) - ... => two frequencies
    assert len(pp.phi_D) == 2
    assert pp.phi_D[3] == pytest.approx(27 * v)
    assert pp.phi_D[2] == pytest.approx(-8 * v)
    assert pp.Phi == pytest.approx(abs(v))


def test_phi_polys_triangle_inequality():
    h, rep = _context()
    pp = phi_polys(rep, h, d1=3, d2=1, x1=0.3)
    assert pp.norm_phi_D >= (3**3 - 1**3) * pp.Phi - 1e-12
    assert (3**3 - 1**3) * pp.Phi >= pp.Phi


def test_phi_tail_bound_pointwise():
    h, rep = _context()
    pp = phi_polys(rep, h, d1=2, d2=1, x1=0.3)
    for x in RNG.random(100):
        diff = abs(pp.eval_phi(x) - pp.eval_phi_D(x))
        assert diff <= pp.tail_bound + 1e-12


def test_ftilde_third_derivative_trivials():
    h, rep = _context()
    assert ScaleFunction.from_report(rep, h, 0.3).tilde_third_derivative(0.11, 2, 2) == 0


# ---------------------------------------------------------------------------
# Lemma verifiers


def test_poly_lower_bound_monomial():
    rep = poly_lower_bound_check([0, 1.0], delta=0.3, samples=500)
    assert rep["min_ratio"] == pytest.approx(3.0 / 0.3, rel=1e-9)
    assert rep["pass"]


def test_poly_lower_bound_z_minus_one():
    rep = poly_lower_bound_check([-1.0, 1.0], delta=0.1, samples=5000)
    assert rep["pass"]
    # off the disc |z - 1| >= delta; the norm is sqrt(2)
    assert rep["min_abs_off_discs"] >= 0.1 - 1e-9


def test_poly_lower_bound_random_batch():
    for _ in range(20):
        deg = int(RNG.integers(1, 9))
        coeffs = RNG.normal(size=deg + 1) + 1j * RNG.normal(size=deg + 1)
        coeffs /= max(1.0, float(np.max(np.abs(coeffs))))
        rep = poly_lower_bound_check(coeffs, delta=0.05, samples=2000)
        assert rep["pass"], coeffs


def test_vdc_cubic_phase():
    rep = vdc_sum_check(lambda x: 1e-6 * x**3, lambda x: 6e-6,
                        Lambda=6e-6, eta=1.0, a=0.0, b=1000.0)
    assert rep["precondition_ok"]
    assert rep["pass"]


def test_vdc_degenerate_rejected():
    with pytest.raises(DomainError):
        vdc_sum_check(lambda x: 1.0, lambda x: 0.0, Lambda=0.0, eta=1.0,
                      a=0.0, b=100.0)


def test_vdc_precondition_violation_reported():
    rep = vdc_sum_check(lambda x: 1e-6 * x**3, lambda x: 6e-6,
                        Lambda=1e-3, eta=1.0, a=0.0, b=100.0)
    assert not rep["precondition_ok"]


def test_vdc_on_dilation_difference_phase():
    """Third-derivative window of the two-dilation phase, sampled off the
    cut polynomial's root discs, then fed through the summation bound."""
    h, rep = _context()
    d1, d2, x1, b2 = 2, 1, 0.31, 1
    pp = phi_polys(rep, h, d1, d2, x1)
    theta = float(rep.theta_J_signed)
    delta = rep.delta

    sf = ScaleFunction.from_report(rep, h, x1)

    def E3(x):
        return (b2 * sf.tilde_third_derivative(x * theta, d1, d2) * theta**3).real

    # sample x in (0, 1/|theta|) with e(x theta) off the root discs of phi_D
    roots = np.roots(np.array([pp.phi_D.get(f, 0j)
                               for f in range(max(pp.phi_D) , min(pp.phi_D) - 1, -1)]))
    xs = []
    for x in np.linspace(1.0, 1.0 / abs(theta) - 1.0, 400):
        z = cmath.exp(2j * cmath.pi * (x * theta))
        if all(abs(z - r) >= delta for r in roots):
            xs.append(float(x))
    vals = np.array([abs(E3(x)) for x in xs])
    upper = (2 * math.pi) ** 3 * d1**3 * theta**2 * rep.Phi_J / (2 * math.pi)
    # paper-shaped envelope: beta theta^2 Phi_J below, d1^3 theta^2 Phi_J above
    lower = rep.beta * theta**2 * rep.Phi_J
    assert vals.min() >= lower / 10.0
    assert vals.max() <= abs(upper) * 10.0 * (2 * math.pi)
    Lam, eta = vals.min(), vals.max() / vals.min()
    sub = [x for x in xs if 1.0 < x < 130.0]
    r = vdc_sum_check(lambda x: (b2 * 0.0) + _E_value(rep, h, d1, d2, x1, x, theta, b2),
                      lambda x: E3(x), Lambda=Lam, eta=eta,
                      a=min(sub), b=max(sub))
    assert r["pass"]


def _E_value(rep, h, d1, d2, x1, x, theta, b2):
    sf = ScaleFunction.from_report(rep, h, x1)
    return (b2 * sf.tilde_value(x * theta, d1, d2)).real


# ---------------------------------------------------------------------------
# Skew phases from the Taylor table of the coboundary G


def _modes(flow, p, b, nmax=10**7):
    """(m, h_hat(m), delta_m, size) of the modes m > 0, delta_m = m alpha mod
    1 in [-1/2, 1/2) over a centre within 2^-200 of alpha; a ramp mode
    (|delta| < 1e-250) has size |h_hat| nmax, the others |2 h_hat / (e(delta)
    - 1)|; modes below size 1e-18 are dropped."""
    centre = flow.alpha.center(Fraction(1, 1 << 200))
    out = []
    for m, c in (flow.h.items() if b.b2 else ()):
        if m <= 0:
            continue
        delta = m * centre % 1
        delta -= delta >= Fraction(1, 2)
        tiny = abs(float(delta)) < 1e-250
        size = abs(c) * nmax if tiny else abs(2 * c / e2pi_m1(delta))
        out.append((m, c, delta, size))
    return out


def _kept_modes(flow, p, b):
    return [mode[:3] for mode in _modes(flow, p, b) if mode[3] >= 1e-18]


def _is_ramp(delta):
    return abs(float(delta)) < 1e-250


def _taylor_bound(tabled, R):
    """A table's written bound: with H_q = sum |g_m| (pi m / R)^q / q! over its
    M modes and P the least degree whose remainder H_P is below 2^-60, it is
    2^-53 sum_{q<P} (M + 44 + 6 q) H_q + H_P + |G'| 2^-61, |G'| <= 2 pi sum m |g_m|."""
    H = []
    while True:
        q = len(H)
        Hq = sum(g * (math.pi * m / R) ** q / math.factorial(q) for m, g in tabled)
        if Hq < 2.0**-60:
            break
        H.append(Hq)
    return (2.0**-53 * sum((len(tabled) + 44 + 6 * q) * Hq for q, Hq in enumerate(H)) + Hq
            + 2 * math.pi * sum(m * g for m, g in tabled) * 2.0**-61)


def _phase_bound(flow, p, b, nmax):
    """The written per-term bound of `_SkewPhaseContext`, recomputed from the
    kept modes, with g_m = 2 b2 h_hat(m) / (e(delta_m) - 1).  The modes m <=
    8192 form one table on R = max(4096, 8 max m) points, a power of two, and
    each higher mode m is a table of mode 1 and g_m on 4096 points, which
    adds 2 2^-53.  To the tables' bounds add 2 |G'| 2^-(bits + 60) / min
    |e(delta) - 1| with |G'| <= 2 pi sum m |g_m| over all tabled modes and
    bits = 3 bitlen(nmax) + 8, plus the bit length of the top mode when it is
    above 8192; and (BATCH + 3) 2^-64 + 12 2^-53, (|b1| + |b2 c|) 2^-69 and
    |b2| nmax 2^-124 sum 2 |h_hat| over the ramp modes."""
    kept = _kept_modes(flow, p, b)
    ramp_size = sum(2 * abs(c) for _, c, delta in kept if _is_ramp(delta))
    bound = ((BATCH + 3) * 2.0**-64 + 12 * 2.0**-53 + (abs(b.b1) + abs(b.b2 * flow.c)) * 2.0**-69
             + abs(b.b2) * nmax * ramp_size * 2.0**-124)
    tabled = [(m, abs(2 * b.b2 * c / e2pi_m1(delta)), abs(e2pi_m1(delta)))
              for m, c, delta in kept if not _is_ramp(delta)]
    if not tabled:
        return bound
    low = [(m, g) for m, g, _ in tabled if m <= 8192]
    if low:
        R = max(E_TABLE_SIZE, 2 ** math.ceil(math.log2(8 * max(low)[0])))
        bound += _taylor_bound(low, R)
    for m, g, _ in tabled:
        if m > 8192:
            bound += _taylor_bound([(1, g)], E_TABLE_SIZE) + 2 * 2.0**-53
    top = max(flow.h.support())
    bits = 3 * max(nmax, 2).bit_length() + 8 + (top.bit_length() if top > 8192 else 0)
    slope = 2 * math.pi * sum(m * g for m, g, _ in tabled)
    return bound + 2 * slope * 2.0**-(bits + 60) / min(d for _, _, d in tabled)


def _per_mode_phase(flow, p, b, n, modes):
    """<b, orbit(n)> mod 1 with each mode's Birkhoff prefix h_hat e(m x1)
    (e(n m alpha) - 1) / (e(delta) - 1), n m alpha mod 1 taken exactly from
    `frac_fraction(n m)` and then rounded once; a ramp mode's 2 Re(h_hat
    e(m x1)), times n, is taken to 200 bits."""
    x1 = Fraction(p.x1)
    b2c = b.b2 * flow.c
    poly = (b.b1 * x1 + b.b2 * Fraction(p.x2) + b2c * n * x1
            + flow.alpha.frac_fraction(b.b1 * n + b2c * (n * (n - 1) // 2))) % 1
    # h_hat(0) and the ramp modes, whose ratio is n, enter the exact part
    ramp = Fraction(flow.h.coeff(0).real)
    birk = 0.0
    for m, c, delta in modes:
        if _is_ramp(delta):
            assert geometric_ratio(n, delta) == n
            arg = m * x1 % 1
            with mpmath.workprec(200):
                re = (mpmath.mpc(c) * mpmath.expjpi(2 * mpmath.mpf(arg.numerator)
                                                    / arg.denominator)).real
                ramp += 2 * Fraction(mpmath.nstr(re, 55))
            continue
        ratio = e2pi_m1(flow.alpha.frac_fraction(n * m)) / e2pi_m1(delta)
        birk += 2.0 * (c * e2pi(m * x1) * ratio).real
    poly = (poly + b.b2 * ramp * n) % 1
    return (float(poly) + b.b2 * birk) % 1.0


def _circle(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _phases(source, a, L):
    """The phases that source writes for terms a..a+L-1, in a new array."""
    return source(a, L, np.empty(L))


def _flow_case(name, skew):
    """The flow, point and character of a case, each on a fresh alpha, whose
    cached centres no earlier call has deepened."""
    if name == "diophantine":
        return SkewFlow(1, 1, 1, AlphaSpec.sqrt2_minus_1(), skew[0].h), skew[1], Character(3, 2)
    if name == "lacunary":
        return (FurstenbergSystem.build(1.0, 4).flow(c=0, corrected=True),
                TorusPoint(0.37, 0.12), Character(0, 1))
    if name == "many":
        return SkewFlow(1, 1, 1, AlphaSpec.sqrt2_minus_1(), AnalyticSeries.geometric(0.2, 150)), \
            TorusPoint(0.3, 0.7), Character(1, 1)
    if name == "tau-0.1":
        return SkewFlow(1, 1, 1, AlphaSpec.sqrt2_minus_1(), AnalyticSeries.geometric(0.1)), \
            TorusPoint(0.37, 0.12), Character(0, 1)
    if name.startswith("mode-"):
        # one mode far above the grid of 4096 points: its own track and table
        m = int(float(name[5:]))
        h = AnalyticSeries.from_entries([(m, 0.1), (-m, 0.1)], tau=1e-5)
        return SkewFlow(1, 1, 1, AlphaSpec.sqrt2_minus_1(), h), TorusPoint(0.37, 0.12), \
            Character(1, 1)
    if name == "grid-32768":
        h = AnalyticSeries.from_entries([(3000, 0.1), (-3000, 0.1), (2, 0.3j), (-2, -0.3j)],
                                        tau=1e-3)
        return SkewFlow(1, 1, 1, AlphaSpec.sqrt2_minus_1(), h), TorusPoint(0.37, 0.12), \
            Character(2, 1)
    return ramp_flow(), TorusPoint(0.3, 0.7), Character(1, 2)


@pytest.mark.parametrize("name", ["diophantine", "lacunary", "ramp", "many", "mode-1e6"])
@pytest.mark.parametrize("cut, N", [(1, 400), (3, 2000), (20_000, 30_000), (CHUNK, 100)])
def test_skew_phase_tables_match_per_mode_formula(name, cut, N, skew):
    """The phases of calls over the pieces of a checkpoint every `cut` terms
    (calls of 1 or 3 terms, or cut at 20000 between the multiples of CHUNK:
    a call may start at any term), or of the one call of
    `character_phase_array`, against the per-mode formula, within the
    written bound."""
    flow, p, b = _flow_case(name, skew)
    modes = _kept_modes(flow, p, b)
    assert modes
    bound = _phase_bound(flow, p, b, N)
    ctx = _SkewPhaseContext(flow, p, b, N)
    ph = np.concatenate([_phases(ctx.chunk, u, v - u + 1)
                         for u, v in _pieces(N, range(cut, N, cut))])
    if cut == CHUNK:
        assert np.array_equal(ph, character_phase_array(flow, p, b, N))
    ns = set(range(1, N + 1, max(1, N // 300))) | {N}
    ns |= {n for k in (CHUNK, cut) for v in range(k, N, k) for n in (v, v + 1)}
    for n in sorted(ns):
        assert _circle(ph[n - 1], _per_mode_phase(flow, p, b, n, modes)) <= bound, n


@pytest.mark.parametrize("name", ["diophantine", "lacunary", "ramp"])
@pytest.mark.parametrize("step", [1, 3, 20_000])
def test_skew_sums_match_per_mode_formula(name, step, table, skew):
    """Checkpoints 7, 701, 1111, 1499 and 1500, and one every `step` terms,
    so pieces of 1 or 3 terms or (step > N) only those five cuts: sums == at
    threads 1 and 2, and within 2 pi N times twice the written bound of the
    per-mode sums."""
    flow, p, b = _flow_case(name, skew)
    modes = _kept_modes(flow, p, b)
    N = 1500
    cps = sorted({7, 701, 1111, 1499, N, *range(step, N, step)})
    runs = [mobius_correlate(flow, p, b, table, cps, threads=t) for t in (1, 2)]
    assert runs[0].sums == runs[1].sums
    mu = table.mu_array()
    terms = [int(mu[n]) * cmath.exp(2j * math.pi * _per_mode_phase(flow, p, b, n, modes))
             for n in range(1, N + 1)]
    bound = 2 * math.pi * 2 * _phase_bound(flow, p, b, N)
    for cp, got in zip(cps, runs[0].sums):
        assert abs(got - sum(terms[:cp])) <= bound * cp + 1e-12 * cp, cp


def test_skew_high_modes_keep_a_small_bound():
    """One mode at 10^6 or 5 10^4: the written bound stays near 1e-14 at any
    nmax, against 6.4e-15 written (and 9.9e-11 measured at 1e9) for the
    per-mode anchors.  Over SKEW_HIGH_MODES modes above 8192, or a
    coefficient of G past double range, raise PrecisionError."""
    for name in ("mode-1e6", "mode-5e4"):
        flow, p, b = _flow_case(name, None)
        for nmax in (10, 10**5, 10**9):
            assert _SkewPhaseContext(flow, p, b, nmax).phase_error < 1e-14
    p, b = TorusPoint(0.37, 0.12), Character(1, 1)
    many = [(m, 0.1) for k in range(correlate.SKEW_HIGH_MODES + 1) for m in (9000 + k, -9000 - k)]
    flow = SkewFlow(1, 1, 1, AlphaSpec.sqrt2_minus_1(), AnalyticSeries.from_entries(many, tau=1e-5))
    with pytest.raises(PrecisionError, match="modes above 8192: 65 > 64"):
        _SkewPhaseContext(flow, p, b, 1000)
    flow = SkewFlow(1, 1, 1, AlphaSpec.sqrt2_minus_1(),
                    AnalyticSeries.from_entries([(m, 1e308) for m in (1, -1, 2, -2)], tau=1.0))
    with pytest.raises(PrecisionError, match="overflows double precision"):
        _SkewPhaseContext(flow, p, b, 1000)


@pytest.mark.parametrize("name", ["diophantine", "lacunary", "ramp", "many", "tau-0.1",
                                  "mode-1e6", "mode-5e4", "grid-32768"])
def test_skew_anchors_near_1e9(name, skew):
    """nmax = 10^9 and the last whole window, u = 10^9 - BATCH + 1 and L =
    BATCH, so the quadratic track's j reaches BATCH - 1: the anchors frac(x1 + u
    alpha) and the polynomial part's, over one centre within 2^-(3 bitlen(nmax)
    + 68) of alpha, and the 128-bit tables of j alpha keep the phases within
    the written bound of the per-mode formula.  Each mode's delta_m over a
    centre good to 2^-60 / m, as before the coboundary table, drifted by up
    to n 2^-60 and put the phases of the diophantine flow 9.65e-11 off here.
    A mode above 8192 (10^6, 5 10^4) runs on its own track frac(m (x1 + n
    alpha)), and a mode at 3000 sets a grid of 32768 points; with one
    Taylor table on 4096 points the loop over degrees overflowed at m = 10^6
    and never ended."""
    flow, p, b = _flow_case(name, skew)
    u, L = 10**9 - BATCH + 1, BATCH
    ctx = _SkewPhaseContext(flow, p, b, 10**9)
    ph = _phases(ctx.chunk, u, L)
    modes = _kept_modes(flow, p, b)
    bound = _phase_bound(flow, p, b, 10**9)
    assert ctx.phase_error == pytest.approx(bound, rel=1e-12, abs=0)
    for n in [*range(u, u + L, 97), u + L - 1]:
        assert _circle(ph[n - u], _per_mode_phase(flow, p, b, n, modes)) <= bound, n


@pytest.mark.parametrize("c, b", [(1, Character(2, 1)), (5, Character(1, -1))])
def test_rotation_phases_exact_near_1e7(c, b):
    """b2 c = 1 and -5, no modes: at n near 1e7 the phase is within 1e-12 of
    the exact rational phase.  Reconstructing the quadratic term C(j, 2) A2
    in floats (up to 3.4e7 in magnitude) was off by up to 4e-9 here."""
    flow = SkewFlow(1, c, 1, SQRT2, AnalyticSeries.from_entries([], tau=1.0))
    p = TorusPoint(0.37, 0.12)
    N = 10**7
    ph = character_phase_array(flow, p, b, N)
    assert _kept_modes(flow, p, b) == []
    for n in range(N - 8191, N + 1, 3):
        assert _circle(ph[n - 1], _per_mode_phase(flow, p, b, n, [])) <= 1e-12, n


def test_skew_metadata_reports_error_budget(table, lacunary):
    p, b = TorusPoint(0.37, 0.12), Character(0, 1)
    N = 50_000
    meta = mobius_correlate(lacunary, p, b, table, [N]).metadata
    modes = _kept_modes(lacunary, p, b)
    assert (meta["modes_kept"], meta["modes_dropped"]) == (len(modes), 325) == (20, 325)
    dropped = sum(2 * size for *_, size in _modes(lacunary, p, b) if size < 1e-18)
    assert meta["dropped_bound"] == pytest.approx(dropped, rel=1e-9)
    assert 0 < meta["dropped_bound"] < 1e-17
    # the reduction: 7 pieces of at most 8192 terms, pairwise depth 20 + 13
    reduce = 2 * N * (33 + 7) * 2.0**-53
    assert meta["table_anchor_bound"] == pytest.approx(
        2 * math.pi * N * _phase_bound(lacunary, p, b, N) + reduce, rel=1e-12, abs=0)

    flow = ramp_flow()
    meta = mobius_correlate(flow, p, Character(1, 2), table, [N]).metadata
    assert (meta["modes_kept"], meta["modes_dropped"], meta["dropped_bound"]) == (5, 0, 0.0)
    meta = mobius_correlate(flow, p, Character(1, 0), table, [N]).metadata
    assert (meta["modes_kept"], meta["modes_dropped"]) == (0, 0)
    assert meta["table_anchor_bound"] == pytest.approx(
        2 * math.pi * N * ((BATCH + 3) * 2.0**-64 + 12 * 2.0**-53 + 2.0**-69) + reduce,
        rel=1e-12, abs=0)


def _taylor_table_reference(modes, g, R):
    """The reference for `_taylor_table`: the same sums, with % R on the index
    and broadcast (w, 1) by (w, R) products in fresh temporaries."""
    H, term = [], np.abs(g)
    M, (cos_table, sin_table) = len(modes), correlate._e_table(R)
    x = np.pi / R * np.array([float(m) for m in modes])
    while term.sum() >= correlate.TAYLOR_FLOOR:
        H.append(float(term.sum()))
        term = term * x / len(H)
    table, k, step = np.zeros((len(H), R)), np.arange(R), max(1, 2**16 // R)
    for s in range(0, M, step):
        idx = np.array(modes[s:s + step])[:, None] * k % R
        gr, gi = g[s:s + step, None].real, g[s:s + step, None].imag
        cos, sin = cos_table[idx], sin_table[idx]
        parts = (gr * cos - gi * sin, gr * sin + gi * cos)
        f = np.ones((len(idx), 1))
        for q, row in enumerate(table):
            row += (1, -1, -1, 1)[q % 4] * np.add.reduce(f * parts[q % 2], axis=0)
            f = f * (2 * x[s:s + step, None]) / (q + 1)
    return table, float(term.sum()) + 2.0**-53 * sum((M + 44 + 6 * q) * Hq
                                                     for q, Hq in enumerate(H))


@pytest.mark.parametrize("name", ["geometric-37", "lacunary-20", "dense-400"])
def test_taylor_table_equals_its_reference(name, lacunary):
    """The table built in place, with & (R - 1) and row products, equals the
    reference bit for bit, bound included: 37 modes in three blocks, the 20
    lacunary modes, and 400 dense modes in 25 blocks."""
    flow = {"geometric-37": SkewFlow(1, 1, 1, SQRT2, AnalyticSeries.geometric(1.0, 37)),
            "lacunary-20": lacunary,
            "dense-400": SkewFlow(1, 2, 1, SQRT2, AnalyticSeries.geometric(0.05, 400))}[name]
    kept = _kept_modes(flow, TorusPoint(0.37, 0.12), Character(0, 1))
    modes, g = [m for m, *_ in kept], np.array([2 * c / e2pi_m1(d) for _, c, d in kept])
    assert len(modes) == {"geometric-37": 37, "lacunary-20": 20, "dense-400": 400}[name]
    R = max(E_TABLE_SIZE, 1 << (8 * max(modes) - 1).bit_length())
    got, want = correlate._taylor_table(modes, g, R), _taylor_table_reference(modes, g, R)
    assert got[0].shape == want[0].shape
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert got[1] == want[1]


def test_skew_metadata_reports_its_tables(table, lacunary):
    """`tables` holds (modes, R, P) per coboundary table, the set-up cost M R P
    of each call: the benchmark's diophantine and lacunary flows, and one
    table per mode over TAYLOR_GRID / 8."""
    p, b, N = TorusPoint(0.37, 0.12), Character(0, 1), 50_000
    dio = SkewFlow(1, 1, 1, SQRT2, AnalyticSeries.geometric(1.0, 37))
    assert mobius_correlate(dio, p, b, table, [N]).metadata["tables"] == [(37, 4096, 6)]
    assert mobius_correlate(lacunary, p, b, table, [N]).metadata["tables"] == [(20, 4096, 7)]
    h = AnalyticSeries.from_entries([(3, 0.1), (-3, 0.1), (10**4, 1e-3), (-10**4, 1e-3)],
                                    tau=1e-3)
    ctx = _SkewPhaseContext(SkewFlow(1, 0, 1, SQRT2, h), p, b, N)
    assert ctx.budget([N])["tables"] == [(1, 4096, 6), (1, 4096, 5)]
    assert [table.shape for _, table in ctx.tables] == [(6, 4096), (5, 4096)]


def test_skew_sums_do_not_depend_on_earlier_calls(table):
    """`AlphaSpec.center` scans from depth 1, so a correlation on an alpha
    that first answered frac_fraction(10**40) equals one on a fresh alpha;
    when the scan started at the deepest depth reached before, they
    differed by about 1e-10."""
    h, p, b = AnalyticSeries.geometric(1.0), TorusPoint(0.37, 0.12), Character(1, 1)
    used = AlphaSpec.sqrt2_minus_1()
    used.frac_fraction(10**40)
    sums = [mobius_correlate(SkewFlow(1, 1, 1, alpha, h), p, b, table, [10**5, 10**6]).sums
            for alpha in (AlphaSpec.sqrt2_minus_1(), used)]
    assert sums[0] == sums[1]


# ---------------------------------------------------------------------------
# The e(.)-and-reduce kernel: table, per-term error, reduction order, threads


def _e_reference(ph):
    """Re and Im of e(ph) from mpmath, each as a double-double (hi, lo)."""
    with mpmath.workprec(120):
        zs = [mpmath.expjpi(2 * mpmath.mpf(x)) for x in ph]
        parts = [(float(z.real), float(z.real - float(z.real)),
                  float(z.imag), float(z.imag - float(z.imag))) for z in zs]
    return np.array(parts).T


def test_e_table_entries_within_1_5_ulp():
    re_hi, re_lo, im_hi, im_lo = _e_reference(np.arange(E_TABLE_SIZE) / E_TABLE_SIZE)
    err = np.hypot((_E_COS - re_hi) - re_lo, (_E_SIN - im_hi) - im_lo)
    assert err.max() <= 1.5 * 2.0**-53


def test_e_kernel_per_term_error_against_mpmath():
    """10^5 seeded phases and the edges, the rint ties (2j + 1) / 8192 among
    them, within E_TERM_ERROR = 3 2^-53 for mu = 1, -1 and 0."""
    edges = [0.0, 0.5, 1 - 2.0**-53, 2.0**-60, 4095.5 / 4096, 1.0]
    ph = np.concatenate([np.random.default_rng(20261019).random(10**5), edges,
                         (2 * np.arange(4096) + 1) / 8192])
    re_hi, re_lo, im_hi, im_lo = _e_reference(ph)
    assert E_TERM_ERROR == 3 * 2.0**-53
    for mu in (1, -1, 0):
        rows = np.empty((5, len(ph)))
        rows[0] = ph
        re, im = _e_sums(np.full(len(ph), mu, dtype=np.int8), np.arange(len(ph)), rows)
        err = np.hypot((re - mu * re_hi) - mu * re_lo, (im - mu * im_hi) - mu * im_lo)
        assert err.max() <= E_TERM_ERROR, (mu, ph[err.argmax()], err.max() / 2.0**-53)


def _pairwise(a):
    """numpy's pairwise sum of the floats a, in its order."""
    n = len(a)
    if n < 8:
        res = 0.0
        for x in a:
            res += x
        return res
    if n <= 128:
        r = a[:8]
        for i in range(8, n - n % 8, 8):
            r = [x + y for x, y in zip(r, a[i:i + 8])]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[n - n % 8:]:
            res += x
        return res
    n2 = n // 2 - n // 2 % 8
    return _pairwise(a[:n2]) + _pairwise(a[n2:])


@functools.lru_cache(maxsize=None)
def _pairwise_depth(n):
    """The most additions any term passes through in `_pairwise` of n terms."""
    if n < 8:
        return n
    if n <= 128:
        return n // 8 + 2 + n % 8
    n2 = n // 2 - n // 2 % 8
    return 1 + max(_pairwise_depth(n2), _pairwise_depth(n - n2))


def test_reduction_is_numpy_pairwise_within_the_written_depth():
    """np.add.reduceat sums a segment as its first term plus `_pairwise` of
    the rest, bit for bit, and `reduction_bound`'s depth 20 + max(6,
    bit_length(L - 1)) covers that order's for every L up to 2^17."""
    rng = np.random.default_rng(5)
    for L in [*range(1, 300), 1000, 4097, 8192, 16384, 20_000]:
        x = rng.standard_normal(L) * np.exp(5 * rng.standard_normal(L))
        xs = x.tolist()
        assert np.add.reduceat(x, [0])[0] == xs[0] + _pairwise(xs[1:]), L
    for L in range(2, 2**17):
        assert 1 + _pairwise_depth(L - 1) <= 20 + max(6, (L - 1).bit_length()), L
    assert reduction_bound(10**6, 123) == 2 * 10**6 * (33 + 123) * 2.0**-53


@pytest.mark.parametrize("N, pieces", [(1, 1), (1000, 3), (CHUNK, 1), (CHUNK + 1, 2),
                                       (10**6, 130), (10**9, 122_071)])
def test_sum_bound_is_its_closed_form(N, pieces):
    """`reduction_bound` is 2 N (20 + max(6, bit_length(min(N, CHUNK) - 1)) +
    pieces) 2^-53 exactly, and `sum_bound` N (2 pi 2^-54 + E_TERM_ERROR) +
    that, to a few roundings, in exact arithmetic: a bound cut far below
    its closed form fails here as one too small fails the oracles."""
    u = Fraction(1, 2**53)
    reduce = 2 * N * (20 + max(6, (min(N, CHUNK) - 1).bit_length()) + pieces) * u
    assert Fraction(reduction_bound(N, pieces)) == reduce
    exact = N * (Fraction(2 * math.pi) * u / 2 + 3 * u) + reduce
    assert Fraction(E_TERM_ERROR) == 3 * u
    assert abs(Fraction(sum_bound(N, pieces)) - exact) <= 4 * u * exact


def test_sums_identical_at_one_two_and_three_threads(table, skew):
    """Checkpoints that cut pieces up to 99,999 terms, four batches, and
    also one every 3000 terms, up to 15 pieces to a batch: == at threads
    1, 2 and 3."""
    flow, p = skew
    heis = HeisenbergAffine(HeisenbergElement(Fraction(1, 3), Fraction(1, 7), Fraction(2, 5)),
                            ((1, 0, 0), (1, 1, 0), (Fraction(1, 2), 0, 1)))
    affine = UnipotentAffine(matrix=((1, 1), (0, 1)), translation=(0.1234, 0.0))
    phase = PolyPhase((0.25, -0.1, math.sqrt(3), math.sqrt(2)), nu=3, residue=1)
    for cps in ([777, 20_000, 50_001, 99_999], [777, *range(3000, 99_999, 3000), 99_999]):
        runs = [(mobius_correlate(flow, p, Character(1, 2), table, cps, threads=t).sums,
                 mobius_correlate(affine, (0.2, 0.51), (1, 2), table, cps, threads=t).sums,
                 poly_exp_sum(phase, table, cps[-1], threads=t),
                 correlate_nil(heis, HeisenbergElement(0, 0, 0),
                               NilObservable.character(1, 2, 1), table, cps, threads=t).sums)
                for t in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2], len(cps)


@pytest.mark.parametrize("kwargs", [{"threads": 2.5}, {"threads": "2"}, {"threads": 0},
                                    {"threads": -2}, {"threads": 8192.0}])
def test_correlators_refuse_bad_chunk_and_threads(table, skew, kwargs):
    """Every correlator refuses a thread count that is not an integer >= 1
    (an integral float such as 8192.0 included)."""
    flow, p = skew
    with pytest.raises(DomainError, match="threads must be an integer >= 1"):
        mobius_correlate(flow, p, Character(1, 1), table, [100], **kwargs)
    with pytest.raises(DomainError, match="threads must be an integer >= 1"):
        poly_exp_sum(PolyPhase((0.0, math.sqrt(2))), table, 100, **kwargs)
    with pytest.raises(DomainError, match="threads must be an integer >= 1"):
        poly_exp_sum(PolyPhase((0.0, math.sqrt(2)), nu=7, residue=3), table, 2, **kwargs)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_empty_sums_are_zero_at_any_thread_count(table, threads):
    """No term <= N: a class mod 5 whose first term is beyond N, and N = 0.
    Each layout has no batch, so it has no span either."""
    assert _batches(_pieces(0, [0])) == []
    phase = PolyPhase((0.0, math.sqrt(2)), nu=5, residue=4)
    assert poly_exp_sum(phase, table, 3, threads=threads) == 0j
    assert poly_exp_sum(PolyPhase((0.0, math.sqrt(2))), table, 0, threads=threads) == 0j


def test_more_threads_than_batches(table, skew):
    """threads = 8 over three batches (two whole ones and CHUNK / 2 terms):
    three spans of one batch, == the threads = 1 sums."""
    flow, p = skew
    N = 2 * BATCH + CHUNK // 2
    assert len(_batches(_pieces(N, [N]))) == 3
    phase = PolyPhase((0.25, -0.1, math.sqrt(3), math.sqrt(2)))
    runs = [(mobius_correlate(flow, p, Character(1, 2), table, [777, N], threads=t).sums,
             poly_exp_sum(phase, table, N, threads=t)) for t in (1, 8)]
    assert runs[0] == runs[1]


def test_spans_differ_by_at_most_one_batch(table, monkeypatch):
    """Four batches start a pool of min(4, threads) workers, at threads = 3
    spans of 2, 1 and 1 batches, and the sums are == at threads 1 to 5."""
    started, pool = [], correlate.ThreadPoolExecutor

    def recording(workers):
        started.append(workers)
        return pool(workers)
    monkeypatch.setattr(correlate, "ThreadPoolExecutor", recording)
    phase = PolyPhase((0.25, -0.1, math.sqrt(3), math.sqrt(2)))
    N = 3 * BATCH + CHUNK
    assert len(_batches(_pieces(N, [N]))) == 4
    sums = [poly_exp_sum(phase, table, N, threads=t) for t in range(1, 6)]
    assert started == [2, 3, 4, 4]
    assert len(set(sums)) == 1


def test_one_batch_starts_no_pool(table, monkeypatch):
    """A call of one batch sums in the calling thread at threads = 2; a call
    of two batches does start the (here refused) pool."""
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")
    phase = PolyPhase((0.25, -0.1, math.sqrt(3), math.sqrt(2)))
    one, two = BATCH - CHUNK // 2, BATCH + CHUNK // 2  # one batch of several pieces, two batches
    assert [len(_batches(_pieces(N, [N]))) for N in (one, two)] == [1, 2]
    want = poly_exp_sum(phase, table, one)
    monkeypatch.setattr(correlate, "ThreadPoolExecutor", refuse)
    assert poly_exp_sum(phase, table, one, threads=2) == want
    with pytest.raises(AssertionError, match="thread pool"):
        poly_exp_sum(phase, table, two, threads=2)


def _exact_sources():
    """name -> an exact phase source, a `_Mod1Poly` as the correlators build
    it: one per route of `poly_mod1_array` and per dtype of the bracket's
    residues, and a class chunk with nu = 3."""
    F, r2 = Fraction, Fraction(math.sqrt(2))
    polys = {"horner-uint64": Poly([0, r2, 0, F(math.sqrt(3))]),  # K = 2^52
             "horner-int64": Poly([F(1, 3), F(2, 7), F(-5, 11), F(1, 4)]),  # K = 924
             "horner-object": Poly([0, F(1, 3**25), F(2, 7)]),  # K = 7 3^25 > INT64_MODULUS_MAX
             "limbs": Poly([0, 0, 0, F(1e-4)]),  # K = 2^66
             "split": Poly([0, r2, F(1, 3)])}  # K = 3 2^52
    sources = {name: correlate._Mod1Poly(poly) for name, poly in polys.items()}
    brackets = {  # (P, Z1, Z2, r): K = 64 and D1 D2 = 2^55; 33 and 105; 154 and 7 3^25
        "uint64": (Poly([0, F(5, 32), F(1, 64)]), Poly([F(1, 16), r2]), Poly([0, F(3, 8)]), 1),
        "int64": (Poly([0, F(2, 11)]), Poly([0, F(1, 5), F(1, 7)]), Poly([0, F(1, 3)]), 1),
        "object": (Poly([F(1, 2), F(1, 11)]), Poly([0, F(1, 3**25)]), Poly([0, F(1, 7)]), 2)}
    for name, (P, Z1, Z2, r) in brackets.items():
        sources[f"bracket-{name}"] = correlate._Mod1Poly(P, (Z1, Z2, r))
    for name, source in sources.items():
        kind, dtype = name.rsplit("-", 1) if "-" in name else (name, None)
        route = {"limbs": "_pow2_limbs_mod1", "split": "_split_mod1"}.get(kind, "_horner_mod1")
        assert source.route.func.__name__ == route, name
        if dtype:  # the residues' dtype, and a bracket on the bracket sources alone
            assert source.route.args[2] is {"uint64": np.uint64, "int64": np.int64,
                                            "object": object}[dtype], name
            assert (source.route.args[3] is not None) == (kind == "bracket"), name
    sources["classes-nu3"] = correlate._class_phase_chunk(
        [sources[name] for name in ("horner-uint64", "horner-int64", "split")])
    return sources


EXACT_SOURCES = _exact_sources()


@pytest.mark.parametrize("name", sorted(EXACT_SOURCES))
def test_one_call_per_batch_is_the_calls_per_piece(name):
    """An exact source called once over a batch window A..B, with checkpoint
    cuts inside it, is bit-equal to its calls on the window's pieces, also
    when it writes into a row of scratch, and at n near 1e12."""
    source = EXACT_SOURCES[name]
    N = 3 * BATCH
    cps = [BATCH + 5, BATCH + CHUNK + 1000, 2 * BATCH - 1, N]
    run = _batches(_pieces(N, cps))[1]
    assert len(run) == 7
    for base in (0, 10**12 + 7):
        A, L = run[0][0] + base, run[-1][1] - run[0][0] + 1
        want = np.concatenate([_phases(source, a + base, b - a + 1) for a, b in run])
        assert np.array_equal(_phases(source, A, L).view(np.int64), want.view(np.int64)), base
        rows = np.full((2, L + 3), np.nan)
        assert np.shares_memory(source(A, L, out=rows[0, :L]), rows)
        assert np.array_equal(rows[0, :L].view(np.int64), want.view(np.int64)), base
        assert np.isnan(rows[0, L:]).all() and np.isnan(rows[1]).all()


@pytest.mark.parametrize("threads", [1, 2])
def test_exact_sources_are_called_once_per_batch(table, skew, threads, monkeypatch):
    """On the direct route a source with a `period` is called once per batch,
    over the batch's terms, into scratch; its sums are == those of the same
    phases called per piece.  The skew context, which has no period, is
    called once per batch too."""
    inner, calls = EXACT_SOURCES["horner-uint64"], []

    def source(a, L, out):
        calls.append((a, L, out.base is not None))
        return inner(a, L, out)
    source.period = inner.period
    N = 3 * BATCH - 100
    cps = [BATCH + 5, BATCH + CHUNK + 1000, N]
    windows = [(run[0][0], run[-1][1]) for run in _batches(_pieces(N, cps))]
    assert sum_route(source, N, cps)[0] == "direct"
    mu = table.mu_array()[1:]
    got = correlate._weighted_sums(source, mu, N, cps, threads)
    assert sorted(calls) == [(a, b - a + 1, True) for a, b in windows]
    assert got == correlate._weighted_sums(_per_piece(inner, N, cps), mu, N, cps, 1)

    calls.clear()
    chunk = _SkewPhaseContext.chunk

    def counting(self, u, L, out):
        calls.append((u, u + L - 1))
        return chunk(self, u, L, out)
    monkeypatch.setattr(_SkewPhaseContext, "chunk", counting)
    flow, p = skew
    mobius_correlate(flow, p, Character(1, 2), table, cps, threads=threads)
    assert sorted(calls) == windows


def _per_piece(source, N, cps):
    """source without its period, called once per piece of the layout at (N, cps)."""
    pieces = _pieces(N, cps)

    def phase_chunk(a, L, out):
        for u, v in pieces:
            if a <= u <= v < a + L:
                source(u, v - u + 1, out[u - a:v - a + 1])
        return out
    return phase_chunk


@pytest.mark.parametrize("cuts", ["end", "four", "every-3001"])
def test_skew_sums_take_the_phases_of_character_phase_array(table, skew, cuts, monkeypatch):
    """The phases every skew correlation sums, recorded at each call of
    `_SkewPhaseContext.chunk`, are `character_phase_array(flow, p, b, N)` bit
    for bit at threads 1, 2 and 3, wherever the checkpoints cut: at N alone,
    at 777, 20,000, 50,001 and N, or every 3,001 terms.  While the skew
    tracks stepped from each piece's own anchor, 8,823 and 47,925 of these
    phases differed in their low bits at those cuts."""
    flow, p = skew
    b, N = Character(1, 2), 100_003
    cps = {"end": [N], "four": [777, 20_000, 50_001, N],
           "every-3001": [*range(3001, N, 3001), N]}[cuts]
    want = character_phase_array(flow, p, b, N).view(np.int64)
    chunk, calls = _SkewPhaseContext.chunk, []

    def recording(self, u, L, *out):
        phases = chunk(self, u, L, *out)
        calls.append((u, phases.copy()))
        return phases
    monkeypatch.setattr(_SkewPhaseContext, "chunk", recording)
    for threads in (1, 2, 3):
        calls.clear()
        mobius_correlate(flow, p, b, table, cps, threads=threads)
        got = np.zeros(N, dtype=np.int64)
        for u, phases in calls:
            got[u - 1:u - 1 + len(phases)] = phases.view(np.int64)
        assert sum(len(phases) for _, phases in calls) == N
        assert np.array_equal(got, want), (threads, int(np.count_nonzero(got != want)))


@pytest.mark.parametrize("threads", [True, THREADS_MAX + 1, np.int64(THREADS_MAX + 1), 100_000])
def test_correlators_refuse_too_many_threads_and_bools(table, skew, threads):
    """A thread count above THREADS_MAX, or True, is refused at entry; no
    thread is started.  THREADS_MAX itself is taken, here by a call of one
    batch, which runs in the calling thread."""
    flow, p = skew
    phase = PolyPhase((0.0, math.sqrt(2)))
    with pytest.raises(DomainError, match="threads must be an integer >= 1"):
        mobius_correlate(flow, p, Character(1, 1), table, [100], threads=threads)
    with pytest.raises(DomainError, match="threads must be an integer >= 1"):
        poly_exp_sum(phase, table, 100, threads=threads)
    assert poly_exp_sum(phase, table, 100, threads=THREADS_MAX) == poly_exp_sum(phase, table, 100)


@pytest.mark.parametrize("checkpoints", [[5, 5], [100, 7, 100], [3.5], [10, 20.2], ["7"]])
def test_correlators_refuse_fractional_and_repeated_checkpoints(table, skew, monkeypatch,
                                                                 checkpoints):
    """A repeated checkpoint, which `CorrelationSeries` refused only once the
    whole sum was done, and one that is not an integer, which ran truncated
    (3.5 as 3), are refused before any term is summed; 1e3 as a float is 1000.
    `irregularity_probe` checks its windows the same way (it took 3.5 as 3
    and summed a repeated window twice)."""
    def refuse(*args):
        raise AssertionError("a sum was started")
    flow, p = skew
    T, x = _heisenberg("readme")
    aff = UnipotentAffine(matrix=((1, 1), (0, 1)), translation=(0.2, 0.0))
    assert mobius_correlate(aff, (0.2, 0.51), (1, 2), table, [1e3]).checkpoints == (1000,)
    monkeypatch.setattr(correlate, "_weighted_sums", refuse)
    for run in (lambda: mobius_correlate(flow, p, Character(1, 2), table, checkpoints),
                lambda: mobius_correlate(aff, (0.2, 0.51), (1, 2), table, checkpoints),
                lambda: correlate_nil(T, x, NilObservable.character(1, 2, 1), table, checkpoints),
                lambda: irregularity_probe(FurstenbergSystem.build(1.0, 4), Character(1, 0),
                                           TorusPoint(0.0, 0.0), checkpoints)):
        with pytest.raises(DomainError, match="checkpoints must be distinct integers"):
            run()


def _greedy_batches(pieces):
    """The batch layout as first written: runs of consecutive pieces of at most BATCH terms."""
    runs, size = [], BATCH
    for a, b in pieces:
        if size + b - a + 1 > BATCH:
            runs.append([])
            size = 0
        runs[-1].append((a, b))
        size += b - a + 1
    return runs


def test_batches_are_the_fixed_windows_of_the_piece_layout():
    """For random N and checkpoints, the batches concatenate to the pieces in
    order, each lies in one window of terms k BATCH + 1..(k + 1) BATCH, none
    is wider than min(N, BATCH), and they are the greedy runs of old."""
    rng = random.Random(20)
    for _ in range(300):
        N = rng.choice([rng.randrange(0, 3 * BATCH), rng.randrange(0, 40 * BATCH)])
        cps = [N, *(rng.randrange(0, N + 1) for _ in range(rng.randrange(0, 40)))]
        if rng.random() < 0.3:
            cps += [k * CHUNK + rng.choice((-1, 0, 1)) for k in range(N // CHUNK + 1)]
        pieces = _pieces(N, cps)
        batches = _batches(pieces)
        assert [piece for run in batches for piece in run] == pieces, (N, cps)
        for run in batches:
            assert (run[0][0] - 1) // BATCH == (run[-1][1] - 1) // BATCH
            assert run[-1][1] - run[0][0] + 1 <= min(N, BATCH)
        assert batches == _greedy_batches(pieces), (N, cps)


def test_every_correlator_sums_through_the_one_driver(table, skew, monkeypatch):
    """`mobius_correlate`, `poly_exp_sum`, `correlate_nil` and
    `irregularity_probe` all look `correlate._weighted_sums` up when they
    run, so one patch of it reaches every sum."""
    driver, calls = correlate._weighted_sums, []

    def counting(phase_chunk, weights, N, checkpoints, threads):
        calls.append(N)
        return driver(phase_chunk, weights, N, checkpoints, threads)
    monkeypatch.setattr(correlate, "_weighted_sums", counting)
    flow, p = skew
    heis = HeisenbergAffine(HeisenbergElement(Fraction(1, 3), Fraction(1, 7), Fraction(2, 5)),
                            ((1, 0, 0), (1, 1, 0), (Fraction(1, 2), 0, 1)))
    runs = {
        "mobius_correlate": lambda: mobius_correlate(flow, p, Character(1, 2), table, [99, 999]),
        "poly_exp_sum": lambda: poly_exp_sum(PolyPhase((0.0, math.sqrt(2))), table, 999),
        "correlate_nil": lambda: correlate_nil(heis, HeisenbergElement(0, 0, 0),
                                               NilObservable.character(1, 2, 1), table, [999]),
        "irregularity_probe": lambda: irregularity_probe(
            FurstenbergSystem.build(1.0, 4), Character(1, 0), TorusPoint(0.0, 0.0), [81, 999]),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls == [999], name


# ---------------------------------------------------------------------------
# The class route: sums of rational-period phases over the P residue classes


def _rational_cases():
    """name -> (phase_chunk, weights index) of the rational maps, built as the
    correlators build them: the nil maps of test_golden with the characters
    (1, 2, 0) and (1, 2, 1), the rational affine maps, and a rational
    `PolyPhase` on n = 1 (mod 3), whose sum runs in t over mu[1::3]."""
    cases = {}
    for heis in ("readme", "order3", "order4", "order6", "readme-dyadic-g", "readme-odd-k"):
        T, x = _heisenberg(heis)
        for pqr in ((1, 2, 0), (1, 2, 1)):
            cases[f"nil-{heis}-{''.join(map(str, pqr))}"] = (correlate._class_phase_chunk(
                [_residue_phase(compile_poly_orbit(T, x, l), *pqr) for l in range(T.nu)]),
                slice(1, None))
    for name in ("shear3", "order4", "order6"):
        W, b, x, v = AFFINE[name]
        aff = UnipotentAffine(matrix=W, translation=tuple(Fraction(t) for t in b))
        x = tuple(Fraction(t) for t in x)
        cases[f"affine-{name}"] = (correlate._class_phase_chunk(
            [correlate._Mod1Poly(unipotent_phase_poly(aff, x, v, l).as_poly()
                                 .compose_linear(aff.nu, l)) for l in range(aff.nu)]),
            slice(1, None))
    cases["poly-nu3"] = (correlate._Mod1Poly(RATIONAL_NU3.as_poly().compose_linear(3, -2)),
                         slice(1, None, 3))
    return cases


RATIONAL_NU3 = PolyPhase((Fraction(1, 3), Fraction(2, 7), Fraction(-5, 11), Fraction(1, 4)),
                         nu=3, residue=1)
RATIONAL_CASES = _rational_cases()


def _direct(phase_chunk):
    """phase_chunk without its period: the driver's direct route, with no knob."""
    return lambda a, L, out: phase_chunk(a, L, out)


def _bounds(N, cps):
    """Twice `sum_bound` at each checkpoint: two routes over the same phases differ by less."""
    pieces = _pieces(N, cps)
    return [2 * sum_bound(c, sum(1 for _, b in pieces if b <= c)) for c in cps]


@pytest.fixture(scope="module")
def table2():
    return mobius_sieve(2_100_000)


@pytest.mark.parametrize("name", sorted(RATIONAL_CASES))
def test_class_route_within_bound_of_the_direct_route(name, table2):
    """On each side of the threshold CLASS_RATIO P len(checkpoints) <= N:
    below it the driver sums directly, bit for bit as the period-less
    phases do; from it on over the classes, within twice `sum_bound` of the
    direct sums, and == at threads 1 and 2.  Periods over CLASS_PERIOD_MAX
    (order3 and order6 with (1, 2, 1)) are checked at N = 1e5 only."""
    phase_chunk, index = RATIONAL_CASES[name]
    weights, P = table2.mu_array()[index], phase_chunk.period
    k = 3 if 3 * CLASS_RATIO * P <= len(weights) else 1
    N0 = CLASS_RATIO * P * k  # the least N of the class route
    for N in (min(N0 - 1, 10**5), N0, 3 * N0):
        if N > len(weights):
            continue
        cps = [N // 3, N // 2, N][3 - k:]
        route, period = sum_route(phase_chunk, N, cps)
        assert period == P
        assert route == ("classes" if N >= N0 and P <= CLASS_PERIOD_MAX else "direct"), N
        got = [correlate._weighted_sums(phase_chunk, weights, N, cps, t) for t in (1, 2)]
        want = correlate._weighted_sums(_direct(phase_chunk), weights, N, cps, 1)
        assert got[0] == got[1]
        if route == "direct":
            assert got[0] == want
        for g, w, bound in zip(got[0], want, _bounds(N, cps)):
            assert abs(g - w) <= bound, (N, g, w, bound)


def test_correlators_take_the_class_route_and_report_it(table2):
    """mobius_correlate (affine), correlate_nil and poly_exp_sum take the class
    route through the driver alone: their sums == the driver's on the same
    phases, the metadata names the route and the period, and the sums are ==
    at threads 1 and 2."""
    T, x = _heisenberg("readme")
    nil = [correlate_nil(T, x, NilObservable.character(1, 2, 0), table2, [10**4, 10**5],
                         threads=t) for t in (1, 2)]
    W, b, xa, v = AFFINE["order4"]
    aff = UnipotentAffine(matrix=W, translation=tuple(Fraction(t) for t in b))
    affine = [mobius_correlate(aff, tuple(Fraction(t) for t in xa), v, table2,
                               [10**5, 2 * 10**6], threads=t) for t in (1, 2)]
    mu = table2.mu_array()
    for series, name in ((nil, "nil-readme-120"), (affine, "affine-order4")):
        phase_chunk, index = RATIONAL_CASES[name]
        cps, N = list(series[0].checkpoints), series[0].checkpoints[-1]
        assert series[0].sums == series[1].sums
        assert (series[0].metadata["route"], series[0].metadata["period"]) == (
            "classes", phase_chunk.period)
        assert list(series[0].sums) == correlate._weighted_sums(phase_chunk, mu[index], N, cps, 1)
    phase_chunk, index = RATIONAL_CASES["poly-nu3"]
    count = len(range(1, 2 * 10**6 + 1, 3))
    assert sum_route(phase_chunk, count, [count])[0] == "classes"
    assert [poly_exp_sum(RATIONAL_NU3, table2, 2 * 10**6, threads=t) for t in (1, 2)] == \
        correlate._weighted_sums(phase_chunk, mu[index], count, [count], 1) * 2


@functools.cache
def _exact_readme_sums(pqr, cps, mu_bytes):
    """On the README map, sum_phi e(phi) sum_{n: phase(n) = phi} mu(n) at each
    checkpoint, over the exact phases frac(p v1 + q v2 + r v3) of the reduced
    orbit, with e(.) in mpmath at 80 bits; mu_bytes holds mu(0..max cps)."""
    T, x = _heisenberg("readme")
    mu = np.frombuffer(mu_bytes, dtype=np.int8)
    reps = [compile_poly_orbit(T, x, l) for l in range(T.nu)]
    counts, exact = {}, []
    for n in range(1, cps[-1] + 1):
        if mu[n]:
            v = reps[n % T.nu].evaluate_reduced(n).coords()
            phase = sum(k * c for k, c in zip(pqr, v)) % 1
            counts[phase] = counts.get(phase, 0) + int(mu[n])
        if n in cps:
            with mpmath.workprec(80):
                exact.append(complex(mpmath.fsum(
                    m * mpmath.expjpi(2 * mpmath.mpf(f.numerator) / f.denominator)
                    for f, m in counts.items())))
    return exact


@pytest.mark.parametrize("pqr", [(1, 2, 0), (1, 2, 1)])
def test_class_route_against_exact_rational_phases(table, pqr):
    """The README map at N = 2e4 against `_exact_readme_sums`: within
    `sum_bound` on the class route."""
    T, x = _heisenberg("readme")
    cps = (7_777, 20_000)
    series = correlate_nil(T, x, NilObservable.character(*pqr), table, cps)
    assert series.metadata["route"] == "classes"
    exact = _exact_readme_sums(pqr, cps, table.mu_array()[:cps[-1] + 1].tobytes())
    for got, want, bound in zip(series.sums, exact, _bounds(cps[-1], cps)):
        assert abs(got - want) <= bound / 2, (got, want, bound / 2)


def test_affine_and_nil_metadata_carry_sum_bound(table):
    """An affine series carries `sum_bound`(N, pieces) and a nil series sum |w|
    times `sum_bound`(N, pieces + 2 terms), N the last checkpoint."""
    cps = [10**4, 123_457, 200_000]
    pieces = len(_pieces(cps[-1], cps))
    W, b, xa, v = AFFINE["order4"]
    aff = UnipotentAffine(matrix=W, translation=tuple(Fraction(t) for t in b))
    meta = mobius_correlate(aff, tuple(Fraction(t) for t in xa), v, table, cps).metadata
    assert meta["sum_bound"] == sum_bound(cps[-1], pieces)
    T, x = _heisenberg("readme")
    f = NilObservable(terms=((0.5 + 0j, 1, 2, 0), (-2j, 1, 2, 1), (1.5, 0, 1, 0)))
    meta = correlate_nil(T, x, f, table, cps).metadata
    assert meta["sum_bound"] == 4.0 * sum_bound(cps[-1], pieces + 6)
    meta = correlate_nil(T, x, NilObservable.character(1, 2, 1), table, cps).metadata
    assert meta["sum_bound"] == sum_bound(cps[-1], pieces + 2)


def test_nil_sum_within_its_metadata_bound_of_the_exact_sum(table):
    """The README map with (1, 2, 1) at N = 2e4 lies within the `sum_bound`
    of its metadata of `_exact_readme_sums`, and the bound is not vacuous: it
    is under 1e-9 of N."""
    T, x = _heisenberg("readme")
    cps = (7_777, 20_000)
    series = correlate_nil(T, x, NilObservable.character(1, 2, 1), table, cps)
    want = _exact_readme_sums((1, 2, 1), cps, table.mu_array()[:cps[-1] + 1].tobytes())[-1]
    bound = series.metadata["sum_bound"]
    assert abs(series.sums[-1] - want) <= bound < 1e-9 * cps[-1]


@pytest.mark.parametrize("name", sorted(RATIONAL_CASES))
def test_phases_repeat_with_the_period(name):
    """phase_chunk(n + P) is bit-equal to phase_chunk(n) at seeded n, and, on
    the README map, P over a prime factor of P fails that check.  The rule's P
    need not be the least period: the order-3 map's (1, 2, 0) has P = 945,
    and its phases repeat every 3 terms."""
    phase_chunk, _ = RATIONAL_CASES[name]
    P, rng = phase_chunk.period, random.Random(21)
    starts = [rng.randrange(1, 10**9) for _ in range(8)]

    def repeats(d):
        return all(np.array_equal(_phases(phase_chunk, u, 64).view(np.int64),
                                  _phases(phase_chunk, u + d, 64).view(np.int64)) for u in starts)
    assert repeats(P)
    if name in ("nil-readme-120", "nil-readme-121"):
        primes = [p for p in range(2, 12) if P % p == 0 and all(p % q for q in range(2, p))]
        assert not all(repeats(P // p) for p in primes), P


def test_bracket_period_counts_the_floor():
    """frac(t/2 + floor(t/5) t/2) has K = 2 but period lcm(K, D1 D2) = 10:
    floor(t/5) mod 2 repeats only every 10 terms."""
    Z1, Z2 = Poly([0, Fraction(1, 5)]), Poly([0, Fraction(1, 2)])
    source = correlate._Mod1Poly(Z2, (Z1, Z2, 1))
    assert source.period == 10
    phases = _phases(source, 0, 40)
    assert np.array_equal(phases[10:], phases[:-10])
    assert not np.array_equal(phases[2:], phases[:-2])


@pytest.mark.parametrize("pqr", [(1, 2, 0), (1, 2, 1)])
def test_float_g_sums_directly(table, pqr):
    """g read exactly from doubles puts 2^52 in the denominators: the period is
    far over CLASS_PERIOD_MAX and the driver sums directly."""
    T, x = _heisenberg("readme-float-g")
    series = correlate_nil(T, x, NilObservable.character(*pqr), table, [10**4, 10**5])
    assert series.metadata["route"] == "direct"
    assert series.metadata["period"] >= 2**52


def test_skew_series_sum_directly(table, skew):
    flow, p = skew
    meta = mobius_correlate(flow, p, Character(1, 2), table, [10**4]).metadata
    assert (meta["route"], meta["period"]) == ("direct", None)


@pytest.mark.parametrize("P", [1, 2, 21, 4095, 4097, 12012])
def test_class_counts_are_exact(P):
    """`_add_class_counts` over consecutive random ranges, which cut rows and
    segments anywhere, equals np.bincount of the positions mod P."""
    rng = np.random.default_rng(P)
    weights = rng.integers(-1, 2, size=2 * 1024 * 4096 + 777).astype(np.int8)
    cuts = sorted({0, len(weights), *rng.integers(0, len(weights), size=6).tolist()})
    counts, want = np.zeros(P, dtype=np.int64), np.zeros(P)
    for a, b in zip(cuts, cuts[1:]):
        correlate._add_class_counts(counts, weights, a, b)
        want += np.bincount(np.arange(a, b) % P, weights=weights[a:b], minlength=P)
        assert np.array_equal(counts, want.astype(np.int64)), (P, a, b)
