"""Continued fractions: exact convergents, the two-sided inequality,
the flat/sharp partition, and the case classifier."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusflow.analytic import AnalyticSeries
from mobiusflow.cfrac import (AlphaSpec, caseC_condition_rhs_logs, cf_expand,
                              choose_B, classify_case, convergent_inequality_holds,
                              partition_Q, two_series_partial_sums,
                              with_partition)
from mobiusflow.errors import DomainError, PrecisionError
from mobiusflow.furstenberg import FurstenbergSystem, build_alpha


GEO = AnalyticSeries.geometric(1.0)


def test_rational_half_terminates():
    cf = cf_expand(AlphaSpec.rational(1, 2), 10)
    assert cf.quotients == (0, 2)
    assert cf.convergent(1) == Fraction(1, 2)


def test_sqrt2_denominators():
    cf = cf_expand(AlphaSpec.sqrt2_minus_1(), 10)
    assert cf.denominators[:6] == (1, 2, 5, 12, 29, 70)


def test_sqrt2_convergents_are_best_approximations():
    """Exhaustive-denominator oracle: no q' < q_k approximates better."""
    alpha = AlphaSpec.sqrt2_minus_1()
    cf = cf_expand(alpha, 12)
    val = alpha.center(Fraction(1, 10**40))
    for k in (2, 3, 4):
        lk, qk = cf.numerators[k], cf.denominators[k]
        best = abs(val - Fraction(lk, qk))
        for q in range(1, qk):
            p = round(val * q)
            assert abs(val - Fraction(p, q)) > best


def test_golden_fibonacci():
    cf = cf_expand(AlphaSpec.golden_frac(), 10)
    assert cf.denominators == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
    assert cf.numerators[2:] == tuple(cf.denominators[1:-1])


@pytest.mark.parametrize("alpha", [
    AlphaSpec.sqrt2_minus_1(),
    AlphaSpec.golden_frac(),
    AlphaSpec.quadratic([0, 1, 2], [3, 1], label="mixed"),
])
def test_two_sided_inequality_quadratic(alpha):
    cf = cf_expand(alpha, 18)
    for k in range(2, cf.depth):
        assert convergent_inequality_holds(cf, k), k


@pytest.mark.parametrize("tau,K", [(0.5, 5), (1.0, 4), (2.0, 3)])
def test_two_sided_inequality_lacunary(tau, K):
    alpha = build_alpha(tau, K)
    depth = len(alpha.quotient_seq) - 1
    cf = cf_expand(alpha, depth)
    for k in range(2, cf.depth):
        assert convergent_inequality_holds(cf, k), (tau, k)


def test_denominator_growth_bound():
    for alpha in (AlphaSpec.golden_frac(), AlphaSpec.sqrt2_minus_1()):
        cf = cf_expand(alpha, 25)
        for k in range(2, cf.depth + 1):
            assert cf.denominators[k] ** 2 >= 2 ** (k - 1)


def test_partition_fibonacci_all_flat():
    cf = cf_expand(AlphaSpec.golden_frac(), 20)
    flat, sharp = partition_Q(cf, 2)
    assert sharp == frozenset()
    assert 1 in flat


def test_partition_liouville_like_sharp():
    # a_{k+1} ~ q_k-th power growth puts every large q in the sharp set at B=3
    quots = [0, 2]
    q = [1, 2]
    for k in range(1, 5):
        a = q[-1] ** 4
        quots.append(a)
        q.append(a * q[-1] + q[-2])
    alpha = AlphaSpec.from_quotients(quots)
    cf = cf_expand(alpha, len(quots) - 1)
    flat, sharp = partition_Q(cf, 3)
    for k in range(1, cf.depth):
        qk = cf.denominators[k]
        if qk >= 2:
            assert qk in sharp
    assert 1 in flat


def test_partition_single_convergent():
    cf = cf_expand(AlphaSpec.rational(0, 1), 5)
    flat, sharp = partition_Q(cf, 2)
    assert flat == frozenset({1}) and sharp == frozenset()


def test_partition_is_partition():
    cf = cf_expand(AlphaSpec.sqrt2_minus_1(), 15)
    for B in (2, 3, 8):
        flat, sharp = partition_Q(cf, B)
        assert not (flat & sharp)
        decidable = {1} | {cf.denominators[k] for k in range(1, cf.depth)}
        assert flat | sharp == decidable


@pytest.mark.parametrize("B", [0, -3])
def test_partition_refuses_B_below_one(B):
    cf = cf_expand(AlphaSpec.sqrt2_minus_1(), 15)
    for partition in (partition_Q, with_partition):
        with pytest.raises(DomainError, match="B must be >= 1"):
            partition(cf, B)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=5),
       st.integers(2, 9))
def test_partition_membership_from_q_alone(period, B):
    """Membership is decided by (q, q+, B) only."""
    alpha = AlphaSpec.quadratic([0], period)
    cf = cf_expand(alpha, 12)
    flat, sharp = partition_Q(cf, B)
    for k in range(cf.depth):
        qk, qk1 = cf.denominators[k], cf.denominators[k + 1]
        if qk == 1:
            assert qk in flat
        elif qk1 > qk**B:
            assert qk in sharp
        else:
            assert qk in flat


def test_choose_B_examples():
    assert choose_B(1.0, 1, 1.0) == 8
    assert choose_B(1.0, 1, math.e / 16) == 4
    assert choose_B(1.0, 10, 2.0) == 20


def test_fractional_phase_exact_rational():
    alpha = AlphaSpec.rational(1, 3)
    assert alpha.frac_float(7) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert alpha.frac_float(0) == 0.0


def test_fractional_phase_vs_high_precision():
    alpha = AlphaSpec.sqrt2_minus_1()
    with mpmath.workprec(256):
        want = float(mpmath.frac(10**6 * (mpmath.sqrt(2) - 1)))
    assert abs(alpha.frac_float(10**6) - want) < 1e-12


def test_fractional_phase_precision_guard():
    shallow = AlphaSpec.from_quotients([0, 2, 3, 1, 2])
    with pytest.raises(PrecisionError):
        shallow.frac_float(10**9)


def test_enclosure_and_classifier_do_not_depend_on_earlier_calls():
    """enclosure(5) is the pair of convergents 12/29 and 29/70 of sqrt 2 - 1
    before and after a frac_fraction(10**40), and so is the classifier's
    report.  The enclosure once started at the deepest depth `center` had
    reached, and after that call was 3.7e-59 wide."""
    alpha = AlphaSpec.sqrt2_minus_1()

    def outputs():
        return alpha.enclosure(5), classify_case(cf_expand(alpha, 12), GEO, 10**6, d1=2, b2=1,
                                                 B=2)
    before = outputs()
    assert before[0] == (Fraction(12, 29), Fraction(29, 70))
    alpha.frac_fraction(10**40)
    assert outputs() == before


def test_quotient_list_depth_guard():
    alpha = AlphaSpec.from_quotients([0, 2, 3])
    with pytest.raises(PrecisionError):
        cf_expand(alpha, 10)


def test_classifier_golden_no_sharp_scale():
    cf = cf_expand(AlphaSpec.golden_frac(), 40)
    rep = classify_case(cf, GEO, 10**6, d1=2, b2=1, B=8)
    assert rep.label == "NoSharpScale"
    assert rep.J == 0


def test_classifier_furstenberg_label():
    alpha = build_alpha(1.0, 4)
    cf = cf_expand(alpha, len(alpha.quotient_seq) - 1)
    sysm = FurstenbergSystem.build(1.0, 4)
    rep = classify_case(cf, sysm.combined, 10**6, d1=2, b2=1, B=4)
    assert rep.label in {"A", "B", "C1", "C2"}
    assert rep.m_J is not None and rep.m_J <= rep.Y
    assert rep.Y == pytest.approx(8.0 * math.log(10**6), rel=1e-12)
    # theta bracket (4.27)-style, exact
    assert Fraction(1, 2 * rep.m_J_plus) <= rep.theta_J <= Fraction(1, rep.m_J_plus)


def test_classifier_parameter_formulas():
    # D = [tau2/tau] + 2 and C = 20 d1 D + 20 for tau2 = 2.5, tau = 1, d1 = 2
    h = AnalyticSeries.geometric(1.0)
    h.tau2 = 2.5
    cf = cf_expand(AlphaSpec.from_quotients([0, 2, 10**250]), 2)
    rep = classify_case(cf, h, 16, d1=2, b2=1, B=8)
    assert rep.D == 4
    assert rep.C == 20 * 2 * 4 + 20


def test_classifier_all_labels_reachable():
    h = AnalyticSeries.geometric(1.0)
    repB = classify_case(cf_expand(AlphaSpec.from_quotients([0, 2, 10**250]), 2),
                         h, 16, d1=2, b2=1, B=8)
    assert repB.label == "B"
    repC1 = classify_case(cf_expand(AlphaSpec.from_quotients([0, 2, 10**4339]), 2),
                          h, 10**4343, d1=2, b2=1, B=8)
    assert repC1.label == "C1"
    repC2 = classify_case(cf_expand(AlphaSpec.from_quotients([0, 2, 10**4350]), 2),
                          h, 10**4343, d1=2, b2=1, B=8)
    assert repC2.label == "C2"


def test_classifier_rejects_rational():
    cf = cf_expand(AlphaSpec.rational(2, 7), 10)
    with pytest.raises(DomainError, match="rational"):
        classify_case(cf, GEO, 1000, d1=2, b2=1)


def test_classifier_scale_ladder():
    """Two sharp scales: the successor ladder m_j+ > m_1^(B^j) holds."""
    alpha = build_alpha(0.5, 6)
    cf = cf_expand(alpha, len(alpha.quotient_seq) - 1)
    sysm = FurstenbergSystem.build(0.5, 6)
    N = 2 * 10**18   # arithmetic-only: puts Y above the second sharp scale
    rep = classify_case(cf, sysm.combined, N, d1=2, b2=1, B=2)
    assert rep.J >= 2
    m1 = rep.scales[0]
    for j, mjp in enumerate(rep.successors, start=1):
        assert math.log(mjp) > (rep.B ** j) * math.log(m1)


def test_case_condition_rhs_eventually_grows():
    sysm = FurstenbergSystem.build(1.0, 4)
    cf = cf_expand(sysm.alpha, len(sysm.alpha.quotient_seq) - 1)
    rep = classify_case(cf, sysm.combined, 10**6, d1=2, b2=1, B=4)
    logs = caseC_condition_rhs_logs(rep, sysm.combined, [q for q in sysm.q if q >= 2])
    assert logs[-1] > logs[-2] > logs[-3]
    assert logs[-1] > 3 * math.log(rep.d1)


def test_two_series_tail_small():
    cf = with_partition(cf_expand(AlphaSpec.sqrt2_minus_1(), 24), 8)
    h = AnalyticSeries.geometric(1.0, M=300)
    sums = two_series_partial_sums(cf, h, 1000)
    # positive terms: per-scale partial sums are monotone by construction
    assert all(v >= 0 for _, v in sums["series1"])
    assert all(v >= 0 for _, v in sums["series2"])
    tail = sum(v for q, v in sums["series1"] if q >= 32)
    tail += sum(v for q, v in sums["series2"] if q >= 32)
    assert tail < 1e-6
    assert sums["series1_total"] < math.inf and sums["series2_total"] < math.inf
