"""Series evaluation, Birkhoff sums (both routes), cobounding solutions,
and the sharp-scale window machinery."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusflow.analytic import (AnalyticSeries, ScaleFunction, big_H,
                                 birkhoff_sum_direct, birkhoff_sum_fourier,
                                 birkhoff_tail_bound, caseB_polynomial,
                                 caseB_taylor, cobounding_series,
                                 coboundary_residual, e2pi, eval_series,
                                 rational_case_decompose, scale_window)
from mobiusflow.cfrac import AlphaSpec, cf_expand, classify_case, phi_scale, with_partition
from mobiusflow.errors import DomainError
from mobiusflow.furstenberg import FurstenbergSystem, build_alpha

RNG = np.random.default_rng(2024)
SQRT2 = AlphaSpec.sqrt2_minus_1()


def naive_eval(h, x):
    return sum(c * cmath.exp(2j * cmath.pi * m * x) for m, c in h.items())


def test_eval_cosine_at_zero():
    h = AnalyticSeries.cosine()
    assert eval_series(h, 0.0) == pytest.approx(1.0)
    assert eval_series(h, 0.25).real == pytest.approx(0.0, abs=1e-12)


def test_eval_periodicity():
    h = AnalyticSeries.geometric(1.3)
    for x in RNG.random(20):
        assert eval_series(h, x) == pytest.approx(eval_series(h, x + 1.0), abs=1e-12)


def test_eval_matches_direct_summation_oracle():
    sysm = FurstenbergSystem.build(0.5, 5)
    got = eval_series(sysm.combined, 0.3)
    want = naive_eval(sysm.combined, 0.3)
    assert abs(got - want) < 1e-12


def test_decay_witness_recorded():
    h = AnalyticSeries.geometric(0.7)
    for m, c in h.items():
        assert abs(c) <= h.c_up * math.exp(-h.tau * abs(m)) * (1 + 1e-12)
        assert abs(c) >= h.c_low * math.exp(-h.tau2 * abs(m)) * (1 - 1e-12)


def test_reality_detection():
    real = AnalyticSeries.from_entries([(1, 0.2 + 0.3j), (-1, 0.2 - 0.3j)], tau=1.0)
    assert real.is_real
    lop = AnalyticSeries.from_entries([(1, 0.2 + 0.3j)], tau=1.0)
    assert not lop.is_real


def test_birkhoff_direct_trivials():
    h = AnalyticSeries.cosine()
    assert birkhoff_sum_direct(h, 0.3, SQRT2, 0) == 0
    assert birkhoff_sum_direct(h, 0.3, SQRT2, 1) == pytest.approx(
        eval_series(h, 0.3), abs=1e-12)


@pytest.mark.parametrize("alpha", [SQRT2, AlphaSpec.golden_frac(), AlphaSpec.rational(3, 7),
                                   build_alpha(1.0, 4)],
                         ids=["sqrt2-1", "golden", "3/7", "furstenberg-1-4"])
def test_birkhoff_direct_equals_per_term_fraction_formula(alpha):
    """Phases from integer residues are float((j * alpha) % 1) in Fraction: the sum is ==."""
    h = AnalyticSeries.geometric(1.3)
    x1, n = 0.123, 10**4
    step = alpha.frac_fraction(1)
    phases = np.array([float((j * step) % 1) for j in range(n)], dtype=np.float64)
    want = 0j
    for m, c in h.items():
        want += c * np.exp(2j * np.pi * np.mod(m * x1 + m * phases, 1.0)).sum()
    assert birkhoff_sum_direct(h, x1, alpha, n) == complex(want)


def test_birkhoff_fourier_vs_direct_cosine():
    h = AnalyticSeries.cosine()
    d = birkhoff_sum_direct(h, 0.123, SQRT2, 1000)
    f = birkhoff_sum_fourier(h, 0.123, SQRT2, 1000)
    assert abs(d - f) < 1e-9


def test_birkhoff_fourier_rational_convention():
    # All support divisible by q = 2: every term rides the n-convention.
    h = AnalyticSeries.from_entries([(2, 0.3 + 0.1j), (-2, 0.3 - 0.1j)], tau=1.0)
    alpha = AlphaSpec.rational(1, 2)
    x1 = 0.17
    got = birkhoff_sum_fourier(h, x1, alpha, 5)
    want = 5 * (h.coeff(2) * e2pi(2 * x1) + h.coeff(-2) * e2pi(-2 * x1))
    assert abs(got - want) < 1e-12
    assert birkhoff_sum_fourier(h, x1, alpha, 0) == 0
    # and the fourier route agrees with direct summation exactly here
    d = birkhoff_sum_direct(h, x1, alpha, 5)
    assert abs(got - d) < 1e-12


def test_birkhoff_agreement_within_tail_bound():
    h = AnalyticSeries.geometric(1.0, M=40)
    for _ in range(25):
        x1 = float(RNG.random())
        n = int(RNG.integers(1, 400))
        M = int(RNG.integers(3, 12))
        d = birkhoff_sum_direct(h, x1, SQRT2, n)
        f = birkhoff_sum_fourier(h, x1, SQRT2, n, M=M)
        assert abs(d - f) <= birkhoff_tail_bound(h, n, M) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 300), st.integers(0, 300), st.floats(0, 1, exclude_max=True))
def test_cocycle_identity(n, m, x1):
    h = AnalyticSeries.geometric(1.5, M=20)
    whole = birkhoff_sum_direct(h, x1, SQRT2, n + m)
    first = birkhoff_sum_direct(h, x1, SQRT2, n)
    shifted_start = (x1 + float(SQRT2.frac_fraction(n))) % 1.0
    second = birkhoff_sum_direct(h, shifted_start, SQRT2, m)
    assert abs(whole - (first + second)) < 1e-9


def test_cobounding_identity_random_points():
    h = AnalyticSeries.geometric(2.0)
    g = cobounding_series(h, SQRT2)
    res = coboundary_residual(g, h.restricted(lambda m: m != 0), SQRT2,
                              RNG.random(100))
    assert res < 1e-9


def test_cobounding_exact_on_coefficients():
    h = AnalyticSeries.geometric(1.0, M=25)
    g = cobounding_series(h, SQRT2)
    for m, gm in g.items():
        den = e2pi(float(SQRT2.frac_fraction(m))) - 1.0
        assert abs(gm * den - h.coeff(m)) < 1e-12 * max(1.0, abs(gm))


def test_cobounding_zero_series():
    empty = AnalyticSeries.from_entries([], tau=1.0)
    g = cobounding_series(empty, SQRT2)
    assert not g.support()


def test_cobounding_rational_divisibility_error():
    h = AnalyticSeries.from_entries([(3, 1.0), (-3, 1.0)], tau=1.0)
    alpha = AlphaSpec.rational(1, 3)
    with pytest.raises(DomainError):
        cobounding_series(h, alpha)
    g = cobounding_series(h, alpha, exclude_divisible_by=3)
    assert not g.support()


def test_cobounding_rational_coefficient_bound():
    # ||m alpha|| >= 1/q off multiples of q, so |g_hat| <= |h_hat| q / 4
    h = AnalyticSeries.geometric(1.0, M=30)
    alpha = AlphaSpec.rational(2, 7)
    g = cobounding_series(h, alpha, exclude_divisible_by=7)
    for m, gm in g.items():
        assert abs(gm) <= abs(h.coeff(m)) * 7 / 4 + 1e-15


def test_rational_decompose_alpha_zero():
    h = AnalyticSeries.geometric(1.0, M=10)
    g, beta = rational_case_decompose(h, AlphaSpec.rational(0, 1))
    assert not g.support()
    x = 0.37
    assert abs(eval_series(beta, x) - eval_series(h, x)) < 1e-12


def test_rational_decompose_half():
    h = AnalyticSeries.from_entries([(1, 0.4), (-1, 0.4)], tau=1.0)
    g, beta = rational_case_decompose(h, AlphaSpec.rational(1, 2))
    assert not beta.support()
    # e(+-1/2) - 1 = -2
    assert g.coeff(1) == pytest.approx(0.4 / -2.0)
    assert g.coeff(-1) == pytest.approx(0.4 / -2.0)


def test_rational_decompose_reconstruction():
    h = AnalyticSeries.geometric(1.2, M=24)
    alpha = AlphaSpec.rational(3, 7)
    g, beta = rational_case_decompose(h, alpha)
    n = 1000
    a = float(alpha.frac_fraction(1))
    for x1 in RNG.random(10):
        lhs = birkhoff_sum_direct(h, x1, alpha, n)
        rhs = (eval_series(g, (x1 + n * a) % 1.0) - eval_series(g, x1)
               + n * eval_series(beta, x1))
        assert abs(lhs - rhs) < 1e-9 * n


def test_big_H_no_sharp_scales():
    cf = with_partition(cf_expand(AlphaSpec.golden_frac(), 30), 8)
    h = AnalyticSeries.geometric(1.0)
    assert big_H(cf, h, 7, 0.3, 50.0) == 0


def _furstenberg_setup(tau=0.5, K=5, B=2):
    sysm = FurstenbergSystem.build(tau, K)
    cf = with_partition(cf_expand(sysm.alpha, len(sysm.alpha.quotient_seq) - 1), B)
    return sysm, cf


def test_big_H_single_scale_hand_formula():
    sysm, cf = _furstenberg_setup()
    sharp = cf.sharp_values()
    assert sharp, "expected a sharp scale in the lacunary expansion"
    q = sharp[0]
    x1, n = 0.29, 11
    Y = float(q) + 0.5   # exactly one scale below the cut
    got = big_H(cf, sysm.combined, n, x1, Y)
    want = 0j
    for key, c in sysm.combined.items():
        if key % q == 0 and q <= abs(key) < cf.denominators[cf.denominators.index(q) + 1]:
            t = sysm.alpha.frac_signed_fraction(key)
            want += c * e2pi(key * x1) * (e2pi(n * t) - 1) / (e2pi(t) - 1)
    assert abs(got - want) < 1e-10


def test_big_H_truncation_error():
    """F(n) (truncated at Y) differs from the full sharp sum by < e^{-tau Y} n."""
    sysm, cf = _furstenberg_setup()
    x1 = 0.41
    Y = 14.0
    tau = sysm.tau
    for n in (10, 100, 1000):
        FnY = big_H(cf, sysm.combined, n, x1, Y)
        Ffull = big_H(cf, sysm.combined, n, x1, 10.0**9)
        assert abs(FnY - Ffull) < math.exp(-tau * Y) * n + 1e-12


def test_phi_scale_trivials():
    empty = AnalyticSeries.from_entries([], tau=1.0)
    assert phi_scale(empty, 3, 10.0) == 0.0
    v = 0.37
    two = AnalyticSeries.from_entries([(5, v), (-5, v)], tau=1.0)
    assert phi_scale(two, 5, 3.0) == pytest.approx(2 * v)


def test_phi_j_matches_direct_window_sum():
    sysm, cf = _furstenberg_setup()
    rep = classify_case(cf, sysm.combined, 10**6, d1=2, b2=1, B=2)
    assert rep.J >= 1
    j = rep.J - 1
    direct = sum((m * m) * abs(c)
                 for m, c in scale_window(sysm.combined, rep.scales[j], rep.M[j]))
    assert phi_scale(sysm.combined, rep.scales[j], rep.M[j]) == pytest.approx(direct)


def test_phi_monotone_in_tau():
    vals = []
    for tau in (0.5, 1.0, 1.5, 2.0):
        h = AnalyticSeries.geometric(tau, M=60)
        vals.append(phi_scale(h, 2, 20.0))
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def _caseB_setup():
    h = AnalyticSeries.geometric(1.0)
    cf = cf_expand(AlphaSpec.from_quotients([0, 2, 10**250]), 2)
    rep = classify_case(cf, h, 16, d1=2, b2=1, B=8)
    assert rep.label == "B"
    return h, rep


def test_caseB_requires_label():
    cf = cf_expand(AlphaSpec.golden_frac(), 30)
    rep = classify_case(cf, AnalyticSeries.geometric(1.0), 10**6, d1=2, b2=1, B=8)
    with pytest.raises(DomainError):
        caseB_taylor(AnalyticSeries.geometric(1.0), rep, 0.1)


def test_caseB_coefficients_match_window_sums():
    h, rep = _caseB_setup()
    x1 = 0.3
    c0, c1, c2, _ = caseB_taylor(h, rep, x1)
    window = scale_window(h, rep.m_J, rep.M[-1])
    w0 = sum(c * e2pi(m * rep.m_J * x1) for m, c in window)
    w1 = 2j * math.pi * sum(m * c * e2pi(m * rep.m_J * x1) for m, c in window)
    w2 = (2j * math.pi) ** 2 / 2 * sum(m * m * c * e2pi(m * rep.m_J * x1)
                                       for m, c in window)
    assert abs(c0 - w0) < 1e-12 and abs(c1 - w1) < 1e-12 and abs(c2 - w2) < 1e-12


def test_caseB_single_coefficient_closed_form():
    v = 0.25 + 0.1j
    h = AnalyticSeries.from_entries([(2, v)], tau=1.0)
    h.tau2 = 1.0
    cf = cf_expand(AlphaSpec.from_quotients([0, 2, 10**250]), 2)
    rep = classify_case(cf, h, 16, d1=2, b2=1, B=8)
    assert rep.label == "B"
    x1 = 0.11
    c0, c1, c2, _ = caseB_taylor(h, rep, x1)
    # window holds only m = 1 (coefficient at 2 = m_J * 1)
    ph = v * e2pi(2 * x1)
    assert abs(c0 - ph) < 1e-14
    assert abs(c1 - 2j * math.pi * ph) < 1e-14
    assert abs(c2 - (2j * math.pi) ** 2 / 2 * ph) < 1e-14


def test_caseB_reconstruction():
    h, rep = _caseB_setup()
    x1 = 0.3
    c0, c1, c2, remainder = caseB_taylor(h, rep, x1)
    sf = ScaleFunction.from_report(rep, h, x1)
    theta = float(rep.theta_J_signed)
    scale = sum(abs(c) for c in (c0, c1, c2)) + 1.0
    for n in (1, 4, 16):
        fJ = sf.value_at_orbit(n)
        poly = caseB_polynomial(c0, c1, c2, theta, n)
        # the analytic remainder is far below double precision here, so the
        # comparison tolerance is remainder + evaluation roundoff
        assert abs(fJ - poly) <= remainder + 1e-12 * scale * n**3


def test_zero_series_taylor():
    """Empty window: all Taylor data vanishes."""
    h, rep = _caseB_setup()
    empty = AnalyticSeries.from_entries([], tau=1.0)
    c0, c1, c2, rem = caseB_taylor(empty, rep, 0.3)
    assert c0 == 0 and c1 == 0 and c2 == 0 and rem == 0.0


def _sharp_scale_context():
    """Representable-theta sharp-scale configuration for window calculus."""
    alpha = AlphaSpec.quadratic([0, 2, 64], [1], label="sharp2")
    h = AnalyticSeries.geometric(2.0)
    cf = cf_expand(alpha, 40)
    rep = classify_case(cf, h, 10**4, d1=2, b2=1, B=2)
    assert rep.J >= 1 and rep.scales[-1] == 2
    return h, rep


def test_scale_function_orbit_identity():
    """f_j(n theta) equals the window Birkhoff term computed from scratch."""
    h, rep = _sharp_scale_context()
    x1 = 0.23
    sf = ScaleFunction.from_report(rep, h, x1)
    alpha = AlphaSpec.quadratic([0, 2, 64], [1])
    for n in (1, 7, 50):
        want = 0j
        for m, c in scale_window(h, rep.m_J, rep.M[-1]):
            t = alpha.frac_signed_fraction(m * rep.m_J)
            want += c * e2pi(m * rep.m_J * x1) * (e2pi(n * t) - 1) / (e2pi(t) - 1)
        assert abs(sf.value_at_orbit(n) - want) < 1e-9


def test_tilde_zero_when_dilations_equal():
    h, rep = _sharp_scale_context()
    sf = ScaleFunction.from_report(rep, h, 0.4)
    for x in (0.1, 0.9, 3.7):
        assert sf.tilde_value(x, 3, 3) == 0
        assert sf.tilde_third_derivative(x, 3, 3) == 0


def test_tilde_third_derivative_finite_differences():
    h, rep = _sharp_scale_context()
    sf = ScaleFunction.from_report(rep, h, 0.37)
    d1, d2 = 2, 1
    step = 1e-3
    for x in (0.21, 0.55):
        exact = sf.tilde_third_derivative(x, d1, d2)
        fd = (sf.tilde_value(x + 1.5 * step, d1, d2)
              - 3 * sf.tilde_value(x + 0.5 * step, d1, d2)
              + 3 * sf.tilde_value(x - 0.5 * step, d1, d2)
              - sf.tilde_value(x - 1.5 * step, d1, d2)) / step**3
        assert abs(fd - exact) < 1e-4 * abs(exact)


def test_tilde_third_derivative_single_mode_closed_form():
    v = 0.3 - 0.2j
    h = AnalyticSeries.from_entries([(2, v), (-2, v.conjugate())], tau=1.0)
    h.tau2 = 1.0
    hh, rep = _sharp_scale_context()
    sf = ScaleFunction(h=h, m_j=rep.m_J, m_j_plus=rep.m_J_plus, M_j=1.5,
                       theta=rep.theta_J_signed, x1=0.4, j=rep.J - 1)
    d1, d2, x = 3, 1, 0.27
    got = sf.tilde_third_derivative(x, d1, d2)
    want = 0j
    for m in (1, -1):
        c = h.coeff(2 * m)
        num = d1**3 * e2pi(d1 * m * x) - d2**3 * e2pi(d2 * m * x)
        want += (2j * math.pi)**3 * m**3 * c * e2pi(m * 2 * 0.4) * num \
            / (e2pi(m * float(rep.theta_J_signed)) - 1)
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))
