"""The lacunary construction: growth ratios, coefficient structure,
coboundary identities, and the irregularity probe."""

import math

import numpy as np
import pytest

from mobiusflow.analytic import eval_series
from mobiusflow.cfrac import cf_expand, choose_B, classify_case, partition_Q
from mobiusflow.correlate import _SkewPhaseContext, character_phase_array
from mobiusflow.errors import CapacityError
from mobiusflow.flows import Character, TorusPoint
from mobiusflow.furstenberg import (FurstenbergSystem, build_alpha,
                                    coboundary_check, correction_tail_report,
                                    irregularity_probe,
                                    verify_combined_coefficients)

RNG = np.random.default_rng(7)

FEASIBLE_DEPTH = {0.5: 6, 1.0: 4, 2.0: 3}


@pytest.fixture(scope="module")
def sys1():
    return FurstenbergSystem.build(1.0, 4)


def test_seed_and_first_quotients():
    alpha = build_alpha(1.0, 3)
    # a_2 = round(e^2 / 2) = 4, q_2 = 4*2 + 1 = 9
    assert alpha.quotient_seq[:3] == (0, 2, 4)
    q0, q1 = 1, 2
    q2 = alpha.quotient_seq[2] * q1 + q0
    assert q2 == 9
    assert 0.5 <= 9 / math.exp(1.0 * 2) <= 2.0


def test_depth_counting():
    sysm = FurstenbergSystem.build(1.0, 3)
    assert len(sysm.q) == 4          # q_0 .. q_3
    assert sysm.q == (1, 2, 9, 8102)


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
def test_growth_ratio_bracket(tau):
    sysm = FurstenbergSystem.build(tau, FEASIBLE_DEPTH[tau])
    for row in sysm.ratio_report():
        assert row["in_bracket"], row


def test_capacity_error_beyond_feasible_depth():
    with pytest.raises(CapacityError):
        build_alpha(1.0, 5)
    with pytest.raises(CapacityError):
        build_alpha(2.0, 4)


def test_capacity_error_names_the_feasible_depth():
    """Past the budget at level K + 1 the message names K; when q_3 is
    already past it, as at tau = 8 (q_2 = 8,886,111), no depth K >= 3 is
    feasible, and the message says so instead of naming K = 2, a depth
    that build_alpha refuses."""
    with pytest.raises(CapacityError, match="feasible depth here is K=4$"):
        build_alpha(1.0, 5)
    for K in (3, 4):
        with pytest.raises(CapacityError, match=r"q_2=8886111\); no depth K >= 3 is "
                                                r"feasible at tau=8\.0$"):
            build_alpha(8.0, K)


def test_h_support_and_reality(sys1):
    support = set(sys1.h.support())
    assert support <= {2, -2, 9, -9, 8102, -8102}
    for m in support:
        assert sys1.h.coeff(-m) == sys1.h.coeff(m).conjugate()
    for x in RNG.random(100):
        assert abs(eval_series(sys1.h, x).imag) < 1e-12


def test_h_coefficient_magnitude_brackets(sys1):
    """|h_hat(q_k)| k q_{k+1} lies in (2, 2 pi) by the two-sided inequality."""
    q = sys1.q
    for k in (1, 2):
        c = abs(sys1.h.coeff(q[k]))
        val = c * k * q[k + 1]
        assert 2.0 < val < 2.0 * math.pi


def test_combined_coefficient_brackets_all_tau():
    for tau in (0.5, 1.0, 2.0):
        sysm = FurstenbergSystem.build(tau, FEASIBLE_DEPTH[tau])
        rep = verify_combined_coefficients(
            sysm, off_support_samples=RNG.integers(3, 50, size=10).tolist())
        assert rep["pass"]


def test_off_support_coefficients_exact(sys1):
    support = {abs(m) for m in sys1.h.support()}
    for m in (3, 4, 5, 10, 25, 100):
        if m in support:
            continue
        assert sys1.combined.coeff(m) == complex(math.exp(-2.0 * sys1.tau * m))


def test_correction_coboundary_identity(sys1):
    assert coboundary_check(sys1, RNG.random(100), "G") < 1e-9


def test_lacunary_coboundary_identity(sys1):
    assert coboundary_check(sys1, RNG.random(100), "g") < 1e-9


def test_correction_mean_mode_excluded(sys1):
    assert 0 not in set(sys1.G.support())
    assert sys1.H.coeff(0) == 1.0


def test_correction_tail_trend(sys1):
    rows = correction_tail_report(sys1)
    assert rows, "expected at least one window"
    for row in rows:
        assert row["normalized"] <= 50.0, row


def test_combined_decay_witnesses(sys1):
    comb = sys1.combined
    assert comb.tau == sys1.tau and comb.tau2 == 2 * sys1.tau
    for m, c in comb.items():
        assert abs(c) <= comb.c_up * math.exp(-comb.tau * abs(m)) * (1 + 1e-9)


def test_sharp_partition_appears_at_default_B():
    """Once q_{k+1} > q_k^B the default-B partition carries a sharp scale."""
    sysm = FurstenbergSystem.build(2.0, 3)
    B = choose_B(sysm.tau, 1, 1.0)
    cf = cf_expand(sysm.alpha, len(sysm.alpha.quotient_seq) - 1)
    _, sharp = partition_Q(cf, B)
    assert sharp, "expected a sharp denominator at the default B"
    # and the classifier sees it once Y reaches the scale
    rep = classify_case(cf, sysm.combined, 10**6, d1=2, b2=1, B=B)
    assert rep.label != "NoSharpScale"
    assert 55 in rep.scales


def test_flow_construction(sys1):
    flow = sys1.flow()
    assert flow.normalized and flow.c == 0
    assert flow.h is sys1.h
    corrected = sys1.flow(corrected=True)
    assert corrected.h is sys1.combined


def test_probe_trivial_observable(sys1):
    windows = [2, 9, 81, 729, 8102]
    rep = irregularity_probe(sys1, Character(0, 0), TorusPoint(0.0, 0.0), windows)
    assert rep["oscillation"] == pytest.approx(0.0, abs=1e-12)
    assert all(a == pytest.approx(1.0) for a in rep["abs_averages"])


def test_probe_rotation_observable_decays(sys1):
    windows = [2, 9, 81, 729, 8102]
    rep = irregularity_probe(sys1, Character(1, 0), TorusPoint(0.0, 0.0), windows)
    assert rep["abs_averages"][-1] < 0.01
    assert rep["oscillation"] < 0.05


@pytest.mark.parametrize("b, corrected", [(Character(0, 1), False), (Character(1, 1), True)])
def test_probe_averages_match_exp_and_cumsum(sys1, b, corrected):
    """The probe's averages against np.exp and a cumsum over the phases of
    `character_phase_array`.  Both phase routes are within `phase_error` per
    term of the same phase, the probe's sums within `table_anchor_bound`,
    np.exp(2j pi ph) within (2 pi + 4) u per term and the cumsum to window w
    within 2 w^2 u (u = 2^-53), so A(w) moves by at most the sum over w."""
    windows, x0, u = [2, 9, 81, 729, 8102], TorusPoint(0.37, 0.12), 2.0**-53
    N = windows[-1]
    rep = irregularity_probe(sys1, b, x0, windows, corrected=corrected)
    flow = sys1.flow(corrected=corrected)
    ctx = _SkewPhaseContext(flow, x0, b, N)
    shared = (ctx.budget(windows)["table_anchor_bound"] + 2 * math.pi * N * ctx.phase_error
              + (2 * math.pi + 4) * N * u)
    csum = np.exp(2j * np.pi * character_phase_array(flow, x0, b, N)).cumsum()
    for w, (re, im) in zip(windows, rep["averages"]):
        bound = (shared + 2 * w * w * u) / w
        assert bound < 1e-8
        assert abs(complex(re, im) - complex(csum[w - 1]) / w) <= bound, w


def test_probe_vertical_oscillation(sys1):
    """Recorded irregularity run: the vertical observable oscillates across
    the reachable resonance scales (threshold 0.05 is the recorded value of
    this exploratory run, not an asserted universal constant)."""
    windows = [2, 9, 81, 729, 8102]
    rep = irregularity_probe(sys1, Character(0, 1), TorusPoint(0.0, 0.0), windows)
    assert rep["oscillation"] > 0.05
