"""The irregular skew-product construction.

A rotation number alpha is built whose convergent denominators grow like
q_{k+1} ~ e^{tau q_k} (ratio kept inside [1/2, 2] for every constructed
quotient; the seed is q_0 = 1, q_1 = 2 and the rounding rule is
a_{k+1} = max(1, round(e^{tau q_k}/q_k))).  On top of it:

    h_hat(+-q_k)   = (e(+-q_k alpha) - 1)/k          support {+-q_k}
    H_hat(m)       = e^{-2 tau |m|}                  dense smoothing term
    G              = coefficient-wise cobounding solution for H

h is a coboundary of the discontinuous g(x) = sum e(q_k x)/|k|, so the
skew product (x, y) -> (x + alpha, y + h(x)) has non-convergent Birkhoff
averages for suitable observables, while h + H keeps two-sided exponential
coefficient decay: at m = q_k the combined coefficient is comparable to
1/(k e^{tau q_k}), elsewhere it is exactly e^{-2 tau |m|}.

Denominators grow doubly exponentially, so the feasible depth K is small:
roughly K <= 6 at tau = 0.5, K <= 4 at tau = 1, K <= 3 at tau = 2 under any
ratio bracket.  Deeper requests raise CapacityError; coefficients at levels
whose successor is beyond capacity are certified below double-precision
range and therefore stored as exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional, Sequence

import mpmath
import numpy as np

from . import correlate
from .analytic import (AnalyticSeries, COEFF_FLOOR, cobounding_series, coboundary_residual,
                       e2pi_m1, _geometric_coeffs)
from .cfrac import AlphaSpec
from .errors import CapacityError, DomainError

SEED_Q = (1, 2)
RATIO_BRACKET = (0.5, 2.0)
RATIO_START_INDEX = 1  # the seed transition q_1/e^{tau q_0} is exempt
DEFAULT_MAX_DIGITS = 100_000
COEFF_BRACKET = (1.0 / (4.0 * math.pi), 4.0 * math.pi)
TAIL_M_CAP = 400  # correction_tail_report sums m up to this


def _quotient_from_growth(tau: float, q_k: int, max_digits: int) -> Optional[int]:
    """a_{k+1} = max(1, round(e^{tau q_k}/q_k)), or None when beyond budget."""
    if q_k.bit_length() > 64:
        return None  # e^(tau q_k) would need ~10^19 digits at the very least
    digits = tau * q_k * math.log10(math.e)
    if digits > max_digits:
        return None
    prec_bits = int(digits * 3.33) + 80
    with mpmath.workprec(prec_bits):
        val = mpmath.exp(mpmath.mpf(tau) * q_k) / q_k
        a = int(mpmath.nint(val))
    return max(1, a)


def build_alpha(tau: float, K: int, max_digits: int = DEFAULT_MAX_DIGITS) -> AlphaSpec:
    """Quotient spec with q_{k+1}/e^{tau q_k} in [1/2, 2] for 1 <= k < K.

    Internally extends up to two levels past K (capacity permitting) so the
    phases q_k alpha of the top supported levels stay accurate.

    Raises:
        CapacityError: q_K itself is not representable within max_digits;
            the message gives the estimated digit count of the first
            unrepresentable denominator and the feasible depth, or says that
            no depth K >= 3 is feasible at this tau (q_3 is beyond budget).
    """
    if not 0.1 <= tau <= 8.0:
        raise DomainError(f"tau={tau} outside the practical range")
    if K < 3:
        raise DomainError("construction depth K must be >= 3")
    quots = [0, 2]          # a_0 = 0, a_1 = 2 give q_0 = 1, q_1 = 2
    q = [1, 2]
    k = 1
    while k < K + 2:
        a_next = _quotient_from_growth(tau, q[k], max_digits)
        if a_next is None:
            if k < K:
                qk_desc = (str(q[k]) if q[k].bit_length() < 40
                           else f"~10^{int(q[k].bit_length() * 0.30103)}")
                # digits of e^(tau q_k) = tau q_k log10(e), taken in log space
                # because the count itself may be far past float range
                log_digits = (math.log10(tau) + math.log10(q[k])
                              + math.log10(math.log10(math.e)))
                digits_desc = (f"{10 ** log_digits:.0f}" if log_digits < 15
                               else f"10^{log_digits:.1f}")
                feasible = (f"feasible depth here is K={k}" if k >= 3
                            else f"no depth K >= 3 is feasible at tau={tau}")
                raise CapacityError(
                    f"q_{k+1} ~ e^(tau q_{k}) needs ~{digits_desc} digits, over the "
                    f"budget of {max_digits} (tau={tau}, q_{k}={qk_desc}); {feasible}")
            break
        quots.append(a_next)
        q.append(a_next * q[k] + q[k - 1])
        k += 1

    for k, _, in_bracket in _log_ratios(tau, q):
        if not in_bracket:
            raise DomainError(f"growth ratio left {RATIO_BRACKET} at k={k}")

    return AlphaSpec.from_quotients(quots, kind="furstenberg",
                                    label=f"furstenberg(tau={tau}, K={K})")


def _log_ratios(tau: float, q: Sequence[int]) -> list[tuple[int, float, bool]]:
    """(k, log(q_{k+1}/e^{tau q_k}), whether it lies in the log of RATIO_BRACKET)
    per constructed level k >= RATIO_START_INDEX."""
    lo, hi = (math.log(b) for b in RATIO_BRACKET)
    logs = [(k, math.log(q[k + 1]) - tau * q[k]) for k in range(RATIO_START_INDEX, len(q) - 1)]
    return [(k, r, lo <= r <= hi) for k, r in logs]


def _denominators(alpha: AlphaSpec) -> list[int]:
    return [q for _, q in alpha.convergents(alpha.available_depth())]


def build_h(alpha: AlphaSpec, tau: float, K: int) -> AnalyticSeries:
    """Lacunary series with h_hat(+-q_k) = (e(+-q_k alpha)-1)/k, 1 <= k <= K.

    |h_hat(q_k)| = 2|sin(pi q_k alpha)|/k lies within a constant of
    1/(k q_{k+1}); levels whose successor is beyond double range come out
    as exact zeros.
    """
    q = _denominators(alpha)
    if K >= len(q):
        raise DomainError(f"alpha spec carries only {len(q)-1} denominators")
    entries = []
    for k in range(1, K + 1):
        r, d = alpha.signed_residue(q[k])
        c = e2pi_m1(r / d) / k
        entries += [(q[k], c), (-q[k], c.conjugate())]
    return AnalyticSeries.from_entries(entries, tau=tau, label=f"lacunary(tau={tau},K={K})")


def build_g(alpha: AlphaSpec, K: int) -> AnalyticSeries:
    """The discontinuous cobounding series g_hat(+-q_k) = 1/k.

    The full g is only L^2, not continuous; this returns the evaluable
    truncation over representable denominators.  The decay witness is set
    explicitly: 1/k coefficients do not decay, so c_up is a formality for
    the finite truncation.
    """
    q = _denominators(alpha)
    entries = []
    for k in range(1, min(K, len(q) - 1) + 1):
        if q[k].bit_length() > 48:
            break
        entries += [(q[k], 1.0 / k), (-q[k], 1.0 / k)]
    g = AnalyticSeries.from_entries(entries, tau=1e-6, label="lacunary-cobound")
    g.c_up = 2.0
    return g


def build_correction(alpha: AlphaSpec, tau: float, M) -> tuple[AnalyticSeries, AnalyticSeries]:
    """The smoothing pair: dense H_hat(m) = e^{-2 tau |m|} and its cobounding G.

    The m = 0 term of H is a constant and is excluded from G (a constant is
    never a coboundary); the identity G(x+alpha) - G(x) = H(x) - 1 holds on
    the retained modes.  M may be astronomically large; generation stops at
    the double-precision floor anyway.
    """
    q = _denominators(alpha)
    if M < q[-1] and M < math.log(1.0 / COEFF_FLOOR) / (2 * tau):
        raise DomainError(f"correction window M={M} below the top denominator")
    m_cap = min(int(math.log(1.0 / COEFF_FLOOR) / (2 * tau)) + 2,
                M if isinstance(M, int) else int(M))
    H = AnalyticSeries(coeffs={0: complex(1.0), **_geometric_coeffs(2.0 * tau, m_cap)},
                       tau=2.0 * tau, tau2=2.0 * tau, label=f"smooth(2tau={2*tau})")
    H.c_low = 1.0
    G = cobounding_series(H, alpha, exclude_divisible_by=None, M=None)
    return H, G


@dataclass(eq=False)
class FurstenbergSystem:
    """The assembled construction with its verification metadata."""

    tau: float
    K: int
    alpha: AlphaSpec
    q: tuple
    h: AnalyticSeries
    H: AnalyticSeries
    G: AnalyticSeries
    combined: AnalyticSeries
    metadata: dict = field(default_factory=dict)

    @classmethod
    def build(cls, tau: float, K: int) -> "FurstenbergSystem":
        alpha = build_alpha(tau, K)
        q_all = _denominators(alpha)
        q = tuple(q_all[: K + 1])
        h = build_h(alpha, tau, K)
        H, G = build_correction(alpha, tau, q_all[-1])
        combined = h.plus(H, tau=tau, tau2=2.0 * tau,
                          label=f"furstenberg-combined(tau={tau},K={K})")
        combined.c_low = 1.0
        meta = {
            "seed_q": SEED_Q,
            "rounding_rule": "a_{k+1} = max(1, round(e^(tau q_k)/q_k))",
            "ratio_bracket": RATIO_BRACKET,
            "ratio_checked_from_k": RATIO_START_INDEX,
            "extended_depth": len(q_all) - 1,
        }
        return cls(tau=tau, K=K, alpha=alpha, q=q, h=h, H=H, G=G,
                   combined=combined, metadata=meta)

    def flow(self, c: int = 0, corrected: bool = False):
        """Skew product (x,y) -> (x+alpha, cx + y + h(x)) driven by h or h+H."""
        from .flows import SkewFlow
        series = self.combined if corrected else self.h
        return SkewFlow(1, c, 1, self.alpha, series)

    def ratio_report(self) -> list[dict]:
        """q_{k+1}/e^{tau q_k} per constructed level, in log space."""
        return [{"k": k, "log_ratio": r, "ratio": math.exp(r) if abs(r) < 700 else None,
                 "in_bracket": in_bracket}
                for k, r, in_bracket in _log_ratios(self.tau, _denominators(self.alpha))]


def combined_coeff_log_bounds(sys: FurstenbergSystem, k: int) -> tuple[float, float]:
    """Rigorous bounds on log(|(h+H)^(q_k)| * k * e^{tau q_k}).

    Works entirely in log space from the exact ||q_k alpha||.  At the top
    level the successor denominator is past any representable size, but the
    rounding rule pins it inside [1/2, 2] e^{tau q_k}, which bounds
    ||q_k alpha|| in (1/(4 e^{tau q_k}), 2 e^{-tau q_k}) analytically.
    """
    qk = sys.q[k]
    t = sys.alpha.distance_to_integer(qk)
    if t == 0:
        # The exponential shift e^{tau q_k} cancels the ||.|| envelope
        # exactly, and the smoothing part sits e^{-tau q_k} further down.
        return (math.log(4.0) - 2.0 * math.log(2.0),
                math.log(2.0 * math.pi) + math.log(2.0))
    # |e(q_k alpha) - 1| = 2 sin(pi ||.||) in [4 ||.||, 2 pi ||.||]
    log_t = math.log(t.numerator) - math.log(t.denominator)
    lo_h = math.log(4.0) + log_t
    hi_h = math.log(2.0 * math.pi) + log_t
    log_Hpart = -2.0 * sys.tau * qk
    # |sum| in [|h-part| - H-part, |h-part| + H-part] (conservative union)
    lo = _log_sub(lo_h, log_Hpart)
    hi = _log_add(hi_h, log_Hpart)
    shift = sys.tau * qk  # adding log(k e^{tau q_k}) / k cancels the 1/k in h-part
    return lo + shift, hi + shift


def _log_add(a: float, b: float) -> float:
    hi, lo = max(a, b), min(a, b)
    return hi + math.log1p(math.exp(lo - hi)) if lo - hi > -700 else hi


def _log_sub(a: float, b: float) -> float:
    if b >= a:
        raise DomainError("log-subtraction would go negative")
    return a + math.log1p(-math.exp(b - a)) if b - a > -700 else a


def verify_combined_coefficients(sys: FurstenbergSystem,
                                 off_support_samples: Sequence[int] = ()) -> dict:
    """Check the two-sided coefficient structure of h + H.

    At m = q_k the normalized magnitude |coeff| * k * e^{tau q_k} must lie
    in [1/(4 pi), 4 pi]; at sampled m off the lacunary support the stored
    coefficient must equal e^{-2 tau |m|} exactly.
    """
    lo_b, hi_b = math.log(COEFF_BRACKET[0]), math.log(COEFF_BRACKET[1])
    levels = []
    ok = True
    for k in range(1, sys.K + 1):
        lo, hi = combined_coeff_log_bounds(sys, k)
        passed = lo_b <= lo and hi <= hi_b
        ok = ok and passed
        stored = sys.combined.coeff(sys.q[k])
        levels.append({
            "k": k, "q_k": sys.q[k] if sys.q[k].bit_length() < 63 else str(Decimal(sys.q[k])),
            "log_ratio_bounds": (lo, hi),
            "stored_abs": abs(stored),
            "pass": passed,
        })
        if not passed:
            raise AssertionError(f"coefficient bracket violated at k={k}: [{lo}, {hi}]")
    off = []
    support = set(abs(m) for m in sys.h.support())
    for m in off_support_samples:
        m = abs(int(m))
        if m in support or m == 0:
            continue
        expect = math.exp(-2.0 * sys.tau * m)
        got = sys.combined.coeff(m)
        exact = (got.real == expect and got.imag == 0.0) or \
                (expect <= COEFF_FLOOR and got == 0)
        ok = ok and exact
        off.append({"m": m, "expected": expect, "got": (got.real, got.imag), "pass": exact})
    return {"levels": levels, "off_support": off, "bracket": COEFF_BRACKET, "pass": ok}


def correction_tail_report(sys: FurstenbergSystem) -> list[dict]:
    """Per-scale sums  sum_{q_k <= m < q_{k+1}, q_k !| m} H_hat(m)/||m alpha||.

    m runs up to TAIL_M_CAP.  The sums should stay within a moderate constant of e^{-tau q_k}; the
    report carries the normalized value sum * e^{tau q_k}.
    """
    out = []
    q_all = _denominators(sys.alpha)
    for k in range(1, len(q_all) - 1):
        qk, qk1 = q_all[k], q_all[k + 1]
        if qk > TAIL_M_CAP:
            break
        total = sum((abs(sys.H.coeff(m)) / float(sys.alpha.distance_to_integer(m))
                     for m in range(qk, min(qk1, TAIL_M_CAP + 1))
                     if m % qk and sys.H.coeff(m)), 0.0)
        normalized = total * math.exp(min(sys.tau * qk, 700.0))
        out.append({"k": k, "q_k": qk, "sum": total, "normalized": normalized})
    return out


def coboundary_check(sys: FurstenbergSystem, xs: Sequence[float],
                     which: str = "G") -> float:
    """max residual of the cobounding identity at the sample points.

    which = "G": |G(x+alpha) - G(x) - (H(x) - 1)|   (mean dropped)
    which = "g": |g(x+alpha) - g(x) - h(x)| for the truncated lacunary g.
    """
    if which == "G":
        series, target = sys.G, sys.H.restricted(lambda m: m != 0)
    elif which == "g":
        series, target = build_g(sys.alpha, sys.K), sys.h
    else:
        raise DomainError("which must be 'G' or 'g'")
    return coboundary_residual(series, target, sys.alpha, xs)


def irregularity_probe(sys: FurstenbergSystem, b, x0, windows: Sequence[int],
                       corrected: bool = False) -> dict:
    """Birkhoff averages A(N) = (1/N) sum_{n<=N} e(<b, T^n x0>) at windows.

    Reports the averages and the oscillation statistic: the diameter of
    {A(N_i)} over the tail half of the window list.  The uncorrected flow
    (h alone) shows non-convergence for suitable observables at windows
    tied to the denominators q_k.  The sums run through the correlators'
    `_weighted_sums`, with weight 1 for every n, and the windows are
    checked as their checkpoints are: distinct integers >= 1.
    """
    windows, N = correlate._checked_checkpoints(windows, math.inf)
    flow = sys.flow(corrected=corrected)
    sums = correlate._weighted_sums(correlate._SkewPhaseContext(flow, x0, b, N).chunk,
                                    np.broadcast_to(np.int8(1), (N,)), N, windows, 1)
    averages = [s / w for s, w in zip(sums, windows)]
    tail = averages[len(averages) // 2:]
    osc = max(abs(u - v) for u in tail for v in tail) if len(tail) > 1 else 0.0
    return {
        "windows": windows,
        "averages": [(a.real, a.imag) for a in averages],
        "abs_averages": [abs(a) for a in averages],
        "oscillation": osc,
        "corrected": corrected,
    }
