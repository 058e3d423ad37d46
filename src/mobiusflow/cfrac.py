"""Exact continued-fraction machinery for the rotation number alpha.

alpha is never accepted as a bare double: callers pass a structured spec
(rational p/q, quadratic irrational via periodic quotients, or an explicit
quotient list) so that convergents l_k/q_k are exact integers and the
two-sided approximation inequality

    1/(2 q_k q_{k+1}) < |alpha - l_k/q_k| < 1/(q_k q_{k+1})      (k >= 2)

can be certified rather than sampled.  The denominator set Q = {q_k} is
partitioned by a parameter B into flat denominators (q_{k+1} <= q_k^B, plus
q = 1) and sharp ones (q_{k+1} > q_k^B); the sharp scales below a truncation
height Y = (8/tau) log N drive the hard case analysis, summarized here in a
CaseReport with labels NoSharpScale / A / B / C1 / C2.

All logarithms are natural, which makes e^{-tau Y} = N^{-8} exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError, PrecisionError


# ---------------------------------------------------------------------------
# Alpha specifications


@dataclass(eq=False)
class AlphaSpec:
    """Structured description of the rotation number.

    kind:
        "rational"    exact p/q
        "quadratic"   eventually periodic quotients (quadratic irrational)
        "quotients"   explicit finite quotient list; semantics are "any
                      irrational whose expansion starts with these quotients"
        "furstenberg" the lacunary construction's quotient list, as "quotients"
    """

    kind: str
    p: int = 0
    q: int = 1
    initial: tuple[int, ...] = ()
    period: tuple[int, ...] = ()
    quotient_seq: tuple[int, ...] = ()
    label: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, p: int, q: int) -> "AlphaSpec":
        if q < 1:
            raise DomainError(f"rational alpha needs q >= 1, got {q}")
        g = math.gcd(p, q)
        return cls(kind="rational", p=p // g, q=q // g, label=f"{p//g}/{q//g}")

    @classmethod
    def quadratic(cls, initial: Sequence[int], period: Sequence[int],
                  label: str = "") -> "AlphaSpec":
        if not period:
            raise DomainError("quadratic spec needs a nonempty period")
        if any(a < 1 for a in period) or any(a < 1 for a in initial[1:]):
            raise DomainError("partial quotients a_k must be >= 1 for k >= 1")
        return cls(kind="quadratic", initial=tuple(initial), period=tuple(period),
                   label=label or "quadratic")

    @classmethod
    def from_quotients(cls, quotients: Sequence[int], kind: str = "quotients",
                       label: str = "") -> "AlphaSpec":
        qs = tuple(int(a) for a in quotients)
        if len(qs) < 2:
            raise DomainError("explicit quotient list needs at least a_0, a_1")
        if any(a < 1 for a in qs[1:]):
            raise DomainError("partial quotients a_k must be >= 1 for k >= 1")
        return cls(kind=kind, quotient_seq=qs, label=label or kind)

    @classmethod
    def sqrt2_minus_1(cls) -> "AlphaSpec":
        return cls.quadratic([0], [2], label="sqrt2-1")

    @classmethod
    def golden_frac(cls) -> "AlphaSpec":
        return cls.quadratic([0], [1], label="golden")

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    def available_depth(self) -> Optional[int]:
        """Largest index K with a_K known, or None when unbounded."""
        if self.kind == "rational":
            return len(self._rational_quotients()) - 1
        if self.kind == "quadratic":
            return None
        return len(self.quotient_seq) - 1

    def _rational_quotients(self) -> tuple[int, ...]:
        key = "rat_quots"
        if key not in self._cache:
            out, p, q = [], self.p, self.q
            while q:
                a, r = divmod(p, q)
                out.append(a)
                p, q = q, r
            self._cache[key] = tuple(out)
        return self._cache[key]

    def quotient(self, k: int) -> int:
        """Partial quotient a_k; PrecisionError when not determinable."""
        if k < 0:
            raise DomainError("quotient index must be >= 0")
        if self.kind == "rational":
            quots = self._rational_quotients()
            if k >= len(quots):
                raise PrecisionError(f"rational expansion terminates at k={len(quots)-1}")
            return quots[k]
        if self.kind == "quadratic":
            if k < len(self.initial):
                return self.initial[k]
            return self.period[(k - len(self.initial)) % len(self.period)]
        if k >= len(self.quotient_seq):
            raise PrecisionError(
                f"quotient a_{k} not certified: spec carries only {len(self.quotient_seq)} quotients")
        return self.quotient_seq[k]

    # -- value and exact phases ---------------------------------------------

    def _convergent_pair(self, depth: int) -> tuple[int, int, int, int]:
        """(l_{depth-1}, q_{depth-1}, l_depth, q_depth), extending a cache."""
        key = "conv"
        if key not in self._cache:
            a0 = self.quotient(0)
            self._cache[key] = [(a0, 1)]
        conv: list[tuple[int, int]] = self._cache[key]
        while len(conv) <= depth:
            k = len(conv)
            a = self.quotient(k)
            if k == 1:
                conv.append((a * conv[0][0] + 1, a))
            else:
                conv.append((a * conv[k - 1][0] + conv[k - 2][0],
                             a * conv[k - 1][1] + conv[k - 2][1]))
        lk, qk = conv[depth]
        if depth == 0:
            return 0, 1, lk, qk
        lp, qp = conv[depth - 1]
        return lp, qp, lk, qk

    def convergents(self, depth: int) -> list[tuple[int, int]]:
        """[(l_0, q_0), ..., (l_depth, q_depth)] from the cache of `_convergent_pair`."""
        self._convergent_pair(depth)
        return self._cache["conv"][:depth + 1]

    def enclosure(self, depth: int) -> tuple[Fraction, Fraction]:
        """Open interval (lo, hi) containing alpha.

        For irrational specs alpha lies strictly between the convergents at
        depths K - 1 and K, K = max(depth, 1), whatever earlier calls asked.
        """
        if self.kind == "rational":
            v = Fraction(self.p, self.q)
            return v, v
        lp, qp, lk, qk = self._convergent_pair(max(depth, 1))
        a, b = Fraction(lp, qp), Fraction(lk, qk)
        return (a, b) if a < b else (b, a)

    def center(self, err_bound: Fraction) -> Fraction:
        """A rational within err_bound of alpha (exact for rational kind): the first
        convergent l_K/q_K with 1/q_K^2 <= err_bound, or the last one a short
        quotient list certifies, whatever earlier calls asked."""
        if self.kind == "rational":
            return Fraction(self.p, self.q)
        depth = 1
        while True:
            lp, qp, lk, qk = self._convergent_pair(depth)
            # |alpha - l_K/q_K| < 1/(q_K q_{K+1}) <= 1/q_K^2
            if Fraction(1, qk * qk) <= err_bound:
                break
            avail = self.available_depth()
            if avail is not None and depth >= avail:
                if Fraction(1, qk * (qk + qp)) > err_bound:
                    raise PrecisionError(
                        f"quotient list too short to locate alpha within {float(err_bound):.3e}")
                break
            depth += 1
        return Fraction(lk, qk)

    def _phase_center(self, n_bits: int) -> Fraction:
        """Center accurate enough that |n*err| < 2^-60 for |n| < 2^n_bits."""
        key = ("phase_center", n_bits)
        if key not in self._cache:
            self._cache[key] = self.center(Fraction(1, 1 << (n_bits + 60)))
        return self._cache[key]

    def frac_fraction(self, n: int) -> Fraction:
        """Exact-center value of n*alpha mod 1 in [0, 1)."""
        c = self._phase_center(abs(n).bit_length()) if n else Fraction(0)
        return Fraction(n * c.numerator % c.denominator, c.denominator)

    def frac_signed_fraction(self, n: int) -> Fraction:
        """n*alpha mod 1 mapped to [-1/2, 1/2), over the same centre as `frac_fraction`."""
        c = self._phase_center(abs(n).bit_length()) if n else Fraction(0)
        r, q = n * c.numerator % c.denominator, c.denominator
        return Fraction(r - q if 2 * r >= q else r, q)

    def frac_float(self, n: int) -> float:
        """n*alpha mod 1 in [0, 1), `frac_fraction` rounded once to a double."""
        return float(self.frac_fraction(n))

    def distance_to_integer(self, n: int) -> Fraction:
        """||n*alpha||, distance to the nearest integer (center-based)."""
        return abs(self.frac_signed_fraction(n))


# ---------------------------------------------------------------------------
# Expansions and the flat/sharp partition


@dataclass(frozen=True)
class CFExpansion:
    """Quotients a_0..a_K with exact convergents l_k/q_k.

    When a partition parameter B is attached (see with_partition), flat_idx
    and sharp_idx hold the decidable indices k: the sharp test needs q_{k+1},
    so the final index is decidable only via the value-1 rule.
    """

    alpha: AlphaSpec
    quotients: tuple[int, ...]
    numerators: tuple[int, ...]
    denominators: tuple[int, ...]
    B: Optional[int] = None
    flat_idx: frozenset = frozenset()
    sharp_idx: frozenset = frozenset()

    @property
    def depth(self) -> int:
        return len(self.quotients) - 1

    def convergent(self, k: int) -> Fraction:
        return Fraction(self.numerators[k], self.denominators[k])

    def successor(self, k: int) -> int:
        """q_{k+1}; PrecisionError if beyond the computed expansion."""
        if k + 1 > self.depth:
            raise PrecisionError(f"q_{k+1} not computed (depth {self.depth})")
        return self.denominators[k + 1]

    def sharp_values(self) -> list[int]:
        return sorted({self.denominators[k] for k in self.sharp_idx})


def cf_expand(alpha: AlphaSpec, depth: int) -> CFExpansion:
    """Quotients a_0..a_depth and exact convergents.

    Rational specs self-truncate at termination.  For irrational specs the
    strict two-sided inequality is certified for every k in [2, K-1] (the
    final convergent has no computed successor); violation would indicate a
    corrupted spec and raises DomainError.
    """
    if depth < 1:
        raise DomainError("cf_expand needs depth >= 1")
    avail = alpha.available_depth()
    if avail is not None and alpha.is_rational:
        depth = min(depth, avail)
    elif avail is not None and depth > avail:
        raise PrecisionError(f"requested depth {depth} exceeds the {avail} certified quotients")
    l, q = zip(*alpha.convergents(depth))
    cf = CFExpansion(alpha=alpha, quotients=tuple(alpha.quotient(k) for k in range(depth + 1)),
                     numerators=l, denominators=q)
    if not alpha.is_rational:
        for k in range(2, depth):
            if not convergent_inequality_holds(cf, k):
                raise DomainError(f"two-sided approximation inequality failed at k={k}")
    return cf


def convergent_inequality_holds(cf: CFExpansion, k: int) -> bool:
    """Certify 1/(2 q_k q_{k+1}) < |alpha - l_k/q_k| < 1/(q_k q_{k+1}).

    Uses the open enclosure between the last two computed convergents; for
    k = K-1 the lower bound follows from q_{K+1} >= q_K + q_{K-1} for any
    continuation of the expansion.
    """
    if cf.alpha.is_rational:
        raise DomainError("inequality (two-sided) applies to irrational specs only")
    if not 2 <= k <= cf.depth - 1:
        raise DomainError(f"k={k} not certifiable at depth {cf.depth}")
    qk, qk1 = cf.denominators[k], cf.denominators[k + 1]
    lower, upper, K = Fraction(1, 2 * qk * qk1), Fraction(1, qk * qk1), cf.depth
    if k == K - 1:
        # |alpha - c_{K-1}| in the open interval (|c_K-c_{K-1}| - |alpha-c_K|, |c_K-c_{K-1}|);
        # any continuation has q_{K+1} >= q_K + q_{K-1} > 2 q_{K-1}, forcing the lower half.
        return cf.denominators[K] > cf.denominators[K - 1]
    lo, hi = cf.alpha.enclosure(cf.depth)
    ck = cf.convergent(k)
    d1, d2 = abs(lo - ck), abs(hi - ck)
    return min(d1, d2) >= lower and max(d1, d2) <= upper


def with_partition(cf: CFExpansion, B: int) -> CFExpansion:
    """Copy of cf carrying B and the decidable flat/sharp index sets.

    Flat holds every k with q_k = 1 and every k with known successor
    q_{k+1} <= q_k^B; sharp holds k with q_k >= 2 and q_{k+1} > q_k^B.  The
    last computed index is decidable only when its value is 1.
    """
    if B < 1:
        raise DomainError("partition parameter B must be >= 1")
    flat_idx, sharp_idx = set(), set()
    for k in range(cf.depth + 1):
        qk = cf.denominators[k]
        if qk == 1:
            flat_idx.add(k)
        elif k < cf.depth:
            (flat_idx if cf.denominators[k + 1] <= qk**B else sharp_idx).add(k)
    return replace(cf, B=B, flat_idx=frozenset(flat_idx), sharp_idx=frozenset(sharp_idx))


def partition_Q(cf: CFExpansion, B: int) -> tuple[frozenset, frozenset]:
    """(flat, sharp) as frozensets of q VALUES, the denominators at the index
    sets of `with_partition`."""
    part = with_partition(cf, B)
    return (frozenset(cf.denominators[k] for k in part.flat_idx),
            frozenset(cf.denominators[k] for k in part.sharp_idx))


def choose_B(tau: float, b2: int, K_bound: float) -> int:
    """Default partition parameter max(2, 4*floor(log(16*|b2|*K))), natural log."""
    if tau <= 0:
        raise DomainError("tau must be positive")
    if b2 == 0:
        raise DomainError("b2 must be nonzero")
    if K_bound <= 0:
        raise DomainError("K_bound must be positive")
    return max(2, 4 * math.floor(math.log(16.0 * abs(b2) * K_bound)))


# ---------------------------------------------------------------------------
# Scale analysis and the case classifier


@dataclass(frozen=True)
class CaseReport:
    """Sharp-scale data below Y = (8/tau) log N and the case label.

    theta_J is ||m_J alpha|| held as an exact Fraction (it can be far below
    double range); theta_J_float/log_theta_J are float renderings.  m_plus
    entries can be astronomically large and are kept as exact ints.
    """

    N: int
    Y: float
    B: int
    K_bound: float
    scales: tuple[int, ...]
    successors: tuple[int, ...]
    J: int
    M: tuple[float, ...]
    theta_J: Optional[Fraction]
    theta_J_signed: Optional[Fraction]
    Phi_J: Optional[float]
    D: int
    C: int
    delta: Optional[float]
    beta: Optional[float]
    log_beta: Optional[float]
    d1: int
    b2: int
    label: str

    @property
    def m_J(self) -> Optional[int]:
        return self.scales[-1] if self.scales else None

    @property
    def m_J_plus(self) -> Optional[int]:
        return self.successors[-1] if self.successors else None

    @property
    def theta_J_float(self) -> Optional[float]:
        return float(self.theta_J) if self.theta_J is not None else None

    @property
    def log_theta_J(self) -> Optional[float]:
        if self.theta_J is None or self.theta_J == 0:
            return None
        t = self.theta_J
        return math.log(t.numerator) - math.log(t.denominator)

    def to_dict(self) -> dict:
        def render_int(v):
            return v if v.bit_length() <= 63 else str(v)

        return {
            "N": render_int(self.N),
            "Y": self.Y,
            "B": self.B,
            "K_bound": self.K_bound,
            "scales": [render_int(s) for s in self.scales],
            "successors": [render_int(s) for s in self.successors],
            "J": self.J,
            "M": list(self.M),
            "theta_J": self.theta_J_float,
            "log_theta_J": self.log_theta_J,
            "Phi_J": self.Phi_J,
            "D": self.D,
            "C": self.C,
            "delta": self.delta,
            "beta": self.beta,
            "log_beta": self.log_beta,
            "d1": self.d1,
            "b2": self.b2,
            "label": self.label,
        }


def _ratio_float(a, b) -> float:
    try:
        return a / b
    except OverflowError:
        return math.inf


def phi_scale(h, m_j: int, M_j) -> float:
    """Phi_j = sum over 1 <= |m| < M_j of m^2 |h_hat(m_j m)|.

    Iterates the sparse support of the series, so astronomically wide
    windows (M_j up to q_{k+1}/q_k) cost only the support size.
    """
    total = 0.0
    for m, c in h.items():
        if m > 0 and m % m_j == 0:
            mm = m // m_j
            if 1 <= mm < M_j:
                total += mm * mm * (abs(c) + abs(h.coeff(-m)))
    return total


def classify_case(cf: CFExpansion, h, N: int, d1: int, b2: int,
                  B: Optional[int] = None) -> CaseReport:
    """Populate the scale report and decide the case label.

    Tie-break order: NoSharpScale, then A, then B, then C (split C1/C2 on
    m_J+ <= N).  Conditions are evaluated in log space so astronomically
    large successors and N are handled exactly enough.

    When B is omitted it is bootstrapped: a provisional B from K_bound=1,
    then K_bound = max(1, sup_j Phi_j) over the scales that produces, then
    the final B.  Both are recorded.
    """
    if cf.alpha.is_rational:
        raise DomainError(
            "alpha is rational: use the rational-case pipeline "
            "(coboundary plus linear-term decomposition), not the scale classifier")
    if N < 16:
        raise DomainError("classifier needs N >= 16")
    if getattr(h, "tau", None) is None or getattr(h, "tau2", None) is None:
        raise DomainError("classifier needs a series carrying both decay rates tau and tau2")
    if d1 < 1:
        raise DomainError("d1 must be a positive integer")

    tau, tau2 = float(h.tau), float(h.tau2)
    Y = (8.0 / tau) * math.log(N)
    logN = math.log(N)

    def scales_for(Bval: int) -> tuple[list[int], list[int]]:
        flat, sharp = partition_Q(cf, Bval)
        vals = sorted(v for v in sharp if 2 <= v <= Y)
        succ = [cf.successor(cf.denominators.index(v)) for v in vals]
        # A sharp scale may hide past the computed depth only if the last
        # computed denominator is <= Y and undecided; demand deeper input.
        top = cf.denominators[cf.depth]
        if top != 1 and top <= Y:
            raise PrecisionError(
                f"expansion too shallow: q_K={top} <= Y={Y:.1f} has no computed successor")
        return vals, succ

    def phi_list(vals: list[int], succ: list[int]) -> list[float]:
        # the window of the last scale ends at Y, the others at their successor
        return [phi_scale(h, mj, Y / mj if j == len(vals) - 1 else _ratio_float(mjp, mj))
                for j, (mj, mjp) in enumerate(zip(vals, succ))]

    if B is None:
        K_bound = max([1.0] + phi_list(*scales_for(choose_B(tau, b2, 1.0))))
        B = choose_B(tau, b2, K_bound)
    else:
        K_bound = 1.0

    vals, succ = scales_for(B)
    phis = phi_list(vals, succ)
    K_bound = max([K_bound] + phis)

    D = math.floor(tau2 / tau) + 2
    C = 20 * d1 * D + 20

    if not vals:
        return CaseReport(N=N, Y=Y, B=B, K_bound=K_bound, scales=(), successors=(),
                          J=0, M=(), theta_J=None, theta_J_signed=None, Phi_J=None,
                          D=D, C=C, delta=None, beta=None, log_beta=None,
                          d1=d1, b2=b2, label="NoSharpScale")

    J = len(vals)
    M = tuple(_ratio_float(succ[j], vals[j]) for j in range(J - 1)) + (Y / vals[-1],)
    mJ, mJp = vals[-1], succ[-1]
    PhiJ = phis[-1]

    theta_signed = cf.alpha.frac_signed_fraction(mJ)
    thetaJ = abs(theta_signed)
    # ||m_J alpha|| lies strictly inside (1/(2 m_J+), 1/m_J+) for the true
    # irrational alpha; the computed value carries the enclosure width, so the
    # consistency check allows exactly that slack (it is zero-width whenever
    # the expansion reaches past the scale's successor).
    lo_a, hi_a = cf.alpha.enclosure(cf.depth)
    slack = mJ * (hi_a - lo_a)
    if not (Fraction(1, 2 * mJp) - slack < thetaJ < Fraction(1, mJp) + slack):
        raise DomainError(f"||m_J alpha|| outside (1/(2 m_J+), 1/m_J+) at m_J={mJ}")

    delta = 3.0 * mJ**-10
    log_beta = -20.0 * d1 * D * math.log(mJ) - math.log(Y)
    beta = math.exp(log_beta) if log_beta > -700 else 0.0

    # Case conditions, log space.  Phi_J = 0 collapses to case A.
    log_mJp = math.log(mJp)
    log_PhiJ = math.log(PhiJ) if PhiJ > 0 else -math.inf
    cond_A = log_mJp + log_PhiJ <= 4 * C * math.log(logN)
    cond_B = 3 * log_mJp >= log_PhiJ + 4 * logN + C * math.log(logN)
    if cond_A:
        label = "A"
    elif cond_B:
        label = "B"
    else:
        label = "C1" if mJp <= N else "C2"

    return CaseReport(N=N, Y=Y, B=B, K_bound=K_bound, scales=tuple(vals),
                      successors=tuple(succ), J=J, M=M, theta_J=thetaJ,
                      theta_J_signed=theta_signed, Phi_J=PhiJ, D=D, C=C,
                      delta=delta, beta=beta, log_beta=log_beta,
                      d1=d1, b2=b2, label=label)


def caseC_condition_rhs_logs(report: CaseReport, h, m_values: Sequence[int]) -> list[float]:
    """log of the cut-condition right side at hypothetical sharp scales.

    RHS(m) = (delta/3)^{2 d1 D} e^{(tau D - tau2) m} / (2 K m) with
    delta = 3 m^-10, evaluated in log space; K is the report's K_bound.
    Grows without bound once m is large because tau*D - tau2 >= tau > 0.
    """
    tau, tau2 = float(h.tau), float(h.tau2)
    d1, D = report.d1, report.D
    K = max(report.K_bound, 1.0)
    # past 48 bits, tau*D - tau2 >= tau > 0 lets the exponential term dominate
    return [math.inf if int(m).bit_length() > 48 else
            -20.0 * d1 * D * math.log(m) + (tau * D - tau2) * m - math.log(2.0 * K * m)
            for m in m_values]


def two_series_partial_sums(cf: CFExpansion, h, m_cap: int) -> dict:
    """Per-scale partial sums of the two convergence-lemma series.

    Series 1 runs over all scales q and the window q <= |m| < q+ with q
    not dividing m; series 2 over flat scales with q dividing m.  Both are
    restricted to |m| <= m_cap.  Terms are |h_hat(m)| / ||m alpha||.
    """
    if cf.B is None:
        raise DomainError("attach a partition first (with_partition)")
    alpha = cf.alpha
    per_scale_1: list[tuple[int, float]] = []
    per_scale_2: list[tuple[int, float]] = []
    flat_vals = {cf.denominators[k] for k in cf.flat_idx}
    for k in range(cf.depth):
        qk = cf.denominators[k]
        qk1 = cf.denominators[k + 1]
        if qk > m_cap:
            break
        hi = min(qk1, m_cap + 1)
        s1 = s2 = 0.0
        for m in range(qk, hi):
            c = abs(h.coeff(m)) + abs(h.coeff(-m))
            if c == 0.0:
                continue
            dist = float(alpha.distance_to_integer(m))
            if dist == 0.0:
                continue
            if m % qk == 0:
                if qk in flat_vals or qk == 1:
                    s2 += c / dist
            else:
                s1 += c / dist
        per_scale_1.append((qk, s1))
        if qk in flat_vals or qk == 1:
            per_scale_2.append((qk, s2))
    return {
        "series1": per_scale_1,
        "series2": per_scale_2,
        "series1_total": math.fsum(v for _, v in per_scale_1),
        "series2_total": math.fsum(v for _, v in per_scale_2),
    }
