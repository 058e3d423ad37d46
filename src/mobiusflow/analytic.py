"""Fourier series with exponentially decaying coefficients.

An AnalyticSeries is a sparse coefficient map m -> h_hat(m) together with
decay metadata: an upper rate tau with witness constant c_up such that
|h_hat(m)| <= c_up e^{-tau |m|}, and optionally a lower rate tau2 >= tau
with witness c_low on the declared support.  Services:

  * pointwise evaluation  h(x) = sum h_hat(m) e(mx)
  * Birkhoff sums along a rotation, both by direct summation and by the
    geometric-series (Fourier-side) formula, with the convention that
    (e(nm alpha)-1)/(e(m alpha)-1) means n when m alpha is an integer
  * cobounding solutions  g(x+alpha) - g(x) = h(x), coefficient-wise
    g_hat(m) = h_hat(m)/(e(m alpha)-1)
  * the sharp-scale window functions f_j and their derivatives, and the
    degree-2 Taylor data used when the top scale is extremely fine.

Phases n*alpha are always reduced through the exact continued-fraction
center, never by accumulating floating-point increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

from .cfrac import AlphaSpec, CaseReport, CFExpansion
from .errors import DomainError, PrecisionError

TWO_PI = 2.0 * math.pi

# Coefficients smaller than this are dropped: they are exact zeros in any
# double-precision evaluation downstream.
COEFF_FLOOR = 1e-300


def e2pi(t) -> complex:
    """e(t) = exp(2 pi i t), with t reduced mod 1 first."""
    tf = float(t % 1) if type(t) is Fraction else float(t) % 1.0
    return complex(math.cos(TWO_PI * tf), math.sin(TWO_PI * tf))


def e2pi_m1(t) -> complex:
    """e(t) - 1 = -2 sin^2(pi t) + i sin(2 pi t), stable for tiny t."""
    tf = float(t - round(t)) if isinstance(t, Fraction) else float(t) - round(float(t))
    s = math.sin(math.pi * tf)
    return complex(-2.0 * s * s, math.sin(TWO_PI * tf))


def geometric_ratio(n: int, t) -> complex:
    """(e(n t) - 1)/(e(t) - 1), with value n when t is an integer.

    t may be a Fraction; when |t| is far below double range the ratio is
    n(1 + O(n|t|)) and is returned as n exactly.
    """
    if isinstance(t, Fraction):
        t = t - round(t)
        if t == 0:
            return complex(n)
        if abs(t) < Fraction(1, 10**40):
            if abs(n * t) < Fraction(1, 10**20):
                return complex(n)
            t = float(t)
    else:
        t = t - round(t)
        if t == 0.0:
            return complex(n)
    num = e2pi_m1(Fraction(n) * t if isinstance(t, Fraction) else (n * t))
    den = e2pi_m1(t)
    if den == 0:
        raise PrecisionError("denominator e(t)-1 underflowed; phase too fine for doubles")
    return num / den


@dataclass(eq=False)
class AnalyticSeries:
    """Sparse Fourier coefficients with recorded decay witnesses."""

    coeffs: dict[int, complex]
    tau: float
    tau2: Optional[float] = None
    c_up: float = 0.0
    c_low: Optional[float] = None
    label: str = ""
    _support: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.tau <= 0:
            raise DomainError("decay rate tau must be positive")
        self.coeffs = {int(m): complex(c) for m, c in self.coeffs.items()
                       if abs(c) > COEFF_FLOOR}
        self._support = tuple(sorted(self.coeffs, key=abs))
        if not self.c_up:
            self.c_up = self._calibrate_upper()

    def _calibrate_upper(self) -> float:
        best = 0.0
        for m, c in self.coeffs.items():
            if abs(m) > 700.0 / self.tau:
                # witness exceeds double range: the series is not analytic
                # at rate tau in any usable sense
                return math.inf
            need = abs(c) * math.exp(self.tau * abs(m))
            best = max(best, need)
        return best or 1.0

    # -- access -------------------------------------------------------------

    def coeff(self, m: int) -> complex:
        return self.coeffs.get(m, 0j)

    def items(self) -> Iterator[tuple[int, complex]]:
        for m in self._support:
            yield m, self.coeffs[m]

    def support(self) -> tuple:
        return self._support

    @property
    def is_real(self) -> bool:
        for m, c in self.coeffs.items():
            if abs(c - self.coeffs.get(-m, 0j).conjugate()) > 1e-13 * (1 + abs(c)):
                return False
        return True

    # -- construction --------------------------------------------------------

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[int, complex]], tau: float,
                     tau2: Optional[float] = None, label: str = "") -> "AnalyticSeries":
        d: dict[int, complex] = {}
        for m, c in entries:
            d[int(m)] = d.get(int(m), 0j) + complex(c)
        return cls(coeffs=d, tau=tau, tau2=tau2, label=label)

    @classmethod
    def cosine(cls, tau: float = 1.0) -> "AnalyticSeries":
        return cls(coeffs={1: 0.5 + 0j, -1: 0.5 + 0j}, tau=tau, tau2=tau, label="cos")

    @classmethod
    def geometric(cls, tau: float, M: Optional[int] = None) -> "AnalyticSeries":
        """Dense h_hat(m) = e^{-tau |m|} for 0 < |m| <= M.

        Exact two-sided decay, so tau2 = tau with witnesses c_up = c_low = 1.
        """
        if M is None:
            M = max(1, math.ceil(math.log(1e16) / tau))
        d = {}
        for m in range(1, M + 1):
            v = math.exp(-tau * m)
            if v > COEFF_FLOOR:
                d[m] = d[-m] = complex(v)
        s = cls(coeffs=d, tau=tau, tau2=tau, label=f"geometric(tau={tau})")
        s.c_low = 1.0
        return s

    def plus(self, other: "AnalyticSeries", tau: Optional[float] = None,
             tau2: Optional[float] = None, label: str = "") -> "AnalyticSeries":
        d = dict(self.coeffs)
        for m, c in other.coeffs.items():
            d[m] = d.get(m, 0j) + c
        return AnalyticSeries(coeffs=d, tau=tau or min(self.tau, other.tau),
                              tau2=tau2, label=label)

    def restricted(self, keep) -> "AnalyticSeries":
        return AnalyticSeries(coeffs={m: c for m, c in self.coeffs.items() if keep(m)},
                              tau=self.tau, tau2=self.tau2, label=self.label)

    def to_json(self) -> dict:
        return {
            "type": "coeffs",
            "entries": [[str(m) if abs(m) > 2**62 else m, c.real, c.imag]
                        for m, c in sorted(self.coeffs.items(), key=lambda kv: abs(kv[0]))],
            "tau": self.tau,
            "tau2": self.tau2,
        }


# ---------------------------------------------------------------------------
# Evaluation and Birkhoff sums


def eval_series(h: AnalyticSeries, x: float, M: Optional[int] = None) -> complex:
    """sum_{|m| <= M} h_hat(m) e(m x); full support when M is None.

    Truncation error is at most 2 c_up e^{-tau M} / (1 - e^{-tau}).
    """
    if M is not None and M < 1:
        raise DomainError("truncation M must be >= 1")
    xf = float(x) % 1.0
    return sum((c * e2pi(m * xf) for m, c in h.items() if M is None or abs(m) <= M), 0j)


def birkhoff_sum_direct(h: AnalyticSeries, x1: float, alpha: AlphaSpec, n: int) -> complex:
    """sum_{j=0}^{n-1} h(x1 + j alpha) by direct evaluation; 0 when n=0."""
    if n < 0:
        raise DomainError("Birkhoff length n must be >= 0")
    if n == 0:
        return 0j
    x1f = float(x1) % 1.0
    r, q = alpha.frac_fraction(1).as_integer_ratio()
    # j*alpha mod 1 rounded once from its integer residue, then a sweep per coefficient.
    phases = np.array([j * r % q / q for j in range(n)], dtype=np.float64)
    total = 0j
    for m, c in h.items():
        theta = np.mod(m * x1f + m * phases, 1.0)
        z = np.exp(2j * np.pi * theta)
        total += c * z.sum()
    return complex(total)


def birkhoff_sum_fourier(h: AnalyticSeries, x1: float, alpha: AlphaSpec, n: int,
                         M: Optional[int] = None) -> complex:
    """Fourier-side Birkhoff sum via the geometric-series formula.

    Terms with m*alpha integral (rational alpha, q | m) contribute
    n * h_hat(m) e(m x1) per the stated convention.
    """
    if n < 0:
        raise DomainError("Birkhoff length n must be >= 0")
    if n == 0:
        return 0j
    total = 0j
    x1f = float(x1) % 1.0
    for m, c in h.items():
        if M is not None and abs(m) > M:
            continue
        t = alpha.frac_signed_fraction(m)
        total += c * e2pi(m * x1f) * geometric_ratio(n, t)
    return complex(total)


def birkhoff_tail_bound(h: AnalyticSeries, n: int, M: int) -> float:
    """Bound on |direct - fourier(M)| from the dropped |m| > M coefficients."""
    return n * sum((abs(c) for m, c in h.items() if abs(m) > M), 0.0)


# ---------------------------------------------------------------------------
# Cobounding (cohomological) solutions


def cobounding_series(h: AnalyticSeries, alpha: AlphaSpec,
                      exclude_divisible_by: Optional[int] = None,
                      M: Optional[int] = None) -> AnalyticSeries:
    """Solve g(x+alpha) - g(x) = h(x) coefficient-wise on the retained modes.

    g_hat(m) = h_hat(m) / (e(m alpha) - 1) for retained m: |m| <= M, m != 0
    (a constant is never a coboundary, so the mean is always dropped), and
    m not divisible by the optional modulus.  The identity then holds for
    the retained part of h exactly in coefficient space.

    Raises:
        DomainError: a retained m has m*alpha integral (rational alpha).
        PrecisionError: e(m alpha)-1 underflows double precision.
    """
    out: dict[int, complex] = {}
    for m, c in h.items():
        if (m == 0 or M is not None and abs(m) > M
                or exclude_divisible_by is not None and m % exclude_divisible_by == 0):
            continue
        t = alpha.frac_signed_fraction(m)
        if t == 0:
            if alpha.is_rational:
                raise DomainError(
                    f"m={m} has m*alpha integral; exclude multiples of q={alpha.q}")
            raise PrecisionError(f"phase of m={m} indistinguishable from integral")
        den = e2pi_m1(t)
        if den == 0:
            raise PrecisionError(f"e(m alpha)-1 underflowed at m={m}")
        out[m] = c / den
    return AnalyticSeries(coeffs=out, tau=h.tau, label=f"cobound({h.label})")


def coboundary_residual(g: AnalyticSeries, h_retained: AnalyticSeries,
                        alpha: AlphaSpec, xs: Iterable[float]) -> float:
    """max_x |g(x+alpha) - g(x) - h_retained(x)| over the sample points."""
    a = alpha.frac_float(1)
    return max([0.0] + [abs(eval_series(g, x + a) - eval_series(g, x) - eval_series(h_retained, x))
                        for x in xs])


def rational_case_decompose(h: AnalyticSeries, alpha: AlphaSpec,
                            M: Optional[int] = None) -> tuple[AnalyticSeries, AnalyticSeries]:
    """Split a rational-rotation Birkhoff sum into coboundary plus linear term.

    Returns (g, beta_series) with g over the modes not divisible by q and
    beta_series holding the q-divisible modes (including the mean), so that

        sum_{j<n} h(x1 + j alpha) = g(x1 + n alpha) - g(x1) + n * beta(x1)

    up to the truncation tail, where beta(x1) = eval_series(beta_series, x1).
    For alpha = 0 (q = 1) this degenerates to g = 0 and beta = h.
    """
    if not alpha.is_rational:
        raise DomainError("rational_case_decompose needs a rational alpha spec")
    q = alpha.q
    g = cobounding_series(h, alpha, exclude_divisible_by=q, M=M)
    beta = h.restricted(lambda m: m % q == 0 and (M is None or abs(m) <= M))
    return g, beta


# ---------------------------------------------------------------------------
# Sharp-scale machinery


def scale_window(h: AnalyticSeries, m_j: int, M_j) -> list[tuple[int, complex]]:
    """Pairs (m, h_hat(m_j m)) over the window 1 <= |m| < M_j."""
    return sorted((key // m_j, c) for key, c in h.items()
                  if key % m_j == 0 and 0 < abs(key // m_j) < M_j)


@dataclass(eq=False)
class ScaleFunction:
    """The window function f_j of one sharp scale.

    f_j(x) = sum_{1<=|m|<M_j} h_hat(m_j m) e(m_j m x1) (e(x m)-1)/(e(m theta_j)-1)

    theta is the signed representative of m_j alpha mod 1 (|theta| = ||m_j
    alpha||), which makes f_j(n theta) exactly the n-th window Birkhoff term.
    """

    h: AnalyticSeries
    m_j: int
    m_j_plus: int
    M_j: float
    theta: Fraction
    x1: float
    j: int
    window: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not self.window:
            self.window = scale_window(self.h, self.m_j, self.M_j)
        if float(self.theta) == 0.0:
            raise PrecisionError(
                f"theta at scale m_j={self.m_j} underflows double precision")

    @classmethod
    def from_report(cls, report: CaseReport, h: AnalyticSeries, x1: float) -> "ScaleFunction":
        """f_J at the top sharp scale, the only one whose theta the report stores."""
        if report.J == 0:
            raise DomainError("no sharp scales below the truncation height")
        j = report.J - 1
        return cls(h=h, m_j=report.scales[j], m_j_plus=report.successors[j], M_j=report.M[j],
                   theta=report.theta_J_signed, x1=float(x1), j=j)

    def _den(self, m: int) -> complex:
        den = e2pi_m1(m * self.theta)
        if den == 0:
            raise PrecisionError(f"window denominator underflowed at m={m}")
        return den

    def value_at_orbit(self, n: int) -> complex:
        """f_j(n theta) computed with the exact phase n*m*theta mod 1."""
        total = 0j
        for m, c in self.window:
            num = e2pi_m1(n * m * self.theta)
            total += c * e2pi(m * self.m_j * self.x1) * num / self._den(m)
        return total

    def tilde_value(self, x: float, d1: int, d2: int) -> complex:
        """f_j(d1 x) - f_j(d2 x), the two-dilation difference."""
        total = 0j
        for m, c in self.window:
            num = e2pi_m1(d1 * m * x) - e2pi_m1(d2 * m * x)
            total += c * e2pi(m * self.m_j * self.x1) * num / self._den(m)
        return total

    def tilde_third_derivative(self, x: float, d1: int, d2: int) -> complex:
        """(2 pi i)^3 sum m^3 h_hat(m m_j) e(m m_j x1)
        (d1^3 e(d1 m x) - d2^3 e(d2 m x)) / (e(m theta)-1)."""
        total = 0j
        for m, c in self.window:
            num = d1**3 * e2pi(d1 * m * x) - d2**3 * e2pi(d2 * m * x)
            total += (m**3) * c * e2pi(m * self.m_j * self.x1) * num / self._den(m)
        return (2j * math.pi) ** 3 * total


def big_H(cf: CFExpansion, h: AnalyticSeries, x, x1: float, Y: float) -> complex:
    """Truncated sharp-part sum F(x) = sum over sharp scales q <= Y of F(x;q).

    F(x;q) runs over the window q <= |m| < q+, q | m, with terms
    h_hat(m) e(m x1) (e(x m alpha) - 1)/(e(m alpha) - 1).  For integer x the
    numerator phase reduces exactly through ||m alpha||; for real x the
    integer part of m alpha contributes e(x round(m alpha)) as well.
    NoSharpScale configurations return 0.
    """
    if cf.B is None:
        raise DomainError("attach a partition first (with_partition)")
    alpha = cf.alpha
    total = 0j
    x_is_int = isinstance(x, (int, np.integer)) or float(x).is_integer()
    xf = float(x)
    for k in sorted(cf.sharp_idx):
        q = cf.denominators[k]
        if q > Y:
            continue
        q_plus = cf.denominators[k + 1]
        for key, c in h.items():
            if key % q == 0 and q <= abs(key) < q_plus:
                t = alpha.frac_signed_fraction(key)
                if x_is_int:
                    num = e2pi_m1(int(x) * t)
                else:
                    l_part = key * alpha._phase_center(abs(key).bit_length()) - t
                    num = e2pi(Fraction(xf) * l_part) * e2pi(xf * float(t)) - 1.0
                total += c * e2pi(key * x1) * num / e2pi_m1(t)
    return complex(total)


def caseB_taylor(h: AnalyticSeries, report: CaseReport, x1: float
                 ) -> tuple[complex, complex, complex, float]:
    """Degree-2 Taylor data of the top-scale window function.

    Returns (c0, c1, c2, remainder_bound) with

        c_k = (2 pi i)^k / k! * sum_{1<=|m|<M_J} m^k h_hat(m_J m) e(m_J m x1)

    and the rigorous remainder bound (2 pi)^3/24 * ctilde3 * |theta|^3 N^4,
    ctilde3 = sum |m|^3 |h_hat(m_J m)|, valid for

        |f_J(n theta) - c0 n - c1 theta n(n-1)/2 - c2 theta^2 (n-1)n(2n-1)/6|

    at every n <= N (theta signed).
    """
    if report.label != "B":
        raise DomainError(f"Taylor expansion applies in case B only (label={report.label})")
    mJ, MJ = report.scales[-1], report.M[-1]
    window = scale_window(h, mJ, MJ)
    x1f = float(x1) % 1.0
    c = [0j, 0j, 0j]
    ctilde3 = 0.0
    for m, hm in window:
        ph = hm * e2pi(m * mJ * x1f)
        c[0] += ph
        c[1] += m * ph
        c[2] += m * m * ph
        ctilde3 += abs(m) ** 3 * abs(hm)
    c0 = c[0]
    c1 = (2j * math.pi) * c[1]
    c2 = (2j * math.pi) ** 2 / 2.0 * c[2]
    theta = abs(float(report.theta_J)) if report.theta_J is not None else 0.0
    remainder = (TWO_PI**3 / 24.0) * ctilde3 * theta**3 * float(report.N) ** 4
    return c0, c1, c2, remainder


def caseB_polynomial(c0: complex, c1: complex, c2: complex, theta: float, n: int) -> complex:
    """c0 n + c1 theta n(n-1)/2 + c2 theta^2 (n-1)n(2n-1)/6."""
    return (c0 * n + c1 * theta * n * (n - 1) / 2.0
            + c2 * theta * theta * (n - 1) * n * (2 * n - 1) / 6.0)
