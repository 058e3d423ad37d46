"""Fourier series with exponentially decaying coefficients.

An AnalyticSeries is a sparse coefficient map m -> h_hat(m) together with
decay metadata: an upper rate tau with witness constant c_up such that
|h_hat(m)| <= c_up e^{-tau |m|}, and optionally a lower rate tau2 >= tau
with witness c_low on the declared support.  The support is held once as
arrays, int64 `modes` sorted by |m| and complex128 `values`.  Services:

  * pointwise evaluation  h(x) = sum h_hat(m) e(mx), by `fourier_sum`
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


def e_array(modes: np.ndarray, x: float) -> np.ndarray:
    """e(m x) for each int64 m: m x mod 1 first, as in `e2pi`, then cos + i sin
    of 2 pi times it, as the exp of a pure imaginary (the fewest numpy calls)."""
    return np.exp(np.mod(modes * x, 1.0) * (2j * math.pi))


def fourier_sum(modes: np.ndarray, values: np.ndarray, x: float) -> complex:
    """sum_m values_m e(m x), the one finite Fourier sum: numpy's pairwise
    np.add.reduce of the terms, with no BLAS call."""
    return complex(np.add.reduce(values * e_array(modes, x)))


def geometric_ratio(n: int, t: Fraction) -> complex:
    """(e(n t) - 1)/(e(t) - 1), with value n when t is an integer.

    When |t| is far below double range the ratio is n(1 + O(n|t|)) and is
    returned as n exactly.
    """
    t = t - round(t)
    tiny = abs(t) < Fraction(1, 10**40)
    if t == 0 or tiny and abs(n * t) < Fraction(1, 10**20):
        return complex(n)
    if tiny:
        t = float(t)
    den = e2pi_m1(t)
    if den == 0:
        raise PrecisionError("denominator e(t)-1 underflowed; phase too fine for doubles")
    return e2pi_m1(n * t) / den


def _geometric_coeffs(tau: float, M: int) -> dict[int, complex]:
    """{m: e^{-tau |m|}} for 0 < |m| <= M, ordered m, -m by |m|, each above COEFF_FLOOR."""
    d = {}
    for m in range(1, M + 1):
        v = math.exp(-tau * m)
        if v > COEFF_FLOOR:
            d[m] = d[-m] = complex(v)
    return d


@dataclass(eq=False)
class AnalyticSeries:
    """Sparse Fourier coefficients with recorded decay witnesses; `modes` and
    `values` hold the support of `coeffs` sorted by |m|, stable on insertion."""

    coeffs: dict[int, complex]
    tau: float
    tau2: Optional[float] = None
    c_up: float = 0.0
    c_low: Optional[float] = None
    label: str = ""
    modes: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.tau < math.inf or self.tau2 is not None and not math.isfinite(self.tau2):
            raise DomainError(f"decay rates must be finite and tau > 0, got {self.tau}, {self.tau2}")
        self.coeffs = {int(m): complex(c) for m, c in self.coeffs.items()
                       if not abs(c) <= COEFF_FLOOR}  # keeps NaN, refused below
        support = sorted(self.coeffs, key=abs)
        self.values = np.array([self.coeffs[m] for m in support], dtype=np.complex128)
        if not np.isfinite(self.values).all() or support and abs(support[-1]) >= 2**63:
            raise DomainError(f"coefficients must be finite and modes in int64, got {self.coeffs}")
        self.modes = np.array(support, dtype=np.int64)
        if not self.c_up:
            self.c_up = self._calibrate_upper()

    def _calibrate_upper(self) -> float:
        size = np.abs(self.modes)
        if size.size and size[-1] > 700.0 / self.tau:
            # the witness passes double range: not analytic at rate tau in any usable sense
            return math.inf
        with np.errstate(over="ignore"):  # a witness past double range is inf
            return float(np.max(np.abs(self.values) * np.exp(self.tau * size), initial=0.0)) or 1.0

    # -- access -------------------------------------------------------------

    def coeff(self, m: int) -> complex:
        return self.coeffs.get(m, 0j)

    def items(self) -> Iterator[tuple[int, complex]]:
        return zip(self.modes.tolist(), self.values.tolist())

    def support(self) -> tuple:
        return tuple(self.modes.tolist())

    def window(self, m_j: int, M_j, x1: float = 0.0) -> tuple[np.ndarray, ...]:
        """The window 1 <= |m| < M_j of the scale m_j: m ascending (int64),
        h_hat(m_j m), and the weights w_m = h_hat(m_j m) e(m_j m x1), x1
        reduced mod 1 first."""
        if m_j >= 2**63:  # no int64 mode is a nonzero multiple of m_j
            return self.modes[:0], self.values[:0], self.values[:0]
        m, r = np.divmod(self.modes, m_j)
        at = np.flatnonzero((r == 0) & (m != 0) & (np.abs(m) < M_j))
        at = at[np.argsort(m[at])]
        hm = self.values[at]
        return m[at], hm, hm * e_array(self.modes[at], float(x1) % 1.0)

    @property
    def is_real(self) -> bool:
        return all(abs(c - self.coeff(-m).conjugate()) <= 1e-13 * (1 + abs(c))
                   for m, c in self.coeffs.items())

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
        if M is None:  # a tau that is not positive and finite is refused below
            M = max(1, math.ceil(math.log(1e16) / tau)) if 0 < tau < math.inf else 1
        s = cls(coeffs=_geometric_coeffs(tau, M), tau=tau, tau2=tau, label=f"geometric(tau={tau})")
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
            "entries": [[str(m) if abs(m) > 2**62 else m, c.real, c.imag] for m, c in self.items()],
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
    kept = slice(None) if M is None else np.abs(h.modes) <= M
    return fourier_sum(h.modes[kept], h.values[kept], float(x) % 1.0)


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
        if M is None or abs(m) <= M:
            total += c * e2pi(m * x1f) * geometric_ratio(n, alpha.frac_signed_fraction(m))
    return complex(total)


def birkhoff_tail_bound(h: AnalyticSeries, n: int, M: int) -> float:
    """Bound on |direct - fourier(M)| from the dropped |m| > M coefficients."""
    return n * float(np.add.reduce(np.abs(h.values[np.abs(h.modes) > M])))


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

    Each phase m alpha mod 1 is the integer residue r / q of
    `AlphaSpec.signed_residue`, rounded once: the double of
    `frac_signed_fraction(m)`, without its gcd.  The support is ordered by
    |m|, so m and -m are neighbours, and they share one residue and one
    rounding.

    Raises:
        DomainError: a retained m has m*alpha integral (rational alpha).
        PrecisionError: e(m alpha)-1 underflows double precision.
    """
    out: dict[int, complex] = {}
    a = r = q = t = 0
    for m, c in h.items():
        if (m == 0 or M is not None and abs(m) > M
                or exclude_divisible_by is not None and m % exclude_divisible_by == 0):
            continue
        if abs(m) != a:
            a, (r, q) = abs(m), alpha.signed_residue(abs(m))
            t = r / q
        if r == 0:
            if alpha.is_rational:
                raise DomainError(
                    f"m={m} has m*alpha integral; exclude multiples of q={alpha.q}")
            raise PrecisionError(f"phase of m={m} indistinguishable from integral")
        # -m has residue -r, and -(r / q) == (-r) / q exactly, save at r = -q/2
        den = e2pi_m1(t if m > 0 or 2 * r == -q else -t)
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


@dataclass(eq=False)
class ScaleFunction:
    """The window function f_j of one sharp scale.

    f_j(x) = sum_{1<=|m|<M_j} h_hat(m_j m) e(m_j m x1) (e(x m)-1)/(e(m theta_j)-1)

    theta is the signed representative of m_j alpha mod 1 (|theta| = ||m_j
    alpha||), which makes f_j(n theta) exactly the n-th window Birkhoff term.
    `weights` are the window's w_m (`AnalyticSeries.window`) / (e(m theta)-1).
    """

    h: AnalyticSeries
    m_j: int
    m_j_plus: int
    M_j: float
    theta: Fraction
    x1: float
    j: int
    m: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if float(self.theta) == 0.0:
            raise PrecisionError(
                f"theta at scale m_j={self.m_j} underflows double precision")
        self.m, _, w = self.h.window(self.m_j, self.M_j, self.x1)
        den = np.array([e2pi_m1(m * self.theta) for m in self.m.tolist()], dtype=complex)
        if not den.all():
            raise PrecisionError(f"window denominator underflowed at m={self.m[den == 0][0]}")
        self.weights = w / den

    @classmethod
    def from_report(cls, report: CaseReport, h: AnalyticSeries, x1: float) -> "ScaleFunction":
        """f_J at the top sharp scale, the only one whose theta the report stores."""
        if report.J == 0:
            raise DomainError("no sharp scales below the truncation height")
        j = report.J - 1
        return cls(h=h, m_j=report.scales[j], m_j_plus=report.successors[j], M_j=report.M[j],
                   theta=report.theta_J_signed, x1=float(x1), j=j)

    def value_at_orbit(self, n: int) -> complex:
        """f_j(n theta) computed with the exact phase n*m*theta mod 1."""
        num = [e2pi_m1(n * m * self.theta) for m in self.m.tolist()]
        return complex(np.add.reduce(self.weights * num))

    def tilde_value(self, x: float, d1: int, d2: int) -> complex:
        """f_j(d1 x) - f_j(d2 x), the two-dilation difference."""
        num = [e2pi_m1(d1 * m * x) - e2pi_m1(d2 * m * x) for m in self.m.tolist()]
        return complex(np.add.reduce(self.weights * num))

    def tilde_third_derivative(self, x: float, d1: int, d2: int) -> complex:
        """(2 pi i)^3 sum m^3 h_hat(m m_j) e(m m_j x1)
        (d1^3 e(d1 m x) - d2^3 e(d2 m x)) / (e(m theta)-1)."""
        w = self.m.astype(np.float64) ** 3 * self.weights
        return (2j * math.pi) ** 3 * (d1**3 * fourier_sum(d1 * self.m, w, x)
                                      - d2**3 * fourier_sum(d2 * self.m, w, x))


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
    m, hm, w = h.window(report.scales[-1], report.M[-1], x1)
    m = m.astype(np.float64)
    c0, c1, c2 = ((2j * math.pi) ** k / math.factorial(k) * complex(np.add.reduce(m**k * w))
                  for k in range(3))
    ctilde3 = float(np.add.reduce(np.abs(m) ** 3 * np.abs(hm)))
    theta = abs(float(report.theta_J)) if report.theta_J is not None else 0.0
    remainder = (TWO_PI**3 / 24.0) * ctilde3 * theta**3 * float(report.N) ** 4
    return c0, c1, c2, remainder


def caseB_polynomial(c0: complex, c1: complex, c2: complex, theta: float, n: int) -> complex:
    """c0 n + c1 theta n(n-1)/2 + c2 theta^2 (n-1)n(2n-1)/6."""
    return (c0 * n + c1 * theta * n * (n - 1) / 2.0
            + c2 * theta * theta * (n - 1) * n * (2 * n - 1) / 6.0)
