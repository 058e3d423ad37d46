"""The four workloads: their inputs, their correlation calls and their checks.

A workload's `setup` builds everything a correlation needs through
mobiusflow's public API (the sieve, flows, systems, phase polynomials and
orbit forms) and returns the terms to correlate. `checks` compares the
program's outputs with the reference computations in `oracles`; the seed
picks the sample points of those checks. Every check names the terms whose
correlation calls it vouches for; a check on the mu table covers them all.

The program is reached through the namespace `mf` of its modules, and every
call goes through a module attribute, so that the tracer's wrappers apply.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import oracles

SAMPLES = 64
# Per-term phase tolerance of the phase checks, and of the sum checks that
# compare two assemblies of the program's own phases (2 pi per unit of phase).
PHASE_TOL = 1e-8
X = (0.37, 0.12)
# The Heisenberg configuration of the README.
HEIS_G = ("1/3", "1/7", "2/5")
HEIS_DSIGMA = ((1, 0, 0), (1, 1, 0), ("1/2", 0, 1))
HEIS_X = (0, 0, 0)


@dataclass
class Term:
    """One correlation: `call(threads)` returns its sums at the checkpoints."""

    name: str
    terms: int
    call: Callable[[int], list]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    terms: Optional[tuple] = None  # None: every term of the workload


@dataclass
class State:
    table: object
    terms: list
    objects: dict = field(default_factory=dict)


def _samples(rng: random.Random, N: int, k: int = SAMPLES) -> list[int]:
    return sorted(rng.randrange(1, N + 1) for _ in range(k))


def mu_checks(mu: np.ndarray, N: int, rng: random.Random) -> list[Check]:
    """Mertens at every decade <= N (OEIS), mu at seeded n by trial division,
    and the whole table against a plain sieve."""
    bad = oracles.mertens_mismatches(mu, N)
    out = [Check("mertens", not bad,
                 f"M(10^k) for 10^k <= {N} vs OEIS A084237" + (f"; wrong: {bad}" if bad else ""))]
    wrong = [n for n in _samples(rng, N) if int(mu[n]) != oracles.mobius_trial_division(n)]
    out.append(Check("mu-trial-division", not wrong,
                     f"{SAMPLES} seeded n" + (f"; wrong at {wrong[:5]}" if wrong else "")))
    differ = [lo + int(i) for lo, seg in oracles.mobius_plain_segments(N)
              for i in np.flatnonzero(mu[lo:lo + seg.size] != seg)]
    out.append(Check("mu-plain-sieve", not differ,
                     f"mu(1..{N})" + (f"; {len(differ)} differ, first {differ[:5]}"
                                      if differ else "")))
    return out


def sum_check(name: str, term: str, got: list, ref: list, cps: list,
              tol_of: Callable[[int], float]) -> Check:
    """|S(N_i) - S_ref(N_i)| <= tol_of(N_i) at every checkpoint."""
    worst = max((abs(g - r) / tol_of(cp), cp) for g, r, cp in zip(got, ref, cps))
    return Check(name, worst[0] <= 1.0,
                 f"worst |S - S_ref| / tol = {worst[0]:.3g} at N = {worst[1]}", (term,))


def phase_check(name: str, term: str, got: dict, ref: dict, tol: float) -> Check:
    """Circle distance between program and reference phases at sample n."""
    worst = max((oracles.circle_distance(got[n], ref[n]), n) for n in ref)
    return Check(name, worst[0] <= tol,
                 f"{len(ref)} seeded n, worst distance {worst[0]:.3g} at n = {worst[1]}", (term,))


def residue_phases(mf, polys: list, nu: int, N: int) -> np.ndarray:
    """phases[n - 1] for n = 1..N from per-residue phase polynomials in n,
    evaluated like the correlators do: composed to t = (n - l)/nu and passed
    through poly_mod1_array over the whole residue class."""
    out = np.empty(N, dtype=np.float64)
    for l, poly in enumerate(polys):
        n_start = l if l >= 1 else nu
        if n_start > N:
            continue
        count = (N - n_start) // nu + 1
        tpoly = poly.compose_linear(nu, l)
        out[n_start - 1::nu][:count] = mf.correlate.poly_mod1_array(
            tpoly, (n_start - l) // nu, count)
    return out


class Workload:
    name = ""
    N = 0

    def setup(self, mf) -> State:
        raise NotImplementedError

    def checks(self, mf, state: State, sums: dict, rng: random.Random) -> list[Check]:
        raise NotImplementedError

    @property
    def checkpoints(self) -> list[int]:
        return oracles.decade_checkpoints(self.N)


class SkewTorus(Workload):
    """The paper's skew products: per-mode phase assembly and exp dominate."""

    name = "skew-torus"
    N = 500_000
    B = (0, 1)
    TAU = 1.0
    # the diophantine flow: c = 1 over sqrt(2) - 1, h_hat(m) = e^{-|m|} for 0 < |m| <= 37
    DIO_C, DIO_MODES = 1, 37
    # the lacunary flow: c = 0, depth 4, corrected by the smoothing term
    LAC_C, LAC_DEPTH = 0, 4

    def setup(self, mf) -> State:
        table = mf.mobius.mobius_sieve(self.N)
        dio = mf.flows.SkewFlow(1, self.DIO_C, 1, mf.cfrac.AlphaSpec.sqrt2_minus_1(),
                                mf.analytic.AnalyticSeries.geometric(self.TAU, self.DIO_MODES))
        lac = mf.furstenberg.FurstenbergSystem.build(self.TAU, self.LAC_DEPTH).flow(
            c=self.LAC_C, corrected=True)
        p, b = mf.flows.TorusPoint(*X), mf.flows.Character(*self.B)
        cps = self.checkpoints
        flows = {"diophantine": dio, "lacunary": lac}

        def correlation(flow):
            return lambda threads: list(mf.correlate.mobius_correlate(
                flow, p, b, table, cps, threads=threads).sums)
        terms = [Term(name, self.N, correlation(flow)) for name, flow in flows.items()]
        return State(table, terms, {"flows": flows, "p": p, "b": b})

    def checks(self, mf, state, sums, rng):
        p, b = state.objects["p"], state.objects["b"]
        mu = state.table.mu_array()
        cps = self.checkpoints
        # the reference takes the workload's constants, not the program's objects
        dio_alpha = Fraction(*oracles.sqrt2m1_convergent(10**30)[:2])
        lac_quotients = oracles.lacunary_quotients(self.TAU)
        lac_alpha = oracles.cf_value(lac_quotients)
        references = {
            "diophantine": oracles.SkewPhaseOracle(
                dio_alpha, self.DIO_C, *X, *self.B,
                oracles.geometric_coeffs(self.TAU, self.DIO_MODES)),
            "lacunary": oracles.SkewPhaseOracle(
                lac_alpha, self.LAC_C, *X, *self.B,
                oracles.lacunary_coeffs(lac_alpha, lac_quotients, self.TAU, self.LAC_DEPTH)),
        }
        out = []
        for name, flow in state.objects["flows"].items():
            phases = mf.correlate.character_phase_array(flow, p, b, self.N)
            oracle = references[name]
            ns = _samples(rng, self.N)
            out.append(phase_check(f"{name}-phase-mpmath", name,
                                   {n: float(phases[n - 1]) for n in ns},
                                   {n: oracle.phase(n) for n in ns}, PHASE_TOL))
            # the correlator's sums against a plain sum over the phase array
            # that the mpmath check vouches for
            ref = oracles.weighted_sums(mu, oracles.array_phases(phases), cps)
            out.append(sum_check(f"{name}-sum", name, sums[name], ref, cps,
                                 lambda cp: oracles.TWO_PI * PHASE_TOL * cp))
        return out


class PolyPhase(Workload):
    """Distal homogeneous flows: poly_mod1_array dominates, no Fourier modes."""

    name = "poly-phase"
    N = 1_000_000
    CUBIC = math.sqrt(2)
    AFFINE_W = ((-1, 0, 0), (0, 1, 1), (0, 0, 1))
    AFFINE_B = (0.1234, 0.31, 0.2718)
    AFFINE_X = (0.2, 0.51, 0.33)
    AFFINE_V = (1, 1, 2)
    NIL_PQ = (1, 2)

    def setup(self, mf) -> State:
        N, cps = self.N, self.checkpoints
        table = mf.mobius.mobius_sieve(N)
        cubic = mf.correlate.PolyPhase((0.0, 0.0, 0.0, self.CUBIC))
        aff = mf.flows.UnipotentAffine(matrix=self.AFFINE_W, translation=self.AFFINE_B)
        aff_polys = [mf.flows.unipotent_phase_poly(aff, self.AFFINE_X, self.AFFINE_V, l)
                     for l in range(aff.nu)]
        T = mf.nilflow.HeisenbergAffine(mf.nilflow.HeisenbergElement(*HEIS_G), HEIS_DSIGMA)
        hx = mf.nilflow.HeisenbergElement(*HEIS_X)
        reps = [mf.nilflow.compile_poly_orbit(T, hx, l) for l in range(T.nu)]
        obs = mf.nilflow.NilObservable.character(*self.NIL_PQ)
        terms = [
            Term("cubic", N, lambda threads: [mf.correlate.poly_exp_sum(
                cubic, table, N, threads=threads)]),
            Term("affine", N, lambda threads: list(mf.correlate.mobius_correlate(
                aff, self.AFFINE_X, self.AFFINE_V, table, cps, threads=threads).sums)),
            Term("nil-horizontal", N, lambda threads: list(mf.nilflow.correlate_nil(
                T, hx, obs, table, cps, threads=threads).sums)),
        ]
        return State(table, terms, {"cubic": cubic, "aff": aff, "aff_polys": aff_polys,
                                    "T": T, "reps": reps})

    def checks(self, mf, state, sums, rng):
        N, cps, obj = self.N, self.checkpoints, state.objects
        mu = state.table.mu_array()
        Poly = mf.polyutil.Poly
        out = []

        # cubic: the program's phases in the blocks poly_exp_sum uses, and S(N)
        # against phases exact in uint64
        exact = oracles.monomial_phases(self.CUBIC, 3)
        chunk = mf.correlate.CHUNK
        cubic_poly = obj["cubic"].as_poly()
        got, ref = {}, {}
        for n in _samples(rng, N):
            t0 = 1 + (n - 1) // chunk * chunk
            block = mf.correlate.poly_mod1_array(cubic_poly, t0, min(chunk, N - t0 + 1))
            got[n] = float(block[n - t0])
            ref[n] = float(exact(np.array([n], dtype=np.int64))[0])
        out.append(phase_check("cubic-phase-uint64", "cubic", got, ref, PHASE_TOL))
        out.append(sum_check("cubic-sum-uint64", "cubic", sums["cubic"],
                             oracles.weighted_sums(mu, exact, [N]), [N],
                             lambda cp: oracles.TWO_PI * 1e-9 * cp))

        # affine: degree >= 2 on every residue class, phases against exact
        # matrix powers, sums against the program's phases
        aff = obj["aff"]
        degrees = [pp.degree for pp in obj["aff_polys"]]
        out.append(Check("affine-degree", aff.nu > 1 and min(degrees) >= 2,
                         f"nu = {aff.nu}, degrees {degrees}", ("affine",)))
        phases = residue_phases(mf, [Poly(pp.coeffs) for pp in obj["aff_polys"]], aff.nu, N)
        ns = _samples(rng, N)
        out.append(phase_check(
            "affine-phase-exact", "affine", {n: float(phases[n - 1]) for n in ns},
            {n: float(oracles.affine_orbit_phase(self.AFFINE_W, self.AFFINE_B, self.AFFINE_X,
                                                 self.AFFINE_V, n)) for n in ns}, PHASE_TOL))
        out.append(sum_check("affine-sum", "affine", sums["affine"],
                             oracles.weighted_sums(mu, oracles.array_phases(phases), cps), cps,
                             lambda cp: oracles.TWO_PI * PHASE_TOL * cp))

        # horizontal nil character: the abelianized map is x -> A x + (g1, g2)
        T, reps = obj["T"], obj["reps"]
        p, q = self.NIL_PQ
        polys = [rep.coord_polys[0].scale(p) + rep.coord_polys[1].scale(q) for rep in reps]
        phases = residue_phases(mf, polys, T.nu, N)
        A = [[int(Fraction(e)) for e in row[:2]] for row in HEIS_DSIGMA[:2]]
        ns = _samples(rng, N)
        out.append(phase_check(
            "nil-horizontal-phase-exact", "nil-horizontal",
            {n: float(phases[n - 1]) for n in ns},
            {n: float(oracles.affine_orbit_phase(A, HEIS_G[:2], HEIS_X[:2], self.NIL_PQ, n))
             for n in ns}, PHASE_TOL))
        out.append(sum_check("nil-horizontal-sum", "nil-horizontal", sums["nil-horizontal"],
                             oracles.weighted_sums(mu, oracles.array_phases(phases), cps), cps,
                             lambda cp: oracles.TWO_PI * PHASE_TOL * cp))
        return out


class NilCentral(Workload):
    """A central nil character, evaluated per n through Fraction."""

    name = "nil-central"
    N = 10_000
    PQR = (1, 2, 1)

    def setup(self, mf) -> State:
        table = mf.mobius.mobius_sieve(self.N)
        T = mf.nilflow.HeisenbergAffine(mf.nilflow.HeisenbergElement(*HEIS_G), HEIS_DSIGMA)
        hx = mf.nilflow.HeisenbergElement(*HEIS_X)
        reps = [mf.nilflow.compile_poly_orbit(T, hx, l) for l in range(T.nu)]
        obs = mf.nilflow.NilObservable.character(*self.PQR)
        cps = self.checkpoints
        return State(table, [Term("central", self.N, lambda threads: list(
            mf.nilflow.correlate_nil(T, hx, obs, table, cps, threads=threads).sums))],
            {"reps": reps})

    def checks(self, mf, state, sums, rng):
        cps = self.checkpoints
        phases = oracles.heisenberg_orbit_phases(HEIS_G, HEIS_DSIGMA, HEIS_X, self.PQR, self.N)
        reps = state.objects["reps"]
        got = {}
        for n in _samples(rng, self.N):
            v = reps[n % len(reps)].evaluate_reduced(n).coords()
            got[n] = float(sum(k * c for k, c in zip(self.PQR, v)) % 1)
        out = [phase_check("central-orbit-form", "central", got,
                           {n: float(phases[n - 1]) for n in got}, PHASE_TOL)]
        ref = oracles.weighted_sums(state.table.mu_array(), oracles.array_phases(phases), cps)
        out.append(sum_check("central-sum-iteration", "central", sums["central"], ref, cps,
                             lambda cp: 1e-9 * cp))
        return out


class MuScale(Workload):
    """A rotation with no modes: the sieve, exp and the reduction dominate."""

    name = "mu-scale"
    N = 20_000_000
    B = (1, 0)
    # the first convergent of sqrt(2) - 1 past 7e9 keeps n p below 2^63
    MIN_Q = 7 * 10**9

    def setup(self, mf) -> State:
        table = mf.mobius.mobius_sieve(self.N)
        flow = mf.flows.SkewFlow(1, 1, 1, mf.cfrac.AlphaSpec.sqrt2_minus_1(),
                                 mf.analytic.AnalyticSeries.geometric(1.0))
        p, b = mf.flows.TorusPoint(*X), mf.flows.Character(*self.B)
        cps = self.checkpoints
        return State(table, [Term("rotation", self.N, lambda threads: list(
            mf.correlate.mobius_correlate(flow, p, b, table, cps, threads=threads).sums))])

    def checks(self, mf, state, sums, rng):
        cps = self.checkpoints
        p, q, q_next = oracles.sqrt2m1_convergent(self.MIN_Q)
        ref = oracles.weighted_sums(state.table.mu_array(),
                                    oracles.rotation_phases(self.B[0], X[0], p, q), cps)
        return [sum_check("rotation-sum-convergent", "rotation", sums["rotation"], ref, cps,
                          lambda cp: oracles.rotation_tolerance(cp, q, q_next))]


WORKLOADS = {w.name: w for w in (SkewTorus(), PolyPhase(), NilCentral(), MuScale())}
