"""The benchmark's checks pass on the program's outputs and fail on
deliberately wrong inputs: a flipped mu(n), a phase off by 1e-6, or a wrong
partial quotient. Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import State, Term  # noqa: E402

mf = run.load_program()


def small(cls, N, **attrs):
    return type(cls.__name__, (cls,), {"N": N, **attrs})()


def checks_of(wl, state):
    sums = {t.name: t.call(1) for t in state.terms}
    return {c.name: c for c in wl.checks(mf, state, sums, random.Random(0))}


def flipped_table(N, n):
    table = mf.mobius.mobius_sieve(N)
    values = table.values.copy()
    values[n] = -values[n] if values[n] else 1
    return mf.mobius.MobiusTable(limit=N, values=values, base_primes=table.base_primes)


def sqrt2m1_with_wrong_quotient(k):
    quots = [0] + [2] * 60
    quots[k] = 3
    return mf.cfrac.AlphaSpec.from_quotients(quots)


# ---------------------------------------------------------------------------
# mu


def test_reference_mu_agrees_with_program():
    N = 10**6
    mu = mf.mobius.mobius_sieve(N).mu_array()
    assert oracles.mertens_mismatches(mu, N) == []
    assert np.array_equal(np.concatenate(
        [seg for _, seg in oracles.mobius_plain_segments(N, segment=99_991)]), mu)
    assert [oracles.mobius_trial_division(n) for n in range(1, 200)] == mu[1:200].tolist()
    assert all(c.ok for c in workloads.mu_checks(mu, N, random.Random(3)))


@pytest.mark.parametrize("n", [1, 30, 9_999, 999_983])
def test_mu_checks_fail_on_a_flipped_mu(n):
    N = 10**6
    checks = {c.name: c for c in workloads.mu_checks(flipped_table(N, n).mu_array(), N,
                                                      random.Random(3))}
    assert not checks["mertens"].ok
    assert not checks["mu-plain-sieve"].ok


def test_trial_division_check_fails_on_a_flipped_sample():
    N = 10**6
    n = workloads._samples(random.Random(3), N)[0]
    checks = {c.name: c for c in workloads.mu_checks(flipped_table(N, n).mu_array(), N,
                                                      random.Random(3))}
    assert not checks["mu-trial-division"].ok


# ---------------------------------------------------------------------------
# thread bit-identity and the failure count


def test_a_one_bit_difference_between_passes_fails_the_call():
    state = State(None, [Term("a", 10, None), Term("b", 10, None)])
    s = [complex(0.1, 0.2)]
    t = [complex(np.nextafter(0.1, 1.0), 0.2)]
    passes = [(1, {"a": s, "b": s}, 1.0), (2, {"a": t, "b": s}, 1.0)]
    assert run.count_failures(state, passes, []) == (4, 1, 1)
    failed_check = workloads.Check("x", False, "", ("b",))
    assert run.count_failures(state, passes, [failed_check]) == (4, 3, 1)
    assert run.count_failures(state, passes[:1] * 2, []) == (4, 0, 0)


# ---------------------------------------------------------------------------
# rotation (mu-scale)


def rotation_state(wl, alpha, x1):
    table = mf.mobius.mobius_sieve(wl.N)
    flow = mf.flows.SkewFlow(1, 1, 1, alpha, mf.analytic.AnalyticSeries.geometric(1.0))
    p, b = mf.flows.TorusPoint(x1, workloads.X[1]), mf.flows.Character(*wl.B)
    call = lambda threads: list(mf.correlate.mobius_correlate(  # noqa: E731
        flow, p, b, table, wl.checkpoints, threads=threads).sums)
    return State(table, [Term("rotation", wl.N, call)])


def test_convergent_is_the_one_documented():
    p, q, q_next = oracles.sqrt2m1_convergent(workloads.MuScale.MIN_Q)
    assert (p, q) == (3166815962, 7645370045)
    # (p + q)/q is a convergent of sqrt(2): Pell's equation holds
    assert abs((p + q) ** 2 - 2 * q * q) == 1
    assert q_next == 2 * q + p  # for sqrt(2) - 1, q_{k-1} = p_k
    assert 10**8 * p < 2**63


@pytest.mark.parametrize("alpha, x1, ok", [
    ("right", 0.37, True),
    ("right", 0.37 + 1e-6, False),
    ("wrong", 0.37, False),
])
def test_rotation_check(alpha, x1, ok):
    wl = small(workloads.MuScale, 10**5)
    spec = (mf.cfrac.AlphaSpec.sqrt2_minus_1() if alpha == "right"
            else sqrt2m1_with_wrong_quotient(12))
    assert checks_of(wl, rotation_state(wl, spec, x1))["rotation-sum-convergent"].ok is ok


# ---------------------------------------------------------------------------
# skew products (skew-torus)


def test_lacunary_quotients_rebuilt_from_the_rounding_rule():
    quots = oracles.lacunary_quotients(1.0)
    assert quots[:4] == [0, 2, 4, 900]
    assert len(str(quots[4])) == 3515
    fs = mf.furstenberg.FurstenbergSystem.build(1.0, 4)
    assert tuple(quots) == fs.alpha.quotient_seq


def test_skew_checks_pass():
    wl = small(workloads.SkewTorus, 30_000)
    checks = checks_of(wl, wl.setup(mf))
    assert all(c.ok for c in checks.values()), checks


def _mutated_skew(name, flow_of):
    wl = small(workloads.SkewTorus, 30_000)
    state = wl.setup(mf)
    flows = state.objects["flows"]
    flows[name] = flow_of(flows[name])
    return checks_of(wl, state)


@pytest.mark.parametrize("name, k", [("diophantine", 9), ("lacunary", 3)])
def test_skew_phase_check_fails_on_a_wrong_partial_quotient(name, k):
    def wrong(flow):
        if name == "diophantine":
            alpha = sqrt2m1_with_wrong_quotient(k)
        else:
            quots = list(flow.alpha.quotient_seq)
            quots[k] += 1
            alpha = mf.cfrac.AlphaSpec.from_quotients(quots, kind="furstenberg")
        return mf.flows.SkewFlow(flow.a, flow.c, flow.d, alpha, flow.h)
    checks = _mutated_skew(name, wrong)
    assert not checks[f"{name}-phase-mpmath"].ok
    assert not checks[f"{name}-sum"].ok


@pytest.mark.parametrize("name, m", [("diophantine", 1), ("lacunary", 2)])
def test_skew_phase_check_fails_on_a_perturbed_coefficient(name, m):
    # h_hat(+-m) off by 1e-6; the reference builds its coefficients itself
    def perturbed(flow):
        coeffs = dict(flow.h.coeffs)
        coeffs[m] += 1e-6
        coeffs[-m] += 1e-6
        h = mf.analytic.AnalyticSeries(coeffs=coeffs, tau=flow.h.tau, tau2=flow.h.tau2)
        return mf.flows.SkewFlow(flow.a, flow.c, flow.d, flow.alpha, h)
    checks = _mutated_skew(name, perturbed)
    assert not checks[f"{name}-phase-mpmath"].ok


def test_skew_phase_check_fails_on_a_phase_off_by_1e6():
    wl = small(workloads.SkewTorus, 30_000)
    state = wl.setup(mf)
    state.objects["p"] = mf.flows.TorusPoint(workloads.X[0], workloads.X[1] + 1e-6)
    checks = checks_of(wl, state)
    assert not checks["diophantine-phase-mpmath"].ok
    assert not checks["lacunary-phase-mpmath"].ok


def test_skew_sum_check_fails_on_a_flipped_mu():
    wl = small(workloads.SkewTorus, 30_000)
    state = wl.setup(mf)
    sums = {t.name: t.call(1) for t in state.terms}
    state.table = flipped_table(wl.N, 29_989)
    checks = {c.name: c for c in wl.checks(mf, state, sums, random.Random(0))}
    assert not checks["diophantine-sum"].ok
    assert not checks["lacunary-sum"].ok


# ---------------------------------------------------------------------------
# polynomial phases (poly-phase)


def test_monomial_phases_match_exact_fractions():
    exact = oracles.monomial_phases(math.sqrt(2), 3)
    ns = np.array([1, 2, 3, 10**6, 4 * 10**6, 2**21 + 7], dtype=np.int64)
    c = Fraction(math.sqrt(2))
    assert exact(ns).tolist() == [float((c * int(n) ** 3) % 1) for n in ns]


def test_affine_orbit_phase_matches_iteration():
    W, b, x, v = (workloads.PolyPhase.AFFINE_W, workloads.PolyPhase.AFFINE_B,
                  workloads.PolyPhase.AFFINE_X, workloads.PolyPhase.AFFINE_V)
    aff = mf.flows.UnipotentAffine(matrix=W, translation=b)
    for n in (0, 1, 2, 7, 40):
        point = aff.orbit_point(x, n)
        assert oracles.affine_orbit_phase(W, b, x, v, n) == sum(
            vi * pi for vi, pi in zip(v, point)) % 1


def test_poly_checks_pass():
    wl = small(workloads.PolyPhase, 50_000)
    checks = checks_of(wl, wl.setup(mf))
    assert all(c.ok for c in checks.values()), checks


def test_poly_checks_fail_on_wrong_inputs():
    wl = small(workloads.PolyPhase, 50_000)
    state = wl.setup(mf)
    sums = {t.name: t.call(1) for t in state.terms}
    obj = state.objects
    # phases off by 1e-6: a constant term, a shifted translation, a shifted g1
    obj["cubic"] = mf.correlate.PolyPhase((1e-6, 0.0, 0.0, wl.CUBIC))
    aff = mf.flows.UnipotentAffine(matrix=wl.AFFINE_W,
                                   translation=(wl.AFFINE_B[0] + 1e-6, *wl.AFFINE_B[1:]))
    obj["aff_polys"] = [mf.flows.unipotent_phase_poly(aff, wl.AFFINE_X, wl.AFFINE_V, l)
                        for l in range(aff.nu)]
    g = (Fraction(1, 3) + Fraction(1, 10**6), *workloads.HEIS_G[1:])
    T = mf.nilflow.HeisenbergAffine(mf.nilflow.HeisenbergElement(*g), workloads.HEIS_DSIGMA)
    hx = mf.nilflow.HeisenbergElement(*workloads.HEIS_X)
    obj["reps"] = [mf.nilflow.compile_poly_orbit(T, hx, l) for l in range(T.nu)]
    checks = {c.name: c for c in wl.checks(mf, state, sums, random.Random(0))}
    for name in ("cubic-phase-uint64", "affine-phase-exact", "nil-horizontal-phase-exact",
                 "affine-sum", "nil-horizontal-sum"):
        assert not checks[name].ok, name
    assert checks["affine-degree"].ok


def test_cubic_sum_check_fails_on_a_flipped_mu():
    wl = small(workloads.PolyPhase, 50_000)
    state = wl.setup(mf)
    sums = {t.name: t.call(1) for t in state.terms}
    state.table = flipped_table(wl.N, 49_999)
    checks = {c.name: c for c in wl.checks(mf, state, sums, random.Random(0))}
    assert not checks["cubic-sum-uint64"].ok


def test_affine_degree_check_fails_on_a_degree_one_map():
    wl = small(workloads.PolyPhase, 5_000, AFFINE_B=(0.1234, 0.31, 0.0))
    assert not checks_of(wl, wl.setup(mf))["affine-degree"].ok


# ---------------------------------------------------------------------------
# Heisenberg (nil-central)


def test_heisenberg_iteration_matches_program_iteration():
    T = mf.nilflow.HeisenbergAffine(mf.nilflow.HeisenbergElement(*workloads.HEIS_G),
                                    workloads.HEIS_DSIGMA)
    x = mf.nilflow.HeisenbergElement(Fraction(1, 5), Fraction(2, 3), Fraction(7, 11))
    pqr = (1, 2, 1)
    phases = oracles.heisenberg_orbit_phases(workloads.HEIS_G, workloads.HEIS_DSIGMA,
                                             x.coords(), pqr, 30)
    p = mf.nilflow.reduce_to_fundamental(x)
    for n in range(1, 31):
        p = mf.nilflow.nil_step(T, p)
        assert phases[n - 1] == float(sum(k * c for k, c in zip(pqr, p.coords())) % 1)


def test_nil_central_checks():
    wl = small(workloads.NilCentral, 2_000)
    state = wl.setup(mf)
    assert all(c.ok for c in checks_of(wl, state).values())
    g = (Fraction(1, 3) + Fraction(1, 10**6), *workloads.HEIS_G[1:])
    T = mf.nilflow.HeisenbergAffine(mf.nilflow.HeisenbergElement(*g), workloads.HEIS_DSIGMA)
    hx = mf.nilflow.HeisenbergElement(*workloads.HEIS_X)
    obs = mf.nilflow.NilObservable.character(*wl.PQR)
    state.terms = [Term("central", wl.N, lambda threads: list(mf.nilflow.correlate_nil(
        T, hx, obs, state.table, wl.checkpoints, threads=threads).sums))]
    state.objects["reps"] = [mf.nilflow.compile_poly_orbit(T, hx, l) for l in range(T.nu)]
    checks = checks_of(wl, state)
    assert not checks["central-sum-iteration"].ok
    assert not checks["central-orbit-form"].ok


# ---------------------------------------------------------------------------
# BENCHMARK.json


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert all(NAME.match(m["name"]) and UNIT.match(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# ---------------------------------------------------------------------------
# the tracer


def test_tracer_splits_layers_and_restores_the_program():
    import spans

    wl = small(workloads.PolyPhase, 20_000)
    originals = (mf.correlate.poly_mod1_array, mf.correlate._weighted_sums,
                 mf.correlate.np, mf.nilflow.correlate_nil)
    plain = {t.name: t.call(1) for t in wl.setup(mf).terms}
    tracer = spans.Tracer()
    tracer.install(mf)
    try:
        traced = {t.name: t.call(1) for t in wl.setup(mf).terms}
    finally:
        tracer.restore()
    assert traced == plain
    assert (mf.correlate.poly_mod1_array, mf.correlate._weighted_sums,
            mf.correlate.np, mf.nilflow.correlate_nil) == originals
    m = spans.layer_metrics(tracer.spans, 0.0)
    assert m["correlate.poly_mod1_calls"] > 0
    assert 0 < m["correlate.poly_mod1_s"] <= m["correlate.phase_s"]
    assert m["correlate.exp_s"] > 0 and m["correlate.reduce_s"] > 0
    assert m["mobius.table_mb"] == (wl.N + 1) / 2**20
    assert m["nilflow.values_mb"] == 16 * (wl.N + 1) / 2**20
    assert m["furstenberg.build_s"] == 0 and m["nilflow.eval_us_per_term"] == 0
