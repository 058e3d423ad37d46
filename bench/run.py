#!/usr/bin/env python3
"""Benchmark of mobiusflow's Mobius correlators.

    python3 bench/run.py --workload skew-torus --seed 1 --seconds 20 --trace 0

Workloads: skew-torus, poly-phase, nil-central, mu-scale (see
bench/README.md), or `all`, which runs each in a process of its own.

With --trace 0 the run makes whole rounds until --seconds have gone by,
and at least MIN_ROUNDS of them. A round sets the workload up again and
again for SETUP_SECONDS (at least once), keeps the last set-up, and makes a
pass of every correlation at threads=1 and then at threads=2. The run
prints the end-to-end metrics: the median over the rounds of each round's
fastest set-up, the sum over the terms of each term's fastest call at each
thread count, and the peak resident set of this process.

With --trace 1 it makes two untraced set-ups and threads=1 passes (the
first only warms up), then one set-up and threads=1 pass with the spans of
`spans.Tracer` on, then an untraced threads=2 pass, and prints the
per-layer metrics.

Either way it then checks the outputs against the computations of
`oracles`. Every correlation call is an operation; it fails when it raises,
when its sums differ in any bit from the first pass, or when a check that
covers it fails. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("mobius", "cfrac", "analytic", "polyutil", "flows", "nilflow", "furstenberg",
           "correlate")
THREADS = (1, 2)
MIN_ROUNDS, SETUP_SECONDS = 3, 0.25

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "terms_per_s": "terms/s",
    "terms_per_s.t2": "terms/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "mobius.sieve_s": "s",
    "mobius.table_mb": "MB",
    "furstenberg.build_s": "s",
    "flows.phase_poly_s": "s",
    "nilflow.compile_s": "s",
    "correlate.phase_s": "s",
    "correlate.phase_ns_per_term": "ns/term",
    "correlate.poly_mod1_s": "s",
    "correlate.poly_mod1_calls": "count",
    "correlate.exp_s": "s",
    "correlate.reduce_s": "s",
    "nilflow.eval_us_per_term": "us/term",
    "nilflow.values_mb": "MB",
    "trace.overhead_s": "s",
}


def load_program() -> types.SimpleNamespace:
    """mobiusflow's modules, imported from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "mobiusflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no mobiusflow sources under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"mobiusflow.{name}") for name in MODULES}
    for mod in mods.values():
        if not Path(mod.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"error: {mod.__name__} was imported from {mod.__file__}")
    return types.SimpleNamespace(**mods)


def timed_setup(wl, mf):
    gc.collect()
    t0 = perf_counter()
    state = wl.setup(mf)
    return state, perf_counter() - t0


def timed_pass(state, threads: int):
    """(threads, {term: sums or None when the call raised}, {term: wall seconds})."""
    sums, wall = {}, {}
    for term in state.terms:
        gc.collect()
        t0 = perf_counter()
        try:
            sums[term.name] = term.call(threads)
        except Exception:
            traceback.print_exc()
            sums[term.name] = None
        wall[term.name] = perf_counter() - t0
    return threads, sums, wall


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, mf, seconds: float):
    setups, passes = [], []  # setups: the fastest set-up of each round
    count = 0
    start = perf_counter()
    while perf_counter() - start < seconds or len(setups) < MIN_ROUNDS:
        group, fastest = perf_counter(), float("inf")
        while True:
            state = None  # release the previous table before sieving again
            state, dt = timed_setup(wl, mf)
            fastest = min(fastest, dt)
            count += 1
            if perf_counter() - group >= SETUP_SECONDS:
                break
        setups.append(fastest)
        passes.extend(timed_pass(state, threads) for threads in THREADS)
    rss = peak_rss_mb()
    terms = sum(t.terms for t in state.terms)
    # each term's fastest call: the host shares its cores and its cache, and
    # calls there slow down by up to 1.9x for seconds at a time (see
    # bench/README.md)
    wall = {th: sum(min(w[term.name] for t, _, w in passes if t == th)
                    for term in state.terms) for th in THREADS}
    setup_s = statistics.median(setups)
    metrics = {
        "setup_s": setup_s,
        "solve_s": setup_s + wall[1],
        "terms_per_s": terms / wall[1],
        "terms_per_s.t2": terms / wall[2],
        "peak_rss_mb": rss,
    }
    info = f"{count} set-ups, {len(setups)} rounds"
    return state, passes, metrics, info


def measure_traced(wl, mf):
    import spans

    # the first pass of a process runs cold, so it is not the comparison
    warm = timed_pass(timed_setup(wl, mf)[0], 1)
    state, setup_u = timed_setup(wl, mf)
    untraced = timed_pass(state, 1)
    state = None
    tracer = spans.Tracer()
    tracer.install(mf)
    try:
        state, setup_t = timed_setup(wl, mf)
        traced = timed_pass(state, 1)
    finally:
        tracer.restore()
    passes = [warm, untraced, traced, timed_pass(state, 2)]
    overhead = (setup_t + sum(traced[2].values())) - (setup_u + sum(untraced[2].values()))
    metrics = spans.layer_metrics(tracer.spans, overhead)
    info = f"{len(tracer.spans)} spans"
    return state, passes, metrics, info


def first_sums(passes) -> dict:
    """Each term's sums from the first pass in which its call returned."""
    first = {}
    for _, sums, _ in passes:
        for name, s in sums.items():
            if s is not None:
                first.setdefault(name, s)
    return first


def count_failures(state, passes, checks):
    """(attempted, failed, identity breaks). A call fails when it raised,
    differs in any bit from the first pass, or a failed check covers it."""
    first = first_sums(passes)
    all_terms = tuple(t.name for t in state.terms)
    bad_terms = set()
    for c in checks:
        if not c.ok:
            bad_terms.update(c.terms or all_terms)
    failed = identity_breaks = 0
    for _, sums, _ in passes:
        for name, s in sums.items():
            differs = s is not None and s != first[name]
            identity_breaks += differs
            failed += s is None or differs or name in bad_terms
    return len(passes) * len(all_terms), failed, identity_breaks


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    wl = workloads.WORKLOADS[name]
    mf = load_program()
    if trace:
        state, passes, metrics, info = measure_traced(wl, mf)
        units = PER_LAYER
    else:
        state, passes, metrics, info = measure(wl, mf, seconds)
        units = END_TO_END

    rng = random.Random(seed)
    first = first_sums(passes)
    checks = workloads.mu_checks(state.table.mu_array(), wl.N, rng)
    missing = [t.name for t in state.terms if t.name not in first]
    if missing:
        checks.append(workloads.Check("calls-completed", False,
                                      f"every call raised for {missing}", tuple(missing)))
    else:
        checks.extend(wl.checks(mf, state, first, rng))
    attempted, failed, identity_breaks = count_failures(state, passes, checks)
    checks.append(workloads.Check(
        "threads-bit-identical", identity_breaks == 0,
        f"{identity_breaks} of {attempted} calls differ from the first pass"))

    print(f"workload {name}, seed {seed}: {info}")
    for c in checks:
        print(f"  check {c.name}: {'ok' if c.ok else 'FAILED'} ({c.detail})")
    for key, unit in units.items():
        print(f"  {key:28s} {metrics[key]:.6g} {unit}")
    print(f"  operations: {attempted} attempted, {failed} failed")
    result = {
        "correct": failed == 0 and all(c.ok for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a process of its own, one after another."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            print(f"workload {name} exited with code {proc.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
