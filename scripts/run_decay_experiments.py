#!/usr/bin/env python3
"""Correlation-decay experiment driver.

Runs the three reference flows (unipotent affine toral map, diophantine
skew product, lacunary skew product) against the Mobius weights and emits
one CSV of checkpointed |S(N)|/N per flow, suitable for plotting.

Example:
    python scripts/run_decay_experiments.py --n-max 1e7 --out-dir results
"""

import argparse
import json
import pathlib
import time

from mobiusflow import __version__
from mobiusflow.cfrac import AlphaSpec
from mobiusflow.cli import _exit_code, _parse_count
from mobiusflow.analytic import AnalyticSeries
from mobiusflow.correlate import THREADS_MAX, mobius_correlate
from mobiusflow.flows import Character, SkewFlow, TorusPoint, UnipotentAffine
from mobiusflow.furstenberg import FurstenbergSystem
from mobiusflow.mobius import mobius_sieve


def checkpoints_up_to(n_max: int) -> list:
    cps = []
    c = 1000
    while c < n_max:
        cps.append(c)
        c *= 10
    cps.append(n_max)
    return cps


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=_parse_count, default=10**7)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()
    if not 1 <= args.threads <= THREADS_MAX:
        ap.error(f"the thread count must be from 1 to {THREADS_MAX}, got {args.threads}")
    return _exit_code(lambda: run(args))


def run(args) -> int:
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cps = checkpoints_up_to(args.n_max)

    t0 = time.time()
    table = mobius_sieve(args.n_max)
    print(f"sieve to {args.n_max}: {time.time()-t0:.1f}s")

    runs = {}
    runs["unipotent_affine"] = lambda: mobius_correlate(
        UnipotentAffine(matrix=((1, 1), (0, 1)), translation=(0.1234, 0.0)),
        (0.2, 0.51), (1, 2), table, cps, threads=args.threads)
    runs["diophantine_skew"] = lambda: mobius_correlate(
        SkewFlow(1, 1, 1, AlphaSpec.sqrt2_minus_1(), AnalyticSeries.geometric(1.0)),
        TorusPoint(0.37, 0.12), Character(0, 1), table, cps, threads=args.threads)
    fs = FurstenbergSystem.build(1.0, 4)
    runs["furstenberg_skew"] = lambda: mobius_correlate(
        fs.flow(c=0, corrected=True), TorusPoint(0.37, 0.12), Character(0, 1),
        table, cps, threads=args.threads)

    summary = {"version": __version__, "n_max": args.n_max, "flows": {}}
    for name, job in runs.items():
        t1 = time.time()
        series = job()
        dt = time.time() - t1
        (out / f"decay_{name}.csv").write_text(series.csv())
        summary["flows"][name] = {
            "seconds": dt,
            "normalized": list(series.normalized),
            "monotone_improvement": series.normalized[-1] < series.normalized[0],
        }
        print(f"{name}: {dt:.1f}s  |S|/N {series.normalized[0]:.5f} -> "
              f"{series.normalized[-1]:.6f}")
    with open(out / "decay_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
