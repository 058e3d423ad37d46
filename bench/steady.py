#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with another seed,
and report the spread of every end-to-end metric against its bound.

    python3 bench/steady.py --runs 10

Every workload runs with seeds 1..runs. The spread of a metric is the
distance between the first and third quartiles of its values
(statistics.quantiles, n=4) as a share of their median. The script exits
with 1 when the spread of an end-to-end metric exceeds its bound, when a
run fails, or when the share of failed operations differs between runs.
All runs are written to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list] = {}
    ok = True
    for name in names:
        runs[name] = []
        for seed in range(1, args.runs + 1):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            result.update(seed=seed, wall_s=wall)
            runs[name].append(result)
            print(f"{name} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
            ok &= result["correct"]

        shares = {r["failed"] / r["attempted"] for r in runs[name]}
        if len(shares) > 1:
            print(f"{name}: the share of failed operations varies: {sorted(shares)}")
            ok = False
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bound / 3 else (" over a third of the bound"
                                                   if spread <= bound else " OVER THE BOUND")
            ok &= spread <= bound
            print(f"  {name:12s} {metric:16s} median {med:.6g}  spread {spread:.4f}"
                  f"  bound {bound}{flag}")
        print(f"  {name:12s} wall per run: median "
              f"{statistics.median(r['wall_s'] for r in runs[name]):.1f} s", flush=True)

    out = ROOT / "bench" / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
