#!/usr/bin/env python3
"""Recorded irregularity run for the lacunary skew product.

Birkhoff averages of the uncorrected flow are probed at windows tied to the
convergent denominators.  The oscillation statistic (diameter of the tail
half of the averages) stays large for the vertical observable because every
reachable resonance scale q_k re-excites the sums; the recorded threshold
0.05 is an empirical finding of this run, not an asserted constant.

Depth note: at tau = 1 the deepest representable denominator is q_3 = 8102
(q_4 has ~3.5e3 digits, q_5 would need ~10^3518 digits), so the recorded
windows stop at q_3 and the construction uses K = 4.
"""

import argparse
import json
import pathlib

from mobiusflow.cli import _exit_code
from mobiusflow.flows import Character, TorusPoint
from mobiusflow.furstenberg import FurstenbergSystem, irregularity_probe

RECORDED_THRESHOLD = 0.05


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tau", type=float, default=1.0)
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--out", default="results/irregularity.json")
    return _exit_code(lambda: run(ap.parse_args()))


def run(args) -> int:
    sysm = FurstenbergSystem.build(args.tau, args.depth)
    q = [v for v in sysm.q if v.bit_length() < 30]
    windows = sorted({q[1], q[2], q[2] ** 2, q[2] ** 3, q[-1]})
    x0 = TorusPoint(0.0, 0.0)

    report = {"tau": args.tau, "depth": args.depth,
              "windows": windows, "recorded_threshold": RECORDED_THRESHOLD,
              "observables": {}}
    for b in [(0, 0), (1, 0), (0, 1)]:
        probe = irregularity_probe(sysm, Character(*b), x0, windows)
        report["observables"][str(b)] = probe
        print(f"b={b}: oscillation={probe['oscillation']:.4f} "
              f"|A|={['%.4f' % a for a in probe['abs_averages']]}")
    vertical = report["observables"]["(0, 1)"]["oscillation"]
    report["vertical_exceeds_threshold"] = vertical > RECORDED_THRESHOLD
    print(f"vertical oscillation {vertical:.4f} > {RECORDED_THRESHOLD}: "
          f"{report['vertical_exceeds_threshold']}")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
