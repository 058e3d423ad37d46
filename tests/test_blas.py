"""The correlators' sums do not depend on the BLAS that numpy loads.

OpenBLAS reads its kernel and thread count when it loads, so each run is a
subprocess: tests/test_golden.py under an SSE-class kernel at two BLAS
threads.  Every golden output must hold under the other kernel.  The golden skew sums
hold only within a bound, so a skew correlation with Fourier modes is also
compared == under the default kernel and the SSE-class one.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SKEW_MODES = """
from mobiusflow.analytic import AnalyticSeries
from mobiusflow.cfrac import AlphaSpec
from mobiusflow.correlate import mobius_correlate
from mobiusflow.flows import Character, SkewFlow, TorusPoint
from mobiusflow.furstenberg import FurstenbergSystem
from mobiusflow.mobius import mobius_sieve

table = mobius_sieve(10**5)
for flow in (SkewFlow(1, 1, 1, AlphaSpec.sqrt2_minus_1(), AnalyticSeries.geometric(1.0, 37)),
             FurstenbergSystem.build(1.0, 4).flow(c=0, corrected=True)):
    series = mobius_correlate(flow, TorusPoint(0.37, 0.12), Character(0, 1), table,
                              [10**4, 10**5], threads=2)
    print(series.metadata["modes_kept"], repr(series.sums))
"""


def _run(args, **blas) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **blas)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


def test_golden_outputs_hold_under_another_blas_kernel():
    proc = _run(["-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "tests/test_golden.py"],
                OPENBLAS_CORETYPE="Nehalem", OPENBLAS_NUM_THREADS="2")
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    assert proc.returncode == 0 and " passed" in proc.stdout, (failed, proc.stdout[-4000:])


def test_skew_sums_with_modes_identical_under_another_blas_kernel():
    """The diophantine flow (37 modes) and the lacunary one (20 kept)."""
    runs = [_run(["-c", SKEW_MODES], **blas) for blas in ({}, {"OPENBLAS_CORETYPE": "Nehalem"})]
    assert all(r.returncode == 0 for r in runs), [r.stderr for r in runs]
    assert runs[0].stdout == runs[1].stdout
    assert [line.split()[0] for line in runs[0].stdout.splitlines()] == ["37", "20"]
