"""The two experiment scripts of the README run end to end on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECAY_FLOWS = ("unipotent_affine", "diophantine_skew", "furstenberg_skew")


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_decay_and_irregularity_scripts_run(tmp_path):
    decay = _run("run_decay_experiments.py", "--n-max", "1e4", "--out-dir", str(tmp_path))
    assert decay.returncode == 0, decay.stderr
    for name in DECAY_FLOWS:
        lines = (tmp_path / f"decay_{name}.csv").read_text().splitlines()
        assert lines[0] == "N,re,im,abs_over_N"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1000, 10_000]

    irr = _run("irregularity_run.py", "--out", str(tmp_path / "irr.json"))
    assert irr.returncode == 0, irr.stderr
    report = json.loads((tmp_path / "irr.json").read_text())
    assert report["windows"] and set(report["observables"]) == {"(0, 0)", "(1, 0)", "(0, 1)"}
