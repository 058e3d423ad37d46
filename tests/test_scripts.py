"""The two experiment scripts of the README run end to end on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("n_max", ["2.5", "nan", "abc"])
def test_decay_script_refuses_a_count_that_is_no_integer(tmp_path, n_max):
    """--n-max parses through the CLI's count parser: 2.5 used to run as 2 through int(float(s))."""
    decay = _run("run_decay_experiments.py", "--n-max", n_max, "--out-dir", str(tmp_path))
    assert decay.returncode == 2 and "invalid count value" in decay.stderr, decay.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("script, args, code", [
    ("run_decay_experiments.py", ("--n-max", "1e4", "--threads", "0", "--out-dir"), 2),
    ("run_decay_experiments.py", ("--n-max", "1e4", "--threads", "300", "--out-dir"), 2),
    ("irregularity_run.py", ("--depth", "2", "--out"), 3),
    ("irregularity_run.py", ("--tau", "20", "--out"), 3),
])
def test_scripts_end_in_exit_codes_not_tracebacks(tmp_path, script, args, code):
    """A thread count out of range is a usage error, refused before the sieve, and a
    library error maps to the CLI's exit codes; each used to exit 1 with a traceback."""
    run = _run(script, *args, str(tmp_path / "out"))
    assert run.returncode == code and run.stderr.strip(), run.stderr
    assert "Traceback" not in run.stderr, run.stderr
    assert not list(tmp_path.iterdir())
