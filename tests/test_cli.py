"""End-to-end CLI checks: formats, exit codes, determinism of artifacts."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobiusflow.cli import main
from mobiusflow.correlate import THREADS_MAX
from mobiusflow.furstenberg import FurstenbergSystem

GOLDEN_SIEVE_30 = """n,mu
1,1
2,-1
3,-1
4,0
5,-1
6,1
7,-1
8,0
9,0
10,1
11,-1
12,0
13,-1
14,1
15,1
16,0
17,-1
18,0
19,-1
20,0
21,1
22,1
23,-1
24,0
25,0
26,1
27,0
28,0
29,-1
30,-1
"""


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_sieve_golden_file(capsys, tmp_path):
    path = tmp_path / "mu.csv"
    code, _, _ = run_cli(["sieve", "--limit", "30", "--emit-csv", str(path)], capsys)
    assert code == 0
    assert path.read_text() == GOLDEN_SIEVE_30
    prov = json.loads((tmp_path / "mu.csv.provenance.json").read_text())
    assert "config_sha256" in prov["provenance"]


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_sieve_limit_below_one_domain_exit(capsys, limit):
    code, _, err = run_cli(["sieve", "--limit", limit], capsys)
    assert code == 3 and err.startswith("error (domain)")


def test_sieve_limit_above_the_ceiling_capacity_exit(capsys):
    code, _, err = run_cli(["sieve", "--limit", "2e9"], capsys)
    assert code == 4 and err.startswith("error (capacity/precision)")


def test_sieve_limit_and_bsz_m_read_counts(capsys):
    """`sieve --limit` and `bsz --m` parse as --n does, so 1e2 reads 100."""
    code, out, _ = run_cli(["sieve", "--limit", "1e2"], capsys)
    assert code == 0 and out.splitlines()[-1] == "100,0"
    args = ["bsz", "--tau", "0.25", "--n", "2e4", "--f", "rotation:sqrt2-1"]
    reports = [run_cli([*args, "--m", m], capsys)[1] for m in ("1e3", "1000")]
    assert json.loads(reports[0])["M"] == 1000 and reports[0] == reports[1]


def test_sieve_row_count(capsys):
    code, out, _ = run_cli(["sieve", "--limit", "100"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,mu"
    assert len(lines) == 101


def test_sieve_checksum_stable(capsys, tmp_path):
    digests = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        run_cli(["sieve", "--limit", "1000", "--emit-csv", str(path)], capsys)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_unknown_subcommand_usage_exit():
    proc = subprocess.run([sys.executable, "-m", "mobiusflow.cli", "nonsense"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_no_subcommand_usage(capsys):
    code, out, _ = run_cli([], capsys)
    assert code == 2


def test_cfrac_table_format(capsys):
    code, out, _ = run_cli(["cfrac", "--alpha", "sqrt2-1", "--depth", "6",
                            "--partition-b", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,a_k,l_k,q_k,set"
    assert lines[1] == "0,0,0,1,flat"
    assert lines[2].startswith("1,2,1,2,")


def test_classify_rational_domain_exit(capsys):
    code, _, err = run_cli(["classify", "--alpha", "rational:1/3",
                            "--h", '{"type":"geometric","tau":1.0}',
                            "--n", "1000"], capsys)
    assert code == 3
    assert "rational-case pipeline" in err


def test_classify_golden_reports_no_sharp_scale(capsys):
    code, out, _ = run_cli(["classify", "--alpha", "golden",
                            "--h", '{"type":"geometric","tau":1.0}',
                            "--n", "1e6", "--partition-b", "8"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["label"] == "NoSharpScale"


def test_furstenberg_capacity_exit(capsys):
    code, _, err = run_cli(["furstenberg", "--tau", "1.0", "--depth", "5"], capsys)
    assert code == 4
    assert "capacity" in err


def test_furstenberg_infeasible_at_every_depth_exit(capsys):
    """At tau = 8 no depth K >= 3 fits the digit budget: exit 4, saying so."""
    code, out, err = run_cli(["furstenberg", "--tau", "8", "--depth", "3"], capsys)
    assert (code, out) == (4, "")
    assert "no depth K >= 3 is feasible at tau=8.0" in err
    assert "feasible depth here" not in err


def test_furstenberg_report(capsys):
    code, out, _ = run_cli(["furstenberg", "--tau", "1.0", "--depth", "3"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["q"] == ["1", "2", "9", "8102"]
    assert rep["coefficient_check"]["pass"]
    assert float(rep["coboundary_residual_G"]) < 1e-9


def test_integers_past_the_str_digit_limit_print_every_digit(capsys):
    """At tau = 4, q_3 has 5,179 digits, past Python's int-to-str limit of
    4,300; both commands print it in full, and exit 0."""
    sysm = FurstenbergSystem.build(4.0, 3)
    q3, a3 = sysm.q[3], sysm.alpha.quotient_seq[3]
    code, out, _ = run_cli(["furstenberg", "--tau", "4", "--depth", "3"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["q"][:3] == ["1", "2", "2981"] and len(rep["q"][3]) == 5179
    assert Decimal(rep["q"][3]) == q3 and Decimal(rep["quotients"][3]) == a3
    assert Decimal(rep["coefficient_check"]["levels"][2]["q_k"]) == q3
    code, out, _ = run_cli(["cfrac", "--alpha", "furstenberg:4,3", "--depth", "3"], capsys)
    assert code == 0
    k, a_k, _, q_k, _ = out.strip().splitlines()[-1].split(",")
    assert (k, Decimal(a_k), Decimal(q_k)) == ("3", a3, q3)


def test_expsum_subcommand(capsys):
    code, out, _ = run_cli(["expsum", "--coeffs", "0,0.3333333333333333",
                            "--n", "1000"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["abs_over_N"] <= 1.0


def test_bsz_subcommand(capsys):
    code, out, _ = run_cli(["bsz", "--tau", "0.25", "--m", "1000", "--n", "20000",
                            "--f", "rotation:sqrt2-1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["hypothesis_holds"] and rep["conclusion_holds"]


def _skew_config(tmp_path):
    cfg = {
        "type": "skew", "a": 1, "c": 1, "d": 1,
        "alpha": {"type": "quadratic", "initial": [0], "period": [2]},
        "h": {"type": "geometric", "tau": 1.5},
        "x": [0.3, 0.7],
    }
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(cfg))
    return path


def test_correlate_csv_format(capsys, tmp_path):
    cfg = _skew_config(tmp_path)
    out_path = tmp_path / "series.csv"
    code, _, _ = run_cli(["correlate", "--config", str(cfg), "--b", "0,1",
                          "--checkpoints", "1e3,1e4", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "N,re,im,abs_over_N"
    assert lines[1].startswith("1000,")
    assert lines[2].startswith("10000,")
    assert float(lines[2].split(",")[3]) <= 1.0


@pytest.mark.parametrize("modes, code", [([10**6], 0), (range(9000, 9065), 4)])
def test_correlate_high_modes(capsys, tmp_path, modes, code):
    """A mode at 10^6 runs on its own track; over 64 modes above 8192 exit 4."""
    entries = [[s * m, 0.1, 0] for m in modes for s in (1, -1)]
    cfg = {**json.loads(_skew_config(tmp_path).read_text()),
           "h": {"type": "coeffs", "entries": entries, "tau": 1e-5}}
    path = tmp_path / "high.json"
    path.write_text(json.dumps(cfg))
    got, out, err = run_cli(["correlate", "--config", str(path), "--b", "1,1",
                             "--checkpoints", "1e3,1e4"], capsys)
    assert got == code
    assert "modes above 8192: 65 > 64" in err if code else out.startswith("N,re,im")


def test_correlate_thread_count_invariance(capsys, tmp_path):
    cfg = _skew_config(tmp_path)
    blobs = []
    for t, name in ((1, "t1.csv"), (4, "t4.csv")):
        out_path = tmp_path / name
        code, _, _ = run_cli(["--threads", str(t), "correlate", "--config", str(cfg),
                              "--b", "0,1", "--checkpoints", "1e3,2e4",
                              "--out", str(out_path)], capsys)
        assert code == 0
        blobs.append(out_path.read_bytes())
    assert blobs[0] == blobs[1]


def test_nilflow_subcommand(capsys, tmp_path):
    cfg = {
        "type": "heisenberg",
        "g": ["1/3", "1/7", "2/5"],
        "dsigma": [[1, 0, 0], [1, 1, 0], ["1/2", 0, 1]],
        "x": [0, 0, 0],
    }
    path = tmp_path / "nil.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["nilflow", "--config", str(path), "--observable", "1,2,0",
                            "--checkpoints", "1e3,1e4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,re,im,abs_over_N"
    assert len(lines) == 3


@pytest.mark.parametrize("observable, route, period", [("1,2,0", "classes", 21),
                                                       ("1,2,1", "direct", 1890)])
def test_nilflow_provenance_records_route_and_period(tmp_path, capsys, observable, route,
                                                     period):
    """The README map's sums at 1e3 and 1e4: the horizontal character's
    period 21 takes the class route, the central one's 1,890 does not."""
    out = tmp_path / "series.csv"
    code, _, _ = run_cli(["nilflow", "--config", _nil_config(tmp_path), "--observable",
                          observable, "--checkpoints", "1e3,1e4", "--out", str(out)], capsys)
    prov = json.loads((tmp_path / "series.csv.provenance.json").read_text())["provenance"]
    assert code == 0 and (prov["route"], prov["period"]) == (route, period)


def test_period_past_the_str_digit_limit_is_written_as_digits(tmp_path, capsys):
    """g2 = 10^-5000 gives the central character a period of 5,002 digits,
    past Python's int-to-str limit: the sidecar writes it as a string."""
    cfg = {"type": "heisenberg", "g": ["1/3", "1e-5000", "2/5"],
           "dsigma": [[1, 0, 0], [1, 1, 0], ["1/2", 0, 1]]}
    out = tmp_path / "series.csv"
    code, _, _ = run_cli(["nilflow", "--config", _nil_config(tmp_path, cfg), "--observable",
                          "1,2,1", "--checkpoints", "10,100", "--out", str(out)], capsys)
    prov = json.loads((tmp_path / "series.csv.provenance.json").read_text())["provenance"]
    assert code == 0 and prov["route"] == "direct"
    assert prov["period"].isdigit() and len(prov["period"]) > 4300


def test_correlate_provenance_of_a_skew_series_has_no_period(capsys, tmp_path):
    code, _, err = run_cli(["correlate", "--config", str(_skew_config(tmp_path)), "--b", "0,1",
                            "--checkpoints", "1e3"], capsys)
    prov = json.loads(err)["provenance"]
    assert code == 0 and (prov["route"], prov["period"]) == ("direct", None)


def _nil_config(tmp_path, cfg=None):
    path = tmp_path / "nil.json"
    path.write_text(json.dumps(cfg or {"type": "heisenberg", "g": ["1/3", "1/7", "2/5"],
                                       "dsigma": [[1, 0, 0], [1, 1, 0], ["1/2", 0, 1]]}))
    return str(path)


def _run_module(args):
    proc = subprocess.run([sys.executable, "-m", "mobiusflow.cli", *args],
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    return proc.returncode


def test_nilflow_empty_checkpoints_usage_exit(tmp_path):
    assert _run_module(["nilflow", "--config", _nil_config(tmp_path), "--observable", "1,2,1",
                        "--checkpoints", ","]) == 2


def test_nilflow_bad_observable_usage_exit(tmp_path):
    assert _run_module(["nilflow", "--config", _nil_config(tmp_path), "--observable", "a,b",
                        "--checkpoints", "100"]) == 2


def test_nilflow_config_missing_keys_domain_exit(tmp_path):
    assert _run_module(["nilflow", "--config", _nil_config(tmp_path, {"type": "heisenberg"}),
                        "--observable", "1,2,1", "--checkpoints", "100"]) == 3


def test_correlate_non_normalized_skew_domain_exit(tmp_path):
    path = _skew_config(tmp_path)
    cfg = json.loads(path.read_text())
    path.write_text(json.dumps({**cfg, "a": -1}))
    assert _run_module(["correlate", "--config", str(path), "--b", "1,0",
                        "--checkpoints", "100"]) == 3


def test_malformed_thread_count_env_usage_exit(monkeypatch):
    monkeypatch.setenv("MOBIUSFLOW_THREADS", "abc")
    assert _run_module(["sieve", "--limit", "10"]) == 2


@pytest.mark.parametrize("option, env", [(["--threads", "0"], None), (["--threads", "-2"], None),
                                         ([], "-1"), ([], "0")])
def test_thread_count_below_one_usage_exit(monkeypatch, option, env):
    if env is not None:
        monkeypatch.setenv("MOBIUSFLOW_THREADS", env)
    assert _run_module([*option, "sieve", "--limit", "10"]) == 2


@pytest.mark.parametrize("option, env", [(["--threads", str(THREADS_MAX + 1)], None),
                                         (["--threads", "100000"], None), ([], "100000")])
def test_thread_count_above_the_most_usage_exit(monkeypatch, option, env):
    """A count above THREADS_MAX is refused before any work, with exit 2."""
    if env is not None:
        monkeypatch.setenv("MOBIUSFLOW_THREADS", env)
    assert _run_module([*option, "sieve", "--limit", "10"]) == 2


@pytest.mark.parametrize("observable", ["1,2,1,4", '{"central": 1.5}',
                                        '{"horizontal": [1, 2.5]}', '{"central": "1"}'])
def test_nilflow_observable_of_wrong_shape_usage_exit(tmp_path, observable):
    assert _run_module(["nilflow", "--config", _nil_config(tmp_path), "--observable", observable,
                        "--checkpoints", "100"]) == 2


def test_correlate_affine_point_of_wrong_length_domain_exit(tmp_path, capsys):
    path = tmp_path / "aff.json"
    for x in ([0.1], [0.1, 0, 5]):
        path.write_text(json.dumps({"type": "unipotent_affine", "matrix": [[1, 1], [0, 1]],
                                    "translation": ["1/3", 0], "x": x}))
        code, _, err = run_cli(["correlate", "--config", str(path), "--b", "0,1",
                                "--checkpoints", "100"], capsys)
        assert code == 3 and "'x'" in err


_MALFORMED_CONFIGS = [
    ("nil", {"g": ["1/3", "1/7", "x"]}, "g"),
    ("nil", {"g": ["1/3", "1/7"]}, "g"),
    ("nil", {"g": ["1/3", "1/7", "1/0"]}, "g"),
    ("nil", {"dsigma": [[1, 0, 0], [1, 1, 0]]}, "dsigma"),
    ("nil", {"x": [0, "nan", 0]}, "x"),
    ("aff", {"translation": [0.1, "1/0"]}, "translation"),
    ("aff", {"matrix": [[1, "y"], [0, 1]]}, "matrix"),
    ("skew", {"x": [0.1]}, "x"),
    ("skew", {"x": ["a", 0.2]}, "x"),
    ("skew", {"x": 0.1}, "x"),
    ("skew", {"c": 1.5}, "c"),
    ("skew", {"alpha": {"type": "rational", "p": "x", "q": 3}}, "p"),
    ("skew", {"h": {"type": "geometric", "tau": "y"}}, "tau"),
    ("skew", {"h": {"type": "coeffs", "entries": [[1, 0.2, "z"]], "tau": 1}}, "entries"),
]


@pytest.mark.parametrize("flow, change, key", _MALFORMED_CONFIGS)
def test_malformed_config_numbers_domain_exit(configs, tmp_path, capsys, flow, change, key):
    cfg = {**json.loads(Path(configs[flow]).read_text()), **change}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = (["nilflow", "--observable", "1,2,1"] if flow == "nil"
            else ["correlate", "--b", "0,1"])
    code, _, err = run_cli([args[0], "--config", str(path), *args[1:], "--checkpoints", "100"],
                           capsys)
    assert code == 3 and f"'{key}'" in err


@pytest.mark.parametrize("args, code", [
    (["nilflow", "--observable", "1,2,1", "--checkpoints", "1e400"], 2),
    (["correlate", "--b", "a,b", "--checkpoints", "100"], 2),
    (["expsum", "--coeffs", "a,1", "--n", "100"], 2),
    (["expsum", "--coeffs", "inf,1", "--n", "100"], 3),
    (["expsum", "--coeffs", "nan,1", "--n", "100"], 3),
    (["furstenberg", "--tau", "1", "--depth", "4", "--seed", "-1"], 2),
    (["verify", "--seed", "-1"], 2),
    # a count or checkpoint that is not an integer; these ran truncated, 0.5 as a limit of 0
    (["sieve", "--limit", "0.5"], 2),
    (["sieve", "--limit", "3.9"], 2),
    (["expsum", "--coeffs", "0,1", "--n", "2.5"], 2),
    (["nilflow", "--observable", "1,2,1", "--checkpoints", "10.7,20.2"], 2),
])
def test_malformed_numbers_exit_without_traceback(tmp_path, args, code):
    if args[0] in ("nilflow", "correlate"):
        args = [args[0], "--config", _nil_config(tmp_path), *args[1:]]
    assert _run_module(args) == code


@pytest.mark.parametrize("args, name", [
    (["expsum", "--coeffs", "0,1", "--n", "abc"], "count"),
    (["expsum", "--coeffs", "a,1", "--n", "100"], "coeffs"),
    (["nilflow", "--observable", "1,2,1", "--checkpoints", "a"], "checkpoints"),
    (["verify", "--seed", "x"], "seed"),
    (["correlate", "--b", "a", "--checkpoints", "100"], "components"),
    (["nilflow", "--observable", "a", "--checkpoints", "100"], "observable"),
    (["expsum", "--coeffs", "0,1", "--n", "2.5"], "count"),
    (["nilflow", "--observable", "1,2,1", "--checkpoints", "10,20.2"], "checkpoints"),
])
def test_usage_errors_name_what_the_option_reads(tmp_path, capsys, args, name):
    if args[0] in ("nilflow", "correlate"):
        args = [args[0], "--config", _nil_config(tmp_path), *args[1:]]
    with pytest.raises(SystemExit) as exc:
        main(args)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"invalid {name} value" in err
    assert "<lambda>" not in err and "_parse_" not in err


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    d = tmp_path_factory.mktemp("configs")
    nil = _nil_config(d)
    skew = str(_skew_config(d))
    aff = d / "aff.json"
    aff.write_text(json.dumps({"type": "unipotent_affine", "matrix": [[1, 1], [0, 1]],
                               "translation": ["1/3", 0], "x": ["1/7", "2/5"]}))
    return {"nil": nil, "skew": skew, "aff": str(aff)}


# Tokens of a comma-separated list: small numbers, numbers out of range or
# not finite, and text that is no number. No token is a valid checkpoint
# above 300, so no case sieves far.
_TOKEN = st.one_of(
    st.integers(-3, 300).map(str),
    st.sampled_from(["", " ", "1e400", "-1e400", "inf", "-inf", "nan", "1.5", "2e9",
                     "0x1f", "9" * 30, "1e-400", "--"]),
    st.text(alphabet=" .+-_eExyz;:[]{}", max_size=5),
)


@settings(max_examples=80, deadline=None)
@example(option="checkpoints", flow="nil", value="--")  # argparse skips type= on "--"
@given(option=st.sampled_from(["checkpoints", "b", "coeffs"]),
       flow=st.sampled_from(["nil", "skew", "aff"]),
       value=st.lists(_TOKEN, min_size=1, max_size=4).map(",".join))
def test_malformed_lists_end_in_documented_exit_codes(configs, option, flow, value):
    argv = {
        "checkpoints": ["nilflow", "--config", configs["nil"], "--observable", "1,2,1",
                        f"--checkpoints={value}"],
        "b": ["correlate", "--config", configs[flow], f"--b={value}",
              "--checkpoints", "100"],
        "coeffs": ["expsum", f"--coeffs={value}", "--n", "100"],
    }[option]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("args", [
    ["classify", "--alpha", "golden", "--h", '{"type": "geometric"}', "--n", "100"],
    ["classify", "--alpha", "golden", "--h", "{bad", "--n", "100"],
    ["classify", "--alpha", "golden", "--h", "BAD_JSON", "--n", "100"],
    ["correlate", "--config", "BAD_JSON", "--b", "0,1", "--checkpoints", "100"],
    ["nilflow", "--config", "BAD_JSON", "--observable", "1,2", "--checkpoints", "100"],
    ["cfrac", "--alpha", "rational:x/3"],
    ["cfrac", "--alpha", "quotients:"],
    ["cfrac", "--alpha", "furstenberg:1.0"],
    ["bsz", "--tau", "0.25", "--m", "0", "--n", "1000", "--f", "constant"],
    ["bsz", "--tau", "0.25", "--m", "-5", "--n", "1000", "--f", "constant"],
    ["bsz", "--tau", "0.25", "--m", "100", "--n", "1000", "--f", "rotation:abc"],
    ["bsz", "--tau", "0.25", "--m", "100", "--n", "0", "--f", "constant"],
    ["expsum", "--coeffs", "0,1", "--n", "0"],
])
def test_malformed_json_and_alpha_specs_domain_exit(tmp_path, capsys, args):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    code, _, err = run_cli([str(bad) if a == "BAD_JSON" else a for a in args], capsys)
    assert code == 3 and err.startswith("error (domain)")


@pytest.mark.parametrize("change", [{"alpha": 5}, {"h": [1]}])
def test_skew_config_parts_of_wrong_type_domain_exit(configs, tmp_path, capsys, change):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**json.loads(Path(configs["skew"]).read_text()), **change}))
    code, _, err = run_cli(["correlate", "--config", str(path), "--b", "0,1",
                            "--checkpoints", "100"], capsys)
    assert code == 3 and "JSON object" in err
