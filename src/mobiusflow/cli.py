"""Command-line entry point: batch experiments emitting CSV/JSON.

Subcommands: sieve, cfrac, classify, correlate, expsum, bsz, furstenberg,
nilflow, verify.  Exit codes: 0 ok, 2 usage, 3 domain error, 4 capacity or
precision error, 5 internal error (including a failed lemma-check suite).

Every artifact write is atomic (temp file + rename) and carries a
provenance block (config hash, package version, thread count, and for a
correlation series the route and period of its sum) in a sidecar
.provenance.json, or on stderr when writing to stdout.  The default thread
count comes from MOBIUSFLOW_THREADS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .analytic import AnalyticSeries
from .cfrac import (AlphaSpec, cf_expand, classify_case, partition_Q,
                    two_series_partial_sums, with_partition, caseC_condition_rhs_logs)
from .correlate import (THREADS_MAX, bsz_test, mobius_correlate, poly_exp_sum,
                        poly_lower_bound_check, vdc_sum_check)
from .errors import CapacityError, DomainError, MobiusflowError, PrecisionError
from .flows import Character, PolyPhase, SkewFlow, TorusPoint, UnipotentAffine
from .mobius import mobius_sieve
from . import furstenberg as fb
from . import nilflow as nf

ENV_THREADS = "MOBIUSFLOW_THREADS"


# ---------------------------------------------------------------------------
# Spec parsing


def alpha_from_string(spec: str) -> AlphaSpec:
    s = spec.strip()
    if s in ("sqrt2-1", "sqrt2m1"):
        return AlphaSpec.sqrt2_minus_1()
    if s == "golden":
        return AlphaSpec.golden_frac()
    kind, _, arg = s.partition(":")
    try:
        if kind == "rational":
            p, q = arg.split("/")
            return AlphaSpec.rational(int(p), int(q))
        if kind == "quotients":
            return AlphaSpec.from_quotients([int(a) for a in arg.split(",")])
        if kind == "furstenberg":
            tau, K = arg.split(",")
            return fb.build_alpha(float(tau), int(K))
    except ValueError as exc:
        raise DomainError(f"cannot parse alpha spec {spec!r}: {exc}") from None
    raise DomainError(f"cannot parse alpha spec {spec!r}")


def _config(parse):
    """A config parser that refuses a config which is no JSON object, and a
    missing key, with DomainError."""
    def parsed(d):
        if not isinstance(d, dict):
            raise DomainError(f"a config is a JSON object, got {d!r}")
        try:
            return parse(d)
        except KeyError as exc:
            raise DomainError(f"{d.get('type')} config lacks the key {exc}") from None
    parsed.__name__ = parse.__name__
    return parsed


@_config
def alpha_from_json(d: dict) -> AlphaSpec:
    kind = d.get("type")
    if kind == "rational":
        return AlphaSpec.rational(_integer(d["p"], "p"), _integer(d["q"], "q"))
    if kind == "quadratic":
        return AlphaSpec.quadratic(_integers(d.get("initial", [0]), "initial"),
                                   _integers(d["period"], "period"))
    if kind == "quotients":
        return AlphaSpec.from_quotients(_integers(d["quotients"], "quotients"))
    if kind == "furstenberg":
        return fb.build_alpha(_real(d["tau"], "tau"), _integer(d["depth"], "depth"))
    raise DomainError(f"unknown alpha type {kind!r}")


@_config
def series_from_json(d: dict) -> AnalyticSeries:
    kind = d.get("type")
    if kind == "coeffs":
        entries = [(_integer(m, "entries"), complex(_real(re, "entries"), _real(im, "entries")))
                   for m, re, im in _numbers(d["entries"], "entries", None, 3)]
        tau2 = None if d.get("tau2") is None else _real(d["tau2"], "tau2")
        return AnalyticSeries.from_entries(entries, tau=_real(d["tau"], "tau"), tau2=tau2)
    if kind == "geometric":
        M = None if d.get("M") is None else _integer(d["M"], "M")
        return AnalyticSeries.geometric(_real(d["tau"], "tau"), M=M)
    if kind == "furstenberg":
        sysm = fb.FurstenbergSystem.build(_real(d["tau"], "tau"), _integer(d["depth"], "depth"))
        return sysm.combined
    raise DomainError(f"unknown series type {kind!r}")


@_config
def flow_from_json(d: dict):
    kind = d.get("type")
    if kind == "skew":
        return SkewFlow(_integer(d.get("a", 1), "a"), _integer(d["c"], "c"),
                        _integer(d.get("d", 1), "d"),
                        alpha_from_json(d["alpha"]), series_from_json(d["h"]))
    if kind == "unipotent_affine":
        W = _numbers(d["matrix"], "matrix", None, None)
        return UnipotentAffine(matrix=W, translation=_numbers(d["translation"], "translation",
                                                              len(W)))
    if kind == "heisenberg":
        return nf.HeisenbergAffine(g=nf.HeisenbergElement(*_numbers(d["g"], "g", 3)),
                                   dsigma=_numbers(d["dsigma"], "dsigma", 3, 3))
    raise DomainError(f"unknown flow type {kind!r}")


def _load_json(source: str, inline: bool = False):
    """The JSON value of the file at `source`, or of `source` itself when inline."""
    try:
        if inline:
            return json.loads(source)
        with open(source) as fh:
            return json.load(fh)
    except ValueError as exc:
        raise DomainError(f"{source!r} is not valid JSON: {exc}") from None


def _num(v, key: str):
    """A finite config number; a string such as "1/3" or "0.25" is read exactly."""
    try:
        if isinstance(v, str):
            return Fraction(v)
        if isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v):
            return v
    except (ValueError, ZeroDivisionError):
        pass
    raise DomainError(f"config key {key!r}: {v!r} is not a finite number")


def _integer(v, key: str) -> int:
    n = _num(v, key)
    if n != int(n):
        raise DomainError(f"config key {key!r}: {v!r} is not an integer")
    return int(n)


def _integers(v, key: str) -> list[int]:
    return [_integer(t, key) for t in _numbers(v, key, None)]


def _real(v, key: str) -> float:
    return float(_num(v, key))


def _numbers(v, key: str, *shape: Optional[int]) -> tuple:
    """The config list v as numbers of the given shape, e.g. (3, 3) for a matrix;
    a length None takes any length."""
    if not isinstance(v, list) or shape[0] not in (None, len(v)):
        size = "numeric" if shape[0] is None else shape[0]
        raise DomainError(f"config key {key!r} needs a list of {size} entries, got {v!r}")
    if len(shape) > 1:
        return tuple(_numbers(row, key, *shape[1:]) for row in v)
    return tuple(_num(t, key) for t in v)


def _usage_errors(name: str):
    """Decorate an argparse type= parser.  Its usage errors say "invalid
    `name` value", since argparse prints the parser's __name__, and
    OverflowError and DomainError are usage errors (exit 2) too; argparse
    itself maps only ValueError and TypeError."""
    def wrap(parse):
        def typed(s: str):
            try:
                return parse(s)
            except (OverflowError, DomainError) as exc:
                raise argparse.ArgumentTypeError(f"{s!r}: {exc}") from None
        typed.__name__ = name
        return typed
    return wrap


def _whole(s: str) -> int:
    """s as an integer, written as one or as an integral float such as 1e6; else ValueError."""
    if not float(s).is_integer():
        raise ValueError(f"{s} is not an integer")
    return int(float(s))


_parse_count = _usage_errors("count")(_whole)
_parse_coeffs = _usage_errors("coeffs")(lambda s: tuple(map(float, s.split(","))))


@_usage_errors("checkpoints")
def _parse_checkpoints(s: str) -> list[int]:
    out = sorted({_whole(part) for part in s.split(",")})
    if out[0] < 1:
        raise argparse.ArgumentTypeError(f"checkpoints must be >= 1, got {s!r}")
    return out


@_usage_errors("seed")
def _parse_seed(s: str) -> int:
    if int(s) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {s!r}")
    return int(s)


@_usage_errors("components")
def _parse_ints(s: str) -> tuple[int, ...]:
    out = tuple(int(t) for t in s.split(","))
    if any(abs(v) >= 2**63 for v in out):
        raise argparse.ArgumentTypeError(f"components must lie within int64, got {s!r}")
    return out


@_usage_errors("observable")
def _parse_observable(s: str) -> nf.NilObservable:
    if s.startswith("{"):
        return nf.NilObservable.from_json(json.loads(s))
    pqr = [int(t) for t in s.split(",")]
    if len(pqr) not in (2, 3):
        raise argparse.ArgumentTypeError(f"observable needs p,q or p,q,r, got {s!r}")
    return nf.NilObservable.character(*pqr)


# ---------------------------------------------------------------------------
# Output plumbing


def _provenance(payload: dict, threads: int, series=None) -> dict:
    """The config hash, version and thread count, and a series' route and period.

    A period of 2^63 or more is written as a string of its digits: JSON
    readers need not hold it, and Python's int-to-str digit limit does not
    apply to a Decimal.
    """
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    out = {"config_sha256": hashlib.sha256(blob).hexdigest(),
           "version": __version__, "threads": threads}
    if series is not None:
        period = series.metadata["period"]
        out.update(route=series.metadata["route"],
                   period=str(Decimal(period)) if period and period >= 2**63 else period)
    return out


def _emit(text: str, path: Optional[str], provenance: dict) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        sys.stderr.write(json.dumps({"provenance": provenance}) + "\n")
        return
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    side = path + ".provenance.json"
    with open(side + ".tmp", "w") as fh:
        json.dump({"provenance": provenance}, fh, indent=2)
    os.replace(side + ".tmp", side)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_sieve(args, threads: int) -> int:
    table = mobius_sieve(args.limit)
    rows = map("{},{}".format, range(1, args.limit + 1), table.values[1:].tolist())
    _emit("n,mu\n" + "\n".join(rows) + "\n", args.emit_csv,
          _provenance({"cmd": "sieve", "limit": args.limit}, threads))
    return 0


def cmd_cfrac(args, threads: int) -> int:
    alpha = alpha_from_string(args.alpha)
    cf = cf_expand(alpha, args.depth)
    flat, sharp = partition_Q(cf, args.partition_b)
    lines = ["k,a_k,l_k,q_k,set"]
    for k in range(cf.depth + 1):
        q = cf.denominators[k]
        tag = "sharp" if q in sharp else ("flat" if q in flat else "undecided")
        # a Decimal prints every digit of an int, past Python's int-to-str digit limit
        a_k, l_k, q_k = (Decimal(v) for v in (cf.quotients[k], cf.numerators[k], q))
        lines.append(f"{k},{a_k},{l_k},{q_k},{tag}")
    _emit("\n".join(lines) + "\n", args.out,
          _provenance({"cmd": "cfrac", "alpha": args.alpha, "depth": args.depth,
                       "B": args.partition_b}, threads))
    return 0


def cmd_classify(args, threads: int) -> int:
    alpha = alpha_from_string(args.alpha)
    h = series_from_json(_load_json(args.h, inline=args.h.startswith("{")))
    depth = args.depth if args.depth else (alpha.available_depth() or 60)
    cf = cf_expand(alpha, depth)
    report = classify_case(cf, h, args.n, d1=args.d1, b2=args.b2,
                           B=args.partition_b)
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out,
          _provenance({"cmd": "classify", "alpha": args.alpha, "n": str(args.n)},
                      threads))
    return 0


def cmd_correlate(args, threads: int) -> int:
    cfg = _load_json(args.config)
    flow = flow_from_json(cfg)
    checkpoints = args.checkpoints
    b = args.b
    if (isinstance(flow, SkewFlow) and len(b) != 2
            or isinstance(flow, nf.HeisenbergAffine) and len(b) not in (2, 3)):
        raise DomainError(f"observable {b} has the wrong number of components")
    table = mobius_sieve(checkpoints[-1])
    if isinstance(flow, SkewFlow):
        x = TorusPoint(*_numbers(cfg.get("x", [0.0, 0.0]), "x", 2))
        series = mobius_correlate(flow, x, Character(*b), table, checkpoints,
                                  threads=threads)
    elif isinstance(flow, UnipotentAffine):
        x = _numbers(cfg.get("x", [0] * flow.dimension), "x", flow.dimension)
        series = mobius_correlate(flow, x, b, table, checkpoints, threads=threads)
    else:
        x = nf.HeisenbergElement(*_numbers(cfg.get("x", [0, 0, 0]), "x", 3))
        series = nf.correlate_nil(flow, x, nf.NilObservable.character(*b), table,
                                  checkpoints, threads=threads)
    _emit(series.csv(), args.out,
          _provenance({"cmd": "correlate", "config": cfg, "b": ",".join(map(str, b)),
                       "checkpoints": checkpoints}, threads, series))
    return 0


def cmd_expsum(args, threads: int) -> int:
    phase = PolyPhase(coeffs=args.coeffs, nu=args.nu, residue=args.residue)
    if args.n < 1:
        raise DomainError(f"need N >= 1, got N={args.n}")
    table = mobius_sieve(args.n)
    s = poly_exp_sum(phase, table, args.n, threads=threads)
    out = {"N": args.n, "re": s.real, "im": s.imag, "abs_over_N": abs(s) / args.n}
    _emit(json.dumps(out, indent=2) + "\n", args.out,
          _provenance({"cmd": "expsum", "coeffs": args.coeffs, "nu": args.nu,
                       "l": args.residue, "N": args.n}, threads))
    return 0


def _bsz_sequence(spec: str):
    if spec == "constant":
        return lambda n: np.ones(np.asarray(n).shape, dtype=np.complex128)
    if spec.startswith("rotation:"):
        arg = spec.split(":", 1)[1]
        theta = math.sqrt(2) - 1 if arg in ("sqrt2-1", "sqrt2m1") else _real(arg, "rotation")
        return lambda n: np.exp(2j * np.pi * np.mod(np.asarray(n, dtype=np.float64) * theta, 1.0))
    raise DomainError(f"cannot parse sequence spec {spec!r}")


def cmd_bsz(args, threads: int) -> int:
    f = _bsz_sequence(args.f)
    if args.n < 1:
        raise DomainError(f"need N >= 1, got N={args.n}")
    table = mobius_sieve(args.n)
    report = bsz_test(f, args.tau, args.m, args.n, table)
    _emit(json.dumps(report, indent=2) + "\n", args.out,
          _provenance({"cmd": "bsz", "tau": args.tau, "m": args.m, "n": args.n,
                       "f": args.f}, threads))
    return 0


def cmd_furstenberg(args, threads: int) -> int:
    sysm = fb.FurstenbergSystem.build(args.tau, args.depth)
    rng = np.random.default_rng(args.seed)
    report = {
        "tau": args.tau,
        "depth": args.depth,
        "metadata": sysm.metadata,
        "quotients": [str(Decimal(a)) for a in sysm.alpha.quotient_seq],
        "q": [str(Decimal(v)) for v in sysm.q],
        "ratios": sysm.ratio_report(),
        "h_coefficients": sysm.h.to_json(),
        "coefficient_check": fb.verify_combined_coefficients(
            sysm, off_support_samples=rng.integers(3, 40, size=8).tolist()),
        "coboundary_residual_G": fb.coboundary_check(sysm, rng.random(64), "G"),
        "coboundary_residual_g": fb.coboundary_check(sysm, rng.random(64), "g"),
        "correction_tails": fb.correction_tail_report(sysm),
    }
    _emit(json.dumps(report, indent=2, default=str) + "\n", args.emit_json,
          _provenance({"cmd": "furstenberg", "tau": args.tau, "depth": args.depth,
                       "seed": args.seed}, threads))
    return 0


def cmd_nilflow(args, threads: int) -> int:
    cfg = _load_json(args.config)
    T = flow_from_json(cfg)
    if not isinstance(T, nf.HeisenbergAffine):
        raise DomainError("nilflow expects a heisenberg config")
    x = nf.HeisenbergElement(*_numbers(cfg.get("x", [0, 0, 0]), "x", 3))
    table = mobius_sieve(args.checkpoints[-1])
    series = nf.correlate_nil(T, x, args.observable, table, args.checkpoints, threads=threads)
    _emit(series.csv(), args.out,
          _provenance({"cmd": "nilflow", "config": cfg,
                       "observable": args.observable}, threads, series))
    return 0


def cmd_verify(args, threads: int) -> int:
    """Numeric checks of the supporting lemmas; any failure exits 5."""
    rng = np.random.default_rng(args.seed)
    results = {}

    # Two convergent series along the expansion of sqrt(2)-1.
    alpha = AlphaSpec.sqrt2_minus_1()
    cf = with_partition(cf_expand(alpha, 24), 8)
    h = AnalyticSeries.geometric(1.0, M=300)
    sums = two_series_partial_sums(cf, h, 1000)
    tail1 = sum(v for q, v in sums["series1"] if q >= 32)
    tail2 = sum(v for q, v in sums["series2"] if q >= 32)
    results["two_series"] = {
        "series1_total": sums["series1_total"],
        "series2_total": sums["series2_total"],
        "tail_from_q32": tail1 + tail2,
        "pass": tail1 + tail2 < 1e-6,
    }

    # Bilinear criterion implication on a rotation sequence.
    table = mobius_sieve(50_000)
    rep = bsz_test(_bsz_sequence("rotation:sqrt2-1"), tau=0.25, M=4000, N=50_000,
                   table=table)
    results["bilinear_criterion"] = {
        "hypothesis_holds": rep["hypothesis_holds"],
        "conclusion_holds": rep["conclusion_holds"],
        "pass": (not rep["hypothesis_holds"]) or rep["conclusion_holds"],
    }

    # Polynomial lower bound on random instances.
    worst = math.inf
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs /= max(1.0, np.max(np.abs(coeffs)))
        r = poly_lower_bound_check(coeffs, delta=0.05, samples=4000)
        worst = min(worst, r["min_ratio"])
    results["poly_lower_bound"] = {"min_ratio": worst, "pass": worst >= 1.0}

    # Third-derivative exponential-sum bound on a cubic phase.
    v = vdc_sum_check(lambda x: 1e-6 * x**3, lambda x: 6e-6, Lambda=6e-6, eta=1.0,
                      a=0.0, b=1000.0)
    results["third_derivative_bound"] = {"ratio": v["ratio"], "pass": v["pass"]}

    # Cut-condition right side grows along lacunary scales.
    sysm = fb.FurstenbergSystem.build(1.0, 4)
    cf2 = cf_expand(sysm.alpha, sysm.alpha.available_depth())
    report = classify_case(cf2, sysm.combined, 10**6, d1=2, b2=1, B=4)
    logs = caseC_condition_rhs_logs(report, sysm.combined, [q for q in sysm.q if q >= 2])
    results["cut_condition_growth"] = {
        "rhs_logs": logs,
        "pass": logs[-1] > logs[-2] > logs[-3]
                and logs[-1] > 3 * math.log(report.d1),
    }

    ok = all(v["pass"] for v in results.values())
    results["all_pass"] = ok
    _emit(json.dumps(results, indent=2) + "\n", args.out,
          _provenance({"cmd": "verify", "seed": args.seed}, threads))
    return 0 if ok else 5


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mobiusflow",
                                 description="Mobius-correlation experiments for "
                                             "zero-entropy torus and nilmanifold flows")
    ap.add_argument("--threads", type=int, default=None,
                    help=f"worker threads (default: ${ENV_THREADS} or 1)")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("sieve", help="emit mu(n) as CSV")
    p.add_argument("--limit", type=_parse_count, required=True)
    p.add_argument("--emit-csv", default="-")
    p.set_defaults(fn=cmd_sieve)

    p = sub.add_parser("cfrac", help="quotients, convergents and flat/sharp split")
    p.add_argument("--alpha", required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--partition-b", type=int, default=8)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_cfrac)

    p = sub.add_parser("classify", help="scale report and case label")
    p.add_argument("--alpha", required=True)
    p.add_argument("--h", required=True, help="series JSON (inline or path)")
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--d1", type=int, default=2)
    p.add_argument("--b2", type=int, default=1)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--partition-b", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("correlate", help="Mobius correlation sums at checkpoints")
    p.add_argument("--config", required=True)
    p.add_argument("--b", required=True, type=_parse_ints, help="observable, e.g. 0,1")
    p.add_argument("--checkpoints", required=True, type=_parse_checkpoints)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("expsum", help="polynomial-phase Mobius sum")
    p.add_argument("--coeffs", required=True, type=_parse_coeffs,
                   help="low-to-high, e.g. 0,0.3,0.01")
    p.add_argument("--nu", type=int, default=1)
    p.add_argument("--residue", type=int, default=0)
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_expsum)

    p = sub.add_parser("bsz", help="bilinear-criterion report")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--m", type=_parse_count, required=True)
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--f", required=True, help="constant | rotation:THETA")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_bsz)

    p = sub.add_parser("furstenberg", help="build and verify the lacunary system")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--emit-json", default="-")
    p.set_defaults(fn=cmd_furstenberg)

    p = sub.add_parser("nilflow", help="Heisenberg-orbit correlation sums")
    p.add_argument("--config", required=True)
    p.add_argument("--observable", required=True, type=_parse_observable,
                   help="p,q[,r] or JSON")
    p.add_argument("--checkpoints", required=True, type=_parse_checkpoints)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_nilflow)

    p = sub.add_parser("verify", help="run the lemma-check suites")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # argparse stores [] for the value "--" without calling the type= parser
    if getattr(args, "checkpoints", None) == []:
        ap.error("argument --checkpoints: expected a value")
    if args.command is None:
        ap.print_help()
        return 2
    threads = args.threads
    if threads is None:
        value = os.environ.get(ENV_THREADS, "1")
        try:
            threads = int(value)
        except ValueError:
            ap.error(f"{ENV_THREADS} must be an integer, got {value!r}")
    if not 1 <= threads <= THREADS_MAX:
        ap.error(f"the thread count must be from 1 to {THREADS_MAX}, got {threads}")
    try:
        return args.fn(args, threads)
    except (CapacityError, PrecisionError) as exc:
        print(f"error (capacity/precision): {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error (domain): {exc}", file=sys.stderr)
        return 3
    except MobiusflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
