"""Spans around the calls into mobiusflow's modules, recorded from outside.

`Tracer.install` replaces module attributes with timing wrappers and
`Tracer.restore` puts the originals back; the program itself is not edited.
Spans are (name, start, end, parent, info) and stay in memory until the run
ends, when `layer_metrics` folds them into the per-layer figures.

Patched boundaries:

    mobius.mobius_sieve                   sieve (info: table bytes)
    furstenberg.FurstenbergSystem.build   lacunary construction
    flows.unipotent_phase_poly            phase polynomials (also as bound in correlate)
    nilflow.compile_poly_orbit            polynomial orbit forms
    correlate.mobius_correlate, correlate.poly_exp_sum, nilflow.correlate_nil
                                          the correlators (correlate_nil info: 16(N+1) bytes)
    correlate._weighted_sums              wraps its phase_chunk callback as a
                                          "correlate.phase" span (info: terms)
    correlate.poly_mod1_array             polynomial phases (info: terms)
    numpy.exp                             as seen by correlate and nilflow only
    nilflow.PolyOrbitRep.evaluate, nilflow.NilObservable.value
                                          per-n central evaluation

`correlate._weighted_sums` is private; it is the only place where the
correlator's phase assembly can be told apart from its exp and reduction.
A boundary that the program does not have raises KeyError on install.
"""

from __future__ import annotations

import functools
import types
from time import perf_counter

import numpy as np

MB = float(1 << 20)

PHASE = "correlate.phase"
POLY_MOD1 = "correlate.poly_mod1_array"
EXP = "numpy.exp"
EVALUATE = "nilflow.PolyOrbitRep.evaluate"
VALUE = "nilflow.NilObservable.value"
LOOPS = ("correlate._weighted_sums", "correlate.poly_exp_sum", "nilflow.correlate_nil")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, info=None):
        """fn timed as a span; info(args, kwargs, result) fills the span's info."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = t0
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result
        return traced

    def _patch(self, owner, attr: str, make):
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def patch(self, owner, attr: str, name: str, info=None):
        self._patch(owner, attr, lambda fn: self.wrap(name, fn, info))

    def install(self, mf) -> None:
        """Wrap the layer boundaries of the mobiusflow modules in namespace mf."""
        corr, nil = mf.correlate, mf.nilflow
        self.patch(mf.mobius, "mobius_sieve", "mobius.mobius_sieve",
                   info=lambda a, k, table: table.values.nbytes)
        self.patch(mf.furstenberg.FurstenbergSystem, "build",
                   "furstenberg.FurstenbergSystem.build")
        self.patch(mf.flows, "unipotent_phase_poly", "flows.unipotent_phase_poly")
        self.patch(corr, "unipotent_phase_poly", "flows.unipotent_phase_poly")
        self.patch(nil, "compile_poly_orbit", "nilflow.compile_poly_orbit")
        self.patch(corr, "mobius_correlate", "correlate.mobius_correlate")
        self.patch(corr, "poly_exp_sum", "correlate.poly_exp_sum")
        self.patch(nil, "correlate_nil", "nilflow.correlate_nil",
                   info=lambda a, k, series: 16 * (max(series.checkpoints) + 1))
        self.patch(corr, "poly_mod1_array", POLY_MOD1,
                   info=lambda a, k, out: len(out))

        def weighted_sums(fn):
            def with_phase_span(phase_chunk, *args, **kwargs):
                timed = self.wrap(PHASE, phase_chunk, info=lambda a, k, out: len(out))
                return fn(timed, *args, **kwargs)
            return self.wrap("correlate._weighted_sums", functools.wraps(fn)(with_phase_span))
        self._patch(corr, "_weighted_sums", weighted_sums)

        traced_np = types.ModuleType(np.__name__)
        traced_np.__dict__.update(np.__dict__)
        traced_np.exp = self.wrap(EXP, np.exp)
        for mod in (corr, nil):
            self._patch(mod, "np", lambda _: traced_np)

        self.patch(nil.PolyOrbitRep, "evaluate", EVALUATE)
        self.patch(nil.NilObservable, "value", VALUE)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def layer_metrics(spans: list[list], overhead_s: float) -> dict[str, float]:
    """Per-layer figures from the spans of one traced pass.

    Phase assembly is every "correlate.phase" span plus every
    poly_mod1_array span outside one; exp counts the numpy.exp calls made
    outside phase assembly (the per-mode exp of the skew path sits inside
    it). The reduction is what is left of the correlation loops
    (_weighted_sums, poly_exp_sum, correlate_nil) once their traced
    children are taken out: the cast of the mu slices to float64, the
    weighted dot and the running sums.
    """
    def in_phase(i: int) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == PHASE:
                return True
            parent = spans[parent][3]
        return False

    dur: dict[str, float] = {}
    count: dict[str, int] = {}
    phase_s = phase_terms = exp_s = reduce_s = 0.0
    table_bytes = values_bytes = 0
    for i, (name, t0, t1, parent, info) in enumerate(spans):
        d = t1 - t0
        dur[name] = dur.get(name, 0.0) + d
        count[name] = count.get(name, 0) + 1
        if name in LOOPS:
            reduce_s += d
        if parent >= 0 and spans[parent][0] in LOOPS:
            reduce_s -= d
        if name == "mobius.mobius_sieve":
            table_bytes = max(table_bytes, info)
        elif name == "nilflow.correlate_nil":
            values_bytes = max(values_bytes, info)
        elif name == PHASE or (name == POLY_MOD1 and not in_phase(i)):
            phase_s += d
            phase_terms += info
        elif name == EXP and not in_phase(i):
            exp_s += d
    evals = count.get(EVALUATE, 0)
    eval_s = dur.get(EVALUATE, 0.0) + dur.get(VALUE, 0.0)
    return {
        "mobius.sieve_s": dur.get("mobius.mobius_sieve", 0.0),
        "mobius.table_mb": table_bytes / MB,
        "furstenberg.build_s": dur.get("furstenberg.FurstenbergSystem.build", 0.0),
        "flows.phase_poly_s": dur.get("flows.unipotent_phase_poly", 0.0),
        "nilflow.compile_s": dur.get("nilflow.compile_poly_orbit", 0.0),
        "correlate.phase_s": phase_s,
        "correlate.phase_ns_per_term": 1e9 * phase_s / phase_terms if phase_terms else 0.0,
        "correlate.poly_mod1_s": dur.get(POLY_MOD1, 0.0),
        "correlate.poly_mod1_calls": count.get(POLY_MOD1, 0),
        "correlate.exp_s": exp_s,
        "correlate.reduce_s": reduce_s,
        "nilflow.eval_us_per_term": 1e6 * eval_s / evals if evals else 0.0,
        "nilflow.values_mb": values_bytes / MB,
        "trace.overhead_s": overhead_s,
    }
