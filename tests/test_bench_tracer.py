"""The benchmark's tracer, `bench/spans.py`, installs on this program and restores it.

`Tracer.install` wraps program attributes by name and raises KeyError on a
name the program no longer has, so a refactor that drops one fails here on
its own.  Nothing under bench/ is edited; the module is only imported.
"""

import importlib.util
import types
from fractions import Fraction
from pathlib import Path

from mobiusflow import correlate, flows, furstenberg, mobius, nilflow
from test_correlate import RATIONAL_NU3

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_existing_boundaries_sees_nil_phases_and_restores():
    """Every boundary the tracer patches exists and is replaced while it is
    installed; a traced Heisenberg correlation equals the untraced one and
    shows its phase assembly and its `poly_mod1_array` calls; restore puts
    every original back."""
    spans = _spans_module()
    mf = types.SimpleNamespace(mobius=mobius, furstenberg=furstenberg, flows=flows,
                               correlate=correlate, nilflow=nilflow)
    T = nilflow.HeisenbergAffine(
        nilflow.HeisenbergElement(Fraction(1, 3), Fraction(1, 7), Fraction(2, 5)),
        ((1, 0, 0), (1, 1, 0), (Fraction(1, 2), 0, 1)))
    x, table = nilflow.HeisenbergElement(0, 0, 0), mobius.mobius_sieve(20_000)

    def sums():
        return [nilflow.correlate_nil(T, x, nilflow.NilObservable.character(*pqr), table,
                                      [777, 20_000]).sums for pqr in ((1, 2, 0), (1, 2, 1))]
    plain = sums()
    tracer = spans.Tracer()
    try:
        tracer.install(mf)
        saved = list(tracer._saved)
        assert saved
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in saved)
        traced = sums()
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in saved)
    assert traced == plain
    m = spans.layer_metrics(tracer.spans, 0.0)
    assert m["correlate.phase_s"] > 0 and m["correlate.poly_mod1_calls"] > 0


def _traced(run):
    """run() under an installed tracer: its result, the spans and their `layer_metrics`."""
    spans = _spans_module()
    mf = types.SimpleNamespace(mobius=mobius, furstenberg=furstenberg, flows=flows,
                               correlate=correlate, nilflow=nilflow)
    tracer = spans.Tracer()
    try:
        tracer.install(mf)
        result = run()
    finally:
        tracer.restore()
    return result, tracer.spans, spans.layer_metrics(tracer.spans, 0.0)


def test_traced_central_correlation_shows_poly_mod1_calls():
    """A correlation of the central character (1, 2, 1) alone calls
    `poly_mod1_array`: the bracket phases are `_Mod1Poly` sources like every
    other exact phase, so the tracer's `correlate.poly_mod1_calls` sees them."""
    T = nilflow.HeisenbergAffine(
        nilflow.HeisenbergElement(Fraction(1, 3), Fraction(1, 7), Fraction(2, 5)),
        ((1, 0, 0), (1, 1, 0), (Fraction(1, 2), 0, 1)))
    x, table = nilflow.HeisenbergElement(0, 0, 0), mobius.mobius_sieve(20_000)
    obs = nilflow.NilObservable.character(1, 2, 1)
    plain = nilflow.correlate_nil(T, x, obs, table, [777, 20_000])
    traced, _, m = _traced(lambda: nilflow.correlate_nil(T, x, obs, table, [777, 20_000]))
    assert traced.sums == plain.sums
    assert m["correlate.poly_mod1_calls"] > 0 and m["correlate.poly_mod1_s"] > 0


def test_traced_class_route_sum_equals_the_untraced_sum():
    """`poly_exp_sum` of the rational RATIONAL_NU3 at N = 1e5 takes the class
    route under the tracer too.  The tracer wraps the phase source with
    `functools.wraps`, which copies only its __dict__, so the source's
    `period` must live there; without it the traced sum took the direct
    route and differed from the untraced one.  On the class route the phases
    of one period P are traced, and CLASS_RATIO P <= count."""
    table, N = mobius.mobius_sieve(10**5), 10**5
    count = len(range(RATIONAL_NU3.residue, N + 1, RATIONAL_NU3.nu))
    plain = correlate.poly_exp_sum(RATIONAL_NU3, table, N)
    traced, spans, _ = _traced(lambda: correlate.poly_exp_sum(RATIONAL_NU3, table, N))
    assert traced == plain
    terms = sum(info for name, *_, info in spans if name == "correlate.phase")
    assert 0 < terms and correlate.CLASS_RATIO * terms <= count
