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
