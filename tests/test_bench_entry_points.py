"""The benchmark's tracer wraps and reads msbc names from outside the
package; this keeps a deletion of one of them a tier-1 failure."""

import importlib.util
import os

from msbc import normalform, system

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_live_package():
    tracing = _tracing()
    original = normalform.construct
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        normalform.construct(system.build_embedding("A"), order=2, eps_order=4)
    finally:
        tracer.uninstall()
    assert normalform.construct is original
    span, = [s for s in tracer.spans if s.name == "normalform.construct"]
    assert span.attrs["variant"] == "A"
    assert span.attrs["terms"] > 0
    assert "error" not in span.attrs
    assert any(s.name == "linalg.eigen" for s in tracer.spans)
