"""The benchmark's tracer wraps named functions of the package; a traced
name that is renamed or removed must fail here, not only in a traced
benchmark run."""

import importlib.util
import os

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


def test_every_traced_binding_exists_and_is_wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    trace = tracer.Tracer().install()
    try:
        assert trace.stale_bindings() == []
    finally:
        trace.uninstall()
