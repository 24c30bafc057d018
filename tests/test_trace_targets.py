"""The benchmark tracer (perfbench/tracer.py) wraps public nortagrid
functions by name and silently drops the metrics of any that are gone,
so a rename or a deletion must fail here instead."""
import importlib.util
from pathlib import Path

import nortagrid.cli  # noqa: F401  (the tracer patches the loaded modules)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
