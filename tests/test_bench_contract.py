"""The benchmark's tracer names functions that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_layers_resolve_to_package_callables():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"nfnls.{mod}.{name}"
        for mod, names in tracer.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"nfnls.{mod}"), name, None))
    ]
    assert not missing, f"traced names missing from the package: {missing}"
