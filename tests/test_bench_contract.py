"""The benchmark's contract with the package: the tracer names functions
that exist, and clearing the caches leaves every operation cold."""

import importlib
import importlib.util
from pathlib import Path

from nfnls.resonance import phase_table

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


def test_clear_caches_empties_the_phase_table_cache(monkeypatch):
    # every benchmark operation starts cold, the cached phase tables included
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # what bench/run.py sets on import
    monkeypatch.syspath_prepend(str(TRACER.parent))
    spec = importlib.util.spec_from_file_location("bench_run", TRACER.parent / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    phase_table((0, 1), 3, (None, None, None), 1, "quartic")
    assert phase_table.cache_info().currsize > 0
    run._clear_caches()
    assert phase_table.cache_info().currsize == 0
