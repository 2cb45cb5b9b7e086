"""Package surface: the exported names and the entry points the benchmark wraps."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import vorlat

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_exported_name_resolves_once():
    assert len(vorlat.__all__) == len(set(vorlat.__all__))
    missing = [name for name in vorlat.__all__ if not hasattr(vorlat, name)]
    assert not missing


def test_benchmark_tracer_targets_exist():
    """Every (owner, attribute) the span tracer wraps is defined on its owner.

    The tracer reads `owner.__dict__[attr]`, so a rename in the package would
    otherwise surface only in a traced benchmark run.
    """
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = SimpleNamespace(**{
        name: importlib.import_module(f"vorlat.{name}")
        for name in ("shaping", "simulate", "quantize", "codes", "lattice", "cli")
    })
    targets = tracer._targets(modules)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert not missing
