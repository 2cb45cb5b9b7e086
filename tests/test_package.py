"""Package surface: the exported names, the entry points the benchmark wraps,
and the public functions, which must have a caller outside the tests."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import vorlat

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vorlat"
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_every_public_function_is_named_outside_the_tests():
    """Every public def in the package is named where the tests are not.

    A name counts when it appears, as a whole word, in a package module
    (other than on its own def line, and other than in __init__.py, which
    only re-exports), in perfbench/*.py or in README.md. Names starting with
    an underscore, dunders included, are exempt. A public function that only
    the tests call belongs in tests/oracles.py or nowhere.
    """
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    defs = [
        (path, node.lineno, node.name)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    lines = [
        (path, number, line)
        for path in [*modules, *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
    ]
    unused = [
        f"{path.name}:{lineno} {name}"
        for path, lineno, name in defs
        if not any(re.search(rf"\b{name}\b", line)
                   for where, number, line in lines if (where, number) != (path, lineno))
    ]
    assert not unused
