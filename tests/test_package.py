"""Package surface: the exported names, the entry points the benchmark wraps,
and the public functions, which must have a caller outside the tests."""

import ast
import re
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import vorlat
from vorlat.codes import builtin_chain
from vorlat.lattice import standard_lattice
from vorlat.shaping import builtin_spec, get_spec
from vorlat.simulate import make_decoder

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


def _public_defs():
    """(path, line, name) of every public function and method of the package.

    Methods that override one of a base class, such as `_Parser.error`
    overriding `argparse.ArgumentParser.error`, are reached through the base
    class's callers and are left out, and so are functions nested in others.
    """
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"vorlat.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                owners, defs = (), [node]
            elif isinstance(node, ast.ClassDef):
                owners = getattr(module, node.name).__mro__[1:]
                defs = [d for d in node.body if isinstance(d, ast.FunctionDef)]
            else:
                continue
            out += [(path, d.lineno, d.name) for d in defs
                    if not d.name.startswith("_")
                    and not any(d.name in vars(base) for base in owners)]
    return out


def _used_names():
    """Names at a call, attribute or import site of the package (less
    __init__.py, which only re-exports), perfbench/ or tools/, attribute
    names read by `getattr` or `hasattr`, and the attribute names that
    `perfbench/tracer.py::_targets` wraps."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             *(ROOT / "tools").glob("*.py")]
    used = set()
    for path in paths:
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                used.add(node.func.id)
                if (node.func.id in ("getattr", "hasattr") and len(node.args) > 1
                        and isinstance(node.args[1], ast.Constant)):
                    used.add(node.args[1].value)  # an attribute read by name
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif (path == TRACER and isinstance(node, ast.FunctionDef)
                  and node.name == "_targets"):
                used.update(entry.elts[1].value for entry in ast.walk(node)
                            if isinstance(entry, ast.Tuple) and len(entry.elts) == 4
                            and isinstance(entry.elts[1], ast.Constant))
    return used


def test_every_public_function_is_used_outside_the_tests():
    """Every public function and method of the package has a caller where the
    tests are not.

    A name counts as used only at a call, attribute or import site in the
    package, perfbench/ or tools/ (`_used_names`); a docstring, a comment or
    README prose does not count. Names starting with an underscore, dunders
    included, and overrides of a base-class method are exempt. A public
    function that only the tests call belongs in tests/oracles.py or nowhere.
    """
    used = _used_names()
    unused = [f"{path.name}:{lineno} {name}" for path, lineno, name in _public_defs()
              if name not in used]
    assert not unused


@pytest.mark.parametrize("lookup", [
    builtin_spec, builtin_chain, standard_lattice, get_spec,
    lambda name: make_decoder(builtin_spec("pair2"), name),
], ids=["builtin_spec", "builtin_chain", "standard_lattice", "get_spec", "make_decoder"])
@pytest.mark.parametrize("name", [["E8_int"], ("pair2",), 3, None, b"pair2"], ids=repr)
def test_stock_name_lookups_refuse_a_name_that_is_not_a_str(lookup, name):
    """As an unknown name is refused: with a ValueError that names it."""
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        lookup(name)
