"""The package surface: each module's __all__ is its public list."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import neutrocalc
from neutrocalc import errors

MODULES = ["connectives", "errors", "formula", "intervals", "monads", "triples"]


@pytest.mark.parametrize("name", MODULES)
def test_module_names_are_exported_as_the_same_objects(name):
    module = importlib.import_module(f"neutrocalc.{name}")
    assert module.__all__
    for public in module.__all__:
        assert public in neutrocalc.__all__
        assert getattr(neutrocalc, public) is getattr(module, public), public


def test_package_lists_79_unique_names_from_its_modules():
    assert len(neutrocalc.__all__) == len(set(neutrocalc.__all__)) == 79
    listed = [n for m in MODULES for n in importlib.import_module(f"neutrocalc.{m}").__all__]
    assert sorted(neutrocalc.__all__) == sorted(listed)


def test_components_have_no_public_apply():
    # Components hold values only: the connectives' row ops combine them.
    shapes = neutrocalc.Component.__subclasses__()
    assert len(shapes) == 4
    assert not [cls.__name__ for cls in shapes if hasattr(cls, "apply") or hasattr(cls, "_apply")]


def test_errors_lists_every_package_error():
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.NeutroCalcError)
    }
    assert set(errors.__all__) == classes


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from neutrocalc import *", namespace)
    assert set(neutrocalc.__all__) <= set(namespace)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Loading them took about 40% of the import time of a one-shot `neutrocalc`
    # call, and typing another 3-5 ms; nothing the package imports loads them.
    src = str(Path(neutrocalc.__file__).parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import neutrocalc.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert run.stdout == "[]\n"


def _modules_with(is_use) -> set[str]:
    """The src/neutrocalc modules whose syntax tree has a node that is_use accepts."""
    paths = Path(neutrocalc.__file__).parent.glob("*.py")
    trees = {p.name: ast.parse(p.read_text("utf-8")) for p in paths}
    return {name for name, tree in trees.items() if any(map(is_use, ast.walk(tree)))}


def _attribute(*names):
    return lambda node: isinstance(node, ast.Attribute) and node.attr in names


def _object_new(node) -> bool:
    return _attribute("__new__")(node) and getattr(node.value, "id", None) == "object"


def test_unchecked_construction_has_one_source_per_representation():
    # monads._ratio alone builds a Fraction past its constructor, through the
    # slots that TestRatio pins; errors._trusted alone makes a frozen value past
    # its checks, through its slots' descriptors.
    assert _modules_with(_attribute("_numerator", "_denominator")) == {"monads.py"}
    assert _modules_with(_attribute("__set__")) == {"errors.py"}
    assert _modules_with(_object_new) == {"errors.py", "monads.py"}
