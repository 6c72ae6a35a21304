"""The package surface: each module's __all__ is its public list."""

import importlib

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
    # Combining components trusts its op (see Component); only the connectives call it.
    shapes = neutrocalc.Component.__subclasses__()
    assert len(shapes) == 4
    assert not [cls.__name__ for cls in shapes if hasattr(cls, "apply")]


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
