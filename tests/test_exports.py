"""Export hygiene: the package imports and every advertised name exists."""

import importlib
import pkgutil

import pytest

import emdenlab

MODULES = ["emdenlab"] + sorted(
    f"emdenlab.{m.name}" for m in pkgutil.iter_modules(emdenlab.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
