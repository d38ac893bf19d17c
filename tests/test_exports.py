"""Every name a module exports through ``__all__`` exists on that module."""

import importlib
import pkgutil

import pytest

import hhonl

MODULES = ["hhonl"] + [f"hhonl.{m.name}" for m in pkgutil.iter_modules(hhonl.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_attributes(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
