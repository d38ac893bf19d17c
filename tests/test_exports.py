"""Each name is exported once, by the module that defines it, and ``import hhonl`` stays lean."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hhonl

MODULES = ["hhonl"] + [f"hhonl.{m.name}" for m in pkgutil.iter_modules(hhonl.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_attributes(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined_in_their_module(name):
    # A class or function is exported by the module that defines it, so
    # no second export list has to follow it.
    module = importlib.import_module(name)
    objects = [getattr(module, n) for n in getattr(module, "__all__", [])]
    assert [obj.__qualname__ for obj in objects
            if (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ != name] == []


def test_import_loads_the_six_library_modules_only():
    # The benchmark's import probe times this import: it must load the six
    # library modules, not the command line, and not scipy.special, which
    # the library does not use.
    code = ("import sys, hhonl\n"
            "print(callable(hhonl.solver.newton_solve))\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'hhonl')))\n"
            "print('scipy.special' in sys.modules)\n")
    src = str(Path(hhonl.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[0] == "True"
    assert out[1].split() == ["hhonl"] + [f"hhonl.{m}" for m in
                                          ("basis", "harness", "hho", "mesh", "quadrature",
                                           "solver")]
    assert out[2] == "False"
