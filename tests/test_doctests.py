"""Run the docstring examples embedded in every library module, and in the
tests' reference Hecke algebra.  The modules are discovered, not listed, so
a new example cannot go unrun."""

import doctest
import importlib
import pkgutil

import pytest

import gkdim

MODULES = [f"gkdim.{m.name}" for m in pkgutil.iter_modules(gkdim.__path__)]


def test_every_library_module_is_collected():
    assert {"gkdim.cli", "gkdim.tableaux", "gkdim.hecke"} <= set(MODULES)


@pytest.mark.parametrize("name", [*MODULES, "hecke_reference"])
def test_module_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0
