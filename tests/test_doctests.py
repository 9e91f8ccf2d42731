"""Run the docstring examples embedded in every library module, and in the
tests' reference Hecke algebra.  The modules are discovered, not listed, so
a new example cannot go unrun.  No library source quotes a host timing."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gkdim

MODULES = [f"gkdim.{m.name}" for m in pkgutil.iter_modules(gkdim.__path__)]


def test_every_library_module_is_collected():
    assert {"gkdim.cli", "gkdim.tableaux", "gkdim.hecke"} <= set(MODULES)


@pytest.mark.parametrize("name", [*MODULES, "hecke_reference"])
def test_module_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0


# A host, an interpreter version, a duration or a memory size: what a cost
# measured on one machine is quoted with.
HOST_TIMING = re.compile(r"vCPU|Python 3\.[0-9]+\.[0-9]|[0-9] ?(ms|s)\b|[0-9] MB")


def test_no_host_timings_in_library_sources():
    """Costs in the library are stated as counts, such as the comparison
    bound in `insertion_tableau`'s docstring, which tests check; a host
    timing goes stale with the host and the code."""
    found = [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(Path(gkdim.__file__).parent.glob("*.py"))
        for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if HOST_TIMING.search(line)
    ]
    assert found == []
