"""The package is pure standard library: importing it loads no numpy, and
it loads no `dataclasses` (nor the `inspect` that module imports).

A bare `import gkdim` loads no submodule: each public name is imported from
its module on first use (PEP 562 `__getattr__`).  `import gkdim.cli` still
loads all eight library modules at start, because the benchmark's tracer
wraps only modules already loaded and tests patch names in `gkdim.cli`."""

import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import gkdim

SRC = str(Path(gkdim.__file__).resolve().parents[1])


@pytest.mark.parametrize("module", ["gkdim", "gkdim.cli"])
def test_import_loads_no_numpy(module):
    code = (
        f"import json, sys, {module}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert json.loads(out) == []


@pytest.mark.parametrize("module", ["gkdim", "gkdim.cli"])
def test_import_adds_no_dataclasses(module):
    # Compared with the modules a bare interpreter has loaded already.
    code = (
        "import sys; before = set(sys.modules); "
        f"import {module}; "
        "added = set(sys.modules) - before; "
        "import json; print(json.dumps(sorted(added & {'dataclasses', 'inspect'})))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert json.loads(out) == []


def test_deprecation_warnings_from_gkdim_fail_the_tier():
    # filterwarnings in pyproject.toml: an error when issued from a gkdim
    # module, a warning when issued from anywhere else.
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit(
            "deprecated", DeprecationWarning, "hecke.py", 1, module="gkdim.hecke"
        )
    with pytest.warns(DeprecationWarning):
        warnings.warn_explicit(
            "deprecated", DeprecationWarning, "other.py", 1, module="other"
        )


LIBRARY_MODULES = ["dimension", "errors", "hecke", "hermitian", "laurent",
                   "permutations", "tableaux", "weights"]


def _loaded_after(code: str) -> list[str]:
    """The gkdim modules loaded in a fresh interpreter after `code`."""
    code += ("; import json, sys; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('gkdim'))))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    return json.loads(out)


def test_bare_import_loads_no_submodule():
    assert _loaded_after("import gkdim") == ["gkdim"]


def test_cli_import_loads_every_library_module():
    assert _loaded_after("import gkdim.cli") == sorted(
        ["gkdim", "gkdim.cli"] + [f"gkdim.{m}" for m in LIBRARY_MODULES])


def test_a_name_loads_only_what_its_module_imports():
    assert "gkdim.hecke" not in _loaded_after("import gkdim; gkdim.gk_dimension")


@pytest.mark.parametrize("name", gkdim.__all__)
def test_public_name_is_its_defining_modules_object(name):
    module = importlib.import_module(f"gkdim.{gkdim._MODULE_OF[name]}")
    value = getattr(gkdim, name)
    assert value is getattr(module, name)
    # A class or function is listed under the module that defines it, not
    # one that re-exports it (Rational is an alias of fractions.Fraction).
    if getattr(value, "__module__", "").startswith("gkdim."):
        assert value.__module__ == module.__name__


def test_star_import_dir_and_submodules_after_a_bare_import():
    code = (
        "import gkdim; "
        "assert 'gk_dimension' in dir(gkdim) and '__version__' in dir(gkdim); "
        "assert gkdim.hecke.kl_basis_element is gkdim.kl_basis_element; "
        "names = {}; exec('from gkdim import *', names); "
        "assert sorted(set(names) - {'__builtins__'}) == gkdim.__all__"
    )
    assert "gkdim.hecke" in _loaded_after(code)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'gkdim' has no attribute 'no_such_name'$"):
        gkdim.no_such_name  # noqa: B018
