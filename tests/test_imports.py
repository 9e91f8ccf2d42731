"""The package is pure standard library: importing it, or running any CLI
command, loads no numpy and no `dataclasses` (nor the `inspect` that module
imports).

A bare `import gkdim` loads no submodule: each public name is imported from
its module on first use (PEP 562 `__getattr__`).  `import gkdim.cli` loads
four of the seven library modules, the ones `verify-oracle` runs: `errors`,
`hecke`, `permutations` and `tableaux`.  `dimension`, `hermitian` and
`weights` load only when a command that uses them runs, so `verify-oracle`
compiles none of them and loads no `fractions` or `decimal`.  `hecke` loads
at import because the benchmark's tracer wraps only modules already loaded,
and `permutations` because tests patch names in `gkdim.cli`."""

import importlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import gkdim
import gkdim.cli

SRC = str(Path(gkdim.__file__).resolve().parents[1])


def _fresh(code: str, stdin: str = "") -> tuple[str, list[str]]:
    """Run `code` in a fresh interpreter: (its stdout, the sorted modules it
    added to those a bare interpreter has loaded already)."""
    probe = ("import sys; before = set(sys.modules)\n" + code + "\n"
             "import json; print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, input=stdin,
        capture_output=True, text=True, check=True,
    ).stdout
    *answer, added = out.splitlines(keepends=True)
    return "".join(answer), json.loads(added)


def _gkdim_modules(added: list[str]) -> list[str]:
    return [m for m in added if m.split(".")[0] == "gkdim"]


def _numpy_modules(added: list[str]) -> list[str]:
    return [m for m in added if m.split(".")[0] == "numpy"]


# `dataclasses`, and the `inspect` it imports: the package loads neither.
DATACLASSES = {"dataclasses", "inspect"}


# test_command_loads_only_its_modules makes both checks for each command too.
@pytest.mark.parametrize("module", ["gkdim", "gkdim.cli"])
def test_import_loads_no_numpy(module):
    assert _numpy_modules(_fresh(f"import {module}")[1]) == []


@pytest.mark.parametrize("module", ["gkdim", "gkdim.cli"])
def test_import_adds_no_dataclasses(module):
    assert set(_fresh(f"import {module}")[1]) & DATACLASSES == set()


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


def test_bare_import_loads_no_submodule():
    assert _gkdim_modules(_fresh("import gkdim")[1]) == ["gkdim"]


# Loaded by `import gkdim.cli`, and so by every command.
CLI_MODULES = ["errors", "hecke", "permutations", "tableaux"]

# (argv, stdin, library modules the command adds to CLI_MODULES); the stdin
# lines are the first of each command's batch golden in test_cli.py.
COMMANDS = [
    ((), "", []),
    (("gkdim", "--batch"), "1,2,3\n", ["dimension", "weights"]),
    (("hermitian", "--pq", "4,6", "--batch"), "6,5,3,2,9,8,7,4,2,1\n",
     ["hermitian", "weights"]),
    (("series", "--pq", "2,3", "--z-range=0,5", "--batch"), "2,1,4,3,2\n",
     ["hermitian", "weights"]),
    (("unitary", "--pq", "4,4", "--z=1/2", "--batch"), "3,2,1,0,6,5,4,3\n",
     ["hermitian", "weights"]),
    (("verify-oracle", "--rank", "3"), "", []),
]


@pytest.mark.parametrize(
    "argv,stdin,extra", COMMANDS,
    ids=[argv[0] if argv else "import" for argv, *_ in COMMANDS],
)
def test_command_loads_only_its_modules(capsys, monkeypatch, argv, stdin,
                                        extra):
    """A cold `import gkdim.cli`, then one command through `main`: the
    library modules it loaded, and its answer, which is the in-process one."""
    code = "import gkdim.cli"
    if argv:
        code += f"\nassert gkdim.cli.main({list(argv)!r}) == 0"
    out, added = _fresh(code, stdin)
    assert _gkdim_modules(added) == sorted(
        ["gkdim", "gkdim.cli"] + [f"gkdim.{m}" for m in CLI_MODULES + extra])
    assert _numpy_modules(added) == []
    assert set(added) & DATACLASSES == set()

    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    if argv:
        assert gkdim.cli.main(list(argv)) == 0
    assert out == capsys.readouterr().out


def test_verify_oracle_loads_no_fractions_or_decimal():
    """The oracle inserts ints and parses no weight, so a cold
    `verify-oracle` loads neither `fractions` nor the `decimal` it imports."""
    code = ("import gkdim.cli\n"
            "assert gkdim.cli.main(['verify-oracle', '--rank', '3']) == 0")
    assert {"fractions", "decimal"} & set(_fresh(code)[1]) == set()


def test_importtime_times_hecke_on_its_own_line():
    """`cli` imports `hecke` with an import statement, not through the
    package's `__getattr__`, whose `importlib.import_module` call
    `-X importtime` does not time: the profile books hecke's own time on a
    `gkdim.hecke` line, not under `gkdim.cli`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gkdim.cli"],
        env=env, capture_output=True, text=True, check=True,
    ).stderr
    timed = [line.rsplit("|", 1)[-1].strip() for line in err.splitlines()]
    assert "gkdim.hecke" in timed and "gkdim.cli" in timed


def test_cli_import_loads_every_library_module():
    """`import gkdim.cli` and the commands that defer a module load, between
    them, every library module in the package, so COMMANDS names them all."""
    package = Path(gkdim.__file__).parent
    library = sorted(f.stem for f in package.glob("*.py")
                     if f.stem not in {"__init__", "__main__", "cli"})
    code = "import gkdim.cli"
    for argv, stdin, extra in COMMANDS:
        if extra:
            code += (f"\nimport io; sys.stdin = io.StringIO({stdin!r})"
                     f"\nassert gkdim.cli.main({list(argv)!r}) == 0")
    added = _gkdim_modules(_fresh(code)[1])
    assert added == sorted(["gkdim", "gkdim.cli"]
                           + [f"gkdim.{m}" for m in library])


def test_a_name_loads_only_what_its_module_imports():
    assert "gkdim.hecke" not in _fresh("import gkdim; gkdim.gk_dimension")[1]


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
    assert "gkdim.hecke" in _fresh(code)[1]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'gkdim' has no attribute 'no_such_name'$"):
        gkdim.no_such_name  # noqa: B018
