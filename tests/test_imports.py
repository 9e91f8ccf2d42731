"""The package is pure standard library: importing it loads no numpy, and
it loads no `dataclasses` (nor the `inspect` that module imports)."""

import json
import os
import subprocess
import sys
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
