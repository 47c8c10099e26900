"""Package surface: exported names resolve, and start-up stays light."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("clifford", "matrix_core", "spectral", "fields", "dynamics")
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["negspin", *(f"negspin.{m}" for m in MODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_cli_import_does_not_load_scipy():
    code = "import negspin.cli, sys; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    assert out.strip() == "False"
