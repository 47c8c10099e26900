"""Package surface: exported names resolve, and start-up stays light."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("clifford", "matrix_core", "spectral", "fields", "dynamics")
SRC = Path(__file__).resolve().parent.parent / "src"

# Runs one start-up path in a fresh interpreter, then prints which of numpy
# and scipy it loaded.
PROBE = """\
import sys
try:
    {body}
finally:
    print(sorted({{"numpy", "scipy"}}.intersection(sys.modules)))
"""
MAIN = "from negspin.cli import main; sys.exit(main({argv!r}))"


@pytest.mark.parametrize("module", ["negspin", *(f"negspin.{m}" for m in MODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


# start-up path -> (code run in a fresh interpreter, exit code, heavy modules loaded)
START_UP = {
    "import": ("import negspin.cli", 0, []),
    "help": ("import runpy; sys.argv = ['negspin', '--help']; "
             "runpy.run_module('negspin', run_name='__main__')", 0, []),
    "non-finite": (MAIN.format(argv=["lorentz", "--v", "nan,0,0"]), 2, []),
    "unknown-config-key": (MAIN.format(argv=["dispersion", "--config", "{config}"]), 2, []),
    # the controls: a computing command does load numpy, and only numpy
    "identities": (MAIN.format(argv=["identities"]), 0, ["numpy"]),
    "coulomb": (MAIN.format(argv=["coulomb"]), 0, ["numpy"]),
}


@pytest.mark.parametrize("case", START_UP)
def test_start_up_loads_numpy_only_to_compute(tmp_path, case):
    body, code, loaded = START_UP[case]
    config = tmp_path / "run.cfg"
    config.write_text("voltage=9\n")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body.replace("{config}", str(config)))],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loaded)
