"""Every benchmark workload slot still matches its committed manifest entry.

Each slot of ``perfbench/workloads.py`` runs in-process through
``negspin.cli.main`` at seed 1, and ``perfbench/validate.py`` checks the
outcome against ``perfbench/manifest.json``: exit code, strict JSON, no
traceback, check names, tolerances and pass flags, CSV header and row
count.  Both files are loaded read-only.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from negspin.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
validate = _load("validate")
MANIFEST = validate.load_manifest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_slot_matches_the_manifest(workload):
    pinned = MANIFEST[workload]
    invocations = workloads.generate(workload, 1)
    assert sorted(inv.slot for inv in invocations) == sorted(pinned)
    wrong = {}
    for inv in invocations:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(inv.argv))
        errors = validate.validate(inv.expect, inv.fmt, code, out.getvalue(), err.getvalue(),
                                   pinned[inv.slot])
        if errors:
            wrong[inv.slot] = errors
    assert wrong == {}
