"""Validation of one CLI outcome against the output contract and the seed manifest.

An outcome is wrong when the exit code is not the expected one, stderr holds
a traceback, a JSON report is not strict JSON (bare NaN/Infinity) or has the
wrong keys, a CSV is ragged, or the check names, tolerances, pass flags, CSV
header or row count differ from what the seed commit produced for that slot
(``manifest.json``).  The manifest makes a "faster" change that drops or
loosens a check show up as an error.
"""

from __future__ import annotations

import json
from pathlib import Path

MANIFEST_PATH = Path(__file__).with_name("manifest.json")
CHECK_HEADER = ["name", "residual", "tolerance", "pass"]
REPORT_KEYS = {"command", "params", "results", "checks", "version"}
TRACEBACK = "Traceback (most recent call last)"


def _reject_constant(token: str):
    raise ValueError(f"bare {token}")


def observe(expect: int, fmt: str, code: int, stdout: str, stderr: str) -> tuple[list[str], dict]:
    """Contract errors that need no manifest, and the shape the manifest pins.

    The shape holds the sorted (name, tolerance, pass) checks when the output
    lists them, and the CSV header and row count for CSV output.
    """
    errors = []
    shape = {"checks": None, "csv_header": None, "csv_rows": None}
    if code != expect:
        errors.append(f"exit {code}, expected {expect}")
    if TRACEBACK in stderr:
        errors.append("traceback on stderr: " + stderr.strip().splitlines()[-1][:120])
    if not stdout:
        if expect != 2:
            errors.append("empty stdout")
        return errors, shape
    checks = None
    if fmt == "json":
        try:
            json.loads(stdout, parse_constant=_reject_constant)
        except ValueError as err:
            errors.append(f"stdout is not strict JSON ({err})")
        try:
            report = json.loads(stdout)
        except ValueError:
            return errors, shape
        if not isinstance(report, dict) or set(report) != REPORT_KEYS:
            errors.append("report keys are not " + ",".join(sorted(REPORT_KEYS)))
            return errors, shape
        try:
            checks = [[c["name"], c["tolerance"], c["pass"]] for c in report["checks"]]
        except (KeyError, TypeError):
            errors.append("checks are not name/residual/tolerance/pass objects")
            return errors, shape
    else:
        lines = stdout.splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        if any(len(row) != len(header) for row in rows):
            errors.append("CSV rows and header differ in length")
            return errors, shape
        shape["csv_header"] = header
        shape["csv_rows"] = len(rows)
        if header == CHECK_HEADER:
            try:
                checks = [[row[0], float(row[2]), row[3] == "true"] for row in rows]
            except ValueError:
                errors.append("CSV check tolerance is not a number")
                return errors, shape
    if checks is not None:
        shape["checks"] = sorted(checks)
        if code in (0, 1) and (code == 0) != all(c[2] for c in checks):
            errors.append(f"exit {code} disagrees with the check flags")
    return errors, shape


def validate(expect: int, fmt: str, code: int, stdout: str, stderr: str, pinned: dict) -> list[str]:
    """All errors of one outcome; ``pinned`` is the slot's manifest entry."""
    errors, shape = observe(expect, fmt, code, stdout, stderr)
    if expect == 2 or code != expect:
        return errors
    if shape["csv_header"] != pinned["csv_header"] or shape["csv_rows"] != pinned["csv_rows"]:
        errors.append(f"CSV shape {shape['csv_header']} x {shape['csv_rows']} differs from the seed")
    got, want = shape["checks"], pinned["checks"]
    if (got is None) != (want is None):
        errors.append("check list missing" if got is None else "unexpected check list")
    elif got is not None:
        if [c[:2] for c in got] != [c[:2] for c in want]:
            errors.append("check names or tolerances differ from the seed manifest")
        else:
            flipped = [g[0] for g, w in zip(got, want) if g[2] != w[2]]
            if flipped:
                errors.append("check pass flags differ from the seed: " + ",".join(flipped[:5]))
    return errors


def error_kind(error: str) -> str:
    """What two runs must share for an error to be the same one.

    A traceback is keyed on its exception type, since its message may carry
    run-dependent detail; every other error message is fixed text.
    """
    prefix = "traceback on stderr: "
    if error.startswith(prefix):
        return prefix + error[len(prefix):].split(":", 1)[0]
    return error


def new_errors(errors: list[str], seed_errors: list[str]) -> list[str]:
    """The errors of an outcome that its slot did not have at the seed."""
    known = {error_kind(e) for e in seed_errors}
    return [e for e in errors if error_kind(e) not in known]


def load_manifest() -> dict:
    with open(MANIFEST_PATH, encoding="utf-8") as fh:
        return json.load(fh)
