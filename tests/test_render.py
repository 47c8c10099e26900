"""The renderer formats a table of columns with one ``%`` line per row, a
block of rows at a time.  A CSV table (a command's own, or its checks) must
write the bytes the per-cell rule (``oracles.csv_text``) writes, and a JSON
report the bytes ``json.dumps(indent=2)`` writes; the exit code follows the
"pass" column either prints."""

import contextlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_text

from negspin import __version__, commands
from negspin.cli import (
    _CSV_BLOCK,
    COMMAND_SCHEMA,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    _check_columns,
    _parse,
    _render,
    _resolve,
    main,
)
from negspin.clifford import CheckEntry, entry

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, float("inf"), float("-inf"), float("nan"))
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([x for x in EDGE_FLOATS if math.isfinite(x)]))
# family sizes on each side of a block boundary, and across several blocks
FAMILY_SIZES = st.sampled_from([0, 1, 2, 3, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1,
                                2 * _CSV_BLOCK + 3])
# one strategy per column type a table may hold
COLUMNS = {
    "float": FLOATS,
    "float64": FLOATS.map(np.float64),
    "int": st.integers(-(2**70), 2**70),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "str": st.text(),
}


def csv_table(table: dict) -> list:
    """The parts ``_render`` writes for a CSV table of columns."""
    return list(_render("x", {"format": "csv"}, {"table": table}, _check_columns([])))


def columns_of(header, rows) -> dict:
    """The table of ``rows`` as one list column per header name."""
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=6))
    header = [f"c{i}" for i in range(len(kinds))]
    rows = draw(st.lists(st.tuples(*(COLUMNS[k] for k in kinds)), max_size=20))
    return header, rows


def pattern(text: str) -> str:
    """``text`` as a ``str.format`` pattern without fields, which names ``text``."""
    return text.replace("{", "{{").replace("}", "}}")


@st.composite
def check_lists(draw, floats):
    """Scalar checks and families (a name pattern over a 1-d or 2-d residual,
    the second axis labelled by text), with each check as the report lays it
    out: name, residual, tolerance, pass."""
    entries, rows = [], []
    for _ in range(draw(st.integers(0, 4))):
        tolerance = draw(floats)
        if draw(st.booleans()):
            name = draw(st.text())
            entries.append(CheckEntry(pattern(name), draw(floats), tolerance))
            rows.append((name, entries[-1].residual, tolerance))
            continue
        stem, size, width = draw(st.text()), draw(FAMILY_SIZES), draw(st.sampled_from([1, 2]))
        residual = np.resize(draw(st.lists(floats, min_size=1, max_size=5)), size)
        if size % width == 0 and width == 2:
            ends = draw(st.lists(st.text(), min_size=2, max_size=2))
            labels, names = (range(size // 2), ends), [
                f"{stem}{i}_{end}" for i in range(size // 2) for end in ends]
        else:
            labels, names = (range(size),), [f"{stem}{i}_" for i in range(size)]
        entries.append(CheckEntry(pattern(stem) + "{}_" + "{}" * (len(labels) - 1),
                                  residual.reshape([len(axis) for axis in labels]), tolerance,
                                  labels))
        rows += [(name, r, tolerance) for name, r in zip(names, residual.tolist())]
    return entries, [(name, r, t, r <= t) for name, r, t in rows]


def run_main(argv, payload) -> tuple[int, str, str]:
    """``main(argv)`` with ``payload`` as the command's result: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(commands, "run", return_value=payload), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(table=tables())
def test_csv_table_matches_the_per_cell_rule(table):
    header, rows = table
    assert "".join(csv_table(columns_of(header, rows))) == csv_text([header, *rows])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(checks=check_lists(FLOATS))
def test_csv_checks_table_matches_the_per_cell_rule(checks):
    entries, rows = checks
    code, text, err = run_main(["identities", "--format", "csv"], {"results": {}, "checks": entries})
    # compared line by line: a failing example reports its first differing row at once
    expected = csv_text([("name", "residual", "tolerance", "pass"), *rows])
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)
    assert (err, code) == ("", EXIT_OK if all(row[3] for row in rows) else EXIT_CHECK_FAILED)


RESULTS = st.dictionaries(st.text(), st.one_of(
    FINITE, st.lists(FINITE, max_size=3),
    # a value holding the text that leads the "checks" list
    st.text(), st.just('\n  "checks": [')), max_size=3)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(checks=check_lists(FINITE), results=RESULTS)
def test_json_checks_match_the_dump_of_the_report(checks, results):
    entries, rows = checks
    code, text, err = run_main(["identities"], {"results": results, "checks": entries})
    report = {"command": "identities", "params": {"format": "json"}, "results": results,
              "checks": [dict(zip(("name", "residual", "tolerance", "pass"), row)) for row in rows],
              "version": __version__}
    expected = json.dumps(report, indent=2, allow_nan=False) + "\n"
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)
    assert (err, code) == ("", EXIT_OK if all(row[3] for row in rows) else EXIT_CHECK_FAILED)


def _family(last):
    """A family over several blocks whose last residual is ``last``."""
    residual = np.zeros(2 * _CSV_BLOCK + 3)
    residual[-1] = last
    return entry("f{}", residual, 1.0, (range(residual.size),))


NON_FINITE = {
    "scalar-nan": ([entry("a", 0.0, 1.0), entry("b", np.nan, 1.0)], "nan"),
    "family-last-block-inf": ([entry("a", 0.0, 1.0), _family(np.inf)], "inf"),
    # the first in the report's order names it: a residual before its tolerance,
    # a family's rows before the checks after it
    "first-in-order": ([_family(-np.inf), entry("b", 0.0, np.nan)], "-inf"),
    "tolerance": ([entry("a", 0.0, np.nan), entry("b", np.inf, 1.0)], "nan"),
}


@pytest.mark.parametrize("checks, value", NON_FINITE.values(), ids=NON_FINITE)
def test_a_non_finite_check_is_rejected_before_json_is_written(tmp_path, checks, value):
    payload = {"results": {}, "checks": checks}
    message = f"error: Out of range float values are not JSON compliant: {value}\n"
    assert run_main(["identities"], payload) == (EXIT_USAGE, "", message)
    # an output file is not opened: what it held stays
    out = tmp_path / "report.json"
    out.write_text("kept\n", encoding="utf-8")
    assert run_main(["identities", "--out", str(out)], payload) == (EXIT_USAGE, "", message)
    assert out.read_text(encoding="utf-8") == "kept\n"
    # CSV prints the value and fails the check
    code, text, err = run_main(["identities", "--format", "csv"], payload)
    assert (code, err) == (EXIT_CHECK_FAILED, "")
    assert f",{value}," in text


@pytest.mark.parametrize("command", COMMAND_SCHEMA)
def test_every_csv_table_holds_one_type_per_column(command):
    # the renderer takes each column's spec from its first cell, and JSON
    # prints a check's floats by float.__repr__
    argvs = [[command, "--format", "csv"]]
    if command == "lorentz":
        argvs.append(["lorentz", "--sweep", "3", "--format", "csv"])
    for argv in argvs:
        cfg, units = _resolve(*_parse(argv))
        payload = commands.run(command, cfg, units)
        if "table" in payload:
            columns = [list(column) for column in payload["table"].values()]
            assert len({len(column) for column in columns}) == 1, argv
            for column in columns:
                assert len({type(cell) for cell in column}) == 1, argv
                assert not isinstance(column[0], (bool, np.bool_)), argv
        # the check table's cells exist only as they are formatted: as the
        # JSON report prints them, a name is a string, a residual and a
        # tolerance Python floats (an np.float64 would print its type) and
        # a flag a JSON boolean
        report = "".join(_render(command, {**cfg, "format": "json"}, payload,
                                 _check_columns(payload["checks"])))
        checks = json.loads(report)["checks"]
        assert checks, argv
        assert {tuple(map(type, check.values())) for check in checks} == {
            (str, float, float, bool)}, argv


def test_csv_writes_the_header_of_a_table_without_rows():
    table = {"a": np.empty(0), "b": [], "c": np.empty(0, dtype=np.int64)}
    assert csv_table(table) == ["a,b,c\n"]
    assert list(_render("x", {"format": "csv"}, {}, _check_columns([]))) == [
        "name,residual,tolerance,pass\n"]


def test_csv_formats_an_array_block_by_block():
    # array columns, over several blocks of rows, with edge values on each
    # side of a block boundary, print each cell as format(x, ".17g"), one
    # string per block after the header
    rng = np.random.default_rng(7)
    table = np.ldexp(rng.normal(size=(2 * _CSV_BLOCK + 3, 3)),
                     rng.integers(-1070, 1020, size=(2 * _CSV_BLOCK + 3, 3)))
    table[_CSV_BLOCK - 1:_CSV_BLOCK + 1] = [[np.inf, -0.0, 5e-324], [np.nan, -np.inf, 1e308]]
    header = ["a", "b", "c"]
    expected = "a,b,c\n" + "".join(",".join(format(x, ".17g") for x in row) + "\n"
                                   for row in table.tolist())
    parts = csv_table(dict(zip(header, table.T)))
    assert [len(part.splitlines()) for part in parts] == [1, _CSV_BLOCK, _CSV_BLOCK, 3]
    assert "".join(parts) == expected
    assert "".join(csv_table(columns_of(header, list(map(tuple, table))))) == expected


def test_csv_formats_a_list_of_mixed_rows_block_by_block():
    rows = [(f"r{i}", i - 300, np.int64(-i), i / 7.0, np.float64(i) ** 0.5)
            for i in range(2 * _CSV_BLOCK + 3)]
    header = ["s", "i", "i64", "f", "f64"]
    assert "".join(csv_table(columns_of(header, rows))) == csv_text([header, *rows])
    # the same cells as numpy columns
    table = {"s": [row[0] for row in rows], "i": np.array([row[1] for row in rows]),
             "i64": np.array([row[2] for row in rows]), "f": np.array([row[3] for row in rows]),
             "f64": np.array([row[4] for row in rows])}
    assert "".join(csv_table(table)) == csv_text([header, *rows])


def test_json_report_is_written_in_parts(capsys, tmp_path):
    # 8000 checks, one family, span several blocks of rows: the head, one
    # part per block and the tail; joined, the parts are the one indented
    # dump of the report, on stdout and in a file alike
    argv = ["lorentz", "--sweep", "4000", "--format", "json"]
    cfg, units = _resolve(*_parse(argv))
    payload = commands.run("lorentz", cfg, units)
    (family,) = payload["checks"]
    parts = list(_render("lorentz", cfg, payload, _check_columns(payload["checks"])))
    assert len(parts) == 2 + -(-8000 // _CSV_BLOCK)
    text = "".join(parts)
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, allow_nan=False) + "\n"
    assert [c["name"] for c in report["checks"]] == [
        f"p{j:03d}_branch{branch}_correspondence" for j in range(1, 4001)
        for branch in ("-1", "+1")]
    assert [c["residual"] for c in report["checks"]] == family.residual.ravel().tolist()
    assert {c["tolerance"] for c in report["checks"]} == {family.tolerance}
    assert main(argv) == 0
    assert capsys.readouterr().out == text
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == text
