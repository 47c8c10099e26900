"""The CSV renderer formats a table of columns with one ``%`` spec per column,
a block of rows at a time; it must write the bytes the per-cell rule
(``oracles.csv_text``) writes.  A JSON report is written a block of encoder
chunks at a time; it must write the bytes ``json.dumps`` writes."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_text

from negspin import commands
from negspin.cli import _CSV_BLOCK, COMMAND_SCHEMA, _csv, _parse, _render, _resolve, main
from negspin.clifford import CheckEntry

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, float("inf"), float("-inf"), float("nan"))
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
# one strategy per column type a table may hold
COLUMNS = {
    "float": FLOATS,
    "float64": FLOATS.map(np.float64),
    "int": st.integers(-(2**70), 2**70),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "str": st.text(),
}


def columns_of(header, rows) -> dict:
    """The table of ``rows`` as one list column per header name."""
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=6))
    header = [f"c{i}" for i in range(len(kinds))]
    rows = draw(st.lists(st.tuples(*(COLUMNS[k] for k in kinds)), max_size=20))
    return header, rows


@settings(derandomize=True, deadline=None, max_examples=300)
@given(table=tables())
def test_csv_table_matches_the_per_cell_rule(table):
    header, rows = table
    payload = {"checks": [], "table": columns_of(header, rows)}
    assert "".join(_render("x", {"format": "csv"}, payload)) == csv_text([header, *rows])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(checks=st.lists(st.tuples(st.text(), FLOATS, FLOATS), max_size=20))
def test_csv_checks_table_matches_the_per_cell_rule(checks):
    entries = [CheckEntry(name, residual, tolerance) for name, residual, tolerance in checks]
    rows = [(e.name, e.residual, e.tolerance, e.passed) for e in entries]
    text = "".join(_render("x", {"format": "csv"}, {"checks": entries}))
    assert text == csv_text([("name", "residual", "tolerance", "pass"), *rows])


@pytest.mark.parametrize("command", COMMAND_SCHEMA)
def test_every_csv_table_holds_one_type_per_column(command):
    # the renderer takes each column's spec from its first cell
    cfg, units = _resolve(*_parse([command, "--format", "csv"]))
    payload = commands.run(command, cfg, units)
    if "table" in payload:
        columns = [list(column) for column in payload["table"].values()]
        assert len({len(column) for column in columns}) == 1, command
    else:
        columns = [[e.residual for e in payload["checks"]],
                   [e.tolerance for e in payload["checks"]]]
    for column in columns:
        assert len({type(cell) for cell in column}) == 1, command
        assert not isinstance(column[0], (bool, np.bool_)), command


def test_csv_writes_the_header_of_a_table_without_rows():
    table = {"a": np.empty(0), "b": [], "c": np.empty(0, dtype=np.int64)}
    assert list(_csv(table)) == ["a,b,c\n"]
    assert "".join(_render("x", {"format": "csv"}, {"checks": [], "table": table})) == "a,b,c\n"


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
    parts = list(_csv(dict(zip(header, table.T))))
    assert [len(part.splitlines()) for part in parts] == [1, _CSV_BLOCK, _CSV_BLOCK, 3]
    assert "".join(parts) == expected
    assert "".join(_csv(columns_of(header, list(map(tuple, table))))) == expected


def test_csv_formats_a_list_of_mixed_rows_block_by_block():
    rows = [(f"r{i}", i - 300, np.int64(-i), i / 7.0, np.float64(i) ** 0.5)
            for i in range(2 * _CSV_BLOCK + 3)]
    header = ["s", "i", "i64", "f", "f64"]
    assert "".join(_csv(columns_of(header, rows))) == csv_text([header, *rows])
    # the same cells as numpy columns
    table = {"s": [row[0] for row in rows], "i": np.array([row[1] for row in rows]),
             "i64": np.array([row[2] for row in rows]), "f": np.array([row[3] for row in rows]),
             "f64": np.array([row[4] for row in rows])}
    assert "".join(_csv(table)) == csv_text([header, *rows])


def test_json_report_is_written_in_parts(capsys, tmp_path):
    # 8000 checks span several blocks of encoder chunks; joined, the parts
    # are the one indented dump of the report, on stdout and in a file alike
    argv = ["lorentz", "--sweep", "4000", "--format", "json"]
    cfg, units = _resolve(*_parse(argv))
    payload = commands.run("lorentz", cfg, units)
    parts = list(_render("lorentz", cfg, payload))
    assert len(parts) > 2
    text = "".join(parts)
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, allow_nan=False) + "\n"
    assert [c["name"] for c in report["checks"]] == [e.name for e in payload["checks"]]
    assert [c["residual"] for c in report["checks"]] == [e.residual for e in payload["checks"]]
    assert main(argv) == 0
    assert capsys.readouterr().out == text
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == text
