"""The CSV renderer formats a whole table with one ``%`` spec per column; it
must write the bytes the per-cell rule (``oracles.csv_text``) writes."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_text

from negspin import commands
from negspin.cli import COMMAND_SCHEMA, _build_parser, _render, _resolve
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
    payload = {"checks": [], "csv_header": header, "csv_rows": rows}
    assert _render("x", {"format": "csv"}, payload) == csv_text([header, *rows])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(checks=st.lists(st.tuples(st.text(), FLOATS, FLOATS), max_size=20))
def test_csv_checks_table_matches_the_per_cell_rule(checks):
    entries = [CheckEntry(name, residual, tolerance) for name, residual, tolerance in checks]
    rows = [(e.name, e.residual, e.tolerance, e.passed) for e in entries]
    text = _render("x", {"format": "csv"}, {"checks": entries})
    assert text == csv_text([("name", "residual", "tolerance", "pass"), *rows])


@pytest.mark.parametrize("command", COMMAND_SCHEMA)
def test_every_csv_table_holds_one_type_per_column(command):
    # the renderer takes each column's spec from its first row
    cfg, units = _resolve(_build_parser(command).parse_args([command, "--format", "csv"]))
    payload = commands.run(command, cfg, units)
    if "csv_rows" in payload:
        columns = list(zip(*payload["csv_rows"]))
        assert len(columns) == len(payload["csv_header"])
    else:
        columns = [[e.residual for e in payload["checks"]],
                   [e.tolerance for e in payload["checks"]]]
    for column in columns:
        assert len({type(cell) for cell in column}) == 1, command
        assert not isinstance(column[0], (bool, np.bool_)), command
