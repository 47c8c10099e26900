"""Property test over the ``landau`` input schema: every finite input is handled.

Draws are derandomized, so the examples (and tier-1) are the same on every run.
"""

import contextlib
import io
import json
import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from negspin.cli import main

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _mostly(draw, typical, anything=FINITE):
    """A draw from ``typical`` about seven times in eight, from ``anything`` otherwise."""
    return draw(anything if draw(st.integers(0, 7)) == 0 else typical)


POSITIVE = _mostly(st.floats(0.1, 10.0))


def _reject_constant(name):
    raise ValueError(f"bare {name} is not strict JSON")


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    # a warning would reach stderr as extra lines in a cold run
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    b=_mostly(st.floats(1e-3, 1e3)),
    pz=_mostly(st.floats(-10.0, 10.0)),
    q=_mostly(st.floats(-5.0, 5.0)),
    m0=POSITIVE, c=POSITIVE, hbar=POSITIVE,
    n_max=_mostly(st.integers(8, 2000), st.integers(-1, 7)),
    k_max=_mostly(st.integers(0, 4), st.integers(-1, 40)),
)
def test_landau_handles_every_finite_input(b, pz, q, m0, c, hbar, n_max, k_max):
    argv = [
        "landau", "--units", "custom",
        f"--b={b!r}", f"--pz={pz!r}", f"--q={q!r}",
        f"--m0={m0!r}", f"--c={c!r}", f"--hbar={hbar!r}",
        "--n-max", str(n_max), "--k-max", str(k_max),
    ]
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.count("\n") == 1
    else:
        assert err == ""
        report = json.loads(out, parse_constant=_reject_constant)
        assert all(check["pass"] for check in report["checks"]) == (code == 0)
    assert _run(argv) == (code, out, err)
