"""Property tests over every command's input schema: every finite input is handled.

Each draw must exit 0, 1 or 2 with no traceback or warning; a usage error
prints one stderr line and nothing else, any other run prints strict JSON
whose pass flags agree with the exit code, and a rerun is byte-identical.
A flag the command does not take exits 2, which would pass unseen as a
usage error, so a draw is checked to hold none; such flags are drawn on
purpose only where their one-line rejection is asserted.
A ``landau`` run that passes also counts the analytic multiplicities.
Draws are derandomized, so the examples (and tier-1) are the same on every
run.  Sizes are capped so each draw stays small.
"""

import contextlib
import io
import json
import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from negspin.cli import COMMAND_SCHEMA, main

FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCHEMA_SETTINGS = settings(derandomize=True, deadline=None, max_examples=50)


@st.composite
def _mostly(draw, typical, anything=FINITE):
    """A draw from ``typical`` about seven times in eight, from ``anything`` otherwise."""
    return draw(anything if draw(st.integers(0, 7)) == 0 else typical)


POSITIVE = _mostly(st.floats(0.1, 10.0))
SIGNED = _mostly(st.floats(-10.0, 10.0))
CHARGE = _mostly(st.floats(-5.0, 5.0))


@st.composite
def _units(draw):
    """``--units custom`` with drawn m0, c and hbar: the unit system."""
    m0, c, hbar = draw(POSITIVE), draw(POSITIVE), draw(POSITIVE)
    return ["--units", "custom", f"--m0={m0!r}", f"--c={c!r}", f"--hbar={hbar!r}"]


def _vector(draw, size, element=SIGNED) -> str:
    return ",".join(repr(draw(element)) for _ in range(size))


def _reject_constant(name):
    raise ValueError(f"bare {name} is not strict JSON")


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    # a warning would reach stderr as extra lines in a cold run
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_handled(argv) -> None:
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # every drawn flag belongs to the command: a rejected one would pass here unseen
    assert "unrecognized arguments" not in err
    if code == 2:
        assert out == "" and err.count("\n") == 1
    else:
        assert err == ""
        report = json.loads(out, parse_constant=_reject_constant)
        assert all(check["pass"] for check in report["checks"]) == (code == 0)
        if argv[0] == "landau" and code == 0:
            # one eigenvalue at k = 0, two at every k >= 1, on both branches
            expected = [1] + [2] * report["params"]["k_max"]
            assert report["results"]["counted_multiplicity_plus"] == expected
            assert report["results"]["counted_multiplicity_minus"] == expected
    assert _run(argv) == (code, out, err)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    b=_mostly(st.floats(1e-3, 1e3)),
    pz=_mostly(st.floats(-10.0, 10.0)),
    q=CHARGE,
    m0=POSITIVE, c=POSITIVE, hbar=POSITIVE,
    n_max=_mostly(st.integers(8, 2000), st.integers(-1, 7)),
    k_max=_mostly(st.integers(0, 4), st.integers(-1, 40)),
)
def test_landau_handles_every_finite_input(b, pz, q, m0, c, hbar, n_max, k_max):
    _assert_handled([
        "landau", "--units", "custom",
        f"--b={b!r}", f"--pz={pz!r}", f"--q={q!r}",
        f"--m0={m0!r}", f"--c={c!r}", f"--hbar={hbar!r}",
        "--n-max", str(n_max), "--k-max", str(k_max),
    ])


def _assert_unrecognized(argv) -> None:
    """argv exits 2 with one line naming an argument the command does not take."""
    code, out, err = _run(argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: unrecognized arguments: ")


@SCHEMA_SETTINGS
@given(units=_units(), q=CHARGE, seed=st.integers(-5, 2**32))
def test_identities_handles_every_finite_input(units, q, seed):
    # identities reads no input: a unit system, a charge or a seed is rejected
    _assert_handled(["identities"])
    _assert_unrecognized(["identities", *units, f"--q={q!r}", "--seed", str(seed)])


@SCHEMA_SETTINGS
@given(
    units=_units(),
    pmax=_mostly(st.floats(0.01, 10.0)),
    steps=_mostly(st.integers(2, 500), st.integers(-1, 1)),
    which=st.sampled_from(("dirac", "nonrel")),
)
def test_dispersion_handles_every_finite_input(units, pmax, steps, which):
    _assert_handled(["dispersion", *units, f"--pmax={pmax!r}", "--steps", str(steps),
                     "--which", which])


@SCHEMA_SETTINGS
@given(
    units=_units(),
    z=_mostly(st.floats(0.1, 2.0)),
    l=_mostly(st.integers(0, 4), st.integers(-1, 10**6)),
    r_max=_mostly(st.floats(1.0, 60.0)),
    n_points=_mostly(st.integers(2400, 20000), st.integers(-1, 20000)),
    n_levels=_mostly(st.integers(1, 10), st.integers(-1, 0)),
)
# kinetic diagonal near 1e284: LAPACK's stebz squared the off-diagonals and
# failed to converge here
@example(units=["--units", "custom", "--m0=0.1", "--c=3.12", "--hbar=3.72"], z=3.12, l=2,
         r_max=2.4e-138, n_points=3571, n_levels=4)
def test_coulomb_handles_every_finite_input(units, z, l, r_max, n_points, n_levels):
    _assert_handled(["coulomb", *units, f"--z={z!r}", "--l", str(l), f"--r-max={r_max!r}",
                     "--n-points", str(n_points), "--n-levels", str(n_levels)])


@st.composite
def _zitter_vectors(draw):
    return _vector(draw, 3), _vector(draw, 4, _mostly(st.floats(-2.0, 2.0)))


@SCHEMA_SETTINGS
@given(
    units=_units(),
    vectors=_zitter_vectors(),
    observable=st.sampled_from(("alpha1", "alpha2", "alpha3", "beta", "ibgamma5")),
    t_max=_mostly(st.floats(0.1, 100.0)),
    n_samples=_mostly(st.integers(64, 4096), st.integers(-1, 63)),
)
def test_zitter_handles_every_finite_input(units, vectors, observable, t_max, n_samples):
    p, weights = vectors
    _assert_handled(["zitter", *units, f"--p={p}", f"--weights={weights}",
                     "--observable", observable, f"--t-max={t_max!r}",
                     "--n-samples", str(n_samples)])


@st.composite
def _lorentz_vectors(draw):
    return _vector(draw, 3, _mostly(st.floats(-0.5, 0.5))), _vector(draw, 3)


@SCHEMA_SETTINGS
@given(units=_units(), vectors=_lorentz_vectors(), e_prime=SIGNED)
def test_lorentz_transform_handles_every_finite_input(units, vectors, e_prime):
    v, p_prime = vectors
    _assert_handled(["lorentz", *units, f"--v={v}", f"--p-prime={p_prime}",
                     f"--e-prime={e_prime!r}"])


@SCHEMA_SETTINGS
@given(
    units=_units(),
    sweep=_mostly(st.integers(1, 200), st.integers(-1, 0)),
    pmax=_mostly(st.floats(0.01, 10.0)),
)
def test_lorentz_sweep_handles_every_finite_input(units, sweep, pmax):
    _assert_handled(["lorentz", *units, "--sweep", str(sweep), f"--pmax={pmax!r}"])


@SCHEMA_SETTINGS
@given(
    units=_units(),
    q=CHARGE,
    trials=_mostly(st.integers(1, 200), st.integers(-1, 0)),
    seed=st.integers(-5, 2**32),
    wrong_energy=st.booleans(),
)
def test_reduction_handles_every_finite_input(units, q, trials, seed, wrong_energy):
    argv = ["reduction", "--trials", str(trials), "--seed", str(seed),
            *(["--wrong-energy"] if wrong_energy else [])]
    _assert_handled(argv)
    # the chain has no unit system: unit flags and a charge are rejected
    _assert_unrecognized([*argv, *units, f"--q={q!r}"])


@st.composite
def _foreign_flag(draw):
    """A command and a key of another command's schema that its own lacks."""
    command = draw(st.sampled_from(sorted(COMMAND_SCHEMA)))
    every_key = {key for schema in COMMAND_SCHEMA.values() for key in schema}
    return command, draw(st.sampled_from(sorted(every_key - set(COMMAND_SCHEMA[command]))))


@SCHEMA_SETTINGS
@given(
    foreign=_foreign_flag(),
    value=st.one_of(SIGNED.map(repr), st.sampled_from(("custom", "json", "1,0,0"))),
)
def test_a_flag_outside_the_commands_schema_is_rejected(foreign, value):
    command, key = foreign
    _assert_unrecognized([command, f"--{key.replace('_', '-')}={value}"])
