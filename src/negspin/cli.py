"""Deterministic command-line front end.

``negspin <command> [--flag value ...]`` is read against ``COMMAND_SCHEMA``
itself: a command takes exactly the keys it reads, as flags spelt in full
(a value after a space or "=", whatever it starts with; a switch takes
none; a repeated flag's last value wins) or as config-file keys; -h or
--help lists the commands or a command's flags.  The front resolves a flat
configuration (defaults < config file < flags), runs its computation
(``negspin.commands``), and emits either a CSV table or a JSON report

    {"command", "params", "results", "checks", "version"}

with the configuration less "out" as "params" and one {"name", "residual",
"tolerance", "pass"} object per check; a command without a table of its
own writes its checks as that CSV table.  Every ``CheckEntry`` is a family
of checks: a name pattern over its residual array, one label sequence per
axis, a single check having none.  The exit code and the JSON rejection of
a non-finite value read the families' arrays; a check's name, Python float
and flag text are made only as its block of rows is written
(``_check_blocks``).  A table and the check list are written
``_CSV_BLOCK`` rows at a time, with no timestamps and with floats in 17
significant digits (CSV) or Python's shortest repr (JSON): identical
configurations give identical bytes.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 in one
``error:`` line for a ``ValueError`` (a rejected input or unwritable
output), an ``ArithmeticError`` (a computation out of float64 range) or a
``MemoryError`` (an input too large to allocate), wherever it is raised.

This module loads no numpy: flags, config files, flag ranges (checked as
each value is cast), the lorentz mode of each flag, the units check and
landau's truncation (``--k-max`` interior for ``--n-max``) are answered
before ``main`` imports the commands.  It also computes the scales of the
unit system (``unit_scales``), which ``negspin.commands`` applies.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import suppress
from itertools import chain, filterfalse, islice, product, repeat, starmap
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from . import MIN_OSCILLATOR_LEVELS, __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

UNIT_KEYS = ("m0", "c", "hbar", "q")
# rows per ``%`` call of ``_blocks`` and ``_check_blocks``: enough to
# amortize the call, few enough that a block's cells as Python objects stay
# in cache; 256 formats a 300000 x 7 float table a quarter faster than one
# call over it
_CSV_BLOCK = 256
# one check of the JSON report as ``json.dumps(indent=2)`` lays it out in the
# "checks" list, led by the comma that parts it from the check before
_JSON_CHECK = (',\n    {\n      "name": %s,\n      "residual": %r,\n      "tolerance": %r,'
               '\n      "pass": %s\n    }')


class Units(NamedTuple):
    """The scales of a unit system; the library computes in units of them."""

    energy: float  # m0 c^2
    momentum: float  # m0 c
    length: float  # hbar / (m0 c)
    time: float  # hbar / (m0 c^2)
    charge: float  # hbar c, the unit of Z in -Z/r
    velocity: float  # c


def unit_scales(cfg: dict) -> Units:
    """The scales of cfg's unit system; each is exactly 1.0 in natural units.

    Rejects m0, c or hbar that is not positive, and a scale that float64
    rounds to 0 or to infinity, naming it.
    """
    m0, c, hbar = cfg["m0"], cfg["c"], cfg["hbar"]
    if not (m0 > 0 and c > 0 and hbar > 0):
        raise ValueError("m0, c and hbar must all be positive")

    def checked(name: str, value: float) -> float:
        if not 0.0 < value < math.inf:
            raise ValueError(f"unit scale {name} = {value:g} is not a positive finite float64")
        return value

    momentum = m0 * c
    # (m0 c) c is positive and finite only if m0 c is, so both divisions are safe
    energy = checked("m0*c^2", momentum * c)
    return Units(
        energy=energy,
        momentum=momentum,
        length=checked("hbar/(m0*c)", hbar / momentum),
        time=checked("hbar/(m0*c^2)", hbar / energy),
        charge=checked("hbar*c", hbar * c),
        velocity=c,
    )


def _cast_float(s: str) -> float:
    try:
        value = float(s)
    except ValueError as err:
        raise ValueError(f"expected a number, got {s!r}") from err
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {s!r}")
    return value


def _cast_int(s: str) -> int:
    try:
        return int(s)
    except ValueError as err:
        raise ValueError(f"expected an integer, got {s!r}") from err


def _cast_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _cast_vec(size: int):
    def cast(s: str) -> tuple[float, ...]:
        parts = s.split(",")
        if len(parts) != size:
            raise ValueError(f"expected {size} comma-separated numbers, got {s!r}")
        return tuple(_cast_float(p) for p in parts)

    return cast


def _cast_choice(options: tuple[str, ...]):
    def cast(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s

    return cast


def _checked(cast, test, message: str):
    """``cast``, rejecting with ``message`` a value outside the flag's range."""
    def checked(s: str):
        if not test(value := cast(s)):
            raise ValueError(message)
        return value

    return checked


# key -> (caster, default), in echo order: per command, the keys its ``_cmd_*``
# reads.  The unit system is one group, on every command that scales.
_UNITS = {
    "units": (_cast_choice(("natural", "custom")), "natural"),
    "m0": (_cast_float, 1.0),
    "c": (_cast_float, 1.0),
    "hbar": (_cast_float, 1.0),
}
_OUTPUT = {
    "format": (_cast_choice(("csv", "json")), "json"),
    "out": (str, None),
}
_PMAX = (_checked(_cast_float, lambda x: x > 0.0, "pmax must be positive"), 2.0)

COMMAND_SCHEMA = {
    "identities": _OUTPUT,
    "dispersion": {
        **_UNITS, **_OUTPUT,
        "pmax": _PMAX,
        "steps": (_checked(_cast_int, lambda n: n >= 2, "steps must be at least 2"), 50),
        "which": (_cast_choice(("dirac", "nonrel")), "nonrel"),
    },
    "landau": {
        **_UNITS, "q": (_cast_float, -1.0), **_OUTPUT,
        "b": (_checked(_cast_float, lambda x: x > 0.0, "field magnitude b must be positive"), 1.0),
        "pz": (_cast_float, 0.0),
        "n_max": (_cast_int, 40),
        "k_max": (_cast_int, 3),
    },
    "coulomb": {
        **_UNITS, **_OUTPUT,
        "z": (_cast_float, 1.0),
        "l": (_cast_int, 0),
        "r_max": (_cast_float, 60.0),
        "n_points": (_cast_int, 6000),
        "n_levels": (_cast_int, 3),
    },
    "zitter": {
        **_UNITS, **_OUTPUT,
        "p": (_cast_vec(3), (0.0, 0.0, 1.0)),
        "weights": (_cast_vec(4), (0.0, 1.0, 0.0, 1.0)),
        "observable": (
            _cast_choice(("alpha1", "alpha2", "alpha3", "beta", "ibgamma5")),
            "alpha3",
        ),
        "t_max": (_cast_float, 20.0),
        "n_samples": (_cast_int, 512),
    },
    "lorentz": {
        **_UNITS, **_OUTPUT,
        "v": (_cast_vec(3), (0.0, 0.0, 0.0)),
        "e_prime": (_cast_float, 1.0),
        "p_prime": (_cast_vec(3), (0.0, 0.0, 0.0)),
        "sweep": (_checked(_cast_int, lambda n: n >= 0, "sweep must be nonnegative"), 0),
        "pmax": _PMAX,
    },
    "reduction": {
        "seed": (_checked(_cast_int, lambda n: n >= 0, "seed must be nonnegative"), 0), **_OUTPUT,
        "trials": (_checked(_cast_int, lambda n: n >= 1, "trials must be at least 1"), 100),
        "wrong_energy": (_cast_bool, False),
    },
}


_DESCRIPTIONS = {
    "identities": "verify the anticommutation table and derived-operator identities",
    "dispersion": "sweep |p| and tabulate eigenvalues against the closed forms",
    "landau": "uniform-magnetic-field levels: truncated matrix vs analytic ladder",
    "coulomb": "attractive -Z/r radial levels vs the closed-form ladder",
    "zitter": "interference oscillation of an observable on a branch mixture",
    "lorentz": "boost an (E, p) pair, or sweep the velocity correspondence",
    "reduction": "two-component reduction chain on seeded random draws",
}


def _help(command: str | None) -> str:
    """The commands, or ``command``'s flags, one a line."""
    if command is None:
        head, rows = "<command> [--flag value ...]\n\ncommands:", [
            f"{name:<12}{text}" for name, text in _DESCRIPTIONS.items()]
    else:
        head = f"{command} [--flag value ...]\n\n{_DESCRIPTIONS[command]}\n\nflags:"
        rows = ["--config PATH"]
        for key, (cast, _) in COMMAND_SCHEMA[command].items():  # a switch takes no value
            rows.append("--" + key.replace("_", "-") + ("" if cast is _cast_bool else " VALUE"))
    return f"usage: negspin {head}\n" + "".join(f"  {row}\n" for row in rows)


def _parse(argv: list[str]) -> tuple[str, dict[str, str]] | str:
    """The command and its flags' raw values by schema key (``--config``'s as
    "config"), or the help text that -h or --help asks for; tokens are read
    in order, and the unknown ones reported together after the last."""
    if not argv:
        raise ValueError("the following arguments are required: command")
    command, *tokens = argv
    if command in ("-h", "--help"):
        return _help(None)
    if command not in COMMAND_SCHEMA:
        raise ValueError(f"argument command: invalid choice: {command!r} "
                         f"(choose from {', '.join(map(repr, COMMAND_SCHEMA))})")
    schema = COMMAND_SCHEMA[command]
    keys = {"--config": "config", **{"--" + key.replace("_", "-"): key for key in schema}}
    flags, unknown, tokens = {}, [], iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return _help(command)
        flag, joined, value = token.partition("=")
        key = keys.get(flag)
        if key is None:
            unknown.append(token)
        elif key in schema and schema[key][0] is _cast_bool:  # a switch
            if joined:
                raise ValueError(f"argument {flag}: ignored explicit argument {value!r}")
            flags[key] = "true"
        else:  # the value after "=", else the next token, whatever it starts with
            flags[key] = value if joined else next(tokens, None)
            if flags[key] is None:
                raise ValueError(f"argument {flag}: expected one argument")
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    return command, flags


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ValueError(f"cannot read config file {path}: {err}") from err
    values = {}
    first_line = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in first_line:
            raise ValueError(
                f"{path}:{lineno}: duplicate key {key!r}, first set on line {first_line[key]}"
            )
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def _resolve(command: str, flags: dict[str, str]) -> tuple[dict, Units | None]:
    """The command's config (defaults < config file < flags, each value cast as
    it is read) and its unit system's scales (None if it has none)."""
    schema = COMMAND_SCHEMA[command]
    cfg = {key: default for key, (_, default) in schema.items()}
    config = _read_config_file(flags["config"]) if "config" in flags else {}
    given = {key: flags[key] for key in schema if key in flags}
    for key, raw in chain(config.items(), given.items()):
        if key not in schema:
            raise ValueError(f"unknown config key {key!r} for command {command!r}")
        cfg[key] = schema[key][0](raw)
    supplied = {*config, *given}
    if command == "lorentz":  # each mode takes only its own flags
        sweep = cfg["sweep"] > 0
        for key in ("v", "e_prime", "p_prime") if sweep else ("pmax",):
            if key in supplied:
                raise ValueError(f"--{key.replace('_', '-')} is read only with "
                                 f"--sweep {'0' if sweep else '> 0'}")
    if "units" not in cfg:
        return cfg, None
    clash = supplied.intersection(UNIT_KEYS)
    if cfg["units"] == "natural" and clash:
        raise ValueError(
            f"--units natural fixes {UNIT_KEYS}; pass --units custom to set {sorted(clash)}"
        )
    units = unit_scales(cfg)
    if command == "landau" and cfg["k_max"] > cfg["n_max"] - 4:  # the top four border the cut
        raise ValueError(
            f"k_max = {cfg['k_max']} is not interior for n_max = {cfg['n_max']}; "
            f"raise n_max to at least {max(cfg['k_max'] + 4, MIN_OSCILLATOR_LEVELS)}"
        )
    return cfg, units


def _check_columns(checks: list) -> list:
    """Each check family with its residuals and pass flags as 1-d arrays in C
    order, the rows of the check table; nothing is formatted or listed here."""
    import numpy as np  # loaded with the commands that made the checks

    return [(e, np.ravel(e.residual), np.ravel(e.passed)) for e in checks]


def _blocks(line: str, columns: list):
    """``line`` filled with each row of ``columns`` (1-d arrays or lists of one
    length), one string per block of ``_CSV_BLOCK`` rows, each formatted only
    when it is taken.

    A block's cells are taken as Python numbers (``tolist``), which ``%s``
    prints as ``%d`` would, and formatted in one ``%`` call: one block is
    ever held.
    """
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        block = [cells[start:start + _CSV_BLOCK] for cells in columns]
        block = [cells.tolist() if hasattr(cells, "tolist") else cells for cells in block]
        yield line * len(block[0]) % tuple(chain.from_iterable(zip(*block)))


def _check_blocks(line: str, checks: list, name=str):
    """``line`` filled with each row of the check table, one string per block
    of ``_CSV_BLOCK`` rows of one family, as ``_blocks`` fills it: a row's
    name is its pattern filled with its labels and passed through ``name``,
    and its flag "true" or "false" as the report prints it.  A family's
    names and flags exist only while their block is formatted."""
    for e, residual, passed in checks:
        names = map(name, starmap(e.name.format, product(*e.labels)))  # in C order
        for start in range(0, len(residual), _CSV_BLOCK):
            cells = residual[start:start + _CSV_BLOCK].tolist()
            flags = ["true" if f else "false" for f in passed[start:start + _CSV_BLOCK].tolist()]
            rows = zip(islice(names, len(cells)), cells, repeat(e.tolerance), flags)
            yield line * len(cells) % tuple(chain.from_iterable(rows))


def _render(command: str, cfg: dict, payload: dict, checks: list):
    """The output as strings to write: a CSV table, or the JSON report, its
    rows formatted a block of ``_CSV_BLOCK`` at a time (``_blocks``,
    ``_check_blocks``).

    The CSV table is the command's own, or else the check table of
    ``checks`` (``_check_columns``).  A table maps each header name to a
    1-d array or list of one cell type; a column's ``%`` spec comes from its
    first cell: ``%.17g`` for a float, which prints it as ``format(x,
    ".17g")`` does, else ``%s``.

    The JSON report is the text ``json.dumps(report, indent=2,
    allow_nan=False)`` writes: its head and tail come from it, and each check
    fills ``_JSON_CHECK``, its name encoded as ``json`` encodes a string and
    its floats as ``float.__repr__`` prints them.  A non-finite float raises
    the encoder's ``ValueError``, the first in the report's order, before
    anything is written.
    """
    if cfg["format"] == "csv":
        if "table" not in payload:
            return chain(["name,residual,tolerance,pass\n"],
                         _check_blocks("%s,%.17g,%.17g,%s\n", checks))
        table = payload["table"]
        line = ",".join("%.17g" if isinstance(next(iter(cells), None), float) else "%s"
                        for cells in table.values()) + "\n"
        return chain([",".join(table) + "\n"], _blocks(line, list(table.values())))
    report = {
        "command": command,
        "params": {key: value for key, value in cfg.items() if key != "out"},
        "results": payload["results"],
        "checks": [],
        "version": __version__,
    }
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    # of each family with rows, in the report's order: its first residual, its
    # tolerance, then its first residual that is not finite (NaN is not below inf)
    firsts = [[*r[:1].tolist(), e.tolerance, *r[~(abs(r) < math.inf)][:1].tolist()]
              for e, r, _ in checks if len(r)]
    if not firsts:
        return [text]
    bad = next(filterfalse(math.isfinite, chain.from_iterable(firsts)), None)
    if bad is not None:
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    # a string holds no raw newline, so only the top-level key follows one and two spaces
    head, key, tail = text.partition('\n  "checks": [')
    rows = _check_blocks(_JSON_CHECK, checks, encode_basestring_ascii)
    # the first check takes no comma
    return chain([head + key, next(rows)[1:]], rows, ["\n  " + tail])


def _write_output(parts, out: str | None) -> None:
    try:
        if out is None:
            sys.stdout.writelines(parts)
            sys.stdout.flush()  # a buffered stream reports a failed write only here
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(parts)
    except OSError as err:
        if out is None:
            # the interpreter flushes stdout's unwritten buffer again at exit;
            # aimed at the null device, that flush cannot fail a second time
            with suppress(AttributeError, OSError), open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())  # an in-memory stream has none
        target = "stdout" if out is None else f"output file {out}"
        raise ValueError(f"cannot write {target}: {err}") from err


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parsed = _parse(argv)
        if isinstance(parsed, str):  # -h or --help
            _write_output([parsed], None)
            return EXIT_OK
        command, flags = parsed
        cfg, units = _resolve(command, flags)
        # numpy loads here, once the front has accepted every flag
        from . import commands

        payload = commands.run(command, cfg, units)
        checks = _check_columns(payload["checks"])
        # a report is formatted while it is written, which may also run out of memory
        _write_output(_render(command, cfg, payload, checks), cfg["out"])
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as err:
        print(f"error: input out of the floating-point range of the computation ({err})",
              file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as err:
        print(f"error: input too large to allocate ({err})", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if all(passed.all() for *_, passed in checks) else EXIT_CHECK_FAILED
