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
own writes its checks as that CSV table.  Either is written a block at a
time, with no timestamps and with floats in 17 significant digits (CSV) or
Python's shortest repr (JSON): identical configurations give identical bytes.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 in one
``error:`` line for a ``ValueError`` (a rejected input or unwritable
output), an ``ArithmeticError`` (a computation out of float64 range) or a
``MemoryError`` (an input too large to allocate), wherever it is raised.

This module loads no numpy: flags, config files, flag ranges (checked as
each value is cast), the lorentz mode of each flag and the units check are
answered before ``main`` imports the commands.  It also computes the scales of the unit system
(``unit_scales``), which ``negspin.commands`` applies.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import suppress
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

UNIT_KEYS = ("m0", "c", "hbar", "q")
# rows per ``%`` call of ``_csv``: enough to amortize the call, few enough
# that a block's cells as Python objects stay in cache; 256 formats a
# 300000 x 7 float table a quarter faster than one call over it
_CSV_BLOCK = 256
_JSON_BLOCK = 2**16  # encoder chunks per JSON part: ~0.4 MB, ~1300 lorentz sweep momenta


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
    except OSError as err:
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
    return cfg, unit_scales(cfg)


def _csv(table: dict):
    """The CSV text of a table of columns: the header line, then one string
    per block of ``_CSV_BLOCK`` rows, each formatted only when it is taken.

    ``table`` maps each header name to a 1-d array or list of one cell type.
    A column's ``%`` spec comes from its first cell: ``%.17g`` for a float,
    which prints it as ``format(x, ".17g")`` does, else ``%s``.  A block's
    cells are taken as Python numbers (``tolist``), which ``%s`` prints as
    ``%d`` would, and formatted in one ``%`` call: one block is ever held.
    """
    columns = list(table.values())
    yield ",".join(table) + "\n"
    if len(columns[0]) == 0:
        return
    line = ",".join("%.17g" if isinstance(cells[0], float) else "%s" for cells in columns) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        block = [cells[start:start + _CSV_BLOCK] for cells in columns]
        block = [cells.tolist() if hasattr(cells, "tolist") else cells for cells in block]
        yield line * len(block[0]) % tuple(chain.from_iterable(zip(*block)))


def _render(command: str, cfg: dict, payload: dict):
    """The output as strings to write, each made when it is taken: a CSV table (a command's
    own, or its checks) a block of rows at a time, or the JSON report a block of chunks."""
    checks = payload["checks"]
    if cfg["format"] == "csv":
        return _csv(payload["table"] if "table" in payload else {
            "name": [e.name for e in checks], "residual": [e.residual for e in checks],
            "tolerance": [e.tolerance for e in checks],
            "pass": ["true" if e.passed else "false" for e in checks]})
    report = {
        "command": command,
        "params": {key: value for key, value in cfg.items() if key != "out"},
        "results": payload["results"],
        "checks": [{"name": e.name, "residual": e.residual, "tolerance": e.tolerance,
                    "pass": e.passed} for e in checks],
        "version": __version__,
    }
    chunks = json.JSONEncoder(indent=2, allow_nan=False).iterencode(report)
    return chain(map("".join, iter(lambda: list(islice(chunks, _JSON_BLOCK)), [])), ["\n"])


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
        # a report is formatted while it is written, which may also run out of memory
        _write_output(_render(command, cfg, payload), cfg["out"])
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
    if all(check.passed for check in payload["checks"]):
        return EXIT_OK
    return EXIT_CHECK_FAILED
