"""Deterministic command-line front end.

Every subcommand takes exactly the keys it reads (``COMMAND_SCHEMA``), as
flags or config-file keys, resolves a flat configuration (defaults < config
file < flags), runs its computation (``negspin.commands``), and emits
either a CSV table or a JSON report

    {"command", "params", "results", "checks", "version"}

with the configuration less "out" as "params" and one {"name", "residual",
"tolerance", "pass"} object per check; a command without a table of its
own writes its checks as that CSV table.  Output carries no timestamps and
floats are printed with 17 significant digits, so identical configurations
produce byte-identical files.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
rejected input, in one ``error:`` line.

This module loads no numpy: flags, config files and the units check are
answered before ``main`` imports the commands.  It also computes the
scales of the unit system (``unit_scales``), which ``negspin.commands``
applies.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

UNIT_KEYS = ("m0", "c", "hbar", "q")
_CHECK_COLUMNS = ("name", "residual", "tolerance", "pass")
# rows per ``%`` call of ``_csv``: enough to amortize the call, few enough
# that a block's cells as Python objects stay in cache; 256 formats a
# 300000 x 7 float table a quarter faster than one call over it
_CSV_BLOCK = 256


class UsageError(Exception):
    """Bad flags, bad config keys, rejected parameter combinations, or unwritable output."""


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
        raise UsageError("m0, c and hbar must all be positive")

    def checked(name: str, value: float) -> float:
        if not 0.0 < value < math.inf:
            raise UsageError(f"unit scale {name} = {value:g} is not a positive finite float64")
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
        raise UsageError(f"expected a number, got {s!r}") from err
    if not math.isfinite(value):
        raise UsageError(f"expected a finite number, got {s!r}")
    return value


def _cast_int(s: str) -> int:
    try:
        return int(s)
    except ValueError as err:
        raise UsageError(f"expected an integer, got {s!r}") from err


def _cast_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise UsageError(f"expected a boolean, got {s!r}")


def _cast_vec(size: int):
    def cast(s: str) -> tuple[float, ...]:
        parts = s.split(",")
        if len(parts) != size:
            raise UsageError(f"expected {size} comma-separated numbers, got {s!r}")
        return tuple(_cast_float(p) for p in parts)

    return cast


def _cast_choice(options: tuple[str, ...]):
    def cast(s: str) -> str:
        if s not in options:
            raise UsageError(f"expected one of {options}, got {s!r}")
        return s

    return cast


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

COMMAND_SCHEMA = {
    "identities": _OUTPUT,
    "dispersion": {
        **_UNITS, **_OUTPUT,
        "pmax": (_cast_float, 2.0),
        "steps": (_cast_int, 50),
        "which": (_cast_choice(("dirac", "nonrel")), "nonrel"),
    },
    "landau": {
        **_UNITS, "q": (_cast_float, -1.0), **_OUTPUT,
        "b": (_cast_float, 1.0),
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
        "sweep": (_cast_int, 0),
        "pmax": (_cast_float, 2.0),
    },
    "reduction": {
        "seed": (_cast_int, 0), **_OUTPUT,
        "trials": (_cast_int, 100),
        "wrong_energy": (_cast_bool, False),
    },
}


class _Parser(argparse.ArgumentParser):
    """Reports a parse error as a ``UsageError``, for ``main`` to print in one line."""

    def error(self, message):
        raise UsageError(message)


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every subcommand, so help and unknown-command errors list them all; only
    ``command``'s subparser gets its flags, the only ones this run can read."""
    parser = _Parser(
        prog="negspin",
        description="Spin-1/2 wave-operator checks: identities, spectra, dynamics.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    help_text = {
        "identities": "verify the anticommutation table and derived-operator identities",
        "dispersion": "sweep |p| and tabulate eigenvalues against the closed forms",
        "landau": "uniform-magnetic-field levels: truncated matrix vs analytic ladder",
        "coulomb": "attractive -Z/r radial levels vs the closed-form ladder",
        "zitter": "interference oscillation of an observable on a branch mixture",
        "lorentz": "boost an (E, p) pair, or sweep the velocity correspondence",
        "reduction": "two-component reduction chain on seeded random draws",
    }
    for name, schema in COMMAND_SCHEMA.items():
        p = sub.add_parser(name, help=help_text[name], allow_abbrev=False)
        if name != command:
            continue
        p.add_argument("--config", default=None, metavar="PATH",
                       help="flat key=value file; flags take precedence")
        for key, (cast, _) in schema.items():
            flag = "--" + key.replace("_", "-")
            if cast is _cast_bool:  # a switch: takes no value
                p.add_argument(flag, dest=key, action="store_const", const="true", default=None)
            else:
                p.add_argument(flag, dest=key, default=None, metavar="VALUE")
    return parser


def _join_values(argv: list[str]) -> list[str]:
    """``--flag VALUE`` as ``--flag=VALUE`` for each flag that takes a value, so
    a value with a leading minus (``--v -0.6,0,0``) is not read as a flag."""
    schema = COMMAND_SCHEMA.get(argv[0]) if argv else None
    if schema is None:
        return argv
    flags = {"--config", *("--" + key.replace("_", "-") for key, (cast, _) in schema.items()
                           if cast is not _cast_bool)}
    joined, tokens = argv[:1], iter(argv[1:])
    for token in tokens:
        value = next(tokens, None) if token in flags else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    values = {}
    first_line = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in first_line:
            raise UsageError(
                f"{path}:{lineno}: duplicate key {key!r}, first set on line {first_line[key]}"
            )
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> tuple[dict, Units | None]:
    """The command's config, and its unit system's scales (None if it has none)."""
    schema = COMMAND_SCHEMA[args.command]
    cfg = {key: default for key, (_, default) in schema.items()}
    provided: set[str] = set()
    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            if key not in schema:
                raise UsageError(f"unknown config key {key!r} for command {args.command!r}")
            cfg[key] = schema[key][0](raw)
            provided.add(key)
    for key in schema:
        raw = getattr(args, key)
        if raw is not None:
            cfg[key] = schema[key][0](raw)
            provided.add(key)
    if "units" not in cfg:
        return cfg, None
    clash = provided.intersection(UNIT_KEYS)
    if cfg["units"] == "natural" and clash:
        raise UsageError(
            f"--units natural fixes {UNIT_KEYS}; pass --units custom to set {sorted(clash)}"
        )
    return cfg, unit_scales(cfg)


def _csv(table: dict):
    """The CSV text of a table of columns: the header line, then one string
    per block of ``_CSV_BLOCK`` rows, each formatted only when it is taken.

    ``table`` maps each header name to a 1-d array or list of one cell type.
    A column's ``%`` spec comes from its first cell: ``%s`` for strings,
    ``%d`` for integers (numpy's too), else ``%.17g``, which prints a float
    as ``format(x, ".17g")`` does.  A block's cells are taken as Python
    numbers (``tolist``) and formatted in one ``%`` call, so only one
    block's cells and text are ever held.
    """
    columns = list(table.values())
    yield ",".join(table) + "\n"
    if len(columns[0]) == 0:
        return
    line = ",".join("%s" if isinstance(cells[0], str) else "%d" if isinstance(
        cells[0], numbers.Integral) else "%.17g" for cells in columns) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        block = [cells[start:start + _CSV_BLOCK] for cells in columns]
        block = [cells.tolist() if hasattr(cells, "tolist") else cells for cells in block]
        yield line * len(block[0]) % tuple(chain.from_iterable(zip(*block)))


def _render(command: str, cfg: dict, payload: dict):
    """The output as strings to write: a CSV table a block at a time, or the JSON report in one."""
    checks = [(e.name, e.residual, e.tolerance, e.passed) for e in payload["checks"]]
    if cfg["format"] == "csv":
        if "table" in payload:
            return _csv(payload["table"])
        rows = [(name, residual, tolerance, "true" if passed else "false")
                for name, residual, tolerance, passed in checks]
        return _csv({column: [row[i] for row in rows] for i, column in enumerate(_CHECK_COLUMNS)})
    report = {
        "command": command,
        "params": {key: list(value) if isinstance(value, tuple) else value
                   for key, value in cfg.items() if key != "out"},
        "results": payload["results"],
        "checks": [dict(zip(_CHECK_COLUMNS, check)) for check in checks],
        "version": __version__,
    }
    return [json.dumps(report, indent=2, allow_nan=False) + "\n"]


def _write_output(parts, out: str | None) -> None:
    try:
        if out is None:
            sys.stdout.writelines(parts)
            sys.stdout.flush()  # a buffered stream reports a failed write only here
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(parts)
    except OSError as err:
        target = "stdout" if out is None else f"output file {out}"
        raise UsageError(f"cannot write {target}: {err}") from err


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(_join_values(argv))
        cfg, units = _resolve(args)
        # numpy loads here, once the front has accepted every flag
        from . import commands

        payload = commands.run(args.command, cfg, units)
        # a CSV table is formatted while it is written, which may also run out of memory
        _write_output(_render(args.command, cfg, payload), cfg["out"])
    except SystemExit:  # --help; the parser reports errors as UsageError
        return EXIT_OK
    except (UsageError, ValueError) as err:
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
