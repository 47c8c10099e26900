"""Deterministic command-line front end.

Every subcommand resolves a flat configuration (defaults < config file <
flags), runs its computation (``negspin.commands``), and emits either a CSV
table or a JSON report

    {"command", "params", "results", "checks", "version"}

with one {"name", "residual", "tolerance", "pass"} object per check.  Output
carries no timestamps and floats are printed with 17 significant digits, so
identical configurations produce byte-identical files.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
rejected input.

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
from pathlib import Path
from typing import NamedTuple

from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

UNIT_KEYS = ("m0", "c", "hbar", "q")


class UsageError(Exception):
    """Bad flags, bad config keys, or rejected parameter combinations."""


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


# key -> (caster, default); shared keys first, then per command, in echo order.
SHARED_SCHEMA = {
    "units": (_cast_choice(("natural", "custom")), "natural"),
    "m0": (_cast_float, 1.0),
    "c": (_cast_float, 1.0),
    "hbar": (_cast_float, 1.0),
    "q": (_cast_float, -1.0),
    "seed": (_cast_int, 0),
    "format": (_cast_choice(("csv", "json")), "json"),
    "out": (str, None),
}

COMMAND_SCHEMA = {
    "identities": {},
    "dispersion": {
        "pmax": (_cast_float, 2.0),
        "steps": (_cast_int, 50),
        "which": (_cast_choice(("dirac", "nonrel")), "nonrel"),
    },
    "landau": {
        "b": (_cast_float, 1.0),
        "pz": (_cast_float, 0.0),
        "n_max": (_cast_int, 40),
        "k_max": (_cast_int, 3),
    },
    "coulomb": {
        "z": (_cast_float, 1.0),
        "l": (_cast_int, 0),
        "r_max": (_cast_float, 60.0),
        "n_points": (_cast_int, 6000),
        "n_levels": (_cast_int, 3),
    },
    "zitter": {
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
        "v": (_cast_vec(3), (0.0, 0.0, 0.0)),
        "e_prime": (_cast_float, 1.0),
        "p_prime": (_cast_vec(3), (0.0, 0.0, 0.0)),
        "sweep": (_cast_int, 0),
        "pmax": (_cast_float, 2.0),
    },
    "reduction": {
        "trials": (_cast_int, 100),
        "wrong_energy": (_cast_bool, False),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negspin",
        description="Spin-1/2 wave-operator checks: identities, spectra, dynamics.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    help_text = {
        "identities": "verify the anticommutation table and derived-operator identities",
        "dispersion": "sweep |p| and tabulate eigenvalues against the closed forms",
        "landau": "uniform-magnetic-field levels: truncated matrix vs analytic ladder",
        "coulomb": "attractive -Z/r radial levels vs the closed-form ladder",
        "zitter": "interference oscillation of an observable on a branch mixture",
        "lorentz": "boost an (E, p) pair, or sweep the velocity correspondence",
        "reduction": "two-component reduction chain on seeded random draws",
    }
    for command, schema in COMMAND_SCHEMA.items():
        p = sub.add_parser(command, help=help_text[command])
        p.add_argument("--config", default=None, metavar="PATH",
                       help="flat key=value file; flags take precedence")
        for key in (*SHARED_SCHEMA, *schema):
            flag = "--" + key.replace("_", "-")
            if key == "wrong_energy":
                p.add_argument(flag, dest=key, action="store_const", const="true",
                               default=None, help="force a wrong trial energy (negative control)")
            else:
                p.add_argument(flag, dest=key, default=None, metavar="VALUE")
    return parser


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


def _resolve(args: argparse.Namespace) -> dict:
    schema = {**SHARED_SCHEMA, **COMMAND_SCHEMA[args.command]}
    cfg = {key: default for key, (_, default) in schema.items()}
    provided: set[str] = set()
    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            if key not in schema:
                raise UsageError(f"unknown config key {key!r} for command {args.command!r}")
            cfg[key] = schema[key][0](raw)
            provided.add(key)
    for key in schema:
        raw = getattr(args, key, None)
        if raw is not None:
            cfg[key] = schema[key][0](raw)
            provided.add(key)
    clash = provided.intersection(UNIT_KEYS)
    if cfg["units"] == "natural" and clash:
        raise UsageError(
            f"--units natural fixes {UNIT_KEYS}; pass --units custom to set {sorted(clash)}"
        )
    unit_scales(cfg)
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _echo_params(command: str, cfg: dict) -> dict:
    echo = {key: cfg[key] for key in ("units", *UNIT_KEYS, "seed", "format")}
    for key in COMMAND_SCHEMA[command]:
        value = cfg[key]
        echo[key] = list(value) if isinstance(value, tuple) else value
    return echo


def _render(command: str, cfg: dict, payload: dict) -> str:
    if cfg["format"] == "csv":
        lines = [",".join(payload["csv_header"])]
        lines.extend(",".join(_fmt(cell) for cell in row) for row in payload["csv_rows"])
        return "\n".join(lines) + "\n"
    report = {
        "command": command,
        "params": _echo_params(command, cfg),
        "results": payload["results"],
        "checks": [e.as_dict() for e in payload["checks"]],
        "version": __version__,
    }
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _resolve(args)
        # numpy loads here, once the front has accepted every flag
        from . import commands

        payload = commands.run(args.command, cfg)
        text = _render(args.command, cfg, payload)
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
    try:
        _write_output(text, cfg["out"])
    except OSError as err:
        print(f"error: cannot write output file {cfg['out']}: {err}", file=sys.stderr)
        return EXIT_USAGE
    if all(check.passed for check in payload["checks"]):
        return EXIT_OK
    return EXIT_CHECK_FAILED
