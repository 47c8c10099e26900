"""Deterministic command-line front end.

Every subcommand resolves a flat configuration (defaults < config file <
flags), runs its computation, and emits either a CSV table or a JSON report

    {"command", "params", "results", "checks", "version"}

with one {"name", "residual", "tolerance", "pass"} object per check.  Output
carries no timestamps and floats are printed with 17 significant digits, so
identical configurations produce byte-identical files.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
rejected input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .clifford import (
    CheckEntry,
    dirac_representation,
    entry,
    verify_clifford_identities,
    verify_gamma_properties,
)
from .dynamics import Superposition, dominant_frequency, observable_series
from .fields import (
    RadialGrid,
    UniformBField,
    coulomb_radial_spectrum,
    draw_reduction_trials,
    landau_levels_analytic,
    landau_sectors,
    pauli_reduction_check,
)
from .matrix_core import ConvergenceError, hermitian_eig
from .spectral import (
    PhysicalParams,
    closed_form_energies,
    correspondence_check,
    hamiltonian,
    lorentz_transform,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

UNIT_KEYS = ("m0", "c", "hbar", "q")


class UsageError(Exception):
    """Bad flags, bad config keys, or rejected parameter combinations."""


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


def _resolve(args: argparse.Namespace) -> tuple[dict, PhysicalParams]:
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
    if cfg["units"] == "natural":
        clash = provided.intersection(UNIT_KEYS)
        if clash:
            raise UsageError(
                f"--units natural fixes {UNIT_KEYS}; pass --units custom to set {sorted(clash)}"
            )
        params = PhysicalParams()
    else:
        params = PhysicalParams(m0=cfg["m0"], c=cfg["c"], hbar=cfg["hbar"], q=cfg["q"])
    return cfg, params


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _echo_params(command: str, cfg: dict, params: PhysicalParams) -> dict:
    echo = {
        "units": cfg["units"],
        "m0": params.m0,
        "c": params.c,
        "hbar": params.hbar,
        "q": params.q,
        "seed": cfg["seed"],
        "format": cfg["format"],
    }
    for key in COMMAND_SCHEMA[command]:
        value = cfg[key]
        echo[key] = list(value) if isinstance(value, tuple) else value
    return echo


def _render(command: str, cfg: dict, params: PhysicalParams, payload: dict) -> str:
    if cfg["format"] == "csv":
        lines = [",".join(payload["csv_header"])]
        lines.extend(",".join(_fmt(cell) for cell in row) for row in payload["csv_rows"])
        return "\n".join(lines) + "\n"
    report = {
        "command": command,
        "params": _echo_params(command, cfg, params),
        "results": payload["results"],
        "checks": [e.as_dict() for e in payload["checks"]],
        "version": __version__,
    }
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _checks_table(checks: list[CheckEntry]) -> tuple[list[str], list[list]]:
    header = ["name", "residual", "tolerance", "pass"]
    rows = [[e.name, e.residual, e.tolerance, e.passed] for e in checks]
    return header, rows


def _cmd_identities(cfg: dict, params: PhysicalParams) -> dict:
    basis = dirac_representation()
    checks = list(verify_clifford_identities(basis).entries)
    checks.extend(verify_gamma_properties(basis).entries)
    header, rows = _checks_table(checks)
    return {
        "results": {"total_checks": len(checks)},
        "checks": checks,
        "csv_header": header,
        "csv_rows": rows,
    }


def _cmd_dispersion(cfg: dict, params: PhysicalParams) -> dict:
    if cfg["steps"] < 2:
        raise UsageError("steps must be at least 2")
    if not cfg["pmax"] > 0.0:
        raise UsageError("pmax must be positive")
    which = cfg["which"]
    p_mag = cfg["pmax"] * np.arange(cfg["steps"]) / (cfg["steps"] - 1)
    momenta = np.outer(p_mag, (0.0, 0.0, 1.0))
    e_minus, e_plus = closed_form_energies(p_mag, params, which)
    eigenvalues = hermitian_eig(hamiltonian(momenta, params, which)).eigenvalues
    closed = np.stack([e_minus, e_minus, e_plus, e_plus], axis=-1)
    worst = np.max(np.abs(eigenvalues - closed) / np.maximum(1.0, np.abs(closed)))
    rows = np.column_stack([p_mag, eigenvalues, e_minus, e_plus]).tolist()
    checks = [entry("max_relative_deviation", worst, 1e-12)]
    return {
        "results": {"which": which, "steps": cfg["steps"], "pmax": cfg["pmax"]},
        "checks": checks,
        "csv_header": ["p", "E1", "E2", "E3", "E4", "E_minus_closed", "E_plus_closed"],
        "csv_rows": rows,
    }


def _nearest(ascending: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The entry of ``ascending`` closest to each target (the lower one on a tie)."""
    right = np.clip(np.searchsorted(ascending, targets), 1, len(ascending) - 1)
    below, above = ascending[right - 1], ascending[right]
    return np.where(targets - below <= above - targets, below, above)


def _count_within(ascending: np.ndarray, targets: np.ndarray, tol: float) -> np.ndarray:
    """How many entries of ``ascending`` lie within ``tol`` of each target."""
    return (np.searchsorted(ascending, targets + tol, side="right")
            - np.searchsorted(ascending, targets - tol, side="left"))


def _cmd_landau(cfg: dict, params: PhysicalParams) -> dict:
    if cfg["k_max"] < 0:
        raise UsageError("k_max must be nonnegative")
    if cfg["k_max"] > cfg["n_max"] - 4:
        raise UsageError(
            f"k_max = {cfg['k_max']} is not interior for n_max = {cfg['n_max']}; "
            f"raise n_max to at least {cfg['k_max'] + 4}"
        )
    field = UniformBField(cfg["b"])
    # built first: it rejects n_max outside its range before any per-level work
    interior, edges = landau_sectors(field, cfg["pz"], cfg["n_max"], params)
    analytic = landau_levels_analytic(field, cfg["pz"], cfg["k_max"], params)
    # the top edge sector lost its ladder partner: its pair is a truncation
    # artifact at +-E(0), so only the bottom edge joins the level matching
    eigenvalues = np.sort(np.concatenate([
        hermitian_eig(interior.hamiltonian).eigenvalues.ravel(),
        hermitian_eig(edges.hamiltonian).eigenvalues[0],
    ]))
    tol = 1e-6
    e_plus = np.array([level.energy_plus for level in analytic.levels])
    e_minus = np.array([level.energy_minus for level in analytic.levels])
    near_plus, near_minus = _nearest(eigenvalues, e_plus), _nearest(eigenvalues, e_minus)
    resid_plus, resid_minus = np.abs(near_plus - e_plus), np.abs(near_minus - e_minus)
    checks = []
    rows = []
    for i, level in enumerate(analytic.levels):
        checks.append(entry(f"level_k{level.k}_plus_residual", resid_plus[i], tol))
        checks.append(entry(f"level_k{level.k}_minus_residual", resid_minus[i], tol))
        rows.append([
            level.k,
            level.energy_plus, near_plus[i], resid_plus[i],
            level.energy_minus, near_minus[i], resid_minus[i],
            level.multiplicity,
        ])
    checks.append(entry("pairing_max_residual", np.max(np.abs(near_plus + near_minus)), 1e-8))
    return {
        "results": {
            "omega_c": analytic.omega_c,
            "pz": cfg["pz"],
            "n_max": cfg["n_max"],
            "matrix_dimension": interior.levels.size + edges.levels.size,
            "edge_states": edges.levels[1].size,
            "truncation_margin": cfg["n_max"] - cfg["k_max"],
            "counted_multiplicity_plus": _count_within(eigenvalues, e_plus, tol).tolist(),
            "counted_multiplicity_minus": _count_within(eigenvalues, e_minus, tol).tolist(),
        },
        "checks": checks,
        "csv_header": [
            "k",
            "E_plus_analytic", "E_plus_numeric", "residual_plus",
            "E_minus_analytic", "E_minus_numeric", "residual_minus",
            "multiplicity",
        ],
        "csv_rows": rows,
    }


def _cmd_coulomb(cfg: dict, params: PhysicalParams) -> dict:
    if cfg["n_levels"] < 1:
        raise UsageError("n_levels must be at least 1")
    grid = RadialGrid(r_max=cfg["r_max"], n_points=cfg["n_points"])
    spectrum = coulomb_radial_spectrum(cfg["z"], cfg["l"], grid, params, cfg["n_levels"])
    rest = params.m0 * params.c**2
    checks = []
    rows = []
    for i, e_num in enumerate(spectrum.energies_plus):
        n = spectrum.l + 1 + i
        binding = params.m0 * cfg["z"] ** 2 / (2.0 * params.hbar**2 * n**2)
        e_closed = rest - binding
        rel = abs(e_num - e_closed) / max(abs(e_closed), binding)
        checks.append(entry(f"level_n{n}_relative_error", rel, 1e-3))
        rows.append([n, float(e_num), e_closed, rel, float(spectrum.energies_minus[i])])
    return {
        "results": {
            "z": cfg["z"],
            "l": cfg["l"],
            "grid_spacing": grid.spacing,
            "n_points": cfg["n_points"],
        },
        "checks": checks,
        "csv_header": ["n", "E_plus_numeric", "E_plus_closed", "relative_error", "E_minus_numeric"],
        "csv_rows": rows,
    }


def _cmd_zitter(cfg: dict, params: PhysicalParams) -> dict:
    if cfg["n_samples"] < 64:
        raise UsageError("n_samples must be at least 64")
    if not cfg["t_max"] > 0.0:
        raise UsageError("t_max must be positive")
    basis = dirac_representation()
    observables = {
        "alpha1": basis.alpha[0],
        "alpha2": basis.alpha[1],
        "alpha3": basis.alpha[2],
        "beta": basis.beta,
        "ibgamma5": basis.i_beta_gamma5,
    }
    sup = Superposition.from_weights(cfg["p"], cfg["weights"], params, which="nonrel")
    series = observable_series(sup, observables[cfg["observable"]],
                               cfg["t_max"], cfg["n_samples"], params)
    measured = dominant_frequency(series)
    energies = sup.distinct_energies()
    gaps = sorted(
        abs(a - b) / params.hbar
        for i, a in enumerate(energies)
        for b in energies[:i]
    )
    if gaps:
        analytic = gaps[-1]
        # no peak reads as a measured frequency of 0: relative error 1, failing
        rel = min(abs((measured or 0.0) - g) / g for g in gaps)
        checks = [entry("frequency_relative_error", rel, 0.01)]
    else:
        analytic = 0.0
        checks = [entry("no_oscillation_expected", 0.0 if measured is None else 1.0, 0.5)]
    return {
        "results": {
            "observable": cfg["observable"],
            "measured_omega": measured,
            "analytic_omega": analytic,
            "distinct_energies": [float(e) for e in energies],
            "t_max": cfg["t_max"],
            "n_samples": cfg["n_samples"],
        },
        "checks": checks,
        "csv_header": ["t", "value"],
        "csv_rows": [[s.t, s.value] for s in series],
    }


def _sweep_momenta(count: int, pmax: float) -> np.ndarray:
    """Deterministic directions on a golden-angle spiral, |p| = j pmax/count."""
    golden = np.pi * (3.0 - np.sqrt(5.0))
    j = np.arange(1, count + 1)
    cos_t = 1.0 - 2.0 * (j - 0.5) / count
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    phi = golden * j
    direction = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=-1)
    return (j * pmax / count)[:, None] * direction


def _cmd_lorentz(cfg: dict, params: PhysicalParams) -> dict:
    if cfg["sweep"] < 0:
        raise UsageError("sweep must be nonnegative")
    if cfg["sweep"] > 0:
        if not cfg["pmax"] > 0.0:
            raise UsageError("pmax must be positive")
        branches = (-1, 1)
        momenta = _sweep_momenta(cfg["sweep"], cfg["pmax"])[:, None, :]
        report = correspondence_check(momenta, params, np.array(branches))
        # one check per (momentum, branch): worst of the two labels
        worst = np.maximum(*(e.residual for e in report.entries))
        tolerance = report.entries[0].tolerance
        checks = [
            entry(f"p{j:03d}_branch{branch:+d}_correspondence", residual, tolerance)
            for j, row in enumerate(worst, start=1)
            for branch, residual in zip(branches, row)
        ]
        header, rows = _checks_table(checks)
        return {
            "results": {"mode": "correspondence_sweep", "sweep": cfg["sweep"], "pmax": cfg["pmax"]},
            "checks": checks,
            "csv_header": header,
            "csv_rows": rows,
        }
    e_out, p_out = lorentz_transform(cfg["e_prime"], cfg["p_prime"], cfg["v"], params)
    e_back, p_back = lorentz_transform(e_out, p_out, tuple(-x for x in cfg["v"]), params)
    roundtrip = max(
        abs(e_back - cfg["e_prime"]),
        float(np.max(np.abs(p_back - np.asarray(cfg["p_prime"])))),
    )
    checks = [entry("roundtrip_residual", roundtrip, 1e-12)]
    return {
        "results": {
            "mode": "transform",
            "e": e_out,
            "p": [float(x) for x in p_out],
            "e_prime": cfg["e_prime"],
            "p_prime": list(cfg["p_prime"]),
            "v": list(cfg["v"]),
        },
        "checks": checks,
        "csv_header": ["E", "px", "py", "pz", "roundtrip_residual"],
        "csv_rows": [[e_out, *map(float, p_out), roundtrip]],
    }


def _cmd_reduction(cfg: dict, params: PhysicalParams) -> dict:
    if cfg["trials"] < 1:
        raise UsageError("trials must be at least 1")
    rng = np.random.default_rng(cfg["seed"])
    rest = params.m0 * params.c**2
    p, v0, phi = draw_reduction_trials(rng, cfg["trials"])
    e_trial = v0 + rest + np.sum(p * p, axis=-1) / (2.0 * params.m0)
    if cfg["wrong_energy"]:
        e_trial += 0.2 * rest
    report = pauli_reduction_check(p, v0, e_trial, params, phi=phi)
    failed = np.zeros(cfg["trials"], dtype=bool)
    for e in report.entries:
        failed |= ~e.passed
    # one check per entry: its worst trial
    checks = [entry(e.name, np.max(e.residual), e.tolerance) for e in report.entries]
    header, rows = _checks_table(checks)
    return {
        "results": {
            "trials": cfg["trials"],
            "wrong_energy": cfg["wrong_energy"],
            "failed_trials": int(np.sum(failed)),
        },
        "checks": checks,
        "csv_header": header,
        "csv_rows": rows,
    }


_COMMANDS = {
    "identities": _cmd_identities,
    "dispersion": _cmd_dispersion,
    "landau": _cmd_landau,
    "coulomb": _cmd_coulomb,
    "zitter": _cmd_zitter,
    "lorentz": _cmd_lorentz,
    "reduction": _cmd_reduction,
}


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
        cfg, params = _resolve(args)
        # an overflow or invalid operation raises rather than printing a
        # warning and carrying inf/nan into the report
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            payload = _COMMANDS[args.command](cfg, params)
        text = _render(args.command, cfg, params, payload)
    except (UsageError, ValueError, ConvergenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as err:
        print(f"error: input out of the floating-point range of the computation ({err})",
              file=sys.stderr)
        return EXIT_USAGE
    _write_output(text, cfg["out"])
    if all(check.passed for check in payload["checks"]):
        return EXIT_OK
    return EXIT_CHECK_FAILED
