"""The seven command bodies behind ``negspin.cli``; the only module that
applies a unit system.

``cli.main`` imports this module, and with it numpy, only once the flags
and config file have been cast and resolved, so an input the front
rejects never pays for it.  The library computes in m0 = c = hbar = 1.
Each ``_cmd_*`` takes the resolved config, in the user's units, and their
scales (``cli.unit_scales``; None for ``identities`` and ``reduction``,
which have no unit system).  It divides each input by its scale on the
way in, and multiplies results, CSV columns and what its checks compare
by theirs on the way out.  It returns {"results", "checks"}, plus
"csv_header" and "csv_rows" if it has a table of its own, for ``cli``.
"""

from __future__ import annotations

import numpy as np

from .cli import Units, UsageError
from .clifford import (
    dirac_representation,
    entry,
    verify_clifford_identities,
    verify_gamma_properties,
)
from .dynamics import (CONSTANT_AMPLITUDE_TOL, MIN_SAMPLES, Superposition, dominant_frequency,
                       observable_series)
from .fields import (
    MIN_OSCILLATOR_LEVELS,
    RadialGrid,
    coulomb_radial_spectrum,
    draw_reduction_uniforms,
    landau_levels_analytic,
    landau_sectors,
    pauli_reduction_check,
    reduction_trials,
)
from .matrix_core import ConvergenceError, hermitian_eig
from .spectral import (
    closed_form_energies,
    correspondence_check,
    hamiltonian,
    lorentz_transform,
)

# zitter rejects a window where eps / (A (omega dt)^3) tops this, for an
# oscillation of amplitude A at step dt: at this limit, over 2800 random states
# and observables at 16 to 4096 samples, dominant_frequency erred by 4.8e-4 at most
CONDITIONING_LIMIT = 1e-5
# trials per pauli_reduction_check call in reduction: the chain's 4x4
# temporaries take O(block) memory however many trials are asked for
REDUCTION_BLOCK = 256


def _cmd_identities(cfg: dict, units: None) -> dict:
    basis = dirac_representation()
    checks = [*verify_clifford_identities(basis), *verify_gamma_properties(basis)]
    return {"results": {"total_checks": len(checks)}, "checks": checks}


def _cmd_dispersion(cfg: dict, units: Units) -> dict:
    if cfg["steps"] < 2:
        raise UsageError("steps must be at least 2")
    if not cfg["pmax"] > 0.0:
        raise UsageError("pmax must be positive")
    which = cfg["which"]
    p_mag = cfg["pmax"] * np.arange(cfg["steps"]) / (cfg["steps"] - 1)
    p_natural = p_mag / units.momentum
    e_minus, e_plus = (units.energy * e for e in closed_form_energies(p_natural, which))
    momenta = np.outer(p_natural, (0.0, 0.0, 1.0))
    eigenvalues = units.energy * hermitian_eig(hamiltonian(momenta, which)).eigenvalues
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


def _cmd_landau(cfg: dict, units: Units) -> dict:
    if cfg["k_max"] > cfg["n_max"] - 4:
        raise UsageError(
            f"k_max = {cfg['k_max']} is not interior for n_max = {cfg['n_max']}; "
            f"raise n_max to at least {max(cfg['k_max'] + 4, MIN_OSCILLATOR_LEVELS)}"
        )
    if not cfg["b"] > 0.0:
        raise UsageError("field magnitude b must be positive")
    # the field strength lambda = hbar q b / c, in units of (m0 c)^2
    lam = cfg["q"] * cfg["b"] * units.length / units.energy
    pz = cfg["pz"] / units.momentum
    # built first: it rejects n_max outside its range before any per-level work
    blocks = landau_sectors(lam, pz, cfg["n_max"])
    k = np.arange(cfg["k_max"] + 1)
    e_plus = units.energy * landau_levels_analytic(lam, pz, cfg["k_max"])
    e_minus = -e_plus
    tol = 1e-6
    top = float(e_plus[-1])
    if np.finfo(float).eps * top >= tol:
        raise UsageError(
            f"level k = {cfg['k_max']} sits at E = {top:.3g}, where float64 cannot resolve "
            f"the {tol:g} level tolerance"
        )
    # every level +-E(k) must stand more than 2 tol from its neighbours, the
    # next rung and the other branch, or one eigenvalue counts for several
    spacing = units.energy * abs(lam)
    branch_gap = 2.0 * float(e_plus[0])
    if not min(spacing, branch_gap) > 2.0 * tol:
        raise UsageError(
            f"levels closer than twice the {tol:g} level tolerance: ladder spacing "
            f"hbar omega_c = {spacing:.3g}, branch gap 2 E(0) = {branch_gap:.3g}"
        )
    # block 0 holds +-E(0) twice: the k = 0 level and the top edge, whose
    # pair lost its ladder partner and is a truncation artifact, so one
    # eigenvalue per branch of it joins the level matching
    solved = hermitian_eig(blocks).eigenvalues
    eigenvalues = units.energy * np.sort(np.concatenate([solved[0, [0, -1]], solved[1:].ravel()]))
    near_plus, near_minus = _nearest(eigenvalues, e_plus), _nearest(eigenvalues, e_minus)
    resid_plus, resid_minus = np.abs(near_plus - e_plus), np.abs(near_minus - e_minus)
    checks = []
    for level, r_plus, r_minus in zip(k, resid_plus, resid_minus):
        checks.append(entry(f"level_k{level}_plus_residual", r_plus, tol))
        checks.append(entry(f"level_k{level}_minus_residual", r_minus, tol))
    checks.append(entry("pairing_max_residual", np.max(np.abs(near_plus + near_minus)), 1e-8))
    return {
        "results": {
            "omega_c": abs(lam) / units.time,
            "pz": cfg["pz"],
            "n_max": cfg["n_max"],
            "matrix_dimension": solved.size,
            "edge_states": solved[0].size - 2,
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
        # one (level, spin) pair reaches k = 0 and two reach every k >= 1
        "csv_rows": list(zip(
            k, e_plus, near_plus, resid_plus, e_minus, near_minus, resid_minus,
            np.where(k == 0, 1, 2),
        )),
    }


def _cmd_coulomb(cfg: dict, units: Units) -> dict:
    z = cfg["z"] / units.charge
    grid = RadialGrid(r_max=cfg["r_max"] / units.length, n_points=cfg["n_points"])
    energies = coulomb_radial_spectrum(z, cfg["l"], grid, cfg["n_levels"])
    checks = []
    rows = []
    for i, e_num in enumerate(energies):
        n = cfg["l"] + 1 + i
        binding = z**2 / (2.0 * n**2)
        e_closed = 1.0 - binding
        # a relative error: the same number in every unit system
        rel = abs(e_num - e_closed) / max(abs(e_closed), binding)
        checks.append(entry(f"level_n{n}_relative_error", rel, 1e-3))
        # E_minus_numeric is the sign-flipped copy of E_plus_numeric, not a
        # computed level: no negative-branch operator is solved
        e_num = units.energy * float(e_num)
        rows.append([n, e_num, units.energy * e_closed, rel, -e_num])
    return {
        "results": {
            "z": cfg["z"],
            "l": cfg["l"],
            "grid_spacing": units.length * grid.spacing,
            "n_points": cfg["n_points"],
        },
        "checks": checks,
        "csv_header": ["n", "E_plus_numeric", "E_plus_closed", "relative_error", "E_minus_numeric"],
        "csv_rows": rows,
    }


def _check_sampling(t_max: float, n_samples: int, omega: float, amplitude: float) -> None:
    """Reject a series on which ``dominant_frequency`` cannot place the gap
    frequency ``omega`` of an oscillation of ``amplitude`` within 1e-2."""
    step = omega * t_max / n_samples
    if step >= np.pi:
        raise UsageError(f"undersampled series: the gap frequency aliases at omega dt = {step:.6g} "
                         f">= pi; use n_samples > {int(omega * t_max / np.pi)} or a shorter t_max")
    floor = (np.finfo(float).eps / (CONDITIONING_LIMIT * amplitude)) ** (1.0 / 3.0)
    if step < floor:
        raise UsageError(f"ill-conditioned series: omega dt = {step:.3g} is below the float64 "
                         f"floor {floor:.3g} at amplitude {amplitude:.3g}; use n_samples <= "
                         f"{int(omega * t_max / floor)} or a longer t_max")


def _cmd_zitter(cfg: dict, units: Units) -> dict:
    # as in observable_series, but before _check_sampling divides by n_samples
    if cfg["n_samples"] < MIN_SAMPLES:
        raise UsageError(f"n_samples must be at least {MIN_SAMPLES}")
    if not cfg["t_max"] > 0.0:
        raise UsageError("t_max must be positive")
    basis = dirac_representation()
    observable = dict(zip(("alpha1", "alpha2", "alpha3", "beta", "ibgamma5"),
                          (*basis.alpha, basis.beta, basis.i_beta_gamma5)))[cfg["observable"]]
    p = np.divide(cfg["p"], units.momentum)
    sup = Superposition.from_weights(p, cfg["weights"], which="nonrel")
    # a component's branch is the sign of its energy; the parts u_- and u_+ of
    # the state on the two branches interfere at the gap E_plus - E_minus with
    # amplitude 2 |<u_-|O|u_+>|, so a mixture the observable does not couple has no gap
    upper = sup.energies > 0.0
    u_minus, u_plus = (sup.spinors @ np.where(b, sup.coefficients, 0.0) for b in (~upper, upper))
    amplitude = 2.0 * abs(u_minus.conj() @ observable @ u_plus)
    e_minus, e_plus = closed_form_energies(np.linalg.norm(p), "nonrel")
    t_max = cfg["t_max"] / units.time
    coupled = amplitude > CONSTANT_AMPLITUDE_TOL
    if coupled:
        _check_sampling(t_max, cfg["n_samples"], e_plus - e_minus, amplitude)
    times, values = observable_series(sup, observable, t_max, cfg["n_samples"])
    measured = dominant_frequency(times, values)
    if measured is not None:
        measured /= units.time
    if coupled:
        analytic = (e_plus - e_minus) / units.time
        # a flat series reads as a measured frequency of 0: relative error 1, failing
        rel = abs((measured or 0.0) - analytic) / analytic
        checks = [entry("frequency_relative_error", rel, 0.01)]
    else:
        analytic = 0.0
        checks = [entry("no_oscillation_expected", 0.0 if measured is None else 1.0, 0.5)]
    return {
        "results": {
            "observable": cfg["observable"],
            "measured_omega": measured,
            "analytic_omega": analytic,
            "distinct_energies": [units.energy * e for e, present in
                                  ((e_minus, not upper.all()), (e_plus, upper.any())) if present],
            "t_max": cfg["t_max"],
            "n_samples": cfg["n_samples"],
        },
        "checks": checks,
        "csv_header": ["t", "value"],
        "csv_rows": np.column_stack([units.time * times, values]).tolist(),
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


def _cmd_lorentz(cfg: dict, units: Units) -> dict:
    if cfg["sweep"] < 0:
        raise UsageError("sweep must be nonnegative")
    if cfg["sweep"] > 0:
        if not cfg["pmax"] > 0.0:
            raise UsageError("pmax must be positive")
        momenta = _sweep_momenta(cfg["sweep"], cfg["pmax"] / units.momentum)
        report = correspondence_check(momenta)
        checks = [
            entry(f"p{j:03d}_branch{branch:+d}_correspondence", residual, report.tolerance)
            for j, row in enumerate(report.residual, start=1)
            for branch, residual in zip((-1, 1), row)
        ]
        results = {"mode": "correspondence_sweep", "sweep": cfg["sweep"], "pmax": cfg["pmax"]}
        return {"results": results, "checks": checks}
    v = np.divide(cfg["v"], units.velocity)
    e_out, p_out = lorentz_transform(
        cfg["e_prime"] / units.energy, np.divide(cfg["p_prime"], units.momentum), v)
    e_back, p_back = lorentz_transform(e_out, p_out, -v)
    e_out, p_out = units.energy * e_out, units.momentum * p_out
    roundtrip = max(
        abs(units.energy * e_back - cfg["e_prime"]),
        float(np.max(np.abs(units.momentum * p_back - np.asarray(cfg["p_prime"])))),
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


def _cmd_reduction(cfg: dict, units: None) -> dict:
    """The chain's only scale is m0 c^2, so the trials are drawn in units of
    m0 c and m0 c^2 and the command has no unit system.  Only the uniforms are
    held for the whole run: each trial is independent, so the chain derives
    and runs REDUCTION_BLOCK trials at a time from their rows, and keeps only
    each entry's worst residual and the count of failed trials."""
    if cfg["trials"] < 1:
        raise UsageError("trials must be at least 1")
    if cfg["seed"] < 0:
        raise UsageError("seed must be nonnegative")
    trials = cfg["trials"]
    uniforms = draw_reduction_uniforms(cfg["seed"], trials)
    offset = 0.2 if cfg["wrong_energy"] else 0.0
    worst, failed = 0.0, 0
    for start in range(0, trials, REDUCTION_BLOCK):
        p, v0, phi = reduction_trials(uniforms[start:start + REDUCTION_BLOCK])
        e_trial = v0 + 1.0 + np.sum(p * p, axis=-1) / 2.0 + offset
        chain = pauli_reduction_check(p, v0, e_trial, phi=phi)
        # np.maximum, unlike max or np.fmax, carries a NaN residual through
        worst = np.maximum(worst, [np.max(e.residual) for e in chain])
        failed += int(np.sum(~np.logical_and.reduce([e.passed for e in chain])))
    # one check per entry: its worst trial
    checks = [entry(e.name, r, e.tolerance) for e, r in zip(chain, worst)]
    return {
        "results": {
            "trials": trials,
            "wrong_energy": cfg["wrong_energy"],
            "failed_trials": failed,
        },
        "checks": checks,
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


def run(command: str, cfg: dict, units: Units | None) -> dict:
    """Run one command on its resolved config and units; return its payload."""
    # an overflow or invalid operation raises rather than printing a
    # warning and carrying inf/nan into the report
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[command](cfg, units)
    except ConvergenceError as err:
        raise UsageError(str(err)) from err
