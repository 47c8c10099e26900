"""The seven command bodies behind ``negspin.cli``; the only module that
applies a unit system.

``cli.main`` imports this module, and with it numpy, only once the flags
and config file have been cast, range-checked and resolved, so an input
the front rejects never pays for it.  The library computes in m0 = c = hbar = 1.
Each ``_cmd_*`` takes the resolved config, in the user's units, and their
scales (``cli.unit_scales``; None for ``identities`` and ``reduction``,
which have no unit system).  It divides each input by its scale on the
way in, and multiplies results, CSV columns and what its checks compare
by theirs on the way out.  It returns {"results", "checks"}, plus, for a
table of its own, "table": each header name mapped to a 1-d array or list.
"checks" is a list of ``CheckEntry``: a scalar check, or a family of them
under one tolerance (one per level, or per sweep momentum and branch) as
one entry whose name is a pattern over its residual array, with one label
sequence per axis; ``cli`` names each check of a family only as it writes
that check.
"results" holds only what the run computed: ``cli`` reports its inputs
as "params".  A body rejects, with ``ValueError``, only inputs that take
the physics to judge (a level spacing, a grid, a sampling rate): ``cli``
answers every rule on the flags alone, those relating two flags included,
and maps every failure to its exit code.
"""

from __future__ import annotations

import numpy as np

from .cli import Units
from .clifford import dirac_representation, entry, verify_identities
from .dynamics import CONSTANT_AMPLITUDE_TOL, dominant_frequency, observable_series, unit_weights
from .fields import (
    RadialGrid,
    coulomb_radial_spectrum,
    draw_reduction_uniforms,
    landau_levels_analytic,
    landau_sectors,
    pauli_reduction_check,
    reduction_trials,
)
from .matrix_core import hermitian_eig, stack_blocks
from .spectral import (
    closed_form_energies,
    correspondence_check,
    hamiltonian,
    helicity_eigenstates,
    lorentz_transform,
)


def _cmd_identities(cfg: dict, units: None) -> dict:
    checks = verify_identities(dirac_representation())
    return {"results": {"total_checks": len(checks)}, "checks": checks}


def _cmd_dispersion(cfg: dict, units: Units) -> dict:
    which, steps = cfg["which"], cfg["steps"]
    p_mag = cfg["pmax"] * np.arange(steps) / (steps - 1)
    p_natural = p_mag / units.momentum
    e_minus, e_plus = (units.energy * e for e in closed_form_energies(p_natural, which))
    # one eigensolve per block of momenta: its 4x4 temporaries take the same
    # memory at any step count, and each row equals that of one stacked solve
    eigenvalues = stack_blocks(p_natural, lambda p: units.energy * hermitian_eig(
        hamiltonian(np.outer(p, (0.0, 0.0, 1.0)), which)).eigenvalues, np.empty((steps, 4)))
    # one column at a time; np.max, unlike max, carries a NaN deviation through
    worst = np.max([np.max(np.abs(column - closed) / np.maximum(1.0, np.abs(closed)))
                    for column, closed in zip(eigenvalues.T, (e_minus, e_minus, e_plus, e_plus))])
    return {
        "results": {},
        "checks": [entry("max_relative_deviation", worst, 1e-12)],
        "table": {"p": p_mag, **dict(zip(("E1", "E2", "E3", "E4"), eigenvalues.T)),
                  "E_minus_closed": e_minus, "E_plus_closed": e_plus},
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
    # the field strength lambda = hbar q b / c, in units of (m0 c)^2
    lam = cfg["q"] * cfg["b"] * units.length / units.energy
    pz = cfg["pz"] / units.momentum
    # built first: it rejects n_max outside its range before any per-level work
    momenta = landau_sectors(lam, pz, cfg["n_max"])
    k = np.arange(cfg["k_max"] + 1)
    e_plus = units.energy * landau_levels_analytic(lam, pz, cfg["k_max"])
    e_minus = -e_plus
    tol = 1e-6
    top = float(e_plus[-1])
    if np.finfo(float).eps * top >= tol:
        raise ValueError(
            f"level k = {cfg['k_max']} sits at E = {top:.3g}, where float64 cannot resolve "
            f"the {tol:g} level tolerance"
        )
    # every level +-E(k) must stand more than 2 tol from its neighbours, the
    # next rung and the other branch, or one eigenvalue counts for several
    spacing = units.energy * abs(lam)
    branch_gap = 2.0 * float(e_plus[0])
    if not min(spacing, branch_gap) > 2.0 * tol:
        raise ValueError(
            f"levels closer than twice the {tol:g} level tolerance: ladder spacing "
            f"hbar omega_c = {spacing:.3g}, branch gap 2 E(0) = {branch_gap:.3g}"
        )
    # one eigensolve per block of sectors; sector 0 holds +-E(0) twice: the k = 0
    # level and the top edge, whose pair lost its ladder partner and is a
    # truncation artifact, so one eigenvalue per branch of it joins the matching
    solved = stack_blocks(momenta, lambda p: hermitian_eig(hamiltonian(p, "nonrel")).eigenvalues,
                          np.empty((len(momenta), 4)))
    eigenvalues = units.energy * np.sort(np.concatenate([solved[0, [0, -1]], solved[1:].ravel()]))
    near_plus, near_minus = _nearest(eigenvalues, e_plus), _nearest(eigenvalues, e_minus)
    resid_plus, resid_minus = np.abs(near_plus - e_plus), np.abs(near_minus - e_minus)
    return {
        "results": {
            "omega_c": abs(lam) / units.time,
            "matrix_dimension": solved.size,
            "edge_states": solved[0].size - 2,
            "truncation_margin": cfg["n_max"] - cfg["k_max"],
            "counted_multiplicity_plus": _count_within(eigenvalues, e_plus, tol).tolist(),
            "counted_multiplicity_minus": _count_within(eigenvalues, e_minus, tol).tolist(),
        },
        "checks": [
            entry("level_k{}_{}_residual", np.stack([resid_plus, resid_minus], axis=-1), tol,
                  (range(cfg["k_max"] + 1), ("plus", "minus"))),
            entry("pairing_max_residual", np.max(np.abs(near_plus + near_minus)), 1e-8),
        ],
        "table": {
            "k": k,
            "E_plus_analytic": e_plus, "E_plus_numeric": near_plus, "residual_plus": resid_plus,
            "E_minus_analytic": e_minus, "E_minus_numeric": near_minus,
            "residual_minus": resid_minus,
            # one (level, spin) pair reaches k = 0 and two reach every k >= 1
            "multiplicity": np.where(k == 0, 1, 2),
        },
    }


def _cmd_coulomb(cfg: dict, units: Units) -> dict:
    z = cfg["z"] / units.charge
    grid = RadialGrid(r_max=cfg["r_max"] / units.length, n_points=cfg["n_points"])
    energies = coulomb_radial_spectrum(z, cfg["l"], grid, cfg["n_levels"])
    n = list(range(cfg["l"] + 1, cfg["l"] + 1 + len(energies)))
    binding = z**2 / (2.0 * np.square(np.array(n, dtype=float)))
    e_closed = 1.0 - binding
    # a relative error: the same number in every unit system
    rel = np.abs(energies - e_closed) / np.maximum(np.abs(e_closed), binding)
    e_plus = units.energy * energies
    return {
        "results": {"grid_spacing": units.length * grid.spacing},
        "checks": [entry("level_n{}_relative_error", rel, 1e-3, (n,))],
        # E_minus_numeric is the sign-flipped copy of E_plus_numeric, not a
        # computed level: no negative-branch operator is solved
        "table": {"n": n, "E_plus_numeric": e_plus, "E_plus_closed": units.energy * e_closed,
                  "relative_error": rel, "E_minus_numeric": -e_plus},
    }


def _cmd_zitter(cfg: dict, units: Units) -> dict:
    basis = dirac_representation()
    observable = dict(zip(("alpha1", "alpha2", "alpha3", "beta", "ibgamma5"),
                          (*basis.alpha, basis.beta, basis.i_beta_gamma5)))[cfg["observable"]]
    p = np.divide(cfg["p"], units.momentum)
    states, weights = helicity_eigenstates(p, "nonrel"), unit_weights(cfg["weights"])
    # a column's branch is the sign of its energy; the parts u_- and u_+ of
    # the state on the two branches interfere at the gap E_plus - E_minus with
    # amplitude 2 |<u_-|O|u_+>|, so a mixture the observable does not couple has no gap
    upper = states.eigenvalues > 0.0
    u_minus, u_plus = (states.eigenvectors @ np.where(b, weights, 0.0) for b in (~upper, upper))
    amplitude = 2.0 * abs(u_minus.conj() @ observable @ u_plus)
    coupled = amplitude > CONSTANT_AMPLITUDE_TOL
    # a branch is present where a weight as given is nonzero, even one that
    # scales to zero beside a weight over 2^1074 times larger
    present = np.asarray(cfg["weights"]) != 0.0
    e_minus, e_plus = closed_form_energies(np.linalg.norm(p), "nonrel")
    gap, t_max = e_plus - e_minus, cfg["t_max"] / units.time
    # observable_series rejects n_samples and t_max out of range
    times, values = observable_series(states, weights, observable, t_max, cfg["n_samples"])
    fit = dominant_frequency(times, values)
    measured, error = (None, None) if fit is None else (fit[0] / units.time, fit[1])
    tol = 0.01
    if coupled:
        step = gap * t_max / cfg["n_samples"]
        if step >= np.pi:
            raise ValueError(f"undersampled series: the gap frequency aliases at omega dt = {step:.6g} "
                             f">= pi; use n_samples > {int(gap * t_max / np.pi)} or a shorter t_max")
        # the fit's own standard error judges it; a flat series places no gap
        if fit is None or error >= tol:
            raise ValueError(f"ill-conditioned series: omega dt = {step:.3g} leaves the fit a relative "
                             f"standard error of {np.inf if fit is None else error:.3g}, not below "
                             f"the {tol:g} tolerance; use fewer samples or a longer t_max")
        analytic = gap / units.time
        checks = [entry("frequency_relative_error", abs(measured - analytic) / analytic, tol)]
    else:
        analytic = 0.0
        # uncoupled means an amplitude A at most the gate, not zero: the series
        # may move by up to 2 A about its mean, enough for a fit to place the
        # gap, so only a move beyond A plus the gate fails
        moved = np.max(np.abs(values - values.mean())) > amplitude + CONSTANT_AMPLITUDE_TOL
        checks = [entry("no_oscillation_expected", 1.0 if moved else 0.0, 0.5)]
    return {
        "results": {
            "measured_omega": measured,
            "analytic_omega": analytic,
            "frequency_standard_error": error,
            "distinct_energies": [units.energy * e for e, branch in
                                  ((e_minus, ~upper), (e_plus, upper)) if present[branch].any()],
        },
        "checks": checks,
        "table": {"t": units.time * times, "value": values},
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
    if cfg["sweep"] > 0:
        momenta = _sweep_momenta(cfg["sweep"], cfg["pmax"] / units.momentum)
        residual = np.empty((len(momenta), 2))
        for block in stack_blocks(momenta):
            report = correspondence_check(momenta[block])
            residual[block] = report.residual
        return {"results": {"mode": "correspondence_sweep"},
                "checks": [entry("p{:03d}_branch{}_correspondence", residual, report.tolerance,
                                 (range(1, len(momenta) + 1), ("-1", "+1")))]}
    v = np.divide(cfg["v"], units.velocity)
    e_prime, p_prime = cfg["e_prime"] / units.energy, np.divide(cfg["p_prime"], units.momentum)
    e_out, p_out = lorentz_transform(e_prime, p_prime, v)
    e_back, p_back = lorentz_transform(e_out, p_out, -v)
    # dimensionless: the round trip's error over the pair's size times the
    # boost's 2-norm condition number (1 + |v|) / (1 - |v|), its singular
    # values being e^(+-rapidity); written (1 + |v|)^2 / (1 - |v|^2), it is
    # finite wherever the transform accepted |v|^2 < 1
    v2 = float(v @ v)
    scale = (1.0 + np.sqrt(v2)) ** 2 / (1.0 - v2) * max(1.0, abs(e_prime), np.max(np.abs(p_prime)))
    roundtrip = float(max(abs(e_back - e_prime), np.max(np.abs(p_back - p_prime))) / scale)
    e_out, p_out = units.energy * e_out, units.momentum * p_out
    return {
        "results": {"mode": "transform", "e": e_out, "p": [float(x) for x in p_out]},
        "checks": [entry("roundtrip_residual", roundtrip, 1e-12)],
        "table": {"E": [e_out], **{f"p{axis}": [float(x)] for axis, x in zip("xyz", p_out)},
                  "roundtrip_residual": [roundtrip]},
    }


def _cmd_reduction(cfg: dict, units: None) -> dict:
    """The chain's only scale is m0 c^2, so the trials are drawn in units of
    m0 c and m0 c^2 and the command has no unit system.  Only the uniforms are
    held for the whole run: each trial is independent, so the chain derives
    and runs STACK_BLOCK trials at a time from their rows, and keeps only
    each entry's worst residual and the count of failed trials."""
    uniforms = draw_reduction_uniforms(cfg["seed"], cfg["trials"])
    offset = 0.2 if cfg["wrong_energy"] else 0.0
    worst, failed = 0.0, 0
    for block in stack_blocks(uniforms):
        p, v0, phi = reduction_trials(uniforms[block])
        e_trial = v0 + 1.0 + np.sum(p * p, axis=-1) / 2.0 + offset
        chain = pauli_reduction_check(p, v0, e_trial, phi=phi)
        # np.maximum, unlike max or np.fmax, carries a NaN residual through
        worst = np.maximum(worst, [np.max(e.residual) for e in chain])
        failed += int(np.sum(~np.logical_and.reduce([e.passed for e in chain])))
    # one check per entry: its worst trial
    checks = [entry(e.name, r, e.tolerance) for e, r in zip(chain, worst)]
    return {"results": {"failed_trials": failed}, "checks": checks}


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
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return _COMMANDS[command](cfg, units)
