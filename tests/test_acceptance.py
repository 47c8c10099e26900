"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
directly; every criterion is also a hard assertion, so the suite fails loudly
if any gate is missed.
"""

import json

import numpy as np
import pytest

from negspin.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from negspin.clifford import dirac_representation, verify_identities
from negspin.dynamics import dominant_frequency, observable_series, unit_weights
from negspin.fields import (
    RadialGrid,
    coulomb_radial_spectrum,
    landau_levels_analytic,
    pauli_reduction_check,
)
from negspin.matrix_core import expect, hermitian_eig, residual_norm
from negspin.spectral import (
    closed_form_energies,
    correspondence_check,
    hamiltonian,
    helicity_eigenstates,
)
from oracles import (
    all_passed,
    disc_spinor,
    entry_named,
    landau_hamiltonian_matrix,
    square_identity_check,
)

BASIS = dirac_representation()


def verdict(label: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_operator_identities_hold_exactly():
    """All representation identities, including the singular projector, at 1e-14."""
    entries = verify_identities(BASIS)
    worst = max(e.residual for e in entries if e.name != "gamma1_smallest_singular_value")
    singular = entry_named(entries, "gamma1_smallest_singular_value").residual
    ok = (
        len(entries) == 21
        and all(e.passed for e in entries)
        and worst < 1e-14
        and singular < 1e-14
    )
    verdict(
        "operator identity table (21 checks, tol 1e-14)",
        ok,
        f"worst residual {worst:.2e}, min singular value {singular:.2e}",
    )


def test_free_spectra_match_closed_forms():
    """Eigenvalues over 50 momenta with |p| in [0, 5] against the closed
    forms, plus the squared-operator identity, both at 1e-12 relative."""
    rng = np.random.default_rng(101)
    momenta = []
    for mag in np.linspace(0.0, 5.0, 50):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        momenta.append(mag * direction)
    worst_rel = 0.0
    worst_square = 0.0
    for which in ("dirac", "nonrel"):
        for p in momenta:
            h = hamiltonian(p, which)
            ev = hermitian_eig(h).eigenvalues
            em, ep = closed_form_energies(float(np.linalg.norm(p)), which)
            target = np.array([em, em, ep, ep])
            worst_rel = max(worst_rel, float(np.max(np.abs(ev - target) / np.abs(target))))
            sq = residual_norm(h @ h, ep**2 * np.eye(4)) / ep**2
            worst_square = max(worst_square, sq)
    ok = worst_rel < 1e-12 and worst_square < 1e-12
    verdict(
        "free spectra, 50 momenta |p| <= 5, both kinds (tol 1e-12)",
        ok,
        f"eigenvalue rel {worst_rel:.2e}, squared-operator rel {worst_square:.2e}",
    )


def test_eigenstate_expectations_and_boost_correspondence():
    """Mean-value identities on all labeled states plus the velocity-boost
    reassembly from explicit eigenstates, 20 momenta, 1e-10."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        p = rng.uniform(-2.0, 2.0, 3)
        p2 = float(p @ p)
        for which in ("dirac", "nonrel"):
            states = helicity_eigenstates(p, which)
            for j in range(4):  # every (branch, helicity) column
                e, psi = states.eigenvalues[j], states.eigenvectors[:, j]
                scale = max(1.0, abs(e))
                mean_alpha = np.array([expect(psi, a) for a in BASIS.alpha])
                worst = max(worst, float(np.max(np.abs(mean_alpha - p / e))) / scale)
                worst = max(worst, abs(expect(psi, BASIS.beta) - 1.0 / e) / scale)
                want_s = p2 / (2.0 * e) if which == "nonrel" else 0.0
                worst = max(worst, abs(expect(psi, BASIS.i_beta_gamma5) - want_s) / scale)
    worst_corr = 0.0
    corr_ok = True
    for _ in range(20):
        p = rng.uniform(-2.0, 2.0, 3)
        report = correspondence_check(p)  # one residual per branch
        corr_ok = corr_ok and all_passed([report])
        worst_corr = max(worst_corr, float(np.max(report.residual)))
    ok = worst < 1e-10 and corr_ok and worst_corr < 1e-10
    verdict(
        "expectation identities + boost correspondence (tol 1e-10)",
        ok,
        f"worst expectation {worst:.2e}, worst correspondence {worst_corr:.2e}",
    )


def test_magnetic_ladder_matches_truncated_matrix():
    """Levels k <= 3 at 1e-6 across field/axial-momentum grid, pairing at 1e-8,
    interior squared-operator identity at 1e-10."""
    worst_level = 0.0
    worst_pair = 0.0
    worst_square = 0.0
    for b in (1.0, 2.0):
        for pz in (0.0, 1.0):
            lam = -b  # hbar q b / c at q = -1
            analytic = landau_levels_analytic(lam, pz, 3)
            ev = hermitian_eig(landau_hamiltonian_matrix(lam, pz, 40)).eigenvalues
            for e_plus in analytic:
                worst_level = max(worst_level, float(np.min(np.abs(ev - e_plus))))
                worst_level = max(worst_level, float(np.min(np.abs(ev + e_plus))))
            ordered = np.sort(ev)
            worst_pair = max(worst_pair, float(np.max(np.abs(ordered + ordered[::-1]))))
            report = square_identity_check(lam, pz, 40)
            worst_square = max(worst_square,
                               entry_named(report, "square_identity_interior").residual)
    ok = worst_level < 1e-6 and worst_pair < 1e-8 and worst_square < 1e-10
    verdict(
        "magnetic ladder k<=3 on (b, pz) grid (tol 1e-6 / 1e-8 / 1e-10)",
        ok,
        f"level {worst_level:.2e}, pairing {worst_pair:.2e}, square {worst_square:.2e}",
    )


def test_radial_levels_match_closed_form_at_second_order():
    """First three bound levels at 1e-3 on the coulomb command's default grid,
    and error ratio approximately 4 under exact grid-spacing halving."""
    energies = coulomb_radial_spectrum(1.0, 0, RadialGrid(60.0, 6000), 3)
    worst_rel = 0.0
    for i, e_num in enumerate(energies):
        n = i + 1
        closed = 1.0 - 1.0 / (2.0 * n * n)
        worst_rel = max(worst_rel, abs(e_num - closed) / abs(closed))
    errs = []
    for n_points in (6000, 12001):
        ground = coulomb_radial_spectrum(1.0, 0, RadialGrid(60.0, n_points), 1)[0]
        errs.append(abs(ground - 0.5))
    ratio = errs[0] / errs[1]
    ok = worst_rel < 1e-3 and 3.5 <= ratio <= 4.5
    verdict(
        "radial levels n=1..3 (tol 1e-3) with h^2 convergence (ratio 4 +- 0.5)",
        ok,
        f"worst rel {worst_rel:.2e}, halving ratio {ratio:.3f}",
    )


def test_reduction_chain_on_random_draws():
    """Whole rearrangement chain on 100 seeded draws at 1e-10, plus a
    negative control with a wrong trial energy."""
    rng = np.random.default_rng(303)
    worst = 0.0
    all_pass = True
    first_draw = None
    for _ in range(100):
        p = rng.uniform(-2.0, 2.0, 3)
        v0 = float(rng.uniform(-1.0, 1.0))
        phi = disc_spinor(rng, 2)
        e_trial = v0 + 1.0 + float(p @ p) / 2.0
        if first_draw is None:
            first_draw = (p, v0, phi, e_trial)
        report = pauli_reduction_check(p, v0, e_trial, phi=phi)
        all_pass = all_pass and all_passed(report)
        for e in report:
            if e.name != "nullspace_dimension":
                worst = max(worst, e.residual)
    p, v0, phi, e_trial = first_draw
    control = pauli_reduction_check(p, v0, e_trial + 0.2, phi=phi)
    ok = all_pass and worst < 1e-10 and not all_passed(control)
    verdict(
        "reduction chain on 100 draws (tol 1e-10) with failing control",
        ok,
        f"worst residual {worst:.2e}, control fails: {not all_passed(control)}",
    )


def test_interference_frequency_tracks_energy_gap():
    """Measured oscillation at the branch gap 2 + p^2: 3.0 at unit momentum,
    2.0001 toward 2.0 at small momentum, absent for a single eigenstate.
    1e-12 relative gates."""
    basis = dirac_representation()
    obs = basis.alpha[2]
    unit, small = (helicity_eigenstates(p, "nonrel") for p in ((0.0, 0.0, 1.0), (0.0, 0.0, 0.01)))
    mixed, single = unit_weights((0.0, 1.0, 0.0, 1.0)), unit_weights((0.0, 0.0, 0.0, 1.0))
    fit_unit = dominant_frequency(*observable_series(unit, mixed, obs, 20.0, 512))
    fit_small = dominant_frequency(*observable_series(small, mixed, obs, 40.0, 512))
    omega_none = dominant_frequency(*observable_series(unit, single, obs, 20.0, 512))
    # a fit is (omega, relative standard error)
    rel_unit = abs(fit_unit[0] - 3.0) / 3.0 if fit_unit else np.inf
    rel_small = abs(fit_small[0] - 2.0001) / 2.0001 if fit_small else np.inf
    ok = rel_unit < 1e-12 and rel_small < 1e-12 and omega_none is None
    verdict(
        "interference frequency 3.0 / 2.0001 near the limit 2.0 / eigenstate silent (1e-12)",
        ok,
        f"rel err {rel_unit:.2e} and {rel_small:.2e}, eigenstate: {omega_none}",
    )


# (passing invocation, failing invocation, expected failing exit code)
CLI_MATRIX = {
    "identities": ([], ["--m0", "2.0"], EXIT_USAGE),
    "dispersion": (["--steps", "9"], ["--steps", "1"], EXIT_USAGE),
    "landau": (["--n-max", "24", "--k-max", "2"], ["--n-max", "10", "--k-max", "9"], EXIT_USAGE),
    "coulomb": ([], ["--n-points", "100"], EXIT_USAGE),
    # sampled at omega dt = 46.9 > pi, where the gap aliases, the series is rejected
    "zitter": ([], ["--t-max", "1000", "--n-samples", "64"], EXIT_USAGE),
    "lorentz": (["--v", "0.6,0,0"], ["--v", "1.5,0,0"], EXIT_USAGE),
    "reduction": (["--trials", "25"], ["--trials", "2", "--wrong-energy"], EXIT_CHECK_FAILED),
}


def test_cli_contract_and_determinism(tmp_path, capsys):
    """Every command: a passing run (exit 0, well-formed report, byte-identical
    rerun) and a failing run with the documented nonzero exit code."""
    ok = True
    details = []
    for command, (good, bad, bad_code) in CLI_MATRIX.items():
        first = tmp_path / f"{command}_a.json"
        second = tmp_path / f"{command}_b.json"
        code_a = main([command, *good, "--out", str(first)])
        code_b = main([command, *good, "--out", str(second)])
        report = json.loads(first.read_text())
        shape_ok = set(report) == {"command", "params", "results", "checks", "version"}
        identical = first.read_bytes() == second.read_bytes()
        code_bad = main([command, *bad])
        capsys.readouterr()
        good_ok = code_a == EXIT_OK and code_b == EXIT_OK and shape_ok and identical
        bad_ok = code_bad == bad_code
        ok = ok and good_ok and bad_ok
        if not (good_ok and bad_ok):
            details.append(f"{command}: good={code_a},{code_b} bad={code_bad}")
    verdict(
        "command-line determinism and exit-code contract (7 commands)",
        ok,
        "; ".join(details) if details else "all byte-identical, exits as documented",
    )
