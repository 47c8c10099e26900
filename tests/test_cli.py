"""End-to-end command contract: flags, config files, exit codes, output bytes."""

import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from negspin import __version__, commands, dynamics, spectral
from negspin.cli import (
    COMMAND_SCHEMA,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    _check_columns,
    _render,
    main,
    unit_scales,
)
from negspin.clifford import dirac_representation
from negspin.dynamics import dominant_frequency, observable_series, unit_weights
from negspin.fields import landau_sectors
from negspin.matrix_core import STACK_BLOCK, hermitian_eig
from negspin.spectral import (
    closed_form_energies,
    correspondence_check,
    hamiltonian,
    helicity_eigenstates,
)


def reject_constant(token):
    raise ValueError(f"bare {token} is not JSON")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=reject_constant)


def one_line_usage_error(capsys, argv) -> str:
    """Run argv, assert exit 2 with one stderr line and no stdout; return the line."""
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    return captured.err


def test_identities_json_report(capsys):
    code, report = run_json(capsys, ["identities"])
    assert code == EXIT_OK
    assert set(report) == {"command", "params", "results", "checks", "version"}
    assert report["command"] == "identities"
    assert report["version"] == __version__
    assert report["results"]["total_checks"] == 21
    assert len(report["checks"]) == 21
    for check in report["checks"]:
        assert set(check) == {"name", "residual", "tolerance", "pass"}
        assert check["pass"] is True


def test_identities_csv_header(capsys):
    code = main(["identities", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert lines[0] == "name,residual,tolerance,pass"
    assert len(lines) == 22


def test_dispersion_csv_and_check(capsys):
    code, report = run_json(capsys, ["dispersion", "--steps", "9"])
    assert code == EXIT_OK
    assert report["checks"][0]["name"] == "max_relative_deviation"
    code = main(["dispersion", "--steps", "3", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert lines[0] == "p,E1,E2,E3,E4,E_minus_closed,E_plus_closed"
    assert len(lines) == 4


@pytest.mark.parametrize("which", ["nonrel", "dirac"])
@pytest.mark.parametrize("steps", [STACK_BLOCK - 1, STACK_BLOCK, STACK_BLOCK + 1,
                                   2 * STACK_BLOCK + 1])
def test_dispersion_blocks_match_one_stack(monkeypatch, steps, which):
    # one eigensolve per block of STACK_BLOCK momenta; the table and the
    # check equal, bit for bit, those of one solve over the whole sweep
    def counted(h):
        calls.append(len(h))
        return hermitian_eig(h)

    calls = []
    monkeypatch.setattr(commands, "hermitian_eig", counted)
    units = unit_scales({"m0": 1.5, "c": 3.0, "hbar": 0.7})
    payload = commands.run("dispersion", {"steps": steps, "pmax": 7.0, "which": which}, units)
    p_mag = 7.0 * np.arange(steps) / (steps - 1)
    p = p_mag / units.momentum
    e_minus, e_plus = (units.energy * e for e in closed_form_energies(p, which))
    eigenvalues = units.energy * hermitian_eig(hamiltonian(np.outer(p, (0.0, 0.0, 1.0)),
                                                           which)).eigenvalues
    closed = np.stack([e_minus, e_minus, e_plus, e_plus], axis=-1)
    worst = np.max(np.abs(eigenvalues - closed) / np.maximum(1.0, np.abs(closed)))
    table = np.column_stack([p_mag, eigenvalues, e_minus, e_plus])
    assert np.column_stack(list(payload["table"].values())).tobytes() == table.tobytes()
    assert payload["checks"][0].residual == worst
    full, rest = divmod(steps, STACK_BLOCK)
    assert calls == [STACK_BLOCK] * full + ([rest] if rest else [])


@pytest.mark.parametrize("q", [-1.0, 1.0])
@pytest.mark.parametrize("sectors", [STACK_BLOCK - 1, STACK_BLOCK, STACK_BLOCK + 1,
                                     2 * STACK_BLOCK + 1])
def test_landau_blocks_match_one_stack(monkeypatch, sectors, q):
    # one eigensolve per block of STACK_BLOCK sectors; the eigenvalues equal,
    # bit for bit, those of one solve over every sector
    def counted(h):
        result = hermitian_eig(h)
        solved.append(result.eigenvalues)
        return result

    solved = []
    monkeypatch.setattr(commands, "hermitian_eig", counted)
    units = unit_scales({"m0": 1.5, "c": 3.0, "hbar": 0.7})
    cfg = {"q": q, "b": 2.0, "pz": 0.3, "n_max": sectors - 1, "k_max": 3}
    payload = commands.run("landau", cfg, units)
    momenta = landau_sectors(q * 2.0 * units.length / units.energy, 0.3 / units.momentum,
                             sectors - 1)
    whole = hermitian_eig(hamiltonian(momenta, "nonrel")).eigenvalues
    assert np.concatenate(solved).tobytes() == whole.tobytes()
    full, rest = divmod(sectors, STACK_BLOCK)
    assert [len(e) for e in solved] == [STACK_BLOCK] * full + ([rest] if rest else [])
    assert payload["results"]["matrix_dimension"] == 4 * sectors


@pytest.mark.parametrize("count", [STACK_BLOCK - 1, STACK_BLOCK, STACK_BLOCK + 1,
                                   2 * STACK_BLOCK + 1])
def test_lorentz_sweep_blocks_match_one_stack(monkeypatch, count):
    # one correspondence check per block of STACK_BLOCK momenta; the checks,
    # one family, equal bit for bit those of one check over the sweep
    def counted(p):
        calls.append(len(p))
        return correspondence_check(p)

    calls = []
    monkeypatch.setattr(commands, "correspondence_check", counted)
    units = unit_scales({"m0": 1.5, "c": 3.0, "hbar": 0.7})
    cfg = {**{key: default for key, (_, default) in COMMAND_SCHEMA["lorentz"].items()},
           "sweep": count, "pmax": 7.0}
    payload = commands.run("lorentz", cfg, units)
    whole = correspondence_check(commands._sweep_momenta(count, 7.0 / units.momentum))
    (family,) = payload["checks"]
    assert family.residual.tobytes() == whole.residual.tobytes()
    assert family.tolerance == whole.tolerance
    csv = _render("lorentz", {"format": "csv"}, {}, _check_columns([family]))
    names = [row.split(",")[0] for row in "".join(csv).splitlines()[1:]]
    assert names[:3] == ["p001_branch-1_correspondence", "p001_branch+1_correspondence",
                         "p002_branch-1_correspondence"]
    assert len(names) == 2 * count
    full, rest = divmod(count, STACK_BLOCK)
    assert calls == [STACK_BLOCK] * full + ([rest] if rest else [])


def test_dispersion_rejects_single_step(capsys):
    assert main(["dispersion", "--steps", "1"]) == EXIT_USAGE
    assert "steps" in capsys.readouterr().err


def test_landau_table_and_exit(capsys):
    code = main(["landau", "--n-max", "24", "--k-max", "2", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert lines[0].startswith("k,E_plus_analytic,E_plus_numeric")
    assert len(lines) == 4


def test_landau_csv_multiplicity_and_omega_c(capsys):
    # one (level, spin) pair reaches k = 0 and two reach every k >= 1
    assert main(["landau", "--b", "2", "--k-max", "4", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split(",")[-1] == "multiplicity"
    assert [line.split(",")[-1] for line in lines[1:]] == ["1", "2", "2", "2", "2"]
    # the ladder spacing omega_c = |q| b in natural units
    code, report = run_json(capsys, ["landau", "--b", "2", "--k-max", "4"])
    assert code == EXIT_OK
    assert report["results"]["omega_c"] == 2.0


def test_landau_rejects_noninterior_levels(capsys):
    assert main(["landau", "--n-max", "10", "--k-max", "9"]) == EXIT_USAGE
    assert "n_max" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["-1", "1"])
@pytest.mark.parametrize("pz", ["0", "0.4"])
def test_landau_counted_multiplicity_matches_analytic(capsys, q, pz):
    code, report = run_json(
        capsys, ["landau", "--units", "custom", "--q", q, "--pz", pz, "--n-max", "24", "--k-max", "5"]
    )
    assert code == EXIT_OK
    results = report["results"]
    # one (level, spin) pair reaches k = 0 and two reach every k >= 1; block 0
    # holds +-E(0) twice, and its top-edge copy is excluded, so k = 0 counts once
    expected = [1, 2, 2, 2, 2, 2]
    assert results["counted_multiplicity_plus"] == expected
    assert results["counted_multiplicity_minus"] == expected
    assert results["edge_states"] == 2
    assert results["truncation_margin"] == 19
    assert results["matrix_dimension"] == 4 * 25


def test_landau_large_truncation_passes(capsys):
    code, report = run_json(capsys, ["landau", "--n-max", "10000", "--k-max", "3"])
    assert code == EXIT_OK
    assert all(check["pass"] for check in report["checks"])
    assert report["results"]["matrix_dimension"] == 40004


def test_landau_truncation_above_cap_is_usage_error(capsys):
    assert "n_max" in one_line_usage_error(capsys, ["landau", "--n-max", "10000000"])


def test_coulomb_report(capsys):
    code, report = run_json(capsys, ["coulomb"])
    assert code == EXIT_OK
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "level_n1_relative_error",
        "level_n2_relative_error",
        "level_n3_relative_error",
    ]
    assert all(c["pass"] for c in report["checks"])


def test_coulomb_extreme_scale_reports_every_level(capsys):
    # the kinetic diagonal is near 1e284; the grid is scaled before it is
    # solved, so the run ends in failing checks, not a solver error
    code, report = run_json(capsys, [
        "coulomb", "--units", "custom", "--m0=0.1", "--c=3.12", "--hbar=3.72", "--z=3.12",
        "--l", "2", "--r-max=2.4e-138", "--n-points", "3571", "--n-levels", "4",
    ])
    assert code == EXIT_CHECK_FAILED
    assert [c["name"] for c in report["checks"]] == [f"level_n{n}_relative_error" for n in (3, 4, 5, 6)]


def test_coulomb_coarse_grid_is_usage_error(capsys):
    assert main(["coulomb", "--n-points", "100"]) == EXIT_USAGE
    assert "n_points" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: level_n*_relative_error divides by max(|E_closed|, Z^2/2n^2), near m0 c^2 at "
    "weak coupling, so in a box of 2 Bohr radii levels 2 and 3 pass at 1.00033 and 1.00093, "
    "above m0 c^2, and level 1 passes though it misses its binding energy by 75%"))
def test_coulomb_box_too_small_to_bind_its_levels_fails(capsys):
    code, report = run_json(capsys, ["coulomb", "--z", "0.01", "--r-max", "200"])
    assert [c["pass"] for c in report["checks"]] == [False, False, False]
    assert code == EXIT_CHECK_FAILED


def test_zitter_default_passes(capsys):
    code, report = run_json(capsys, ["zitter"])
    assert code == EXIT_OK
    assert report["checks"][0]["name"] == "frequency_relative_error"
    assert abs(report["results"]["analytic_omega"] - 3.0) < 1e-12
    assert abs(report["results"]["measured_omega"] - 3.0) < 3e-12
    assert report["checks"][0]["residual"] <= 1e-12
    assert report["results"]["frequency_standard_error"] < 1e-12


def test_zitter_csv_is_time_series(capsys):
    code = main(["zitter", "--format", "csv", "--n-samples", "64"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert lines[0] == "t,value"
    assert len(lines) == 65


@pytest.mark.parametrize("flags", [
    ["--t-max", "2", "--n-samples", "64"],
    ["--t-max", "1", "--n-samples", "16"],
    ["--t-max", "0.5", "--n-samples", "16"],
])
def test_zitter_short_window_is_measured(capsys, flags):
    # under one period of the gap: the recurrence needs no whole period
    code, report = run_json(capsys, ["zitter", *flags])
    assert code == EXIT_OK
    assert report["checks"][0]["name"] == "frequency_relative_error"
    assert report["checks"][0]["residual"] < 1e-12


def test_zitter_near_nyquist_is_rejected_not_failed(capsys):
    # gap 3.0 at 64 samples: omega dt = 3 t_max / 64 reaches pi at t_max 67.02
    codes = {}
    for t_max in np.linspace(55.0, 70.0, 301):
        codes[float(t_max)] = main(["zitter", "--t-max", repr(float(t_max)), "--n-samples", "64"])
        capsys.readouterr()
    assert EXIT_CHECK_FAILED not in codes.values()
    # accepted up to the aliasing limit, with no margin below it
    assert all((code == EXIT_OK) == (3.0 * t_max / 64 < np.pi) for t_max, code in codes.items())


# each side of each sampling rejection, gap 3.0: aliasing at omega dt = pi,
# and the fit's relative standard error at the 0.01 tolerance, which reads
# 8.8e-3 at 200 and 0.0175 at 256 samples of t_max 1e-3 in the default
# state, and 2.8e-3 at 64 and 0.016 at 128 samples of t_max 1e-2 in the
# weakly coupled one
@pytest.mark.parametrize("flags,reason", [
    (["--t-max", "67.02", "--n-samples", "64"], None),
    (["--t-max", "67.03", "--n-samples", "64"], "undersampled series: the gap frequency aliases "
                                                "at omega dt = 3.14203 >= pi; use n_samples > 64"),
    (["--t-max", "1e-3", "--n-samples", "200"], None),
    (["--t-max", "1e-3", "--n-samples", "256"], "ill-conditioned series: omega dt = 1.17e-05 leaves "
                                                "the fit a relative standard error of 0.0175"),
    (["--weights", "0,1e-4,0,1", "--t-max", "1e-2", "--n-samples", "64"], None),
    (["--weights", "0,1e-4,0,1", "--t-max", "1e-2", "--n-samples", "128"],
     "ill-conditioned series: omega dt = 0.000234 leaves the fit a relative standard error of 0.016"),
])
def test_zitter_sampling_rejections_sit_at_their_limits(capsys, flags, reason):
    if reason is None:
        code, report = run_json(capsys, ["zitter", *flags])
        assert code == EXIT_OK
        assert report["checks"][0]["name"] == "frequency_relative_error"
        # the accepted side: its standard error is under the tolerance, and above the miss
        error = report["results"]["frequency_standard_error"]
        assert report["checks"][0]["residual"] <= error < 0.01
    else:
        assert reason in one_line_usage_error(capsys, ["zitter", *flags])


# long windows at small omega dt that a sample-count-blind conditioning rule
# once rejected: the fit places the gap to well under 1e-8 in each
@pytest.mark.parametrize("flags", [
    ["--t-max", "0.1", "--n-samples", "1000"],
    ["--n-samples", "200000"],
    ["--weights", "0,1e-4,0,1", "--n-samples", "11319"],
])
def test_zitter_small_steps_are_measured(capsys, flags):
    code, report = run_json(capsys, ["zitter", *flags])
    assert code == EXIT_OK
    assert report["checks"][0]["name"] == "frequency_relative_error"
    assert report["checks"][0]["residual"] <= 1e-8
    assert report["results"]["frequency_standard_error"] < 1e-6


def test_zitter_rule_over_random_draws(capsys):
    """Random states, observables and steps through the CLI: every accepted
    coupled series measures the gap within 0.01, the fit's standard error
    bounds its miss wherever it tops 1e-6, and every series the earlier
    conditioning floor (eps / (1e-5 A))^(1/3) on omega dt accepted still runs."""
    rng = np.random.default_rng(20261019)
    basis = dirac_representation()
    names = ("alpha1", "alpha2", "alpha3", "beta", "ibgamma5")
    operators = dict(zip(names, (*basis.alpha, basis.beta, basis.i_beta_gamma5)))
    accepted = old_accepted = 0
    for _ in range(400):
        p, weights = rng.uniform(-2.0, 2.0, 3), rng.uniform(-1.0, 1.0, 4)
        name = names[rng.integers(len(names))]
        step = float(np.exp(rng.uniform(np.log(1e-7), np.log(2.5))))
        n = int(rng.choice([16, 64, 512, 4096]))
        states, unit = helicity_eigenstates(p, "nonrel"), unit_weights(weights)
        upper = states.eigenvalues > 0.0
        u_minus, u_plus = (states.eigenvectors @ np.where(b, unit, 0.0) for b in (~upper, upper))
        amplitude = 2.0 * abs(u_minus.conj() @ operators[name] @ u_plus)
        e_minus, e_plus = closed_form_energies(np.linalg.norm(p), "nonrel")
        gap = float(e_plus - e_minus)
        t_max = step * n / gap
        code = main(["zitter", "--p=" + ",".join(map(repr, p.tolist())),
                     "--weights=" + ",".join(map(repr, weights.tolist())),
                     "--observable", name, f"--t-max={t_max!r}", "--n-samples", str(n)])
        out, err = capsys.readouterr()
        if amplitude <= 1e-12:
            continue
        fit = dominant_frequency(*observable_series(states, unit, operators[name], t_max, n))
        if fit is not None and fit[1] > 1e-6:
            assert abs(fit[0] - gap) / gap <= fit[1]
        old = step >= (np.finfo(float).eps / (1e-5 * amplitude)) ** (1.0 / 3.0)
        old_accepted += old
        assert code in (EXIT_OK, EXIT_USAGE)
        if code == EXIT_OK:
            accepted += 1
            report = json.loads(out)
            assert report["results"]["frequency_standard_error"] == fit[1]
            assert report["checks"][0]["name"] == "frequency_relative_error"
            assert report["checks"][0]["residual"] < 0.01
        else:
            assert not old, err
    assert accepted >= old_accepted > 100


def test_zitter_single_state_no_oscillation(capsys):
    code, report = run_json(capsys, ["zitter", "--weights", "0,0,0,1"])
    assert code == EXIT_OK
    assert report["checks"][0]["name"] == "no_oscillation_expected"
    assert report["results"]["measured_omega"] is None


@pytest.mark.parametrize("flags", [
    ["--p", "0.3,0.2,100"],
    ["--p", "0,0,1e3"],
    ["--units", "custom", "--c", "100", "--p", "0.3,0.2,1"],
])
def test_zitter_one_degenerate_pair_has_no_oscillation(capsys, flags):
    # the two states of one branch differ by a few ulp of |E| ~ 1e4, but the
    # sign of their energy puts both on one branch: one level, and no gap
    code, report = run_json(capsys, ["zitter", *flags, "--weights", "1,1,0,0"])
    assert code == EXIT_OK
    assert report["checks"][0]["name"] == "no_oscillation_expected"
    assert len(report["results"]["distinct_energies"]) == 1


def test_zitter_without_peak_prints_strict_json(capsys):
    # alpha1 has no matrix element between these two states: a flat series,
    # and none expected; the missing frequency is a JSON null
    code, report = run_json(capsys, ["zitter", "--observable", "alpha1"])
    assert code == EXIT_OK
    assert report["results"]["measured_omega"] is None
    assert report["results"]["frequency_standard_error"] is None
    assert report["results"]["analytic_omega"] == 0.0
    check = report["checks"][0]
    assert check["name"] == "no_oscillation_expected"
    assert check["residual"] == 0.0 and check["pass"] is True


@pytest.mark.parametrize("weights", ["1,0,0,1", "0,1,1,0"])
def test_zitter_uncoupled_branches_have_no_oscillation(capsys, weights):
    # opposite helicities on the two branches: alpha3 along p has no matrix
    # element between them, so the series is flat and that is the answer
    code, report = run_json(capsys, ["zitter", "--weights", weights])
    assert code == EXIT_OK
    assert report["checks"][0]["name"] == "no_oscillation_expected"
    assert report["results"]["measured_omega"] is None
    assert len(report["results"]["distinct_energies"]) == 2
    # alpha1 does couple them, so the same mixture keeps the frequency check
    code, report = run_json(capsys, ["zitter", "--weights", weights, "--observable", "alpha1"])
    assert code == EXIT_OK
    assert report["checks"][0]["name"] == "frequency_relative_error"
    assert abs(report["results"]["measured_omega"] - 3.0) < 3e-12


@pytest.mark.parametrize("observable", ["alpha1", "alpha2", "alpha3", "beta", "ibgamma5"])
def test_zitter_passes_at_the_coupling_threshold(capsys, observable):
    # a third weight near 6.6e-13 puts alpha3's amplitude just under the
    # 1e-12 gate, yet moves the series enough for the fit to find the gap
    codes = set()
    for w in np.geomspace(1e-13, 1e-11, 400):
        codes.add(main(["zitter", f"--weights=1,0,{float(w)!r},0", "--observable", observable]))
        capsys.readouterr()
    assert codes == {EXIT_OK}


def test_zitter_uncoupled_run_fails_on_a_real_oscillation(capsys, monkeypatch):
    # a single eigenstate has no gap, so a cosine of 1e-6 at the default
    # p's gap 3.0 that the evolution adds must fail the check
    evolve = dynamics.evolve

    def with_cosine(states, weights, t):
        return (1.0 + 1e-6 * np.cos(3.0 * np.asarray(t)))[..., None] * evolve(states, weights, t)

    monkeypatch.setattr(dynamics, "evolve", with_cosine)
    code, report = run_json(capsys, ["zitter", "--weights", "0,0,0,1", "--observable", "beta"])
    assert code == EXIT_CHECK_FAILED
    check = report["checks"][0]
    assert check["name"] == "no_oscillation_expected"
    assert check["residual"] == 1.0 and check["pass"] is False


def test_zitter_rejects_zero_weights(capsys):
    assert main(["zitter", "--weights", "0,0,0,0"]) == EXIT_USAGE


def test_lorentz_transform_mode(capsys):
    code, report = run_json(
        capsys,
        ["lorentz", "--v", "0.6,0,0", "--e-prime", "1", "--p-prime", "0,0,0"],
    )
    assert code == EXIT_OK
    assert abs(report["results"]["e"] - 1.25) < 1e-12
    assert abs(report["results"]["p"][0] - 0.75) < 1e-12
    assert report["checks"][0]["name"] == "roundtrip_residual"


@pytest.mark.parametrize("argv, absolute", [
    # one ulp of E' = 1e4 left an absolute residual of 1.82e-12
    (["--v", "0.5,0.3,0.2", "--e-prime", "1e4", "--p-prime", "3e3,1e3,2e3"], 1.82e-12),
    # near c the boost's condition number, about 2e6, left 5.82e-11
    (["--v", "0.999999,0,0", "--e-prime", "1", "--p-prime", "0,0,0"], 5.82e-11),
])
def test_lorentz_roundtrip_is_relative_to_the_pair_and_the_boost(capsys, argv, absolute):
    # the round trip's error over max(1, |E'|, max|p'|) times (1 + |v|) / (1 - |v|)
    v = np.array(argv[1].split(","), dtype=float)
    e_prime, p_prime = float(argv[3]), np.array(argv[5].split(","), dtype=float)
    e_out, p_out = spectral.lorentz_transform(e_prime, p_prime, v)
    e_back, p_back = spectral.lorentz_transform(e_out, p_out, -v)
    error = max(abs(e_back - e_prime), np.max(np.abs(p_back - p_prime)))
    assert error == pytest.approx(absolute, rel=0.01)
    speed = np.linalg.norm(v)
    scale = (1.0 + speed) / (1.0 - speed) * max(1.0, abs(e_prime), np.max(np.abs(p_prime)))
    code, report = run_json(capsys, ["lorentz", *argv])
    (check,) = report["checks"]
    assert check["residual"] == pytest.approx(error / scale, rel=1e-6)
    assert check["residual"] < 1e-16 and check["tolerance"] == 1e-12
    assert code == EXIT_OK


def test_lorentz_sweep_mode(capsys):
    code, report = run_json(capsys, ["lorentz", "--sweep", "10"])
    assert code == EXIT_OK
    # one check per momentum per branch
    assert len(report["checks"]) == 20
    assert all(c["pass"] for c in report["checks"])
    assert report["checks"][0]["name"] == "p001_branch-1_correspondence"


def test_lorentz_rejects_superluminal(capsys):
    assert main(["lorentz", "--v", "1.5,0,0"]) == EXIT_USAGE


def test_reduction_aggregate(capsys):
    code, report = run_json(capsys, ["reduction", "--trials", "25"])
    assert code == EXIT_OK
    assert report["results"]["failed_trials"] == 0
    names = {c["name"] for c in report["checks"]}
    assert "kinetic_energy_relation" in names
    assert len(report["checks"]) == 8


def test_reduction_wrong_energy_control(capsys):
    code = main(["reduction", "--trials", "3", "--wrong-energy"])
    report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert code == EXIT_CHECK_FAILED
    assert report["results"]["failed_trials"] == 3
    assert not report["checks"][2]["pass"] or not report["checks"][7]["pass"]


def peak_memory(capsys, warm_up, argv) -> int:
    """Peak bytes traced while ``main(argv)`` runs, which must exit 0; runs
    ``main(warm_up)`` first, so the imports fall outside the traced window."""
    main(warm_up)
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    return peak


def test_reduction_memory_does_not_grow_with_the_chain(capsys):
    # 20000 trials hold only their draws; the chain runs in fixed blocks
    peak = peak_memory(capsys, ["reduction", "--trials", "1"], ["reduction", "--trials", "20000"])
    assert peak < 8e6


def test_reduction_holds_only_its_uniforms(capsys):
    # 8 uniforms (64 B) per trial for the whole run; the trials themselves
    # are derived per block, so the rest is one draw chunk of 1.6 MB or one
    # block of the chain, whichever is larger
    trials = 50000
    peak = peak_memory(capsys, ["reduction", "--trials", "1"],
                       ["reduction", "--trials", str(trials)])
    assert peak < 64 * trials + 2.5e6


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_dispersion_holds_only_its_columns(capsys, tmp_path, fmt):
    # 50000 steps hold the table's columns, 64 bytes a step, and the
    # deviation of one column at a time; the eigensolves run in fixed blocks
    # of momenta, and a CSV table is formatted and written a block at a time
    steps, out = 50000, tmp_path / "table"
    argv = ["dispersion", "--steps", str(steps), "--format", fmt, "--out", str(out)]
    peak = peak_memory(capsys, ["dispersion", "--steps", "3"], argv)
    if fmt == "csv":
        assert len(out.read_text().splitlines()) == steps + 1
    assert peak < 96 * steps + 1e6


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_lorentz_sweep_holds_only_its_checks(capsys, tmp_path, fmt):
    # 20000 momenta hold their residuals, 16 B a momentum, and the check
    # family only its name pattern and labels; the peak, about 92 B a
    # momentum in JSON and in CSV, is the spiral's construction.  A name, a
    # flag or a Python float exists only while its block of the report is
    # written; spelt out as 40000 names and listed as columns, the checks
    # held 318 B a momentum, and a JSON report encoded whole held 2800 B
    sweep, out = 20000, tmp_path / "report"
    argv = ["lorentz", "--sweep", str(sweep), "--format", fmt, "--out", str(out)]
    peak = peak_memory(capsys, ["lorentz", "--sweep", "10", "--format", fmt, "--out", str(out)],
                       argv)
    assert peak < 150 * sweep + 1e6


def test_landau_holds_only_its_eigenvalues(capsys):
    # 20000 sectors hold their momenta, their eigenvalues and the sorted
    # levels, 120 bytes a sector; the sectors are solved in fixed blocks
    n_max = 20000
    peak = peak_memory(capsys, ["landau"], ["landau", "--n-max", str(n_max)])
    assert peak < 128 * n_max + 1e6


def test_coulomb_holds_only_its_diagonal(capsys):
    # 200000 grid points hold the diagonal, 8 B a point, and the Sturm
    # counts' four half-length buffers, 16 B a point; the diagonal is built
    # in place and never copied.  With a scaled copy, a full-length work row
    # and five half-length buffers, the solve held about 45 B a point
    n_points = 200000
    peak = peak_memory(capsys, ["coulomb"], ["coulomb", "--n-points", str(n_points)])
    assert peak < 28 * n_points + 1e6


def test_zitter_holds_only_its_series(capsys):
    # 100000 samples hold the times, the values, the scaled times of the
    # table and the fit's differences; the states are evolved in fixed blocks of times
    samples = 100000
    peak = peak_memory(capsys, ["zitter"],
                       ["zitter", "--n-samples", str(samples), "--t-max", "1000"])
    assert peak < 48 * samples + 1e6


def test_seed_changes_reduction_draws(capsys):
    _, a = run_json(capsys, ["reduction", "--trials", "5", "--seed", "1"])
    _, b = run_json(capsys, ["reduction", "--trials", "5", "--seed", "2"])
    ra = [c["residual"] for c in a["checks"]]
    rb = [c["residual"] for c in b["checks"]]
    assert ra != rb


def test_output_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["reduction", "--trials", "10", "--out", str(first)]) == EXIT_OK
    assert main(["reduction", "--trials", "10", "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_out_flag_silences_stdout(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code = main(["identities", "--format", "csv", "--out", str(target)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("name,residual")


class _FailingStdout:
    """A stdout whose every write after the first ``good`` raises ``error``."""

    def __init__(self, error, good=0):
        self.error, self.good, self.parts = error, good, []

    def write(self, text):
        if len(self.parts) >= self.good:
            raise self.error
        self.parts.append(text)

    def writelines(self, parts):
        for part in parts:
            self.write(part)

    def flush(self):
        pass


def test_failed_stdout_write_names_stdout(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FailingStdout(OSError(28, "No space left on device")))
    assert main(["landau"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: cannot write stdout: [Errno 28] No space left on device\n"


FULL_DISK_ARGV = ["identities", "--format", "csv"]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("entry", [
    ["-m", "negspin", *FULL_DISK_ARGV],
    # as the console script calls it
    ["-c", f"import sys; from negspin.cli import main; sys.exit(main({FULL_DISK_ARGV!r}))"],
], ids=["module", "main"])
def test_buffered_stdout_on_a_full_disk_exits_2_in_one_line(entry):
    # a buffered stdout fails only when flushed; the interpreter's own flush
    # at exit must not fail again and turn exit 2 into 120
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, *entry], stdout=full, stderr=subprocess.PIPE,
                              text=True, env=env, check=False)
    assert (proc.returncode, proc.stderr) == (
        EXIT_USAGE, "error: cannot write stdout: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), MemoryError()])
def test_failure_while_a_csv_is_written_is_one_line(monkeypatch, capsys, error):
    # the header and the first block of rows are out when the failure comes
    stream = _FailingStdout(error, good=2)
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["dispersion", "--steps", "600", "--format", "csv"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert len(stream.parts) == 2


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n\nsteps=5\nwhich=dirac\nformat=json\n")
    code, report = run_json(capsys, ["dispersion", "--config", str(cfg)])
    assert code == EXIT_OK
    assert report["params"]["steps"] == 5
    assert report["params"]["which"] == "dirac"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=5\n")
    code, report = run_json(capsys, ["dispersion", "--config", str(cfg), "--steps", "7"])
    assert code == EXIT_OK
    assert report["params"]["steps"] == 7


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("voltage=9\n")
    assert main(["dispersion", "--config", str(cfg)]) == EXIT_USAGE
    assert "voltage" in capsys.readouterr().err


def test_config_file_not_utf8_is_named(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe")
    err = one_line_usage_error(capsys, ["coulomb", "--config", str(cfg)])
    assert err.startswith(f"error: cannot read config file {cfg}: 'utf-8' codec can't decode "
                          "byte 0xff in position 0")


def test_malformed_config_line_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a bare line\n")
    assert main(["dispersion", "--config", str(cfg)]) == EXIT_USAGE


def test_duplicate_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("b=1\n# comment\nb=2\n")
    err = one_line_usage_error(capsys, ["landau", "--config", str(cfg)])
    assert "'b'" in err and ":3:" in err and "line 1" in err


def test_natural_units_conflict(capsys):
    assert main(["dispersion", "--m0", "2.0"]) == EXIT_USAGE
    assert "custom" in capsys.readouterr().err


def test_custom_units_are_used(capsys):
    code, report = run_json(
        capsys, ["dispersion", "--units", "custom", "--m0", "2", "--steps", "3"]
    )
    assert code == EXIT_OK
    assert report["params"]["m0"] == 2.0


def test_dispersion_with_heavier_mass(capsys):
    # |p| = 1, m0 = 2: the quadratic branch sits at m0 c^2 + p^2/2m0 = 2 + 1/4
    code = main(["dispersion", "--units", "custom", "--m0", "2", "--pmax", "1", "--steps", "2",
                 "--format", "csv"])
    last = [float(x) for x in capsys.readouterr().out.splitlines()[-1].split(",")]
    assert code == EXIT_OK
    assert last[0] == 1.0
    np.testing.assert_allclose(last[1:5], [-2.25, -2.25, 2.25, 2.25], rtol=0.0, atol=1e-12)


def test_non_positive_units_are_rejected(capsys):
    for flag in ("--m0=0", "--c=-1", "--hbar=0"):
        err = one_line_usage_error(capsys, ["dispersion", "--units", "custom", flag])
        assert "m0, c and hbar must all be positive" in err


# a unit system far from natural units, and its scales as the front forms them
M0, C, HBAR, Q = 2.5, 3.0, 0.7, -0.8
CUSTOM_UNITS = ["--units", "custom", f"--m0={M0!r}", f"--c={C!r}", f"--hbar={HBAR!r}"]
MOMENTUM = M0 * C
ENERGY = MOMENTUM * C
LENGTH, TIME, CHARGE = HBAR / MOMENTUM, HBAR / ENERGY, HBAR * C


def _vec(*xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


# (command, flags in custom units, the same inputs in natural units,
#  {results key: scale}, {CSV column: scale}); the scale takes a natural-unit
# output to the custom unit system
COVARIANCE_CASES = [
    ("dispersion",
     ["--pmax=1.7", "--steps", "7"], [f"--pmax={1.7 / MOMENTUM!r}", "--steps", "7"],
     {}, {"p": MOMENTUM, **{col: ENERGY for col in
                            ("E1", "E2", "E3", "E4", "E_minus_closed", "E_plus_closed")}}),
    ("landau",
     [f"--q={Q!r}", "--b=1.3", "--pz=0.4", "--n-max", "30"],
     [f"--b={abs(Q * 1.3 * LENGTH / ENERGY)!r}", f"--pz={0.4 / MOMENTUM!r}", "--n-max", "30"],
     {"omega_c": 1.0 / TIME},
     {"E_plus_analytic": ENERGY, "E_plus_numeric": ENERGY, "E_minus_analytic": ENERGY,
      "E_minus_numeric": ENERGY, "multiplicity": 1.0}),
    # 60 Bohr radii hbar^2/(m0 Z) on 6000 points
    ("coulomb",
     ["--z=0.9", "--l", "1", f"--r-max={60 * HBAR**2 / (M0 * 0.9)!r}"],
     [f"--z={0.9 / CHARGE!r}", "--l", "1", f"--r-max={60 * HBAR**2 / (M0 * 0.9) / LENGTH!r}"],
     {"grid_spacing": LENGTH},
     {"E_plus_numeric": ENERGY, "E_plus_closed": ENERGY, "relative_error": 1.0,
      "E_minus_numeric": ENERGY}),
    ("zitter",
     [f"--p={_vec(0.3, -0.2, 2.0)}", f"--t-max={20 * TIME!r}"],
     [f"--p={_vec(0.3 / MOMENTUM, -0.2 / MOMENTUM, 2.0 / MOMENTUM)}",
      f"--t-max={20 * TIME / TIME!r}"],
     {"measured_omega": 1.0 / TIME, "analytic_omega": 1.0 / TIME, "distinct_energies": ENERGY},
     {"t": TIME, "value": 1.0}),
    ("lorentz",
     [f"--v={_vec(0.5 * C, -0.3 * C, 0.1 * C)}", "--e-prime=-4.2",
      f"--p-prime={_vec(1.0, 2.0, -3.0)}"],
     [f"--v={_vec(0.5 * C / C, -0.3 * C / C, 0.1 * C / C)}", f"--e-prime={-4.2 / ENERGY!r}",
      f"--p-prime={_vec(1.0 / MOMENTUM, 2.0 / MOMENTUM, -3.0 / MOMENTUM)}"],
     {"e": ENERGY, "p": MOMENTUM},
     {"E": ENERGY, "px": MOMENTUM, "py": MOMENTUM, "pz": MOMENTUM}),
]


def _assert_scaled(custom, natural, scale):
    """custom == scale * natural to within 4 ulps of the larger."""
    custom, natural = np.asarray(custom, dtype=float), scale * np.asarray(natural, dtype=float)
    gap = np.abs(custom - natural)
    assert np.all(gap <= 4 * np.finfo(float).eps * np.maximum(np.abs(custom), np.abs(natural)))


def _both_formats(capsys, argv):
    code, report = run_json(capsys, argv)
    assert main([*argv, "--format", "csv"]) == code
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return code, report, {col: rows[:, j] for j, col in enumerate(header)}


@pytest.mark.parametrize("case", COVARIANCE_CASES, ids=lambda case: case[0])
def test_custom_units_equal_natural_units_at_converted_inputs(capsys, case):
    command, custom_flags, natural_flags, result_scales, column_scales = case
    code, report, columns = _both_formats(capsys, [command, *CUSTOM_UNITS, *custom_flags])
    n_code, n_report, n_columns = _both_formats(capsys, [command, *natural_flags])
    assert code == n_code == EXIT_OK
    assert ([(c["name"], c["tolerance"]) for c in report["checks"]]
            == [(c["name"], c["tolerance"]) for c in n_report["checks"]])
    for key, scale in result_scales.items():
        _assert_scaled(report["results"][key], n_report["results"][key], scale)
    assert columns.keys() == n_columns.keys()
    for column, scale in column_scales.items():
        _assert_scaled(columns[column], n_columns[column], scale)


def test_reduction_takes_no_unit_system(capsys):
    # the chain's only scale is m0 c^2, so its trials are drawn in units of
    # m0 c and m0 c^2 and a unit flag would change nothing: it is rejected
    for flags in (["--units", "custom", "--c", "1e3"], ["--units", "natural"], ["--q", "1"]):
        err = one_line_usage_error(capsys, ["reduction", *flags])
        assert f"unrecognized arguments: {flags[0]}" in err


@pytest.mark.parametrize("command", COMMAND_SCHEMA)
def test_params_echo_exactly_the_keys_the_command_takes(capsys, command):
    code, report = run_json(capsys, [command])
    assert code == EXIT_OK
    assert list(report["params"]) == [key for key in COMMAND_SCHEMA[command] if key != "out"]


@pytest.mark.parametrize("argv", [[command] for command in COMMAND_SCHEMA]
                         + [["lorentz", "--sweep", "10"]], ids=" ".join)
def test_results_hold_only_what_the_run_computed(capsys, argv):
    # the inputs are echoed once, in params
    code, report = run_json(capsys, argv)
    assert code == EXIT_OK
    assert set(report["results"]).isdisjoint(report["params"])


def test_spin_label_failure_is_one_error_line(monkeypatch, capsys):
    # doubled Pauli matrices give helicities +-2, which do not quantize to +-1
    monkeypatch.setattr(spectral, "PAULI", [2.0 * s for s in spectral.PAULI])
    err = one_line_usage_error(capsys, ["zitter"])
    assert err.startswith("error: spin labels did not quantize")


@pytest.mark.parametrize("argv", [
    ["identities"],
    ["lorentz", "--sweep", "10"],
    ["reduction", "--trials", "20"],
    ["reduction", "--trials", "1", "--wrong-energy"],
], ids=" ".join)
def test_checks_table_matches_json_checks(capsys, argv):
    # a command without a table of its own writes its checks as the CSV table
    code, report = run_json(capsys, argv)
    assert main([*argv, "--format", "csv"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,residual,tolerance,pass"
    assert len(lines) == len(report["checks"]) + 1
    for line, check in zip(lines[1:], report["checks"]):
        name, residual, tolerance, passed = line.split(",")
        assert list(check) == ["name", "residual", "tolerance", "pass"]
        assert (name, float(residual), float(tolerance), passed) == (
            check["name"], check["residual"], check["tolerance"], str(check["pass"]).lower())
    assert (code == EXIT_OK) == all(check["pass"] for check in report["checks"])


@pytest.mark.parametrize("argv", [
    ["lorentz", "--v", "-0.6,0,0"],
    ["lorentz", "--e-prime", "-2", "--p-prime", "-1e-3,0,0"],
    ["zitter", "--p", "-0.5,0,1"],
    ["landau", "--pz", "-1e-3"],
    ["lorentz", "--p-prime", "-1,0,0"],
], ids=" ".join)
def test_negative_value_after_a_space(capsys, argv):
    # a value with a leading minus reads the same after a space as after "="
    joined = [argv[0], *(f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2]))]
    assert main(joined) == EXIT_OK
    expected = capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == expected


def test_unknown_command_is_usage_error(capsys):
    assert "invalid choice: 'no-such-command'" in one_line_usage_error(capsys, ["no-such-command"])


def test_missing_command_is_usage_error(capsys):
    assert "required: command" in one_line_usage_error(capsys, [])


@pytest.mark.parametrize("command", COMMAND_SCHEMA)
def test_command_help_lists_exactly_its_flags(capsys, command):
    # each flag once, in schema order, after --config; -h after an unknown
    # token still prints help, since tokens are read in order
    flags = ["--config", *("--" + key.replace("_", "-") for key in COMMAND_SCHEMA[command])]
    for argv in ([command, "--help"], [command, "-h"], [command, "--bogus", "--help"]):
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert [token for token in captured.out.split() if token.startswith("--")] == flags


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_the_commands(capsys, flag):
    assert main([flag]) == EXIT_OK
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.split("commands:\n")[1].splitlines()] == list(
        COMMAND_SCHEMA)


REPEATED_FLAGS = [
    (["dispersion", "--steps", "3", "--steps=5"], "steps", 5),
    (["lorentz", "--v=0.1,0,0", "--v", "-0.2,0,0"], "v", [-0.2, 0.0, 0.0]),
    (["zitter", "--format", "csv", "--format", "json"], "format", "json"),
    (["reduction", "--trials", "2", "--wrong-energy", "--wrong-energy"], "wrong_energy", True),
]


@pytest.mark.parametrize("argv,key,value", REPEATED_FLAGS,
                         ids=[" ".join(argv) for argv, _, _ in REPEATED_FLAGS])
def test_repeated_flag_last_value_wins(capsys, argv, key, value):
    code, report = run_json(capsys, argv)
    assert code == (EXIT_CHECK_FAILED if key == "wrong_energy" else EXIT_OK)
    assert report["params"][key] == value


def test_bad_vector_flag_rejected(capsys):
    assert main(["zitter", "--p", "1,2"]) == EXIT_USAGE
    assert main(["zitter", "--p", "a,b,c"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["lorentz", "--v", "nan,0,0"],
    ["landau", "--pz", "nan"],
    ["coulomb", "--z", "inf"],
    ["coulomb", "--r-max", "inf"],
    ["dispersion", "--pmax", "inf"],
    ["zitter", "--p", "nan,0,0"],
    ["zitter", "--t-max", "inf"],
])
def test_non_finite_input_is_usage_error(capsys, argv):
    assert "finite" in one_line_usage_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["landau", "--b", "1e300"],
    ["landau", "--pz", "1e200"],
    ["dispersion", "--pmax", "1e300"],
    ["coulomb", "--z", "1e308"],
    ["coulomb", "--r-max", "1e308"],
])
def test_huge_finite_input_is_usage_error(capsys, argv):
    one_line_usage_error(capsys, argv)


@pytest.mark.parametrize("argv,reason", [
    (["coulomb", "--n-levels", "7000"], "exceeds the 6000 grid points"),
    # spacing*Z is 0.0065, but the spacing is 0.97 Bohr radii hbar^2/(m0 Z)
    (["coulomb", "--units", "custom", "--hbar", "0.1", "--m0", "1.5", "--z", "5",
      "--r-max", "1.5", "--n-points", "1158", "--n-levels", "1"], "grid too coarse"),
    (["landau", "--b", "1e300"], "float64 cannot resolve the 1e-06 level tolerance"),
    (["reduction", "--seed", "-1"], "seed must be nonnegative"),
    (["zitter", "--t-max", "1000", "--n-samples", "64"], "undersampled series"),
    # a window of 1.4e-6 gap periods: the fit's error bar on cos(omega dt)
    # reaches 1, so its relative standard error reads inf
    (["zitter", "--t-max", "3e-6", "--n-samples", "16"], "ill-conditioned series"),
    # hbar omega_c = 1e-7: every eigenvalue would sit within 1e-6 of every level
    (["landau", "--b", "1e-7"], "levels closer than twice the 1e-06 level tolerance"),
    # m0 c^2 = 1e-8: the +E(0) and -E(0) windows overlap
    (["landau", "--units", "custom", "--m0", "1e-4", "--c", "1e-2"], "branch gap 2 E(0) = 2e-08"),
    # an --out path in a directory that does not exist, and a directory itself
    (["identities", "--out", "no-such-dir/report.json"],
     "cannot write output file no-such-dir/report.json"),
    (["identities", "--out", "."], "cannot write output file ."),
    # 10^14 elements exceed a 47-bit address space, so the allocation fails at once
    (["dispersion", "--steps", "100000000000000"], "too large to allocate"),
    (["lorentz", "--sweep", "100000000000000"], "too large to allocate"),
    (["reduction", "--trials", "100000000000000"], "too large to allocate"),
    # the series is sampled before the sampling rules judge it, at omega dt = 0.3
    (["zitter", "--n-samples", "100000000000000", "--t-max", "1e13"], "too large to allocate"),
    (["coulomb", "--n-points", "100000000000000"], "too large to allocate"),
    # a unit scale that float64 rounds to 0 or to infinity is named
    (["lorentz", "--units", "custom", "--c", "1e-300", "--v", "0,0,0"],
     "unit scale m0*c^2 = 0 is not a positive finite float64"),
    (["dispersion", "--units", "custom", "--c", "1e300"],
     "unit scale m0*c^2 = inf is not a positive finite float64"),
    (["dispersion", "--units", "custom", "--hbar", "1e-300", "--m0", "1e10", "--c", "1e20"],
     "unit scale hbar/(m0*c) = 0 "),
    (["dispersion", "--units", "custom", "--hbar", "1e-300", "--c", "1e20"],
     "unit scale hbar/(m0*c^2) = 0 "),
    (["dispersion", "--units", "custom", "--hbar", "1e300", "--c", "1e10"],
     "unit scale hbar*c = inf "),
    (["landau", "--b", "0"], "field magnitude b must be positive"),
    (["landau", "--units", "custom", "--q", "0"], "lambda = hbar q b / c must be nonzero"),
    # the library's rejections quote ratios, the same numbers in every unit system
    (["lorentz", "--units", "custom", "--c", "2", "--v", "3,0,0"],
     "superluminal frame velocity: |v|^2/c^2 = 2.25 >= 1"),
    (["coulomb", "--units", "custom", "--hbar", "0.1", "--m0", "1.5", "--z", "5",
      "--r-max", "1.5", "--n-points", "1158"],
     "use n_points >= 22500 at r_max = 1125 Bohr radii"),
    # a flag is spelt out in full: no abbreviation, however unambiguous
    (["lorentz", "--p-p", "-1,0,0"], "unrecognized arguments: --p-p -1,0,0"),
    (["lorentz", "--p-p=-1,0,0"], "unrecognized arguments: --p-p=-1,0,0"),
    # each command takes only the flags it reads
    (["identities", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["identities", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["identities", "--units", "natural"], "unrecognized arguments: --units natural"),
    (["coulomb", "--units", "custom", "--q", "1"], "unrecognized arguments: --q 1"),
    (["landau", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["dispersion", "--steps"], "argument --steps: expected one argument"),
    (["reduction", "--wrong-energy", "true"], "unrecognized arguments: true"),
    (["reduction", "--wrong-energy=x"], "argument --wrong-energy: ignored explicit argument 'x'"),
    # a value follows its flag whatever it starts with: -h and -- included
    (["lorentz", "--v", "-h"], "expected 3 comma-separated numbers, got '-h'"),
    (["lorentz", "--c", "--"], "expected a number, got '--'"),
    # a value outside its flag's range is rejected as it is cast, before the
    # units check of the same invocation
    (["dispersion", "--steps", "1"], "steps must be at least 2"),
    (["dispersion", "--pmax", "0"], "pmax must be positive"),
    (["dispersion", "--m0", "2", "--steps", "1"], "steps must be at least 2"),
    (["lorentz", "--sweep", "-1"], "sweep must be nonnegative"),
    (["lorentz", "--sweep", "3", "--pmax", "-1"], "pmax must be positive"),
    (["lorentz", "--pmax", "0"], "pmax must be positive"),
    (["reduction", "--trials", "0"], "trials must be at least 1"),
    # each lorentz mode reads only its own flags
    (["lorentz", "--sweep", "2", "--v", "2,0,0"], "--v is read only with --sweep 0"),
    (["lorentz", "--sweep", "2", "--e-prime", "3"], "--e-prime is read only with --sweep 0"),
    (["lorentz", "--sweep", "2", "--p-prime", "1,0,0"], "--p-prime is read only with --sweep 0"),
    (["lorentz", "--pmax", "5"], "--pmax is read only with --sweep > 0"),
    (["lorentz", "--sweep", "0", "--pmax", "5"], "--pmax is read only with --sweep > 0"),
    # whatever the value: a flag at its default is still one the run never reads
    (["lorentz", "--sweep", "5", "--v", "0,0,0"], "--v is read only with --sweep 0"),
    (["lorentz", "--pmax", "2"], "--pmax is read only with --sweep > 0"),
    # a coulomb grid too fine for float64 is one rejection, whichever term
    # overflows first: the kinetic scale 1/(2 h^2), 2 h^2 itself (to 0), the
    # centrifugal term at the first node, 2 kin + 1 with kin finite, and the
    # centrifugal term alone (kin is 5e299 at --l 100000)
    (["coulomb", "--r-max", "1e-155"], "error: grid too fine: spacing*m0*c/hbar = 1.666e-159, "
     "so the first node's kinetic and centrifugal terms, in units of m0 c^2, overflow float64"),
    (["coulomb", "--r-max", "1e-160"], "grid too fine: spacing*m0*c/hbar = 1.666e-164,"),
    (["coulomb", "--l", "1", "--r-max", "1e-155"],
     "grid too fine: spacing*m0*c/hbar = 1.666e-159,"),
    (["coulomb", "--r-max", "4e-151"], "grid too fine: spacing*m0*c/hbar = 6.666e-155,"),
    (["coulomb", "--l", "1", "--r-max", "4.5e-151"],
     "grid too fine: spacing*m0*c/hbar = 7.499e-155,"),
    (["coulomb", "--l", "100000", "--r-max", "6.001e-147"],
     "grid too fine: spacing*m0*c/hbar = 1e-150,"),
    # the spacing is quoted in hbar/(m0 c): the same number in every unit system
    (["coulomb", "--units", "custom", "--hbar", "2", "--r-max", "2e-155"],
     "grid too fine: spacing*m0*c/hbar = 1.666e-159,"),
    # a coarse grid that would need more than 2^53 points suggests none
    (["coulomb", "--r-max", "1e300"], "; no float64 grid resolves it at r_max = 1e+300 Bohr radii"),
    (["coulomb", "--r-max", "4.5e14"], "; use n_points >= 9000000000000000 at r_max = 4.5e+14 "),
    (["coulomb", "--r-max", "4.6e14"], "; no float64 grid resolves it at r_max = 4.6e+14 "),
    # level numbers l + 1, ... past 2^53 are not exact floats: rejected
    # before l(l+1) is formed, naming l and quoting no number above 2^53
    (["coulomb", "--l", "1" + "0" * 200], "error: l + n_levels exceeds 2^53: the level numbers "
     "l + 1, l + 2, ... are no longer exact float64 integers\n"),
    (["coulomb", "--l", "9007199254740992"], "error: l + n_levels exceeds 2^53:"),
])
def test_rejection_names_its_reason(capsys, argv, reason):
    assert reason in one_line_usage_error(capsys, argv)


@pytest.mark.parametrize("tiny", ["1e-160", "1e-320"])
def test_tiny_zitter_weights_match_unit_weights(capsys, tiny):
    # normalizing divides out the largest weight's power of two first, so
    # weights whose squares underflow give the unit weights' state
    code, report = run_json(capsys, ["zitter", f"--weights={tiny},0,0,0"])
    _, unit = run_json(capsys, ["zitter", "--weights=1,0,0,0"])
    assert code == EXIT_OK
    assert report["results"] == unit["results"]
    assert report["checks"] == unit["checks"]


def test_a_weight_that_scales_to_zero_still_names_its_branch(capsys):
    # 5e-324 beside 1 scales to zero and adds nothing to the series, but the
    # weights as given put the state on both branches
    code, report = run_json(capsys, ["zitter", "--weights=5e-324,0,0,1"])
    _, single = run_json(capsys, ["zitter", "--weights=0,0,0,1"])
    assert code == EXIT_OK
    assert report["results"]["distinct_energies"] == [-1.5, 1.5]
    assert report["checks"] == single["checks"]


def test_non_finite_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pmax=-inf\n")
    assert main(["dispersion", "--config", str(cfg)]) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--steps", "7"]])
def test_out_of_range_config_value_rejected(tmp_path, capsys, flags):
    # a config value is cast, and its range checked, even where a flag overrides it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=1\n")
    err = one_line_usage_error(capsys, ["dispersion", "--config", str(cfg), *flags])
    assert "steps must be at least 2" in err


@pytest.mark.parametrize("text, flags, reason", [
    ("pmax=3\n", [], "--pmax is read only with --sweep > 0"),
    ("sweep=4\npmax=3\n", ["--sweep", "0"], "--pmax is read only with --sweep > 0"),
    ("e_prime=2\n", ["--sweep", "4"], "--e-prime is read only with --sweep 0"),
])
def test_lorentz_mode_rejects_config_keys(tmp_path, capsys, text, flags, reason):
    # a config key of the other lorentz mode is rejected as its flag is
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert reason in one_line_usage_error(capsys, ["lorentz", "--config", str(cfg), *flags])


@pytest.mark.parametrize("argv", [
    ["dispersion", "--steps", "2"],
    ["dispersion", "--pmax", "1e-300"],
    ["landau", "--b", "1e-5"],
    ["lorentz", "--sweep", "0"],
    ["lorentz", "--sweep", "2", "--pmax", "1e-300"],
    ["reduction", "--trials", "1"],
    ["reduction", "--seed", "0"],
], ids=" ".join)
def test_range_boundary_values_run(capsys, argv):
    code, _ = run_json(capsys, argv)
    assert code == EXIT_OK


def _readme_cli_examples() -> list[list[str]]:
    """The argv of every ``negspin ...`` line in the README's shell blocks."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in text.split("```sh\n")[1:]:
        for line in block.split("```", 1)[0].splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["negspin"]:
                examples.append(argv[1:])
    return examples


README_CLI_EXAMPLES = _readme_cli_examples()


def test_readme_has_ten_cli_examples():
    assert len(README_CLI_EXAMPLES) == 10


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", README_CLI_EXAMPLES, ids=" ".join)
def test_readme_cli_example_exits_as_documented(tmp_path, argv, fmt):
    # the last --format and --out win, so every example writes into tmp_path
    out = tmp_path / f"report.{fmt}"
    code = main([*argv, "--format", fmt, "--out", str(out)])
    assert code == (EXIT_CHECK_FAILED if "--wrong-energy" in argv else EXIT_OK)
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        json.loads(text, parse_constant=reject_constant)
    else:
        assert len(text.splitlines()) >= 2
