"""End-to-end command contract: flags, config files, exit codes, output bytes."""

import json

import pytest

from negspin import __version__
from negspin.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from negspin.fields import UniformBField, landau_levels_analytic
from negspin.spectral import PhysicalParams


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


def test_dispersion_rejects_single_step(capsys):
    assert main(["dispersion", "--steps", "1"]) == EXIT_USAGE
    assert "steps" in capsys.readouterr().err


def test_landau_table_and_exit(capsys):
    code = main(["landau", "--n-max", "24", "--k-max", "2", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert lines[0].startswith("k,E_plus_analytic,E_plus_numeric")
    assert len(lines) == 4


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
    analytic = landau_levels_analytic(
        UniformBField(1.0), float(pz), 5, PhysicalParams(q=float(q))
    )
    expected = [level.multiplicity for level in analytic.levels]
    # the top edge sector's copy of +-E(0) is excluded, so k = 0 counts once
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


def test_coulomb_coarse_grid_is_usage_error(capsys):
    assert main(["coulomb", "--n-points", "100"]) == EXIT_USAGE
    assert "n_points" in capsys.readouterr().err


def test_zitter_default_passes(capsys):
    code, report = run_json(capsys, ["zitter"])
    assert code == EXIT_OK
    assert report["checks"][0]["name"] == "frequency_relative_error"
    assert abs(report["results"]["analytic_omega"] - 3.0) < 1e-12
    assert abs(report["results"]["measured_omega"] - 3.0) < 0.03


def test_zitter_csv_is_time_series(capsys):
    code = main(["zitter", "--format", "csv", "--n-samples", "64"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert lines[0] == "t,value"
    assert len(lines) == 65


def test_zitter_short_window_fails_check(capsys):
    # two branch energies but far too little signal to resolve the gap
    code = main(["zitter", "--t-max", "2", "--n-samples", "64"])
    capsys.readouterr()
    assert code == EXIT_CHECK_FAILED


def test_zitter_single_state_no_oscillation(capsys):
    code, report = run_json(capsys, ["zitter", "--weights", "0,0,0,1"])
    assert code == EXIT_OK
    assert report["checks"][0]["name"] == "no_oscillation_expected"
    assert report["results"]["measured_omega"] is None


def test_zitter_without_peak_prints_strict_json(capsys):
    # alpha1 has no interference term here: no peak, measured frequency read as 0
    code, report = run_json(capsys, ["zitter", "--observable", "alpha1"])
    assert code == EXIT_CHECK_FAILED
    assert report["results"]["measured_omega"] is None
    check = report["checks"][0]
    assert check["name"] == "frequency_relative_error"
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
    assert main(["identities", "--m0", "2.0"]) == EXIT_USAGE
    assert "custom" in capsys.readouterr().err


def test_custom_units_are_used(capsys):
    code, report = run_json(
        capsys, ["dispersion", "--units", "custom", "--m0", "2", "--steps", "3"]
    )
    assert code == EXIT_OK
    assert report["params"]["m0"] == 2.0


def test_unknown_command_is_usage_error(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


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


def test_non_finite_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pmax=-inf\n")
    assert main(["dispersion", "--config", str(cfg)]) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err
