"""End-to-end command contract: flags, config files, exit codes, output bytes."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from negspin import __version__
from negspin.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main


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
    # two branch energies, but the window spans under one period of the gap
    err = one_line_usage_error(capsys, ["zitter", "--t-max", "2", "--n-samples", "64"])
    assert "window too short" in err


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
    # the two states of one branch differ by a few ulp of |E| ~ 1e4, which
    # is one level, not a gap of ~1e-12 with a period longer than the window
    code, report = run_json(capsys, ["zitter", *flags, "--weights", "1,1,0,0"])
    assert code == EXIT_OK
    assert report["checks"][0]["name"] == "no_oscillation_expected"
    assert len(report["results"]["distinct_energies"]) == 1


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
        err = one_line_usage_error(capsys, ["identities", "--units", "custom", flag])
        assert "m0, c and hbar must all be positive" in err


# a unit system far from natural units, and its scales as the front forms them
M0, C, HBAR, Q = 2.5, 3.0, 0.7, -0.8
CUSTOM_UNITS = ["--units", "custom", f"--m0={M0!r}", f"--c={C!r}", f"--hbar={HBAR!r}",
                f"--q={Q!r}"]
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
     ["--b=1.3", "--pz=0.4", "--n-max", "30"],
     [f"--b={abs(Q * 1.3 * LENGTH / ENERGY)!r}", f"--pz={0.4 / MOMENTUM!r}", "--n-max", "30"],
     {"omega_c": 1.0 / TIME, "pz": MOMENTUM},
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


def test_reduction_does_not_depend_on_the_unit_system(capsys):
    # the chain's only scale is m0 c^2, so its trials are drawn in units of
    # m0 c and m0 c^2, and a small m0 c^2 no longer fails at roundoff
    code, custom = run_json(capsys, ["reduction", "--units", "custom", "--c", "1e3"])
    _, natural = run_json(capsys, ["reduction"])
    assert code == EXIT_OK
    assert custom["results"] == natural["results"]
    assert custom["checks"] == natural["checks"]


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
], ids=" ".join)
def test_negative_value_after_a_space(capsys, argv):
    # a value with a leading minus reads the same after a space as after "="
    joined = [argv[0], *(f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2]))]
    assert main(joined) == EXIT_OK
    expected = capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == expected


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


@pytest.mark.parametrize("argv,reason", [
    (["coulomb", "--n-levels", "7000"], "exceeds the 6000 grid points"),
    # spacing*Z is 0.0065, but the spacing is 0.97 Bohr radii hbar^2/(m0 Z)
    (["coulomb", "--units", "custom", "--hbar", "0.1", "--m0", "1.5", "--z", "5",
      "--r-max", "1.5", "--n-points", "1158", "--n-levels", "1"], "grid too coarse"),
    (["landau", "--b", "1e300"], "float64 cannot resolve the 1e-06 level tolerance"),
    (["reduction", "--seed", "-1"], "seed must be nonnegative"),
    (["zitter", "--t-max", "1000", "--n-samples", "64"], "undersampled series"),
    (["zitter", "--t-max", "1"], "window too short"),
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
    (["zitter", "--n-samples", "100000000000000"], "too large to allocate"),
    (["coulomb", "--n-points", "100000000000000"], "too large to allocate"),
    # a unit scale that float64 rounds to 0 or to infinity is named
    (["lorentz", "--units", "custom", "--c", "1e-300", "--v", "0,0,0"],
     "unit scale m0*c^2 = 0 is not a positive finite float64"),
    (["dispersion", "--units", "custom", "--c", "1e300"],
     "unit scale m0*c^2 = inf is not a positive finite float64"),
    (["identities", "--units", "custom", "--hbar", "1e-300", "--m0", "1e10", "--c", "1e20"],
     "unit scale hbar/(m0*c) = 0 "),
    (["identities", "--units", "custom", "--hbar", "1e-300", "--c", "1e20"],
     "unit scale hbar/(m0*c^2) = 0 "),
    (["identities", "--units", "custom", "--hbar", "1e300", "--c", "1e10"],
     "unit scale hbar*c = inf "),
    (["landau", "--b", "0"], "field magnitude b must be positive"),
    (["landau", "--units", "custom", "--q", "0"], "lambda = hbar q b / c must be nonzero"),
    # the library's rejections quote ratios, the same numbers in every unit system
    (["lorentz", "--units", "custom", "--c", "2", "--v", "3,0,0"],
     "superluminal frame velocity: |v|^2/c^2 = 2.25 >= 1"),
    (["coulomb", "--units", "custom", "--hbar", "0.1", "--m0", "1.5", "--z", "5",
      "--r-max", "1.5", "--n-points", "1158"],
     "use n_points >= 22500 at r_max = 1125 Bohr radii"),
])
def test_rejection_names_its_reason(capsys, argv, reason):
    assert reason in one_line_usage_error(capsys, argv)


@pytest.mark.parametrize("tiny", ["1e-160", "1e-320"])
def test_tiny_zitter_weights_match_unit_weights(capsys, tiny):
    # normalizing divides out the largest weight's power of two first, so
    # weights whose squares underflow give the unit weights' superposition
    code, report = run_json(capsys, ["zitter", f"--weights={tiny},0,0,0"])
    _, unit = run_json(capsys, ["zitter", "--weights=1,0,0,0"])
    assert code == EXIT_OK
    assert report["results"] == unit["results"]
    assert report["checks"] == unit["checks"]


def test_non_finite_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pmax=-inf\n")
    assert main(["dispersion", "--config", str(cfg)]) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err


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
