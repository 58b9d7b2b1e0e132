import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gravshift.cli import main
from gravshift.units import CONSTANTS

import oracles

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestConstantsCommand:
    def test_flat_json_dump(self, capsys):
        code, out, _ = run_cli(["constants"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["G", "c", "h", "hbar", "alpha", "m_electron", "eV"]
        assert payload == CONSTANTS.as_si_dict()

    def test_seventeen_digit_round_trip(self, capsys):
        _, out, _ = run_cli(["constants"], capsys)
        assert json.loads(out)["G"] == 6.67430e-11


class TestPotentialCommand:
    def test_single_point(self, capsys):
        code, out, _ = run_cli(["potential", "--at", "earth:0", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["phi_m2_s2"] == pytest.approx(-6.2565145911e7, rel=1e-9)
        assert rows[0]["phi_over_c2"] == pytest.approx(-6.9613113105e-10, rel=1e-9)

    def test_absolute_radius_and_superposition(self, capsys):
        spec = f"sun:r={oracles.AU}+earth:0"
        code, out, _ = run_cli(["potential", "--at", spec, "--format", "json"], capsys)
        assert code == 0
        phi = json.loads(out)[0]["phi_m2_s2"]
        expected = (-oracles.G * oracles.M_SUN / oracles.AU
                    - oracles.G * oracles.M_EARTH / oracles.R_EARTH)
        assert phi == pytest.approx(expected, rel=1e-12)

    def test_interior_point_exits_one(self, capsys):
        code, _, err = run_cli(["potential", "--at", "earth:r=1"], capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_body_exits_one(self, capsys):
        code, _, err = run_cli(["potential", "--at", "vulcan:0"], capsys)
        assert code == 1
        assert "vulcan" in err


class TestShiftCommand:
    def test_tower_example(self, capsys):
        code, out, _ = run_cli(
            ["shift", "--body", "earth", "--emit-alt", "0", "--obs-alt", "22.5",
             "--model", "emitter", "--format", "json"], capsys)
        assert code == 0
        shift = json.loads(out)["fractional_shift"]
        assert shift == pytest.approx(-oracles.G_STANDARD * 22.5 / oracles.C2, rel=2e-3)

    def test_equal_altitudes_give_zero(self, capsys):
        code, out, _ = run_cli(
            ["shift", "--model", "emitter", "--emit-alt", "100", "--obs-alt", "100",
             "--body", "earth", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["fractional_shift"] == 0.0

    def test_double_model_doubles(self, capsys):
        args = ["shift", "--body", "earth", "--emit-alt", "0", "--obs-alt", "22.5",
                "--format", "json"]
        _, single_out, _ = run_cli(args + ["--model", "emitter"], capsys)
        _, double_out, _ = run_cli(args + ["--model", "double"], capsys)
        assert json.loads(double_out)["fractional_shift"] == \
            2.0 * json.loads(single_out)["fractional_shift"]

    def test_point_spec_form(self, capsys):
        code, out, _ = run_cli(
            ["shift", "--model", "photon", "--emit", "sun:0",
             "--obs", f"sun:r={oracles.AU}", "--format", "json"], capsys)
        assert code == 0
        shift = json.loads(out)["fractional_shift"]
        assert shift == pytest.approx(-2.1127277014e-06, rel=1e-9)

    def test_conflicting_point_flags_rejected(self, capsys):
        code, _, err = run_cli(
            ["shift", "--model", "emitter", "--body", "earth", "--emit-alt", "0",
             "--emit-r-m", "7e6", "--obs-alt", "1"], capsys)
        assert code == 1
        assert "exactly one" in err


class TestSpectrumCommand:
    def test_csv_header_and_ground_state(self, capsys):
        code, out, _ = run_cli(["spectrum", "--z", "1", "--n-range", "1:2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "state,E_eV,nu_Hz,shift_fractional"
        rows = parse_csv(out)
        assert len(rows) == 3
        assert float(rows[0]["E_eV"]) == pytest.approx(13.6059, rel=1e-5)
        assert float(rows[0]["shift_fractional"]) == 0.0

    def test_states_list_with_potential(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--z", "1", "--states", "0:1/2,1:1/2", "--at", "earth:0"],
            capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row["shift_fractional"]) == pytest.approx(-6.96131e-10, rel=1e-4)

    def test_bad_state_spec_rejected(self, capsys):
        code, _, err = run_cli(["spectrum", "--states", "nonsense"], capsys)
        assert code == 1
        assert "state" in err


class TestPhotonCommand:
    def test_single_trace_keys(self, capsys):
        code, out, _ = run_cli(
            ["photon", "--body", "sun", "--b-radii", "2", "--tol", "1e-8"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["deflection_rad", "deflection_arcsec",
                                 "transit_time_s", "time_excess_s", "closest_approach_m"]
        assert abs(payload["deflection_rad"]) == pytest.approx(
            oracles.deflection_quadrature(oracles.MU_SUN, 2.0 * oracles.R_SUN), rel=1e-3)
        assert payload["time_excess_s"] > 0.0

    def test_sweep_emits_csv(self, capsys):
        code, out, _ = run_cli(
            ["photon", "--body", "sun", "--sweep-radii", "5:10:2", "--tol", "1e-7",
             "--format", "csv"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["b_m"]) for r in rows] == [5.0 * oracles.R_SUN, 10.0 * oracles.R_SUN]
        assert abs(float(rows[0]["deflection_rad"])) > abs(float(rows[1]["deflection_rad"]))

    def test_impact_exits_one(self, capsys):
        code, _, err = run_cli(
            ["photon", "--body", "sun", "--b-radii", "0.5", "--tol", "1e-6"], capsys)
        assert code == 1
        assert "impact" in err

    @pytest.mark.parametrize("factor", ["1000", "1e9"])
    def test_term_factor_above_200_exits_one(self, capsys, factor):
        code, out, err = run_cli(
            ["photon", "--body", "earth", "--b-radii", "1", "--tol", "1e-6",
             "--term-factor", factor], capsys)
        assert code == 1
        assert out == ""
        assert "outside [10, 200]" in err


class TestExperimentCommand:
    def test_default_registry_exit_zero(self, capsys):
        code, out, _ = run_cli(["experiment", "--report", "text"], capsys)
        assert code == 0
        assert "EXCLUDED" in out
        assert out.count("consistent") >= 6

    def test_json_report(self, capsys):
        code, out, _ = run_cli(["experiment", "--report", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["double_effect_excluded"] is True
        assert payload["single_models_consistent"] is True
        assert payload["exit_code"] == 0
        assert len(payload["reports"]) == 9

    def test_loose_threshold_exits_one(self, capsys):
        code, _, _ = run_cli(["experiment", "--threshold", "1000"], capsys)
        assert code == 1

    def test_custom_registry_flag(self, tmp_path, capsys):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps([{
            "name": "only-pound",
            "geometry": {"type": "tower", "body": "earth", "height_m": 22.5},
            "measured_ratio": 1.05,
            "ratio_uncertainty": 0.10,
        }]))
        code, out, _ = run_cli(
            ["experiment", "--registry", str(path), "--report", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["reports"]) == 3


class TestDeterminismAndParity:
    def test_identical_invocations_byte_identical(self, capsys):
        args = ["experiment", "--report", "json"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_shift_json_csv_parity(self, capsys):
        args = ["shift", "--body", "earth", "--emit-alt", "0", "--obs-alt", "22.5",
                "--model", "emitter"]
        _, json_out, _ = run_cli(args + ["--format", "json"], capsys)
        _, csv_out, _ = run_cli(args + ["--format", "csv"], capsys)
        js = json.loads(json_out)
        cs = parse_csv(csv_out)[0]
        for key in ("phi_emit_m2_s2", "phi_obs_m2_s2", "fractional_shift"):
            assert float(cs[key]) == pytest.approx(js[key], rel=1e-15)

    def test_spectrum_json_csv_parity(self, capsys):
        args = ["spectrum", "--z", "2", "--n-range", "1:3", "--at", "earth:100"]
        _, json_out, _ = run_cli(args + ["--format", "json"], capsys)
        _, csv_out, _ = run_cli(args + ["--format", "csv"], capsys)
        js = json.loads(json_out)
        cs = parse_csv(csv_out)
        assert len(js) == len(cs) == 6
        for j_row, c_row in zip(js, cs):
            assert j_row["state"] == c_row["state"]
            for key in ("E_eV", "nu_Hz", "shift_fractional"):
                assert float(c_row[key]) == pytest.approx(j_row[key], rel=1e-15)


class TestUsageErrors:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["constants", "--bogus"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_model_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["shift", "--model", "quintuple", "--body", "earth",
                  "--emit-alt", "0", "--obs-alt", "1"])
        assert err.value.code == 2


class TestDataDirOverride:
    def test_env_var_redirects_registries(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bodies.json").write_text(json.dumps(
            [{"name": "kerbin", "mass_kg": 5.2915158e22, "radius_m": 6e5}]))
        (tmp_path / "experiments.json").write_text(json.dumps([{
            "name": "kerbin-tower",
            "geometry": {"type": "tower", "body": "kerbin", "height_m": 10.0},
            "measured_ratio": 1.0,
            "ratio_uncertainty": 0.5,
        }]))
        monkeypatch.setenv("GRAVSHIFT_DATA_DIR", str(tmp_path))
        code, out, _ = run_cli(["experiment", "--report", "json"], capsys)
        payload = json.loads(out)
        assert [r["experiment"] for r in payload["reports"]][0] == "kerbin-tower"
        # a single consistent-with-everything record cannot exclude the double effect
        assert code == 1


class TestProcessLevel:
    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "gravshift", "experiment", "--report", "text"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "EXCLUDED" in proc.stdout
