import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import zipfile
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gravshift import cli, experiments, gravity, spectra
from gravshift.cli import main
from gravshift.data import data_file

import oracles
from printed_columns import check_stdout, parse_stdout
from test_public_surface import GOLDEN_STDOUT

#: the directory the suite imported gravshift from: src/ of the checkout, or
#: the site-packages of an installed package
IMPORT_ROOT = Path(cli.__file__).resolve().parent.parent
README = Path(__file__).resolve().parent.parent / "README.md"
SUBCOMMANDS = ["constants", "potential", "spectrum", "shift", "photon", "experiment"]
#: names the name rule refuses, for bodies and records alike: each would
#: split or misalign the rows of a text table
BAD_NAMES = ["", "a  b", "two  words\nnext", "a\nb", "earth\n"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(argv, out):
    """The printed rows of a run, as {column: value}."""
    return parse_stdout(argv, out)[1]


#: G*M/(R*c^2) of 1 m bodies: points near the weak-field limit of 1, and
#: points so weak that 1 + phi/c^2 rounds to 1
COMPACT_X = [0.5, 0.9, 1 - 2**-52, 1e-17, 1e-300]
#: {name: (mass_kg, radius_m)} of a 1 m body for each of COMPACT_X, and of a
#: body of G*M/c^2 = 1 m inside that radius, which a ray at b = 1 m passes
#: at r_min = 5 mm, where |phi|/c^2 = 200
COMPACT = {**{f"compact{i}": (x * oracles.C2 / oracles.G, 1.0) for i, x in enumerate(COMPACT_X)},
           "compact5": (oracles.C2 / oracles.G, 1e-3)}
#: the packaged bodies and the compact ones, as the file COMPACT_BODIES holds them
BODIES = {**oracles.MASS_RADIUS, **COMPACT}
#: stands in an argv for the path of that file
COMPACT_BODIES = "<compact bodies>"


@pytest.fixture(scope="module")
def compact_bodies(tmp_path_factory):
    path = tmp_path_factory.mktemp("compact") / "bodies.json"
    path.write_text(json.dumps(
        json.loads(data_file("bodies.json").read_text(encoding="utf-8"))
        + [{"name": name, "mass_kg": mass, "radius_m": radius}
           for name, (mass, radius) in COMPACT.items()]))
    return str(path)


SHIFT_POINTS = [
    ["--body", "earth", "--emit-alt", "0", "--obs-alt", "22.5"],
    ["--body", "earth", "--emit-alt", "0", "--obs-alt", "0.001"],
    ["--body", "earth", "--emit-r-m", "6.371e6", "--obs-r-m", "6.3710225e6"],
    ["--body", "sun", "--emit-r-m", "1e12", "--obs-alt", "0"],
    ["--body", "earth", "--emit", "earth:0", "--obs-alt", "22.5"],
    ["--emit", "sun:0", "--obs", f"sun:r={oracles.AU}"],
    ["--emit", f"sun:0+earth:r={oracles.AU}", "--obs", f"sun:r={oracles.AU}+earth:0"],
    ["--body", "earth", "--emit-alt", "100", "--obs-alt", "100"],
]
SPECTRUM_POINTS = [None, "earth:0", "sun:r=1.495978707e11", "earth:r=7e6+sun:r=1.495978707e11"]
EARTH_RAY = ["photon", "--body", "earth", "--b-radii", "5", "--tol", "1e-6", "--term-factor", "10"]

#: argv whose every printed value TestOracles holds to its oracle, in every
#: format and across the ranges that stress each column; the golden argv of
#: test_public_surface are held there
CASES = [
    ["potential", "--at", "earth:0", "--format", "json"],
    ["potential", "--at", f"sun:r={oracles.AU}+earth:0", "--format", "json"],
    *(["shift", "--model", model, *points, "--format", fmt]
      for points in SHIFT_POINTS for model in ("emitter", "photon", "double")
      for fmt in ("text", "csv", "json")),
    ["spectrum", "--z", "1", "--states", "0:1/2,1:1/2", "--at", "earth:0"],
    # every line shifts by phi/c^2, down to -4.4e-18 at earth:r=1e15
    *(["spectrum", "--n-range", "1:30", "--at", at, "--format", "json"]
      for at in ("earth:0", "sun:0", "earth:r=1e9", "earth:r=1e15")),
    *(["spectrum", "--z", str(z), "--n-range", "1:30",
       *([] if at is None else ["--at", at]),
       *([] if mass is None else ["--emitter-mass-kg", repr(mass)])]
      for z in (1, 2, 10, 50, 92, 137) for at in SPECTRUM_POINTS
      for mass in (None, 1.67262192369e-27)),
    # the largest mass whose frequency is finite
    ["spectrum", "--n-range", "1:1", "--emitter-mass-kg", "1e262"],
    # phi/c^2 = -0.9: the rounding of G*M is amplified 9 times in m*(1 + phi/c^2)
    ["spectrum", "--z", "48", "--n-range", "12:29", "--at", "compact1:1e-300",
     "--bodies", COMPACT_BODIES],
    ["photon", "--body", "sun", "--b-radii", "2", "--tol", "1e-8"],
    *([*EARTH_RAY, "--format", fmt] for fmt in ("json", "csv", "text")),
    ["photon", "--body", "sun", "--sweep-radii", "5:10:2", "--tol", "1e-7", "--format", "csv"],
    ["photon", "--body", "earth", "--sweep-m", "2e7:4e7:2", "--tol", "1e-6", "--format", "text"],
    # the ray inside the termination circle, factor * b
    *(["photon", "--body", name, "--sweep-radii", "1:20:5", "--tol", tol,
       "--term-factor", factor, "--format", "json"]
      for name in ("sun", "earth") for tol in ("1e-6", "1e-10") for factor in ("10", "200")),
    # a threshold nothing passes excludes no model: exit 1
    ["experiment", "--threshold", "1000"],
    # sigmas: Pound-Rebka 0.5 and 9.5 (double), Pound-Snider 0.13 and 131.7,
    # Snider solar 0.17 and 16.5; a sigma equal to the threshold is consistent
    *(["experiment", "--report", "json", "--threshold", threshold]
      for threshold in ("0.25", "3", "5", "9.4999999999999982", "10", "16.5", "200")),
]


class TestOracles:
    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_stdout_matches_the_oracles(self, capsys, compact_bodies, argv):
        argv = [compact_bodies if arg == COMPACT_BODIES else arg for arg in argv]
        code, out, err = run_cli(argv, capsys)
        assert out and err == ""
        check_stdout(argv, code, out, BODIES)


class TestPotentialCommand:
    def test_interior_point_exits_one(self, capsys):
        code, _, err = run_cli(["potential", "--at", "earth:r=1"], capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["potential", "--at", "vulcan:0"],
        ["shift", "--model", "emitter", "--body", "vulcan", "--emit-alt", "0",
         "--obs-alt", "1"],
        ["photon", "--body", "vulcan", "--b-radii", "2"],
    ], ids=lambda argv: argv[0])
    def test_unknown_body_exits_one(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "unknown body 'vulcan'" in err

    def test_non_finite_distance_names_the_point(self, capsys):
        code, out, err = run_cli(["potential", "--at", "earth:nan"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: point 'earth:nan': distance to body 'earth' is not finite\n"

    def test_signed_exponent_stays_in_its_distance(self, capsys):
        printed = []
        for spec in ("earth:1e+3", "earth:1000"):
            code, out, err = run_cli(["potential", "--at", spec], capsys)
            assert (code, err) == (0, "")
            [row] = rows(["potential"], out)
            printed.append((row["phi_m2_s2"], row["phi_over_c2"]))
        assert printed[0] == printed[1]

    def test_signed_exponents_print_the_golden_numbers(self, capsys):
        def numbers(text):
            return [(row["phi_m2_s2"], row["phi_over_c2"]) for row in rows(["potential"], text)]

        code, out, _ = run_cli(["potential", "--at", "earth:0", "--at",
                                "earth:r=7e+6+sun:r=1.495978707e+11"], capsys)
        assert code == 0
        golden = "potential --at earth:0 --at earth:r=7e6+sun:r=1.495978707e11"
        assert numbers(out) == numbers(GOLDEN_STDOUT[golden])


class TestShiftCommand:
    def test_double_model_doubles(self, capsys):
        args = ["shift", "--body", "earth", "--emit-alt", "0", "--obs-alt", "22.5",
                "--format", "json"]
        _, single_out, _ = run_cli(args + ["--model", "emitter"], capsys)
        _, double_out, _ = run_cli(args + ["--model", "double"], capsys)
        assert json.loads(double_out)["fractional_shift"] == \
            2.0 * json.loads(single_out)["fractional_shift"]

    @pytest.mark.parametrize("body", ["earth", "sun"])
    @pytest.mark.parametrize("alt, height", [(0.0, 22.5), (1e-300, 1e20), (3.7, 1234.5),
                                             (-5.0, 0.0)])
    def test_altitude_flags_and_point_specs_are_one_point(self, capsys, body, alt, height):
        # the same radius + altitude float, label and refusal (the last is
        # inside the body) either way
        results = [run_cli(["shift", "--model", "emitter", *points], capsys) for points in (
            ["--body", body, f"--emit-alt={alt!r}", f"--obs-alt={height!r}"],
            ["--emit", f"{body}:{alt!r}", "--obs", f"{body}:{height!r}"])]
        assert results[0] == results[1]
        assert results[0][0] == (1 if alt < 0.0 else 0)

    def test_printed_shift_is_first_order_in_the_observer_potential(self, capsys):
        # the exact ratio nu_e/nu_o - 1 = (x_e - x_o)/(1 + x_o) that spectrum
        # implies, x = phi/c^2, differs from the printed x_e - x_o by x_o of itself
        emit, obs = f"sun:0+earth:r={oracles.AU}", f"sun:r={oracles.AU}+earth:0"
        _, out, _ = run_cli(["shift", "--model", "emitter", "--emit", emit, "--obs", obs,
                             "--format", "json"], capsys)
        record = json.loads(out)
        nu = {}
        for side, spec in (("emit", emit), ("obs", obs)):
            _, out, _ = run_cli(["spectrum", "--n-range", "1:1", "--at", spec,
                                 "--format", "json"], capsys)
            [row] = json.loads(out)
            nu[side] = Fraction(row["nu_Hz"])
        ratio = nu["emit"] / nu["obs"]
        relative = (Fraction(record["fractional_shift"]) - ratio + 1) / (ratio - 1)
        assert float(relative) == pytest.approx(
            record["phi_obs_m2_s2"] / oracles.C2, abs=2e-10)

    def test_each_point_potential_is_computed_once(self, monkeypatch, capsys):
        # the weak-field refusal and the printed phi columns share one value
        calls = []

        def counted(point):
            calls.append(point.label)
            return real(point)

        real = gravity.potential
        for module in (gravity, spectra, cli):
            if getattr(module, "potential", None) is real:
                monkeypatch.setattr(module, "potential", counted)
        code, _, _ = run_cli(["shift", "--model", "double", "--emit", "sun:0+earth:r=1.5e11",
                              "--obs", "sun:r=1.5e11+earth:0"], capsys)
        assert (code, sorted(calls)) == (0, ["emit", "obs"])

    def test_conflicting_point_flags_rejected(self, capsys):
        code, _, err = run_cli(
            ["shift", "--model", "emitter", "--body", "earth", "--emit-alt", "0",
             "--emit-r-m", "7e6", "--obs-alt", "1"], capsys)
        assert code == 1
        assert "exactly one" in err

    def test_point_without_a_body_of_the_other_exits_one(self, capsys):
        code, out, err = run_cli(
            ["shift", "--model", "emitter", "--emit", "sun:0+earth:r=1.5e11",
             "--obs", "earth:0"], capsys)
        assert code == 1
        assert out == ""
        assert "point 'obs' has no distance for body 'sun'" in err

    def test_non_finite_altitude_names_the_point(self, capsys):
        code, out, err = run_cli(
            ["shift", "--model", "emitter", "--body", "earth", "--emit-alt", "nan",
             "--obs-alt", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: point 'emit': distance to body 'earth' is not finite\n"


class TestSpectrumCommand:
    def test_bad_state_spec_rejected(self, capsys):
        code, _, err = run_cli(["spectrum", "--states", "nonsense"], capsys)
        assert code == 1
        assert "state" in err

    @pytest.mark.parametrize("extra", [
        ["--n-range", "1:1"], ["--n-range", "1:1", "--emitter-mass-kg", "nan"],
        ["--n-range", "1:1", "--at", "mars:0"], ["--states", "0:1/2,bad"], ["--states", "0:2/2"],
    ], ids=["plain", "nan-mass", "unknown-body", "bad-state", "integer-j"])
    def test_z_above_137_is_refused_with_its_first_state(self, capsys, extra):
        code, out, err = run_cli(["spectrum", "--z", "138", *extra], capsys)
        assert (code, out) == (1, "")
        assert err == "error: alpha*Z >= 1 at Z = 138: outside the perturbative domain\n"

    def test_zero_emitter_mass_exits_one(self, capsys):
        # 0 is a given mass, not an absent one: no fallback to the electron
        code, out, err = run_cli(
            ["spectrum", "--n-range", "1:1", "--emitter-mass-kg", "0"], capsys)
        assert code == 1
        assert out == ""
        assert "emitter rest mass must be positive" in err

    def test_emitter_mass_is_refused_before_the_point(self, capsys):
        code, out, err = run_cli(["spectrum", "--n-range", "1:1", "--emitter-mass-kg", "0",
                                  "--at", "mars:0"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: emitter rest mass must be positive and finite, got 0.0\n"

    def test_overflowing_state_exits_one(self, capsys):
        code, out, err = run_cli(["spectrum", "--states", "0:1/2,0:1e400"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: bad state '0:1e400'\n"

    def test_subnormal_emitter_mass_exits_one(self, capsys):
        # the shift printed 0 here; the true value is about -2.1226e-6
        code, out, err = run_cli(
            ["spectrum", "--n-range", "1:1", "--emitter-mass-kg", "1e-320", "--at", "sun:0"],
            capsys)
        assert code == 1
        assert out == ""
        assert "smallest normal float" in err

    def test_overflowing_level_energy_exits_one(self, capsys):
        code, out, err = run_cli(
            ["spectrum", "--n-range", "1:1", "--emitter-mass-kg", "1e308"], capsys)
        assert code == 1
        assert out == ""
        assert "level energy of Z=1 n=1 j=1/2 n'=0 overflows" in err

    @pytest.mark.parametrize("mass", ["1e263", "1e278"])
    def test_overflowing_frequency_names_state_and_mass(self, capsys, mass):
        # the level energy is finite here, but E/h is not
        code, out, err = run_cli(
            ["spectrum", "--n-range", "1:1", "--emitter-mass-kg", mass], capsys)
        assert code == 1
        assert out == ""
        assert err == (f"error: level energy of Z=1 n=1 j=1/2 n'=0 overflows at mass "
                       f"{float(mass):g} kg: E must be a normal float and E/h finite\n")

    @pytest.mark.parametrize("mass", ["nan", "inf"])
    def test_non_finite_emitter_mass_exits_one(self, capsys, mass):
        code, out, err = run_cli(
            ["spectrum", "--n-range", "1:1", "--emitter-mass-kg", mass], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: emitter rest mass must be positive and finite, got {mass}\n"

    @pytest.mark.parametrize("n_range", ["1:447", "5:447", "16:447", "1:100000", "1:" + "9" * 30])
    def test_n_range_is_capped(self, capsys, n_range):
        # refused before any state is built
        code, out, err = run_cli(["spectrum", "--n-range", n_range], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: bad --n-range '{n_range}': more than 100000 states\n"

    def test_n_range_just_under_the_cap_is_accepted(self, capsys):
        # 17:447 holds 447*448/2 - 16*17/2 = 99 992 states, 16:447 holds 100 008
        code, out, err = run_cli(["spectrum", "--n-range", "17:447"], capsys)
        assert (code, err) == (0, "")
        assert out.count("\n") == 1 + 99_992

    def test_n_range_cap_counts_states(self, capsys, monkeypatch):
        # 1:3 holds 1 + 2 + 3 = 6 states, 1:4 holds 10
        monkeypatch.setattr(cli, "MAX_STATES", 6)
        code, out, _ = run_cli(["spectrum", "--n-range", "1:3"], capsys)
        assert code == 0
        assert len(rows(["spectrum"], out)) == 6
        code, out, err = run_cli(["spectrum", "--n-range", "1:4"], capsys)
        assert code == 1
        assert err == "error: bad --n-range '1:4': more than 6 states\n"
        # 6:6 holds the 6 states of n = 6 alone: 6*7/2 less the low end's 5*6/2
        code, out, _ = run_cli(["spectrum", "--n-range", "6:6"], capsys)
        assert code == 0
        assert len(rows(["spectrum"], out)) == 6


class TestPhotonCommand:
    def test_sweep_keeps_rays_that_trace(self, capsys):
        # the ray at 0.9 radii strikes the sun; the other three trace fine
        argv = ["photon", "--body", "sun", "--sweep-radii", "0.9:3:4", "--tol", "1e-6",
                "--format", "csv"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert len(rows(argv, out)) == 3
        check_stdout(argv, code, out)
        lines = err.splitlines()
        assert len(lines) == 1
        assert "626130000" in lines[0] and "impact" in lines[0]

    def test_impact_exits_one(self, capsys):
        code, _, err = run_cli(
            ["photon", "--body", "sun", "--b-radii", "0.5", "--tol", "1e-6"], capsys)
        assert code == 1
        assert "impact" in err

    @pytest.mark.parametrize("body", ["sun", "earth"])
    @pytest.mark.parametrize("ray", [["--b-m", "5e-324"], ["--b-radii", "5e-324"],
                                     ["--b-m", "5e-324", "--term-factor", "10"]])
    def test_subnormal_impact_parameter_is_an_impact(self, capsys, body, ray):
        # mu overflows (or the length unit underflows to 0) for so small a b
        code, out, err = run_cli(["photon", "--body", body, "--tol", "1e-6", *ray], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: ray impacted body '{body}' (closest approach 0.000000e+00 m)\n"

    @pytest.mark.parametrize("mu", [1e-320, 1e-315, 1.1e-308])
    @pytest.mark.parametrize("tol", ["1e-6", "1e-12"])
    def test_subnormal_bend_exits_one(self, tmp_path, capsys, mu, tol):
        # a 1 m body of G*M/c^2 = mu traced at b = 1 m bends by 2*mu, a
        # subnormal; at 1e-320 the printed deflection was 0.07% off at tol 1e-12
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps(
            [{"name": "feeble", "mass_kg": mu * oracles.C2 / oracles.G, "radius_m": 1.0}]))
        code, out, err = run_cli(["photon", "--bodies", str(path), "--body", "feeble",
                                  "--b-m", "1", "--tol", tol], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: bend ") and err.endswith("lost to rounding\n")

    @pytest.mark.parametrize("ray, ratio", [(["--b-m", "1.2"], "4.88"),
                                            (["--b-m", "0.995001", "--tol", "1e-6"], "1e+06")])
    def test_periapsis_outside_the_weak_field_exits_one(self, tmp_path, capsys, ray, ratio):
        # a body of G*M/c^2 = 1 m inside its index radius: at b = 1.2 m the ray
        # would wind round it, a bend beyond the range of atan2
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps(
            [{"name": "k", "mass_kg": oracles.C2 / oracles.G, "radius_m": 1e-300}]))
        code, out, err = run_cli(["photon", "--bodies", str(path), "--body", "k", *ray],
                                 capsys)
        assert (code, out) == (1, "")
        assert err == f"error: |phi|/c^2 = {ratio} >= 1: outside the weak-field domain\n"

    @pytest.mark.parametrize("count", ["10001", "1000000000000000000000"])
    def test_sweep_count_is_capped(self, capsys, count):
        # refused before any b value is built or traced
        code, out, err = run_cli(
            ["photon", "--body", "sun", "--sweep-radii", f"1:2:{count}"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: bad sweep '1:2:{count}': COUNT above 10000\n"

    @pytest.mark.parametrize("fmt, header", [
        ("csv", "b_m,deflection_rad,deflection_arcsec,transit_time_s,time_excess_s,"
                "closest_approach_m\n"),
        ("text", "b_m  deflection_rad  deflection_arcsec  transit_time_s  time_excess_s  "
                 "closest_approach_m\n"),
        ("json", "[]\n"),
    ])
    def test_sweep_with_every_ray_refused_prints_the_header_alone(self, capsys, fmt, header):
        code, out, err = run_cli(
            ["photon", "--body", "earth", "--sweep-radii", "0.1:0.2:2", "--format", fmt],
            capsys)
        assert code == 1
        assert out == header
        lines = err.splitlines()
        assert len(lines) == 2
        for line, b in zip(lines, (0.1 * oracles.R_EARTH, 0.2 * oracles.R_EARTH)):
            assert line.startswith(f"error: b_m {b:.17g}: ray impacted body 'earth'")

    @pytest.mark.parametrize("factor", ["1000", "1e9"])
    def test_term_factor_above_200_exits_one(self, capsys, factor):
        code, out, err = run_cli(
            ["photon", "--body", "earth", "--b-radii", "1", "--tol", "1e-6",
             "--term-factor", factor], capsys)
        assert code == 1
        assert out == ""
        assert "outside [10, 200]" in err


#: measured ratios and uncertainties from the smallest subnormal to the
#: largest float
EXTREME_VALUES = [5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1e300, 1.7976931348623157e308]


def tower_registry(tmp_path, ratio, unc):
    """The path of a registry of one 22.5 m tower record named 'extreme'."""
    path = tmp_path / "reg.json"
    path.write_text(json.dumps([{"name": "extreme", "emit": "earth:0", "observe": "earth:22.5",
                                 "measured_ratio": ratio, "ratio_uncertainty": unc}]))
    return path


class TestExperimentCommand:
    @pytest.mark.parametrize("threshold, report", [("nan", "text"), ("inf", "text"),
                                                   ("inf", "json")])
    def test_non_finite_threshold_exits_one(self, capsys, threshold, report):
        # the JSON report printed "threshold": inf, which no JSON reader accepts
        code, out, err = run_cli(["experiment", "--threshold", threshold, "--report", report],
                                 capsys)
        assert (code, out) == (1, "")
        assert err == f"error: exclusion threshold must be positive and finite, got {threshold}\n"

    def test_custom_registry_flag(self, tmp_path, capsys):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps([{
            "name": "only-pound",
            "emit": "earth:0",
            "observe": "earth:22.5",
            "measured_ratio": 1.05,
            "ratio_uncertainty": 0.10,
        }]))
        argv = ["experiment", "--registry", str(path), "--report", "json"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        check_stdout(argv, code, out)

    def test_registry_point_naming_a_body_twice_exits_one(self, tmp_path, capsys):
        # keeping only the last sun distance would judge a zero shift consistent
        path = tmp_path / "reg.json"
        path.write_text(json.dumps([{
            "name": "twice",
            "emit": "sun:0+sun:r=1.495978707e11",
            "observe": "sun:r=1.495978707e11",
            "measured_ratio": 1.0,
            "ratio_uncertainty": 0.1,
        }]))
        code, out, err = run_cli(["experiment", "--registry", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert f"{path}: record #0 (twice): point 'emit' names body 'sun' twice" in err

    @pytest.mark.parametrize("emit, observe", [
        ("earth:r=7e6", "earth:r=7e6"),
        ("sun:0+earth:r=1.495978707e11", "earth:r=1.495978707e11+sun:0"),
    ], ids=["one-body", "two-bodies"])
    def test_record_at_one_potential_exits_one(self, tmp_path, emit, observe, capsys):
        # a record that predicts no shift printed a double sigma of 10,
        # "excluded"; it is refused where the file is read
        path = tmp_path / "reg.json"
        path.write_text(json.dumps([{"name": "flat", "emit": emit, "observe": observe,
                                     "measured_ratio": 1.0, "ratio_uncertainty": 0.1}]))
        code, out, err = run_cli(["experiment", "--registry", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: {path}: record #0 (flat): "
                       "emit and observe are at the same potential\n")

    @pytest.mark.parametrize("ratio, unc, refusal", [
        # the double row divides the uncertainty by 2, to 0: a ZeroDivisionError
        (1.0, 5e-324, "sigma of the double model is not finite (ratio 0.5, uncertainty 0)"),
        # 1e300/1e-300 overflows, and the JSON report printed "sigma": inf
        (1e300, 1e-300,
         "sigma of the emitter model is not finite (ratio 1e+300, uncertainty 1e-300)"),
    ], ids=["uncertainty-halved-to-zero", "sigma-overflows"])
    @pytest.mark.parametrize("report", ["text", "json"])
    def test_record_whose_sigma_is_not_finite_exits_one(self, tmp_path, ratio, unc, refusal,
                                                       report, capsys):
        path = tower_registry(tmp_path, ratio, unc)
        code, out, err = run_cli(["experiment", "--registry", str(path), "--report", report],
                                 capsys)
        assert (code, out) == (1, "")
        assert err == f"error: record 'extreme': {refusal}\n"

    @pytest.mark.parametrize("unc", EXTREME_VALUES)
    @pytest.mark.parametrize("ratio", EXTREME_VALUES)
    @pytest.mark.parametrize("report", ["text", "json"])
    def test_extreme_record_values_print_checked_rows_or_a_refusal(self, tmp_path, ratio, unc,
                                                                   report, capsys):
        path = tower_registry(tmp_path, ratio, unc)
        argv = ["experiment", "--registry", str(path), "--report", report]
        code, out, err = run_cli(argv, capsys)
        if out:
            assert err == ""
            check_stdout(argv, code, out)
        else:
            assert code == 1
            assert re.fullmatch(r"error: record 'extreme': [^\n]+\n", err), err

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_record_name_that_breaks_the_table_exits_one(self, tmp_path, name, capsys):
        # a name with a space or a newline split every text row it was printed in
        path = tmp_path / "reg.json"
        path.write_text(json.dumps([{"name": name, "emit": "earth:0", "observe": "earth:22.5",
                                     "measured_ratio": 1.0, "ratio_uncertainty": 0.1}]))
        code, out, err = run_cli(["experiment", "--registry", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {path}: record #0: invalid record name {name!r}\n"


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
        [cs] = rows(args + ["--format", "csv"], csv_out)
        for key in ("phi_emit_m2_s2", "phi_obs_m2_s2", "fractional_shift"):
            assert float(cs[key]) == pytest.approx(js[key], rel=1e-15)

    def test_spectrum_json_csv_parity(self, capsys):
        args = ["spectrum", "--z", "2", "--n-range", "1:3", "--at", "earth:100"]
        _, json_out, _ = run_cli(args + ["--format", "json"], capsys)
        _, csv_out, _ = run_cli(args + ["--format", "csv"], capsys)
        js = json.loads(json_out)
        cs = rows(args + ["--format", "csv"], csv_out)
        assert len(js) == len(cs) == 6
        for j_row, c_row in zip(js, cs):
            assert j_row["state"] == c_row["state"]
            for key in ("E_eV", "nu_Hz", "shift_fractional"):
                assert float(c_row[key]) == pytest.approx(j_row[key], rel=1e-15)


class TestExtremeArguments:
    """Extreme values through every subcommand: each run prints values that
    pass their oracles or is refused with a message that names what failed."""

    #: every draw reads the packaged bodies and the compact ones from one file
    NAMES = st.sampled_from(list(BODIES))
    VALUES = st.sampled_from(
        [0.0, 5e-324, 1e-300, 1e308, sys.float_info.max, -sys.float_info.max,
         math.nan, math.inf, -math.inf]
        + [v for r in (oracles.R_EARTH, oracles.R_SUN, 1.0)
           for v in (r, -r, math.nextafter(r, 0.0), math.nextafter(r, math.inf))])

    ARGV = st.one_of(
        st.builds(lambda b, form, x, fmt: ["potential", "--at", f"{b}:{form}{x!r}",
                                           "--format", fmt],
                  NAMES, st.sampled_from(["", "r="]), VALUES,
                  st.sampled_from(["text", "csv", "json"])),
        st.builds(lambda model, b, emit, x, obs, y: [
                      "shift", "--model", model, "--body", b,
                      f"--emit-{emit}={x!r}", f"--obs-{obs}={y!r}"],
                  st.sampled_from(["emitter", "photon", "double"]), NAMES,
                  st.sampled_from(["alt", "r-m"]), VALUES,
                  st.sampled_from(["alt", "r-m"]), VALUES),
        st.builds(lambda z, states, mass, at: (
                      ["spectrum", "--z", str(z), *states] + mass + at),
                  st.integers(1, 138),
                  st.one_of(
                      st.integers(1, 40).flatmap(lambda hi: st.integers(1, hi).map(
                          lambda lo: ["--n-range", f"{lo}:{hi}"])),
                      st.just(["--states", "0:1/2,2:3/2"])),
                  st.one_of(st.just([]), VALUES.map(lambda x: [f"--emitter-mass-kg={x!r}"])),
                  st.one_of(st.just([]), st.builds(
                      lambda b, form, x: ["--at", f"{b}:{form}{x!r}"],
                      NAMES, st.sampled_from(["", "r="]), VALUES))),
        st.builds(lambda x, report: ["experiment", f"--threshold={x!r}", "--report", report],
                  VALUES, st.sampled_from(["text", "json"])),
        st.builds(lambda b, ray: ["photon", "--body", b, "--tol", "1e-6", *ray],
                  NAMES,
                  st.one_of(
                      VALUES.map(lambda x: [f"--b-radii={x!r}"]),
                      VALUES.map(lambda x: [f"--b-m={x!r}"]),
                      st.builds(lambda lo, hi, count: [f"--sweep-radii={lo!r}:{hi!r}:{count}"],
                                VALUES, VALUES, st.integers(2, 4)),
                      VALUES.map(lambda x: ["--b-radii", "3", f"--term-factor={x!r}"]))),
    )

    @settings(max_examples=300, deadline=None)
    @given(argv=ARGV)
    def test_finite_output_or_named_refusal(self, compact_bodies, argv):
        argv = argv + ["--bodies", compact_bodies]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        check_stdout(argv, code, out.getvalue(), BODIES)
        assert "quantity value must be finite, got" not in err.getvalue()

    @pytest.mark.parametrize("argv, text", [
        (["--z", "9" * 400, "--n-range", "1:1"], f"alpha*Z >= 1 at Z = {'9' * 400}:"),
        (["--states", "1" + "0" * 400 + ":1/2"], "underflows at mass 9.10938e-31 kg"),
        (["--states", "10000000:1/2", "--emitter-mass-kg", "1e-307"],
         "underflows at mass 1e-307 kg"),
    ], ids=["huge-z", "huge-n-prime", "energy-below-normal"])
    def test_unrepresentable_state_exits_one(self, capsys, argv, text):
        code, out, err = run_cli(["spectrum", *argv], capsys)
        assert code == 1
        assert out == ""
        assert text in err

    @pytest.mark.parametrize("argv, err_text", [
        (["spectrum", "--n-range", "1:1", "--at", ""],
         "error: bad point spec '': expected 'body:ALT_m' or 'body:r=R_m'\n"),
        (["spectrum", "--states", ""],
         "error: bad state '': expected N_PRIME:J (e.g. 0:1/2)\n"),
        (["photon", "--body", "sun", "--sweep-m", ""],
         "error: bad sweep '': expected MIN:MAX:COUNT\n"),
        (["photon", "--body", "sun", "--sweep-radii", ""],
         "error: bad sweep '': expected MIN:MAX:COUNT\n"),
        (["potential", "--at", "earth:0", "--bodies", ""],
         "error: bad body registry path ''\n"),
        (["experiment", "--registry", ""],
         "error: bad experiment registry path ''\n"),
    ], ids=["spectrum-at", "spectrum-states", "photon-sweep-m", "photon-sweep-radii",
            "potential-bodies", "experiment-registry"])
    def test_empty_flag_value_is_refused(self, capsys, argv, err_text):
        # an empty value is a given value, not an absent one: no fallback to
        # the free emitter, the n range or the current directory, and no traceback
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err == err_text

    @pytest.mark.parametrize("argv, err_text", [
        (["potential", "--at", "earth:abc"], "bad distance in point spec 'earth:abc'"),
        (["spectrum", "--n-range", "x:y"], "bad --n-range 'x:y': expected LO:HI"),
        (["spectrum", "--n-range", "3:1"], "bad --n-range '3:1'"),
        (["spectrum", "--n-range", "0:2"], "bad --n-range '0:2'"),
        (["shift", "--model", "emitter", "--emit-alt", "0", "--obs-alt", "1"],
         "--emit-alt/--emit-r-m need --body"),
        (["photon", "--body", "sun", "--sweep-m", "a:b:c"], "bad sweep 'a:b:c'"),
        (["photon", "--body", "earth", "--sweep-radii", "1:1:3"],
         "bad sweep '1:1:3': need MAX > MIN and COUNT >= 2"),
        (["photon", "--body", "earth", "--sweep-radii", "2:1:3"],
         "bad sweep '2:1:3': need MAX > MIN and COUNT >= 2"),
        (["potential", "--at", "earth:"],
         "bad point spec 'earth:': expected 'body:ALT_m' or 'body:r=R_m'"),
        # float() reads ' 5' as 5, but the label would break the text table
        (["potential", "--at", "earth:  5"], "bad distance in point spec 'earth:  5'"),
    ], ids=["potential-at", "spectrum-n-range-text", "spectrum-n-range-reversed",
            "spectrum-n-range-zero", "shift-alt-without-body", "photon-sweep-text",
            "photon-sweep-empty", "photon-sweep-reversed", "potential-at-no-distance",
            "potential-at-spaces"])
    def test_malformed_flag_value_is_refused(self, capsys, argv, err_text):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {err_text}\n"


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


class TestDocumentation:
    @pytest.mark.parametrize("argv", [[], *([name] for name in SUBCOMMANDS)],
                             ids=["gravshift", *SUBCOMMANDS])
    def test_help_exits_zero_with_text(self, capsys, argv):
        # argparse expands '%' in help text only when it prints the help
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("command, flag, fields", [
        ("potential", "--bodies", gravity.BODY_FIELDS),
        ("experiment", "--bodies", gravity.BODY_FIELDS),
        ("experiment", "--registry", experiments.RECORD_FIELDS),
    ], ids=["potential-bodies", "experiment-bodies", "experiment-registry"])
    def test_registry_help_lists_the_schema(self, capsys, command, flag, fields):
        # the keys the help names are those the loader reads, and no others
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        (keys,) = re.findall(rf"{flag} [A-Z]+ [^{{]* a JSON array of {{([^}}]*)}} objects", text)
        assert keys.split(", ") == ["name", *fields]

    def test_readme_examples_match_golden_stdout(self):
        examples = re.findall(r"```console\n\$ gravshift ([^\n]*)\n(.*?)```",
                              README.read_text(encoding="utf-8"), re.S)
        assert [argv.split()[0] for argv, _ in examples] == \
            [name for name in SUBCOMMANDS if name != "photon"]
        for argv, out in examples:
            assert out == GOLDEN_STDOUT[argv], argv

    def test_readme_registry_record_is_the_packaged_one(self):
        (record,) = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        packaged = json.loads(data_file("experiments.json").read_text(encoding="utf-8"))
        assert json.loads(record) == packaged[0]


KERBIN = {"name": "kerbin", "mass_kg": 5.2915158e22, "radius_m": 6e5}

#: registry values that are not JSON numbers in the float range, each with
#: the refusal that follows its field name
BAD_NUMBERS = [
    (True, "{} must be a number, got true"),
    ("5.29e22", '{} must be a number, got "5.29e22"'),
    (None, "{} must be a number, got null"),
    (10**400, "{} is beyond the float range"),
]
BAD_NUMBER_IDS = ["true", "string", "null", "10**400"]


def tower_on(body):
    return {"name": f"{body}-tower", "emit": f"{body}:0", "observe": f"{body}:10",
            "measured_ratio": 1.0, "ratio_uncertainty": 0.5}


class TestPositiveAndFinite:
    """Each value that must be positive and finite, a flag or a registry
    field, is refused in one wording: [<location>: ]<what> must be positive
    and finite, got <repr>."""

    #: each flag's argv, with {} for the value, and the name its refusal gives
    FLAGS = {
        "photon-b-m": (["photon", "--body", "earth", "--b-m={}"], "impact parameter"),
        "experiment-threshold": (["experiment", "--threshold={}"], "exclusion threshold"),
        "spectrum-emitter-mass": (["spectrum", "--n-range", "1:1", "--emitter-mass-kg={}"],
                                  "emitter rest mass"),
    }

    # '--flag=-inf', as argparse reads a bare '-inf' as an option
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("case", [*FLAGS, "body-field", "record-field"])
    def test_one_wording(self, tmp_path, capsys, case, value):
        path = tmp_path / "registry.json"
        if case == "body-field":
            path.write_text(json.dumps([{**KERBIN, "mass_kg": float(value)}]))
            argv = ["potential", "--bodies", str(path), "--at", "kerbin:0"]
            what = f"{path}: body #0 (kerbin): mass_kg"
        elif case == "record-field":
            path.write_text(json.dumps([{**tower_on("earth"), "measured_ratio": float(value)}]))
            argv = ["experiment", "--registry", str(path)]
            what = f"{path}: record #0 (earth-tower): measured_ratio"
        else:
            template, what = self.FLAGS[case]
            argv = [arg.format(value) for arg in template]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {what} must be positive and finite, got {float(value)!r}\n"


class TestRegistryFiles:
    """--bodies names the body registry of every subcommand that reads one,
    and --registry the experiment registry."""

    ARGV = {
        "potential": ["potential", "--at", "{body}:0", "--format", "json"],
        "spectrum": ["spectrum", "--n-range", "1:1", "--at", "{body}:0", "--format", "json"],
        "shift": ["shift", "--model", "emitter", "--body", "{body}", "--emit-alt", "0",
                  "--obs-alt", "10", "--format", "json"],
        "photon": ["photon", "--body", "{body}", "--b-radii", "2", "--tol", "1e-6"],
        "experiment": ["experiment", "--registry", "{registry}", "--report", "json"],
    }

    @pytest.fixture
    def files(self, tmp_path):
        """Paths of a body registry holding only kerbin, and of a tower
        registry on kerbin and on earth."""
        paths = {name: tmp_path / f"{name}.json" for name in ("bodies", "kerbin", "earth")}
        paths["bodies"].write_text(json.dumps([KERBIN]))
        for body in ("kerbin", "earth"):
            paths[body].write_text(json.dumps([tower_on(body)]))
        return {name: str(path) for name, path in paths.items()}

    def argv(self, command, body, files):
        return [arg.format(body=body, registry=files[body]) for arg in self.ARGV[command]] \
            + ["--bodies", files["bodies"]]

    def test_flags_redirect_registries(self, files, capsys):
        code, out, _ = run_cli(["experiment", "--bodies", files["bodies"],
                                "--registry", files["kerbin"], "--report", "json"], capsys)
        payload = json.loads(out)
        assert [r["experiment"] for r in payload["reports"]][0] == "kerbin-tower"
        # a single consistent-with-everything record cannot exclude the double effect
        assert code == 1

    @pytest.mark.parametrize("command", list(ARGV))
    def test_bodies_flag_resolves_its_body(self, files, command, capsys):
        argv = self.argv(command, "kerbin", files)
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (1 if command == "experiment" else 0, "")
        check_stdout(argv, code, out, {"kerbin": (KERBIN["mass_kg"], KERBIN["radius_m"])})

    @pytest.mark.parametrize("field", ["mass_kg", "radius_m"])
    @pytest.mark.parametrize("value, reason", [
        (math.nan, "{} must be positive and finite, got nan"),
        (math.inf, "{} must be positive and finite, got inf"),
        (-math.inf, "{} must be positive and finite, got -inf"),
        *BAD_NUMBERS,
    ], ids=["nan", "inf", "-inf", *BAD_NUMBER_IDS])
    def test_non_finite_body_field_exits_one(self, tmp_path, field, value, reason, capsys):
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([{**KERBIN, field: value}]))
        code, out, err = run_cli(["potential", "--bodies", str(path), "--at", "kerbin:0"],
                                 capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {path}: body #0 (kerbin): {reason.format(field)}\n"

    def test_integer_past_the_digit_limit_exits_one(self, tmp_path, capsys):
        # json refuses more than 4300 digits where Python limits them, and
        # the float conversion refuses them where it does not
        path = tmp_path / "bodies.json"
        path.write_text('[{"name": "kerbin", "mass_kg": %s, "radius_m": 6e5}]' % ("1" * 5000))
        code, out, err = run_cli(["potential", "--bodies", str(path), "--at", "kerbin:0"],
                                 capsys)
        assert (code, out) == (1, "")
        assert f"error: {path}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("x", COMPACT_X)
    def test_compact_body_prints_phi_over_c2_to_a_few_ulps(self, tmp_path, x, capsys):
        # a 1 m body of G*M/(R*c^2) = x: points near the weak-field limit of 1,
        # and points so weak that 1 + phi/c^2 rounds to 1
        mass = x * oracles.C2 / oracles.G
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([{"name": "compact", "mass_kg": mass, "radius_m": 1.0}]))
        for argv in (["potential"], ["spectrum", "--n-range", "1:2"]):
            argv += ["--bodies", str(path), "--at", "compact:0", "--format", "json"]
            code, out, err = run_cli(argv, capsys)
            if argv[0] == "spectrum" and x == 1 - 2**-52 and code == 1:
                # phi/c^2 may round to -1 there
                assert "outside the weak-field domain" in err
                continue
            assert (code, err) == (0, "")
            check_stdout(argv, code, out, {"compact": (mass, 1.0)})

    @pytest.mark.parametrize("spec, shown", [
        (None, "null"), (5, "5"), (["earth:0"], '["earth:0"]'),
        ({"body": "earth"}, '{"body": "earth"}'),
    ], ids=["null", "number", "list", "object"])
    @pytest.mark.parametrize("side", ["emit", "observe"])
    def test_point_spec_that_is_no_string_exits_one(self, tmp_path, side, spec, shown, capsys):
        path = tmp_path / "experiments.json"
        path.write_text(json.dumps([{"name": "x", "emit": "earth:0", "observe": "earth:10",
                                     side: spec, "measured_ratio": 1.0,
                                     "ratio_uncertainty": 0.5}]))
        code, out, err = run_cli(["experiment", "--registry", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == \
            f"error: {path}: record #0 (x): {side} must be a string, got {shown}\n"

    @pytest.mark.parametrize("command", list(ARGV))
    def test_bodies_flag_refuses_a_packaged_body(self, files, command, capsys):
        code, out, err = run_cli(self.argv(command, "earth", files), capsys)
        assert (code, out) == (1, "")
        assert "unknown body 'earth'" in err


def run_python(args, env=None, **kwargs):
    """Run `python *args` to its end, importing gravshift from IMPORT_ROOT.
    Its stdout is block-buffered, as a user's pipe is, so output the process
    does not flush before it ends is lost.  The child gets the caller's
    environment less PYTHONUNBUFFERED and OPENBLAS_NUM_THREADS, so that it
    starts from a user's defaults whatever the calling shell sets, plus the
    variables of ``env``."""
    child_env = {name: value for name, value in os.environ.items()
                 if name not in ("PYTHONUNBUFFERED", "OPENBLAS_NUM_THREADS")}
    child_env.update(env or {})
    child_env["PYTHONPATH"] = str(IMPORT_ROOT) + os.pathsep + child_env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=child_env, **kwargs)


class TestProcessLevel:
    def test_module_entry_point(self):
        proc = run_python(["-m", "gravshift", "experiment", "--report", "text"],
                          capture_output=True, text=True)
        assert proc.returncode == 0
        assert "EXCLUDED" in proc.stdout

    def test_installed_command_is_the_module_entry(self):
        # `gravshift` and `python -m gravshift` share one exit path
        try:
            dist = metadata.distribution("gravshift")
        except metadata.PackageNotFoundError:
            pytest.skip("gravshift is not installed")
        scripts = [e.value for e in dist.entry_points
                   if (e.group, e.name) == ("console_scripts", "gravshift")]
        assert scripts == ["gravshift.__main__:run"]

    @pytest.mark.parametrize("argv", [
        ["constants"],
        ["potential", "--at", "earth:0", "--at", "earth:r=7e6+sun:r=1.495978707e11"],
        ["spectrum", "--z", "2", "--states", "0:1/2,1:3/2", "--at", "sun:0",
         "--emitter-mass-kg", "1.67262192369e-27", "--format", "json"],
        ["shift", "--model", "double", "--body", "earth", "--emit-r-m", "6.371e6",
         "--obs-r-m", "6.3710225e6", "--format", "csv"],
        ["experiment", "--report", "json", "--threshold", "3"],
    ], ids=" ".join)
    def test_stdout_matches_golden(self, argv):
        # the process ends without teardown, so this checks that stdout is flushed first
        proc = run_python(["-m", "gravshift", *argv], capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == GOLDEN_STDOUT[" ".join(argv)].encode("utf-8")

    def test_partial_sweep_prints_the_traced_rays_and_names_the_refused_one(self, capsys):
        argv = ["photon", "--body", "earth", "--sweep-radii", "0.5:2:4", "--tol", "1e-6"]
        proc = run_python(["-m", "gravshift", *argv], capture_output=True, text=True)
        assert proc.returncode == 1
        assert run_cli(argv, capsys)[:2] == (1, proc.stdout)
        assert len(rows(argv, proc.stdout)) == 3
        check_stdout(argv, 1, proc.stdout)
        assert re.fullmatch(r"error: b_m \S+: ray impacted body 'earth' [^\n]*\n", proc.stderr)

    def test_a_command_runs_with_collection_on_and_its_output_flushed(self):
        # with collection off for the whole run, each ray solve's reference
        # cycle would stay until exit; the stub does not flush its print, so
        # run must
        stub = ("import gc\n"
                "from gravshift import __main__, cli\n"
                "cli.main = lambda: print(gc.isenabled()) or 0\n"
                "__main__.run()\n")
        proc = run_python(["-c", stub], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")

    @pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
    def test_blas_threads_default_to_one_unless_set(self, given, expected):
        # the stub cli loads numpy and scipy's BLAS only once run has begun,
        # as the real one does, and reports what their thread pools became
        stub = ("import os, sys, types\n"
                "from gravshift import __main__\n"
                "def main():\n"
                "    import numpy, scipy.integrate\n"
                "    status = '/proc/self/status'\n"
                "    threads = [line.split()[1] for line in open(status)\n"
                "               if line.startswith('Threads:')] if os.path.exists(status) else []\n"
                "    print(os.environ.get('OPENBLAS_NUM_THREADS'), *threads)\n"
                "    return 0\n"
                "sys.modules['gravshift.cli'] = types.ModuleType('gravshift.cli')\n"
                "sys.modules['gravshift.cli'].main = main\n"
                "__main__.run()\n")
        env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
        proc = run_python(["-c", stub], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        value, *threads = proc.stdout.split()
        assert value == expected
        if given is None:
            if not threads:
                pytest.skip("no /proc/self/status to count threads")
            assert threads == ["1"]

    def test_importing_the_cli_leaves_the_environment_alone(self):
        proc = run_python(["-c", "import os, gravshift.cli\n"
                                 "print('OPENBLAS_NUM_THREADS' in os.environ)"],
                          capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_importing_the_package_loads_no_submodule(self):
        # each name is imported from its module, so the package imports none
        proc = run_python(["-c", "import sys, gravshift\n"
                                 "print([m for m in sys.modules if m.startswith('gravshift.')])"],
                          capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_the_process_entry_loads_no_numpy_before_run(self):
        # numpy loaded before run would start its BLAS threads regardless
        proc = run_python(["-c", "import sys, gravshift.__main__\n"
                                 "print('numpy' in sys.modules)"],
                          capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_packaged_registries_read_from_a_zip(self, tmp_path):
        # a zipped package has no file to hand out, only a resource to read
        archive = tmp_path / "gravshift.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in Path(IMPORT_ROOT, "gravshift").rglob("*"):
                if "__pycache__" not in path.parts:
                    zf.write(path, path.relative_to(IMPORT_ROOT))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(archive)
        proc = subprocess.run([sys.executable, "-m", "gravshift", "experiment"],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "EXCLUDED" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["constants"],
        ["photon", "--body", "earth", "--sweep-m", "2e7:4e7:2", "--tol", "1e-6"],
        # csv rows, which the writer puts straight on stdout
        ["spectrum", "--n-range", "1:3"],
        ["potential", "--at", "mars:0"],
        ["experiment", "--threshold", "1e6"],
        # argparse's help, which it writes and exits 0 for outside cli.main
        ["--help"],
        ["spectrum", "--help"],
    ])
    def test_closed_stdout_exits_one_without_traceback(self, argv):
        # the reader is gone before the child writes, as with `| head -1`; a
        # refusal and a failing verdict exit 1 whether or not stdout is open,
        # and lost output exits 1 too
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python(["-m", "gravshift", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        if "--help" in argv:
            assert proc.stderr == ""

    @pytest.mark.parametrize("argv", [
        ["photon", "--body", "earth", "--sweep-radii", "0.5:2:4", "--tol", "1e-6"],
        ["potential", "--at", "mars:0"],
        # a usage error, which argparse prints and exits 2 for outside cli.main
        ["potential"],
    ])
    def test_closed_stderr_keeps_stdout_and_exits_one(self, argv, capsys):
        # a refusal's message is lost with stderr; the rows printed beside
        # it (the sweep's 3 traced rays) and the exit code are not
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python(["-m", "gravshift", *argv],
                              stdout=subprocess.PIPE, stderr=write_end, text=True)
        finally:
            os.close(write_end)
        try:
            expected = run_cli(argv, capsys)[:2]
        except SystemExit as exc:
            expected = exc.code, capsys.readouterr().out
        assert (proc.returncode, proc.stdout) == expected
        assert proc.returncode == (2 if argv == ["potential"] else 1)

    @pytest.mark.parametrize("argv, code", [(["potential"], 2),
                                            (["potential", "--at", "mars:0"], 1)])
    def test_closed_block_buffered_stderr_keeps_the_exit_code(self, argv, code):
        # a program that embeds the entry may swap in a block-buffered
        # stderr: the message stays buffered, and the flush at exit failed
        # with exit code 120
        stub = ("import io, sys\n"
                "sys.stderr = io.TextIOWrapper(open(2, 'wb', closefd=False))\n"
                "from gravshift import __main__\n"
                "__main__.run()\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python(["-c", stub, *argv], stdout=subprocess.PIPE, stderr=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stdout) == (code, b"")
