import json
import random
import re

import pytest
from hypothesis import given, strategies as st

from gravshift import experiments
from gravshift.data import data_file
from gravshift.errors import DomainError
from gravshift.experiments import (
    ExperimentRecord,
    double_effect_verdict,
    load_registry,
)
from gravshift.gravity import CelestialBody, FieldPoint
from gravshift.spectra import ShiftModel

import oracles
from printed_columns import COUPLINGS
from test_cli import BAD_NAMES, BAD_NUMBER_IDS, BAD_NUMBERS


@pytest.fixture(scope="module")
def registry(bodies):
    return load_registry(data_file("experiments.json"), bodies)


@pytest.fixture(scope="module")
def by_name(registry):
    return {r.name: r for r in registry}


def entry(name, emit="earth:0", observe="earth:10", measured_ratio=1.0,
          ratio_uncertainty=0.1):
    return {"name": name, "emit": emit, "observe": observe,
            "measured_ratio": measured_ratio, "ratio_uncertainty": ratio_uncertainty}


def write_registry(tmp_path, entries):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(entries))
    return path


def tower_record(earth, height, measured_ratio, ratio_uncertainty=0.1):
    return ExperimentRecord(
        name="x",
        emit=FieldPoint("x:emit", [(earth, earth.radius_m)]),
        observe=FieldPoint("x:observe", [(earth, earth.radius_m + height)]),
        measured_ratio=measured_ratio,
        ratio_uncertainty=ratio_uncertainty,
    )


def reports(record):
    """The rows of the one record against each model at 5 sigma, keyed by model."""
    return {ShiftModel[r.model]: r for r in double_effect_verdict([record], 5.0).reports}


def predictions(record):
    return {model: r.predicted_shift for model, r in reports(record).items()}


def distances(point):
    return {body.name: r for body, r in point.distances}


class TestLoadRegistry:
    def test_shipped_registry_has_three_records(self, registry):
        assert [r.name for r in registry] == [
            "pound-rebka-1960", "pound-snider-1965", "snider-solar-1972",
        ]

    def test_shipped_values(self, by_name):
        pr = by_name["pound-rebka-1960"]
        assert (pr.measured_ratio, pr.ratio_uncertainty) == (1.05, 0.10)
        assert distances(pr.emit) == {"earth": oracles.R_EARTH}
        assert distances(pr.observe) == {"earth": oracles.R_EARTH + 22.5}
        ps = by_name["pound-snider-1965"]
        assert (ps.measured_ratio, ps.ratio_uncertainty) == (0.9990, 0.0076)
        solar = by_name["snider-solar-1972"]
        assert (solar.measured_ratio, solar.ratio_uncertainty) == (1.01, 0.06)
        assert distances(solar.emit) == {"sun": oracles.R_SUN, "earth": oracles.AU}
        assert distances(solar.observe) == {"sun": oracles.AU, "earth": oracles.R_EARTH}

    def test_empty_file_loads_empty_list(self, tmp_path, bodies):
        path = tmp_path / "r.json"
        path.write_text("[]")
        assert load_registry(path, bodies) == []

    def test_negative_uncertainty_rejected(self, tmp_path, bodies):
        path = write_registry(tmp_path, [entry("bad", ratio_uncertainty=-0.1)])
        with pytest.raises(DomainError) as exc:
            load_registry(path, bodies)
        assert str(exc.value) == \
            f"{path}: record #0 (bad): ratio_uncertainty must be positive and finite, got -0.1"

    @pytest.mark.parametrize("field, value", [
        ("measured_ratio", float("nan")), ("ratio_uncertainty", float("inf")),
    ])
    def test_non_finite_value_rejected(self, tmp_path, bodies, field, value):
        # Python's json reads NaN and Infinity, and every sigma passes a NaN
        path = write_registry(tmp_path, [{**entry("bad"), field: value}])
        with pytest.raises(DomainError) as exc:
            load_registry(path, bodies)
        # the record is named once, by the loader
        assert str(exc.value) == \
            f"{path}: record #0 (bad): {field} must be positive and finite, got {value!r}"

    @pytest.mark.parametrize("field", ["measured_ratio", "ratio_uncertainty"])
    @pytest.mark.parametrize("value, reason", BAD_NUMBERS, ids=BAD_NUMBER_IDS)
    def test_non_number_rejected(self, tmp_path, bodies, field, value, reason):
        path = write_registry(tmp_path, [{**entry("bad"), field: value}])
        with pytest.raises(DomainError, match=re.escape(
                f"{path}: record #0 (bad): {reason.format(field)}")):
            load_registry(path, bodies)

    def test_repeated_name_rejected(self, tmp_path, bodies):
        path = write_registry(tmp_path, [entry("twin"), entry("twin")])
        with pytest.raises(DomainError, match=re.escape(
                f"{path}: record #1: duplicate record name 'twin'")):
            load_registry(path, bodies)

    @pytest.mark.parametrize("name, shown", [(None, "null"), (7, "7"), (["x"], '["x"]')])
    def test_non_string_name_rejected(self, tmp_path, bodies, name, shown):
        path = write_registry(tmp_path, [entry(name)])
        with pytest.raises(DomainError, match=re.escape(
                f"{path}: record #0: name must be a string, got {shown}")):
            load_registry(path, bodies)

    def test_old_geometry_format_rejected(self, tmp_path, bodies):
        # registry files with a geometry object must be rewritten with point specs
        path = write_registry(tmp_path, [{
            "name": "pound-rebka-1960",
            "geometry": {"type": "tower", "body": "earth", "base_altitude_m": 0.0,
                         "height_m": 22.5},
            "measured_ratio": 1.05, "ratio_uncertainty": 0.10}])
        with pytest.raises(DomainError) as exc:
            load_registry(path, bodies)
        assert str(exc.value) == f"{path}: record #0 (pound-rebka-1960): missing field 'emit'"

    @pytest.mark.parametrize("entries, reason", [
        ({"name": "bad"}, "expected a JSON array of objects"),
        ([1], "record #0: expected an object"),
        ([entry("bad", emit=5)], "record #0 (bad): emit must be a string, got 5"),
        ([entry("bad", observe="earth")],
         "record #0 (bad): bad point spec 'earth': expected 'body:ALT_m' or 'body:r=R_m'"),
        ([entry("bad", emit="")],
         "record #0 (bad): bad point spec '': expected 'body:ALT_m' or 'body:r=R_m'"),
        ([entry("bad", emit="earth:ten")],
         "record #0 (bad): bad distance in point spec 'earth:ten'"),
        ([entry("", observe="earth:22.5")], "record #0: invalid record name ''"),
    ], ids=["object", "number-record", "number-spec", "spec-without-distance",
            "empty-spec", "bad-distance", "empty-name"])
    def test_malformed_record_rejected(self, tmp_path, bodies, entries, reason):
        path = write_registry(tmp_path, entries)
        with pytest.raises(DomainError, match=re.escape(f"{path}: {reason}")):
            load_registry(path, bodies)

    def test_missing_field_rejected(self, tmp_path, bodies):
        path = write_registry(tmp_path, [{"name": "bad"}])
        with pytest.raises(DomainError, match="missing field 'emit'"):
            load_registry(path, bodies)

    @pytest.mark.parametrize("emit, observe, reason", [
        ("earth:0", "earth:nan", "point 'observe': distance to body 'earth' is not finite"),
        ("earth:inf", "earth:0", "point 'emit': distance to body 'earth' is not finite"),
        ("sun:0", "sun:r=nan", "point 'observe': distance to body 'sun' is not finite"),
    ], ids=["altitude-nan", "altitude-inf", "radius-nan"])
    def test_non_finite_point_rejected(self, tmp_path, bodies, emit, observe, reason):
        path = write_registry(tmp_path, [entry("bad", emit, observe)])
        with pytest.raises(DomainError, match=r"r\.json: record #0 \(bad\): " + reason):
            load_registry(path, bodies)

    @pytest.mark.parametrize("emit, observe, side", [
        ("earth:-1", "earth:0", "emit"),
        ("sun:0+earth:r=1.495978707e11", "sun:r=1.495978707e11+earth:r=6e6", "observe"),
    ], ids=["below-the-surface", "inside-one-of-two-bodies"])
    def test_interior_point_rejected(self, tmp_path, bodies, emit, observe, side):
        path = write_registry(tmp_path, [entry("deep", emit, observe)])
        with pytest.raises(DomainError, match=(
                rf"r\.json: record #0 \(deep\): point '{side}': r = \S+ m is inside "
                r"body 'earth' \(radius 6\.371e\+06 m\); exterior field only$")):
            load_registry(path, bodies)


class TestPredict:
    def test_pound_tower_emitter_model(self, by_name):
        shift = predictions(by_name["pound-rebka-1960"])[ShiftModel.emitter]
        assert abs(shift) == pytest.approx(oracles.G_STANDARD * 22.5 / oracles.C2, rel=2e-3)
        assert shift < 0.0

    def test_pound_tower_double_is_twice(self, by_name):
        shifts = predictions(by_name["pound-rebka-1960"])
        assert shifts[ShiftModel.double] == 2.0 * shifts[ShiftModel.emitter]

    def test_solar_two_point(self, by_name):
        shift = predictions(by_name["snider-solar-1972"])[ShiftModel.emitter]
        solar_term = oracles.G * oracles.M_SUN * (1.0 / oracles.R_SUN - 1.0 / oracles.AU)
        earth_term = oracles.G * oracles.M_EARTH * (1.0 / oracles.R_EARTH - 1.0 / oracles.AU)
        expected = (-solar_term + earth_term) / oracles.C2
        assert shift == pytest.approx(expected, rel=1e-12)
        assert shift == pytest.approx(-2.11e-6, rel=2e-3)

    def test_unknown_body_raises(self, tmp_path, bodies):
        path = write_registry(tmp_path, [entry("vulcan-tower", "vulcan:0", "vulcan:22.5")])
        with pytest.raises(DomainError, match=r"\(vulcan-tower\): unknown body 'vulcan'"):
            load_registry(path, bodies)


class TestCompare:
    def test_pound_rebka_emitter(self, by_name):
        report = reports(by_name["pound-rebka-1960"])[ShiftModel.emitter]
        assert report.sigma == abs(1.05 - 1.0) / 0.10
        assert report.sigma == pytest.approx(0.5, rel=1e-12)
        assert report.verdict == "consistent"

    def test_pound_snider_double(self, by_name):
        report = reports(by_name["pound-snider-1965"])[ShiftModel.double]
        assert report.ratio == 0.4995
        assert report.ratio_uncertainty == 0.0038
        assert report.sigma == pytest.approx((1.0 - 0.4995) / 0.0038, rel=1e-12)
        assert report.sigma == pytest.approx(131.7, rel=1e-3)
        assert report.verdict == "excluded"

    def test_snider_solar_emitter(self, by_name):
        report = reports(by_name["snider-solar-1972"])[ShiftModel.emitter]
        assert report.sigma == pytest.approx((1.01 - 1.0) / 0.06, rel=1e-12)
        assert report.sigma == pytest.approx(0.167, rel=3e-3)
        assert report.verdict == "consistent"

    @pytest.mark.parametrize("model", ShiftModel, ids=lambda model: model.name)
    @given(
        rho=st.floats(min_value=0.1, max_value=3.0),
        unc=st.floats(min_value=1e-4, max_value=1.0),
    )
    def test_row_holds_the_ratio_to_k_times_the_single_shift(self, earth, model, rho, unc):
        # a model predicts k = k_e + k_p single shifts, so its row's sigma,
        # |rho/k - 1|/(unc/k), is |rho - k|/unc up to rounding
        k = sum(COUPLINGS[model.name])
        rows = reports(tower_record(earth, 10.0, measured_ratio=rho, ratio_uncertainty=unc))
        assert rows[model].sigma == pytest.approx(abs(rho - k) / unc, rel=1e-15)
        assert rows[model].predicted_shift == k * rows[ShiftModel.emitter].predicted_shift

    def test_row_reads_its_prediction_from_spectra(self, by_name, monkeypatch):
        # a model that predicted 3 single shifts would have its row divided
        # by 3, with no edit to experiments
        record = by_name["snider-solar-1972"]
        real = experiments.fractional_shift
        single = real(ShiftModel.emitter, record.emit, record.observe)

        def tripled_photon(model, emit, obs):
            return 3.0 * single if model is ShiftModel.photon else real(model, emit, obs)

        monkeypatch.setattr(experiments, "fractional_shift", tripled_photon)
        row = reports(record)[ShiftModel.photon]
        assert row.predicted_shift == 3.0 * single
        assert row.ratio == pytest.approx(record.measured_ratio / 3.0, rel=1e-15)
        assert row.ratio_uncertainty == pytest.approx(record.ratio_uncertainty / 3.0, rel=1e-15)

    def test_bad_threshold_rejected(self, by_name):
        with pytest.raises(DomainError, match="exclusion threshold must be positive and finite"):
            double_effect_verdict([by_name["pound-rebka-1960"]], 0.0)

    def test_nan_threshold_rejected(self, by_name):
        with pytest.raises(DomainError, match="threshold must be positive"):
            double_effect_verdict([by_name["pound-rebka-1960"]], float("nan"))


class TestModelAlgebra:
    def test_shipped_geometries(self, registry):
        for record in registry:
            shifts = predictions(record)
            assert shifts[ShiftModel.double] == (
                shifts[ShiftModel.emitter] + shifts[ShiftModel.photon])

    def test_random_two_point_geometries(self, earth, sun):
        rng = random.Random(987)
        for k in range(100):
            r_e = rng.uniform(6.371e6, 1e12)
            r_o = rng.uniform(6.371e6, 1e12)
            r_se = rng.uniform(6.957e8, 1e13)
            r_so = rng.uniform(6.957e8, 1e13)
            record = ExperimentRecord(
                name=f"random-{k}",
                emit=FieldPoint("emit", [(earth, r_e), (sun, r_se)]),
                observe=FieldPoint("observe", [(earth, r_o), (sun, r_so)]),
                measured_ratio=1.0,
                ratio_uncertainty=0.1,
            )
            shifts = predictions(record)
            assert shifts[ShiftModel.double] == (
                shifts[ShiftModel.emitter] + shifts[ShiftModel.photon])


class TestGeometryConsistency:
    def test_altitude_equals_equivalent_radius(self, tmp_path, bodies):
        # 'earth:A' lies at R + A, rounded once, as does 'earth:r=<R + A>'
        radius = bodies["earth"].radius_m
        path = write_registry(tmp_path, [
            entry("altitude", "earth:12", "earth:34.5"),
            entry("radius", f"earth:r={radius + 12.0!r}", f"earth:r={radius + 34.5!r}"),
        ])
        altitude, radial = load_registry(path, bodies)
        assert predictions(altitude) == predictions(radial)

    def test_sign_discipline(self, registry):
        for record in registry:
            assert record.measured_ratio > 0.0
            for shift in predictions(record).values():
                assert shift < 0.0


class TestDoubleEffectVerdict:
    def test_shipped_registry_verdict(self, registry):
        summary = double_effect_verdict(registry, 5.0)
        assert [(r.experiment, r.model) for r in summary.reports] == [
            (record.name, model.name) for record in registry for model in ShiftModel]
        assert summary.single_models_consistent
        assert summary.double_effect_excluded

    def test_pound_rebka_alone_still_excludes(self, by_name):
        summary = double_effect_verdict([by_name["pound-rebka-1960"]], 5.0)
        double = [r for r in summary.reports if r.model == "double"][0]
        assert double.sigma == pytest.approx((1.0 - 0.525) / 0.05, rel=1e-12)
        assert double.sigma == pytest.approx(9.5, rel=1e-12)
        assert summary.double_effect_excluded

    def test_threshold_is_configurable(self, registry):
        summary = double_effect_verdict(registry, 200.0)
        assert summary.single_models_consistent
        assert not summary.double_effect_excluded

    def test_empty_registry_rejected(self):
        # refused as empty before the threshold is looked at
        for threshold in (5.0, float("nan")):
            with pytest.raises(DomainError, match="experiment registry is empty"):
                double_effect_verdict([], threshold)


class TestRecordValidation:
    def test_non_positive_ratio_rejected(self, earth):
        with pytest.raises(DomainError, match="measured_ratio must be positive and finite"):
            tower_record(earth, 1.0, measured_ratio=0.0)

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_name_outside_the_rule_rejected(self, earth, name):
        with pytest.raises(DomainError, match=re.escape(
                f"invalid experiment name {name!r}")):
            ExperimentRecord(name, FieldPoint("earth:0", [(earth, earth.radius_m)]),
                             FieldPoint("earth:1", [(earth, earth.radius_m + 1.0)]),
                             1.0, 0.1)

    @pytest.mark.parametrize("emit, observe", [
        ("earth:22.5", "earth:22.5"),
        ("earth:r=7e6", "earth:r=7e6"),
        ("sun:0+earth:r=1.495978707e11", "earth:r=1.495978707e11+sun:0"),
    ], ids=["altitude", "radius", "two-bodies"])
    def test_record_at_one_potential_rejected(self, tmp_path, bodies, emit, observe):
        # it predicts no shift, so its double-effect sigma read 10, "excluded";
        # the loader names the file, the record's index and its name
        path = write_registry(tmp_path, [entry("tower"), entry("flat", emit, observe)])
        with pytest.raises(DomainError) as err:
            load_registry(path, bodies)
        assert str(err.value) == (
            f"{path}: record #1 (flat): emit and observe are at the same potential")

    def test_strong_field_record_refused_at_load(self, tmp_path):
        # a 1 m body of G*M/c^2 = 2 m: |phi|/c^2 = 2 at its surface; refused
        # where the file is read, so the message names the file and the record
        hole = CelestialBody("hole", 2.0 * oracles.C2 / oracles.G, 1.0)
        path = write_registry(tmp_path, [entry("deep", "hole:0", "hole:10")])
        with pytest.raises(DomainError) as err:
            load_registry(path, {"hole": hole})
        assert str(err.value) == (
            f"{path}: record #0 (deep): |phi|/c^2 = 2 >= 1: outside the weak-field domain")

    def test_record_at_one_potential_refused_when_built(self, earth):
        point = FieldPoint("x", [(earth, earth.radius_m + 22.5)])
        with pytest.raises(DomainError,
                           match="^emit and observe are at the same potential$"):
            ExperimentRecord("flat", point, FieldPoint("y", point.distances), 1.0, 0.1)

    def test_observer_below_emitter_is_a_blue_shift(self, tmp_path, bodies):
        path = write_registry(tmp_path, [entry("down", "earth:22.5", "earth:0")])
        (record,) = load_registry(path, bodies)
        shift = predictions(record)[ShiftModel.emitter]
        assert shift > 0.0
        assert shift == -predictions(tower_record(bodies["earth"], 22.5, 1.0))[ShiftModel.emitter]

    def test_mismatched_point_bodies_rejected(self, earth, sun):
        with pytest.raises(DomainError,
                           match="point 'x:emit' has no distance for body 'earth'"):
            ExperimentRecord(
                name="x",
                emit=FieldPoint("x:emit", [(sun, 7e8)]),
                observe=FieldPoint("x:observe", [(sun, 7e8), (earth, 7e6)]),
                measured_ratio=1.0,
                ratio_uncertainty=0.1,
            )
