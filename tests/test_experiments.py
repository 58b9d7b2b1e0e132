import json
import random
import re

import pytest
from hypothesis import given, strategies as st

from gravshift.data import data_file
from gravshift.errors import ConfigurationError, RegistryError
from gravshift.experiments import (
    ExperimentRecord,
    double_effect_verdict,
    load_registry,
)
from gravshift.gravity import FieldPoint
from gravshift.spectra import ShiftModel

import oracles
from test_cli import BAD_NUMBER_IDS, BAD_NUMBERS


@pytest.fixture(scope="module")
def registry(bodies):
    return load_registry(data_file("experiments.json"), bodies)


@pytest.fixture(scope="module")
def by_name(registry):
    return {r.name: r for r in registry}


def entry(name, geometry, measured_ratio=1.0, ratio_uncertainty=0.1):
    return {"name": name, "geometry": geometry, "measured_ratio": measured_ratio,
            "ratio_uncertainty": ratio_uncertainty}


def write_registry(tmp_path, entries):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(entries))
    return path


def tower_record(earth, height, measured_ratio, ratio_uncertainty=0.1):
    return ExperimentRecord(
        name="x",
        emit=FieldPoint.at_altitude(earth, 0.0, "x:emit"),
        observe=FieldPoint.at_altitude(earth, height, "x:observe"),
        measured_ratio=measured_ratio,
        ratio_uncertainty=ratio_uncertainty,
    )


def reports(record):
    """The rows of the one record against each model at 5 sigma, keyed by model."""
    return {ShiftModel(r.model): r for r in double_effect_verdict([record], 5.0).reports}


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
        path = write_registry(tmp_path, [entry(
            "bad", {"type": "tower", "body": "earth", "height_m": 10.0},
            ratio_uncertainty=-0.1)])
        with pytest.raises(RegistryError) as exc:
            load_registry(path, bodies)
        assert str(exc.value) == f"{path}: record #0 (bad): ratio uncertainty must be positive"

    @pytest.mark.parametrize("field, value", [
        ("measured_ratio", float("nan")), ("ratio_uncertainty", float("inf")),
    ])
    def test_non_finite_value_rejected(self, tmp_path, bodies, field, value):
        # Python's json reads NaN and Infinity, and every sigma passes a NaN
        entry = {
            "name": "bad",
            "geometry": {"type": "tower", "body": "earth", "height_m": 10.0},
            "measured_ratio": 1.0,
            "ratio_uncertainty": 0.1,
        }
        entry[field] = value
        path = tmp_path / "r.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(RegistryError) as exc:
            load_registry(path, bodies)
        # the record is named once, by the loader
        assert str(exc.value) == \
            f"{path}: record #0 (bad): measured ratio and its uncertainty must be finite"

    @pytest.mark.parametrize("field", ["height_m", "base_altitude_m", "r_m",
                                       "measured_ratio", "ratio_uncertainty"])
    @pytest.mark.parametrize("value, reason", BAD_NUMBERS, ids=BAD_NUMBER_IDS)
    def test_non_number_rejected(self, tmp_path, bodies, field, value, reason):
        tower = {"type": "tower", "body": "earth", "height_m": 10.0}
        if field == "r_m":
            record = entry("bad", {"type": "two_point", "emit": [{"body": "sun", "r_m": 7e8}],
                                   "observe": [{"body": "sun", "r_m": value}]})
        elif field in ("height_m", "base_altitude_m"):
            record = entry("bad", {**tower, field: value})
        else:
            record = {**entry("bad", tower), field: value}
        path = write_registry(tmp_path, [record])
        with pytest.raises(RegistryError, match=re.escape(
                f"{path}: record #0 (bad): {reason.format(field)}")):
            load_registry(path, bodies)

    def test_repeated_name_rejected(self, tmp_path, bodies):
        tower = {"type": "tower", "body": "earth", "height_m": 10.0}
        path = write_registry(tmp_path, [entry("twin", tower), entry("twin", tower)])
        with pytest.raises(RegistryError, match=re.escape(
                f"{path}: record #1: duplicate record name 'twin'")):
            load_registry(path, bodies)

    @pytest.mark.parametrize("name, shown", [(None, "null"), (7, "7"), (["x"], '["x"]')])
    def test_non_string_name_rejected(self, tmp_path, bodies, name, shown):
        path = write_registry(tmp_path, [entry(
            name, {"type": "tower", "body": "earth", "height_m": 10.0})])
        with pytest.raises(RegistryError, match=re.escape(
                f"{path}: record #0: name must be a string, got {shown}")):
            load_registry(path, bodies)

    def test_unknown_geometry_type_rejected(self, tmp_path, bodies):
        path = write_registry(tmp_path, [entry("bad", {"type": "spiral"})])
        with pytest.raises(RegistryError, match="spiral"):
            load_registry(path, bodies)

    @pytest.mark.parametrize("entries, reason", [
        ({"name": "bad"}, "expected a JSON array of objects"),
        ([1], "record #0: expected an object"),
        ([entry("bad", 5)], "record #0 (bad): geometry must be an object with a 'type' field"),
        ([entry("bad", {"type": "two_point", "emit": [{"body": "sun"}],
                        "observe": [{"body": "sun", "r_m": 7e8}]})],
         "record #0 (bad): geometry emit: expected an array of {body, r_m} objects"),
        ([entry("bad", {"type": "tower", "body": "earth"})],
         "record #0 (bad): missing geometry field 'height_m'"),
        ([entry("", {"type": "tower", "body": "earth", "height_m": 10.0})],
         "record #0 (): experiment name must be non-empty"),
    ], ids=["object", "number-record", "number-geometry", "side-without-r_m",
            "tower-without-height", "empty-name"])
    def test_malformed_record_rejected(self, tmp_path, bodies, entries, reason):
        path = write_registry(tmp_path, entries)
        with pytest.raises(RegistryError, match=re.escape(f"{path}: {reason}")):
            load_registry(path, bodies)

    def test_missing_field_rejected(self, tmp_path, bodies):
        path = write_registry(tmp_path, [{"name": "bad"}])
        with pytest.raises(RegistryError, match="geometry"):
            load_registry(path, bodies)

    @pytest.mark.parametrize("geometry, reason", [
        ({"type": "tower", "body": "earth", "height_m": float("nan")},
         "tower height must be positive"),
        ({"type": "tower", "body": "earth", "height_m": 10.0, "base_altitude_m": float("inf")},
         "point 'bad:emit': distance to body 'earth' is not finite"),
        ({"type": "two_point", "emit": [{"body": "sun", "r_m": 6.957e8}],
          "observe": [{"body": "sun", "r_m": float("nan")}]},
         "point 'bad:observe': distance to body 'sun' is not finite"),
    ])
    def test_non_finite_geometry_rejected(self, tmp_path, bodies, geometry, reason):
        path = write_registry(tmp_path, [entry("bad", geometry)])
        with pytest.raises(RegistryError, match=r"r\.json: record #0 \(bad\): " + reason):
            load_registry(path, bodies)

    def test_empty_point_rejected(self, tmp_path, bodies):
        path = write_registry(tmp_path, [entry("e", {
            "type": "two_point", "emit": [], "observe": [{"body": "sun", "r_m": 7e8}]})])
        with pytest.raises(RegistryError, match=r"\(e\): point 'e:emit' names no body"):
            load_registry(path, bodies)


class TestPredict:
    def test_pound_tower_emitter_model(self, by_name):
        shift = predictions(by_name["pound-rebka-1960"])[ShiftModel.EMITTER_MASS_DEFECT]
        assert abs(shift) == pytest.approx(oracles.G_STANDARD * 22.5 / oracles.C2, rel=2e-3)
        assert shift < 0.0

    def test_pound_tower_double_is_twice(self, by_name):
        shifts = predictions(by_name["pound-rebka-1960"])
        assert shifts[ShiftModel.DOUBLE_EFFECT] == 2.0 * shifts[ShiftModel.EMITTER_MASS_DEFECT]

    def test_solar_two_point(self, by_name):
        shift = predictions(by_name["snider-solar-1972"])[ShiftModel.EMITTER_MASS_DEFECT]
        solar_term = oracles.G * oracles.M_SUN * (1.0 / oracles.R_SUN - 1.0 / oracles.AU)
        earth_term = oracles.G * oracles.M_EARTH * (1.0 / oracles.R_EARTH - 1.0 / oracles.AU)
        expected = (-solar_term + earth_term) / oracles.C2
        assert shift == pytest.approx(expected, rel=1e-12)
        assert shift == pytest.approx(-2.11e-6, rel=2e-3)

    def test_unknown_body_raises(self, tmp_path, bodies):
        path = write_registry(tmp_path, [entry(
            "vulcan-tower", {"type": "tower", "body": "vulcan", "height_m": 22.5})])
        with pytest.raises(RegistryError, match=r"\(vulcan-tower\): unknown body 'vulcan'"):
            load_registry(path, bodies)


class TestCompare:
    def test_pound_rebka_emitter(self, by_name):
        report = reports(by_name["pound-rebka-1960"])[ShiftModel.EMITTER_MASS_DEFECT]
        assert report.sigma == abs(1.05 - 1.0) / 0.10
        assert report.sigma == pytest.approx(0.5, rel=1e-12)
        assert report.verdict == "consistent"

    def test_pound_snider_double(self, by_name):
        report = reports(by_name["pound-snider-1965"])[ShiftModel.DOUBLE_EFFECT]
        assert report.ratio == 0.4995
        assert report.ratio_uncertainty == 0.0038
        assert report.sigma == pytest.approx((1.0 - 0.4995) / 0.0038, rel=1e-12)
        assert report.sigma == pytest.approx(131.7, rel=1e-3)
        assert report.verdict == "excluded"

    def test_snider_solar_emitter(self, by_name):
        report = reports(by_name["snider-solar-1972"])[ShiftModel.EMITTER_MASS_DEFECT]
        assert report.sigma == pytest.approx((1.01 - 1.0) / 0.06, rel=1e-12)
        assert report.sigma == pytest.approx(0.167, rel=3e-3)
        assert report.verdict == "consistent"

    @given(
        rho=st.floats(min_value=0.1, max_value=3.0),
        sigma=st.floats(min_value=1e-4, max_value=1.0),
    )
    def test_double_rescaling_identity(self, rho, sigma):
        # |rho/2 - 1|/(sigma/2) must equal |rho - 2|/sigma up to rounding
        rescaled = abs(rho / 2.0 - 1.0) / (sigma / 2.0)
        direct = abs(rho - 2.0) / sigma
        assert rescaled == pytest.approx(direct, rel=1e-15)

    def test_compare_uses_rescaled_form(self, earth):
        record = tower_record(earth, 10.0, measured_ratio=0.8, ratio_uncertainty=0.05)
        report = reports(record)[ShiftModel.DOUBLE_EFFECT]
        assert report.sigma == pytest.approx(abs(0.8 - 2.0) / 0.05, rel=1e-15)

    def test_bad_threshold_rejected(self, by_name):
        with pytest.raises(ConfigurationError):
            double_effect_verdict([by_name["pound-rebka-1960"]], 0.0)

    def test_nan_threshold_rejected(self, by_name):
        with pytest.raises(ConfigurationError, match="threshold must be positive"):
            double_effect_verdict([by_name["pound-rebka-1960"]], float("nan"))


class TestModelAlgebra:
    def test_shipped_geometries(self, registry):
        for record in registry:
            shifts = predictions(record)
            assert shifts[ShiftModel.DOUBLE_EFFECT] == (
                shifts[ShiftModel.EMITTER_MASS_DEFECT] + shifts[ShiftModel.PHOTON_INTERACTION])

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
            assert shifts[ShiftModel.DOUBLE_EFFECT] == (
                shifts[ShiftModel.EMITTER_MASS_DEFECT] + shifts[ShiftModel.PHOTON_INTERACTION])


class TestGeometryConsistency:
    def test_tower_equals_equivalent_two_point(self, tmp_path, bodies):
        base, height = 12.0, 22.5
        r_lo = bodies["earth"].radius_m + base
        path = write_registry(tmp_path, [
            entry("tower", {"type": "tower", "body": "earth",
                            "base_altitude_m": base, "height_m": height}),
            entry("two-point", {"type": "two_point",
                                "emit": [{"body": "earth", "r_m": r_lo}],
                                "observe": [{"body": "earth", "r_m": r_lo + height}]}),
        ])
        tower, two_point = load_registry(path, bodies)
        a, b = predictions(tower), predictions(two_point)
        for model in ShiftModel:
            assert a[model] == pytest.approx(b[model], rel=1e-12)

    def test_sign_discipline(self, registry):
        for record in registry:
            assert record.measured_ratio > 0.0
            for shift in predictions(record).values():
                assert shift < 0.0


class TestDoubleEffectVerdict:
    def test_shipped_registry_verdict(self, registry):
        summary = double_effect_verdict(registry, 5.0)
        assert [(r.experiment, r.model) for r in summary.reports] == [
            (record.name, model.value) for record in registry for model in ShiftModel]
        assert summary.single_models_consistent
        assert summary.double_effect_excluded

    def test_pound_rebka_alone_still_excludes(self, by_name):
        summary = double_effect_verdict([by_name["pound-rebka-1960"]], 5.0)
        double = [r for r in summary.reports if r.model == ShiftModel.DOUBLE_EFFECT.value][0]
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
            with pytest.raises(ConfigurationError, match="experiment registry is empty"):
                double_effect_verdict([], threshold)


class TestRecordValidation:
    def test_non_positive_ratio_rejected(self, earth):
        with pytest.raises(ConfigurationError):
            tower_record(earth, 1.0, measured_ratio=0.0)

    def test_non_positive_height_rejected(self, tmp_path, bodies):
        path = write_registry(tmp_path, [entry(
            "flat", {"type": "tower", "body": "earth", "height_m": 0.0})])
        with pytest.raises(RegistryError, match=r"\(flat\): tower height must be positive"):
            load_registry(path, bodies)

    def test_mismatched_point_bodies_rejected(self, earth, sun):
        with pytest.raises(ConfigurationError,
                           match="point 'x:emit' has no distance for body 'earth'"):
            ExperimentRecord(
                name="x",
                emit=FieldPoint("x:emit", [(sun, 7e8)]),
                observe=FieldPoint("x:observe", [(sun, 7e8), (earth, 7e6)]),
                measured_ratio=1.0,
                ratio_uncertainty=0.1,
            )
