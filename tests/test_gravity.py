import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from gravshift.data import data_file
from gravshift.errors import DomainError
from gravshift.gravity import (
    CelestialBody,
    FieldPoint,
    load_bodies,
    potential,
)
from gravshift.spectra import ShiftModel, fractional_shift
from gravshift.units import CONSTANTS

import oracles
from test_cli import BAD_NAMES


def single_body_setup(mass_kg, radius_m, r_m, name="b"):
    body = CelestialBody(name, mass_kg, radius_m)
    return body, FieldPoint("p", [(body, r_m)])


class TestPotential:
    def test_earth_surface(self, earth_surface):
        phi = potential(earth_surface)
        assert phi.value == pytest.approx(
            oracles.point_mass_potential(oracles.M_EARTH, oracles.R_EARTH), rel=1e-13
        )
        assert phi.value == pytest.approx(-6.2565145911e7, rel=1e-9)
        assert phi.value / CONSTANTS.c_squared == pytest.approx(-6.961311310505493e-10, rel=1e-12)

    def test_sun_surface(self, sun):
        point = FieldPoint("sun:0", [(sun, sun.radius_m)])
        ratio = potential(point).value / CONSTANTS.c_squared
        assert ratio == pytest.approx(-2.1225987775107756e-06, rel=1e-12)

    def test_asymptotically_zero_from_below(self, earth):
        previous = potential(FieldPoint("p", [(earth, 1e8)])).value
        for r in (1e10, 1e13, 1e16):
            phi = potential(FieldPoint("p", [(earth, r)])).value
            assert previous < phi < 0.0
            previous = phi
        assert abs(previous) < 1e-1

    def test_missing_distance_rejected(self, earth, sun):
        both = FieldPoint("p", [(earth, 7e6), (sun, 1.5e11)])
        earth_only = FieldPoint("q", [(earth, 7e6)])
        with pytest.raises(DomainError,
                           match="point 'q' has no distance for body 'sun'"):
            fractional_shift(ShiftModel.emitter, both, earth_only)
        with pytest.raises(DomainError,
                           match="point 'q' has no distance for body 'sun'"):
            fractional_shift(ShiftModel.emitter, earth_only, both)
        fractional_shift(ShiftModel.emitter, both, FieldPoint("r", [(sun, 2e11), (earth, 8e6)]))
        # of two bodies a point lacks, the refusal names the alphabetically first
        moon = CelestialBody("moon", 7.342e22, 1.7374e6)
        three = FieldPoint("t", [(sun, 1.5e11), (moon, 3.8e8), (earth, 7e6)])
        with pytest.raises(DomainError,
                           match="point 'q' has no distance for body 'moon'"):
            fractional_shift(ShiftModel.emitter, three, earth_only)

    def test_interior_point_is_domain_error(self, earth):
        with pytest.raises(DomainError, match="point 'p': .* inside body 'earth'"):
            FieldPoint("p", [(earth, 1.0)])

    def test_empty_field_rejected(self):
        with pytest.raises(DomainError, match="point 'p' names no body"):
            FieldPoint("p", ())

    def test_duplicate_bodies_rejected(self, earth):
        with pytest.raises(DomainError, match="point 'p' names body 'earth' twice"):
            FieldPoint("p", [(earth, 7e6), (earth, 8e6)])

    @pytest.mark.parametrize("r_m", [float("nan"), float("inf")])
    def test_non_finite_distance_names_the_point(self, earth, r_m):
        with pytest.raises(DomainError,
                           match="point 'p': distance to body 'earth' is not finite"):
            FieldPoint("p", [(earth, r_m)])

    @settings(max_examples=200)
    @given(
        m1=st.floats(min_value=1e20, max_value=1e32),
        m2=st.floats(min_value=1e20, max_value=1e32),
        r1=st.floats(min_value=1e6, max_value=1e14),
        r2=st.floats(min_value=1e6, max_value=1e14),
    )
    def test_superposition(self, m1, m2, r1, r2):
        a = CelestialBody("a", m1, 1e5)
        b = CelestialBody("b", m2, 1e5)
        combined = potential(FieldPoint("p", [(a, r1), (b, r2)])).value
        separate = (potential(FieldPoint("p", [(a, r1)])).value
                    + potential(FieldPoint("p", [(b, r2)])).value)
        assert combined == pytest.approx(separate, rel=1e-15)
        assert combined < 0.0

    @given(
        r_lo=st.floats(min_value=1e6, max_value=1e12),
        factor=st.floats(min_value=1.0001, max_value=1e4),
    )
    def test_sign_and_monotonicity(self, r_lo, factor):
        body, p_lo = single_body_setup(5e24, 1e6, r_lo)
        p_hi = FieldPoint("q", [(body, r_lo * factor)])
        phi_lo = potential(p_lo).value
        phi_hi = potential(p_hi).value
        assert phi_lo < phi_hi < 0.0


class TestPotentialDifference:
    """phi(p1) - phi(p2), the difference `shift` divides by c^2."""

    @staticmethod
    def difference(p1, p2):
        return fractional_shift(ShiftModel.emitter, p1, p2) * CONSTANTS.c_squared

    def test_same_point_is_zero(self, earth_surface):
        assert self.difference(earth_surface, earth_surface) == 0.0

    def test_tower_descent(self, earth, earth_surface):
        above = FieldPoint("earth:22.5", [(earth, earth.radius_m + 22.5)])
        dphi = self.difference(earth_surface, above)
        expected = oracles.G * oracles.M_EARTH * (
            1.0 / (oracles.R_EARTH + 22.5) - 1.0 / oracles.R_EARTH
        )
        # the expected value subtracts two reciprocals, which leaves ~5e-11 relative noise
        assert dphi == pytest.approx(expected, rel=1e-9)
        assert dphi == pytest.approx(-220.956, rel=1e-5)
        # cross-check against conventional g*h
        assert abs(dphi) == pytest.approx(oracles.G_STANDARD * 22.5, rel=2e-3)

    def test_antisymmetric_under_swap(self, earth, earth_surface):
        above = FieldPoint("earth:22.5", [(earth, earth.radius_m + 22.5)])
        forward = self.difference(earth_surface, above)
        backward = self.difference(above, earth_surface)
        assert forward == -backward


class TestBodyValidation:
    def test_rejects_non_positive_mass(self):
        with pytest.raises(DomainError, match="mass_kg must be positive and finite, got 0.0"):
            CelestialBody("x", 0.0, 1.0)

    def test_rejects_non_positive_radius(self):
        with pytest.raises(DomainError, match="radius_m must be positive and finite, got -1.0"):
            CelestialBody("x", 1.0, -1.0)

    @pytest.mark.parametrize("name", ["bad name!", *BAD_NAMES])
    def test_rejects_bad_name(self, name):
        with pytest.raises(DomainError) as exc:
            CelestialBody(name, 1.0, 1.0)
        assert str(exc.value) == f"invalid body name {name!r}"


class TestBodyRegistry:
    def test_default_registry(self):
        bodies = load_bodies(data_file("bodies.json"))
        assert set(bodies) == {"earth", "sun"}
        assert bodies["earth"].mass_kg == 5.9722e24
        assert bodies["earth"].radius_m == 6.371e6
        assert bodies["sun"].mass_kg == 1.9885e30
        assert bodies["sun"].radius_m == 6.957e8

    def test_load_custom_file(self, tmp_path):
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([{"name": "moon", "mass_kg": 7.342e22, "radius_m": 1.7374e6}]))
        bodies = load_bodies(path)
        assert bodies["moon"].mass_kg == 7.342e22

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([
            {"name": "x", "mass_kg": 1e22, "radius_m": 1e6},
            {"name": "x", "mass_kg": 2e22, "radius_m": 1e6},
        ]))
        with pytest.raises(DomainError, match="duplicate"):
            load_bodies(path)

    @pytest.mark.parametrize("field", ["mass_kg", "radius_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_names_record_and_field(self, tmp_path, field, value):
        # json writes these as NaN, Infinity and -Infinity, which it also reads
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([{"name": "x", "mass_kg": 1e22, "radius_m": 1e6,
                                     field: value}]))
        with pytest.raises(DomainError) as exc:
            load_bodies(path)
        assert str(exc.value) == \
            f"{path}: body #0 (x): {field} must be positive and finite, got {value!r}"

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_bad_name_names_the_record(self, tmp_path, name):
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([{"name": name, "mass_kg": 1e22, "radius_m": 1e6}]))
        with pytest.raises(DomainError) as exc:
            load_bodies(path)
        assert str(exc.value) == f"{path}: body #0: invalid body name {name!r}"

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([{"name": "x", "mass_kg": 1e22}]))
        with pytest.raises(DomainError, match="radius_m"):
            load_bodies(path)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "bodies.json"
        path.write_text("[{]")
        with pytest.raises(DomainError, match="line"):
            load_bodies(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DomainError, match="not found"):
            load_bodies(tmp_path / "nope.json")

    def test_unreadable_file_names_itself(self, tmp_path):
        # a directory, and arrays nested past the decoder's recursion limit
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        for path in (tmp_path, deep):
            with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: "):
                load_bodies(path)
