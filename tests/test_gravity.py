import json

import pytest
from hypothesis import given, settings, strategies as st

from gravshift.errors import ConfigurationError, DomainError, RegistryError
from gravshift.gravity import (
    CelestialBody,
    FieldPoint,
    PotentialField,
    atomic_scale_correction,
    default_bodies,
    gradient,
    load_bodies,
    potential,
)
from gravshift.spectra import ShiftModel, fractional_shift
from gravshift.units import CONSTANTS, metres

import oracles

BOHR_RADIUS = 5.29177210903e-11


def single_body_setup(mass_kg, radius_m, r_m, name="b"):
    body = CelestialBody.from_si(name, mass_kg, radius_m)
    field = PotentialField.of(body)
    point = FieldPoint.from_si("p", {name: r_m})
    return field, point


class TestPotential:
    def test_earth_surface(self, earth_field, earth_surface):
        phi = potential(earth_field, earth_surface)
        assert phi.value == pytest.approx(
            oracles.point_mass_potential(oracles.M_EARTH, oracles.R_EARTH), rel=1e-13
        )
        assert phi.value == pytest.approx(-6.2565145911e7, rel=1e-9)
        assert float(phi / CONSTANTS.c_squared) == pytest.approx(-6.961311310505493e-10, rel=1e-12)

    def test_sun_surface(self, sun):
        field = PotentialField.of(sun)
        point = FieldPoint.at_altitude(sun, 0.0)
        ratio = float(potential(field, point) / CONSTANTS.c_squared)
        assert ratio == pytest.approx(-2.1225987775107756e-06, rel=1e-12)

    def test_asymptotically_zero_from_below(self, earth):
        field = PotentialField.of(earth)
        previous = potential(field, FieldPoint.from_si("p", {"earth": 1e8})).value
        for r in (1e10, 1e13, 1e16):
            phi = potential(field, FieldPoint.from_si("p", {"earth": r})).value
            assert previous < phi < 0.0
            previous = phi
        assert abs(previous) < 1e-1

    def test_missing_distance_is_configuration_error(self, earth, sun):
        field = PotentialField.of(earth, sun)
        point = FieldPoint.from_si("p", {"earth": 7e6})
        with pytest.raises(ConfigurationError):
            potential(field, point)

    def test_interior_point_is_domain_error(self, earth_field):
        point = FieldPoint.from_si("p", {"earth": 1.0})
        with pytest.raises(DomainError):
            potential(earth_field, point)

    def test_empty_field_rejected(self):
        with pytest.raises(ConfigurationError):
            PotentialField.of()

    def test_duplicate_bodies_rejected(self, earth):
        with pytest.raises(ConfigurationError):
            PotentialField.of(earth, earth)

    @settings(max_examples=200)
    @given(
        m1=st.floats(min_value=1e20, max_value=1e32),
        m2=st.floats(min_value=1e20, max_value=1e32),
        r1=st.floats(min_value=1e6, max_value=1e14),
        r2=st.floats(min_value=1e6, max_value=1e14),
    )
    def test_superposition(self, m1, m2, r1, r2):
        a = CelestialBody.from_si("a", m1, 1e5)
        b = CelestialBody.from_si("b", m2, 1e5)
        point = FieldPoint.from_si("p", {"a": r1, "b": r2})
        combined = potential(PotentialField.of(a, b), point).value
        separate = (potential(PotentialField.of(a), FieldPoint.from_si("p", {"a": r1})).value
                    + potential(PotentialField.of(b), FieldPoint.from_si("p", {"b": r2})).value)
        assert combined == pytest.approx(separate, rel=1e-15)
        assert combined < 0.0

    @given(
        r_lo=st.floats(min_value=1e6, max_value=1e12),
        factor=st.floats(min_value=1.0001, max_value=1e4),
    )
    def test_sign_and_monotonicity(self, r_lo, factor):
        field, p_lo = single_body_setup(5e24, 1e6, r_lo)
        p_hi = FieldPoint.from_si("q", {"b": r_lo * factor})
        phi_lo = potential(field, p_lo).value
        phi_hi = potential(field, p_hi).value
        assert phi_lo < phi_hi < 0.0


class TestPotentialDifference:
    """phi(p1) - phi(p2), the difference `shift` divides by c^2."""

    @staticmethod
    def difference(field, p1, p2):
        shift = fractional_shift(ShiftModel.EMITTER_MASS_DEFECT,
                                 potential(field, p1), potential(field, p2))
        return shift * CONSTANTS.c_squared

    def test_same_point_is_zero(self, earth_field, earth_surface):
        assert self.difference(earth_field, earth_surface, earth_surface).value == 0.0

    def test_tower_descent(self, earth, earth_field, earth_surface):
        above = FieldPoint.at_altitude(earth, 22.5)
        dphi = self.difference(earth_field, earth_surface, above)
        expected = oracles.G * oracles.M_EARTH * (
            1.0 / (oracles.R_EARTH + 22.5) - 1.0 / oracles.R_EARTH
        )
        # the subtraction of two ~6.26e7 potentials leaves ~5e-11 relative noise
        assert dphi.value == pytest.approx(expected, rel=1e-9)
        assert dphi.value == pytest.approx(-220.956, rel=1e-5)
        # cross-check against conventional g*h
        assert abs(dphi.value) == pytest.approx(oracles.G_STANDARD * 22.5, rel=2e-3)

    def test_antisymmetric_under_swap(self, earth, earth_field, earth_surface):
        above = FieldPoint.at_altitude(earth, 22.5)
        forward = self.difference(earth_field, earth_surface, above)
        backward = self.difference(earth_field, above, earth_surface)
        assert forward.value == -backward.value


class TestGradient:
    def test_earth_surface(self, earth_field, earth_surface):
        g = gradient(earth_field, earth_surface)
        assert g.value == pytest.approx(
            oracles.G * oracles.M_EARTH / oracles.R_EARTH**2, rel=1e-13
        )
        assert g.value == pytest.approx(9.82, rel=1e-3)

    def test_inverse_square(self):
        field, p1 = single_body_setup(5e24, 1e6, 1e7)
        p2 = FieldPoint.from_si("q", {"b": 2e7})
        assert gradient(field, p2).value == pytest.approx(
            gradient(field, p1).value / 4.0, rel=1e-14
        )

    def test_vanishes_at_infinity(self, earth_field):
        far = FieldPoint.from_si("p", {"earth": 1e18})
        assert 0.0 < gradient(earth_field, far).value < 1e-20

    @settings(max_examples=200)
    @given(
        r=st.floats(min_value=6.4e6, max_value=1e12),
        eps_rel=st.floats(min_value=1e-7, max_value=1e-6),
    )
    def test_matches_forward_difference(self, r, eps_rel):
        field, point = single_body_setup(5.9722e24, 6.371e6, r)
        eps = r * eps_rel
        shifted = FieldPoint.from_si("q", {"b": r + eps})
        fd = (potential(field, shifted).value - potential(field, point).value) / eps
        assert gradient(field, point).value == pytest.approx(fd, rel=1e-5)


class TestAtomicScaleCorrection:
    def test_bohr_radius_at_earth_surface(self, earth_field, earth_surface):
        corr = atomic_scale_correction(earth_field, earth_surface, metres(BOHR_RADIUS))
        expected = BOHR_RADIUS * oracles.G * oracles.M_EARTH / oracles.R_EARTH**2
        assert corr.value == pytest.approx(expected, rel=1e-13)
        assert corr.value == pytest.approx(5.2e-10, rel=1e-2)

    def test_ratio_to_potential_is_a_over_r(self, earth_field, earth_surface):
        corr = atomic_scale_correction(earth_field, earth_surface, metres(BOHR_RADIUS))
        phi = potential(earth_field, earth_surface)
        ratio = corr.value / abs(phi.value)
        assert ratio == pytest.approx(BOHR_RADIUS / oracles.R_EARTH, rel=1e-12)

    def test_negligible_for_atomic_lengths_at_planetary_radii(self, earth_field, earth_surface):
        corr = atomic_scale_correction(earth_field, earth_surface, metres(BOHR_RADIUS))
        phi = potential(earth_field, earth_surface)
        assert corr.value / abs(phi.value) < 1e-16

    def test_zero_length(self, earth_field, earth_surface):
        assert atomic_scale_correction(earth_field, earth_surface, metres(0.0)).value == 0.0

    def test_linear_in_length(self, earth_field, earth_surface):
        one = atomic_scale_correction(earth_field, earth_surface, metres(1e-10))
        two = atomic_scale_correction(earth_field, earth_surface, metres(2e-10))
        assert two.value == pytest.approx(2.0 * one.value, rel=1e-14)

    def test_rejects_large_length(self, earth_field, earth_surface):
        with pytest.raises(DomainError):
            atomic_scale_correction(earth_field, earth_surface, metres(1e5))

    def test_rejects_negative_length(self, earth_field, earth_surface):
        with pytest.raises(DomainError):
            atomic_scale_correction(earth_field, earth_surface, metres(-1e-10))


class TestBodyValidation:
    def test_rejects_non_positive_mass(self):
        with pytest.raises(DomainError):
            CelestialBody.from_si("x", 0.0, 1.0)

    def test_rejects_non_positive_radius(self):
        with pytest.raises(DomainError):
            CelestialBody.from_si("x", 1.0, -1.0)

    def test_rejects_bad_name(self):
        with pytest.raises(ConfigurationError):
            CelestialBody.from_si("bad name!", 1.0, 1.0)


class TestBodyRegistry:
    def test_default_registry(self):
        bodies = default_bodies()
        assert set(bodies) == {"earth", "sun"}
        assert bodies["earth"].mass.value == 5.9722e24
        assert bodies["earth"].radius.value == 6.371e6
        assert bodies["sun"].mass.value == 1.9885e30
        assert bodies["sun"].radius.value == 6.957e8

    def test_load_custom_file(self, tmp_path):
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([{"name": "moon", "mass_kg": 7.342e22, "radius_m": 1.7374e6}]))
        bodies = load_bodies(path)
        assert bodies["moon"].mass.value == 7.342e22

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([
            {"name": "x", "mass_kg": 1e22, "radius_m": 1e6},
            {"name": "x", "mass_kg": 2e22, "radius_m": 1e6},
        ]))
        with pytest.raises(RegistryError, match="duplicate"):
            load_bodies(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([{"name": "x", "mass_kg": 1e22}]))
        with pytest.raises(RegistryError, match="radius_m"):
            load_bodies(path)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "bodies.json"
        path.write_text("[{]")
        with pytest.raises(RegistryError, match="line"):
            load_bodies(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(RegistryError, match="not found"):
            load_bodies(tmp_path / "nope.json")

    def test_env_dir_override(self, tmp_path, monkeypatch):
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([{"name": "pluto", "mass_kg": 1.303e22, "radius_m": 1.1883e6}]))
        monkeypatch.setenv("GRAVSHIFT_DATA_DIR", str(tmp_path))
        bodies = default_bodies()
        assert set(bodies) == {"pluto"}
