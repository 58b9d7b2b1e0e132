import math

import pytest
from hypothesis import given, settings, strategies as st

from gravshift.errors import ConfigurationError, DomainError, ImpactError
from gravshift.gravity import CelestialBody
from gravshift.photon import (
    Photon,
    PlanarBody,
    RayPath,
    RayResult,
    impact_parameter_ray,
    local_light_speed,
    photon_frequency_shift,
    photon_mass,
    photon_mass_change,
    trace_ray,
)
from gravshift.units import CONSTANTS, hertz, potential_m2_s2

import oracles

LYMAN_ALPHA = Photon(hertz(2.466e15))
PHI_SUN = potential_m2_s2(oracles.point_mass_potential(oracles.M_SUN, oracles.R_SUN))


class TestPhotonMass:
    def test_lyman_alpha_scale(self):
        m = photon_mass(LYMAN_ALPHA)
        assert m.value == pytest.approx(oracles.H * 2.466e15 / oracles.C2, rel=1e-12)
        assert m.value == pytest.approx(1.82e-35, rel=1e-2)

    def test_linear_in_frequency(self):
        assert photon_mass(Photon(hertz(2e15))).value == pytest.approx(
            2.0 * photon_mass(Photon(hertz(1e15))).value, rel=1e-15
        )

    def test_vanishes_with_frequency(self):
        assert photon_mass(Photon(hertz(1e-6))).value < 1e-55

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(DomainError):
            Photon(hertz(0.0))


class TestPhotonMassChange:
    def test_zero_difference_gives_zero(self):
        assert photon_mass_change(LYMAN_ALPHA, potential_m2_s2(0.0)).value == 0.0

    def test_tower_descent_magnitude(self):
        dphi = oracles.G * oracles.M_EARTH * (
            1.0 / (oracles.R_EARTH + 22.5) - 1.0 / oracles.R_EARTH
        )
        dm = photon_mass_change(LYMAN_ALPHA, potential_m2_s2(dphi))
        expected = (oracles.H * 2.466e15 / oracles.C2) * dphi / oracles.C2
        assert dm.value == pytest.approx(expected, rel=1e-12)
        assert dm.value == pytest.approx(-4.5e-50, rel=6e-2)
        assert dm.value < 0.0

    def test_linear_in_both_factors(self):
        dphi = potential_m2_s2(-100.0)
        one = photon_mass_change(Photon(hertz(1e15)), dphi).value
        assert photon_mass_change(Photon(hertz(2e15)), dphi).value == pytest.approx(
            2.0 * one, rel=1e-15
        )
        assert photon_mass_change(Photon(hertz(1e15)), potential_m2_s2(-200.0)).value == \
            pytest.approx(2.0 * one, rel=1e-15)

    def test_construction_identity_with_frequency_shift(self):
        # both effects are built from the same computed dphi/c^2 ratio
        phi1, phi2 = PHI_SUN, potential_m2_s2(-1e3)
        ratio = float((phi1 - phi2) / CONSTANTS.c_squared)
        dm = photon_mass_change(LYMAN_ALPHA, phi1 - phi2)
        dnu = photon_frequency_shift(LYMAN_ALPHA, phi1, phi2)
        assert dm.value == photon_mass(LYMAN_ALPHA).value * ratio
        assert dnu.value == LYMAN_ALPHA.frequency.value * ratio


class TestLocalLightSpeed:
    def test_vacuum_value_exact(self):
        assert local_light_speed(potential_m2_s2(0.0)).value == CONSTANTS.c.value

    def test_sun_surface(self):
        x = 2.1225987775107756e-06
        c_prime = local_light_speed(PHI_SUN)
        assert c_prime.value / oracles.C == pytest.approx(1.0 / (1.0 + x), rel=1e-12)
        assert c_prime.value < oracles.C

    def test_matches_linearised_form_to_second_order(self):
        x = 2.1225987775107756e-06
        exact = local_light_speed(PHI_SUN).value
        linearised = oracles.C * (1.0 - x)
        assert abs(exact - linearised) / oracles.C <= x * x * 1.0001

    def test_strong_field_rejected(self):
        with pytest.raises(DomainError):
            local_light_speed(potential_m2_s2(-1.5 * oracles.C2))

    @given(
        x1=st.floats(min_value=1e-12, max_value=0.9),
        x2=st.floats(min_value=1e-12, max_value=0.9),
    )
    def test_slower_than_c_and_monotone(self, x1, x2):
        c1 = local_light_speed(potential_m2_s2(-x1 * oracles.C2)).value
        assert c1 < oracles.C
        if x1 < x2:
            c2 = local_light_speed(potential_m2_s2(-x2 * oracles.C2)).value
            assert c2 < c1


class TestPhotonFrequencyShift:
    def test_equal_potentials(self):
        assert photon_frequency_shift(LYMAN_ALPHA, PHI_SUN, PHI_SUN).value == 0.0

    def test_tower_ascent_is_red(self):
        phi_lo = potential_m2_s2(oracles.point_mass_potential(oracles.M_EARTH, oracles.R_EARTH))
        phi_hi = potential_m2_s2(
            oracles.point_mass_potential(oracles.M_EARTH, oracles.R_EARTH + 22.5)
        )
        dnu = photon_frequency_shift(LYMAN_ALPHA, phi_lo, phi_hi)
        fractional = dnu.value / LYMAN_ALPHA.frequency.value
        assert fractional == pytest.approx(-oracles.G_STANDARD * 22.5 / oracles.C2, rel=2e-3)

    def test_sun_surface_to_one_au(self):
        phi1 = potential_m2_s2(oracles.point_mass_potential(oracles.M_SUN, oracles.R_SUN))
        phi2 = potential_m2_s2(oracles.point_mass_potential(oracles.M_SUN, oracles.AU))
        dnu = photon_frequency_shift(LYMAN_ALPHA, phi1, phi2)
        fractional = dnu.value / LYMAN_ALPHA.frequency.value
        expected = -oracles.G * oracles.M_SUN * (1.0 / oracles.R_SUN - 1.0 / oracles.AU) / oracles.C2
        assert fractional == pytest.approx(expected, rel=1e-12)
        assert fractional == pytest.approx(-2.11e-6, rel=2e-3)


class TestRayPathValidation:
    def test_direction_must_be_unit(self, sun):
        with pytest.raises(ConfigurationError):
            RayPath(start=(0.0, 0.0), direction=(1.0, 1.0),
                    bodies=(), termination_radius=1.0)

    def test_start_inside_body_rejected(self, sun):
        with pytest.raises(ConfigurationError):
            RayPath(start=(0.0, 0.0), direction=(1.0, 0.0),
                    bodies=(PlanarBody(sun),), termination_radius=1e12)

    def test_start_outside_termination_rejected(self):
        with pytest.raises(ConfigurationError):
            RayPath(start=(10.0, 0.0), direction=(1.0, 0.0),
                    bodies=(), termination_radius=1.0)

    def test_start_rounding_stays_inside_termination_circle(self, sun):
        # the third ray of `--sweep-radii 1:20:8`; the rounded start used to
        # land just outside the termination circle
        path = impact_parameter_ray(sun, 6.428571428571429 * oracles.R_SUN)
        assert math.hypot(*path.start) <= path.termination_radius

    @given(
        b_radii=st.floats(min_value=1.0, max_value=20.0),
        factor=st.floats(min_value=10.0, max_value=1e4),
    )
    def test_impact_parameter_ray_starts_inside(self, sun, b_radii, factor):
        path = impact_parameter_ray(sun, b_radii * oracles.R_SUN, factor)
        assert math.hypot(*path.start) <= path.termination_radius

    def test_tolerance_range_enforced(self, sun):
        path = impact_parameter_ray(sun, 2.0 * oracles.R_SUN)
        with pytest.raises(DomainError):
            trace_ray(path, rel_tol=1e-13)
        with pytest.raises(DomainError):
            trace_ray(path, rel_tol=1e-5)


class TestTraceRay:
    def test_empty_field_goes_straight(self):
        path = RayPath(start=(-150.0, 40.0), direction=(1.0, 0.0),
                       bodies=(), termination_radius=300.0)
        result = trace_ray(path, rel_tol=1e-10)
        assert result.deflection_rad == 0.0
        assert result.transit_time_s == pytest.approx(result.straight_line_time_s, rel=1e-15)
        assert result.time_excess_s == pytest.approx(0.0, abs=1e-20)
        assert result.closest_approach_m == pytest.approx(40.0, rel=1e-9)
        assert type(result.transit_time_s) is float
        assert type(result.closest_approach_m) is float

    def test_solar_grazing_matches_quadrature(self, sun):
        result = trace_ray(impact_parameter_ray(sun, oracles.R_SUN), rel_tol=1e-10)
        expected = oracles.deflection_quadrature(oracles.MU_SUN, oracles.R_SUN)
        assert abs(result.deflection_rad) == pytest.approx(expected, rel=2e-2)
        assert abs(result.deflection_arcsec) == pytest.approx(0.8756, rel=1e-3)

    def test_grazing_periapsis_dip_matches_index_invariant(self, sun):
        # n*r*sin(psi) conservation puts the periapsis at b - GM/c^2
        result = trace_ray(impact_parameter_ray(sun, oracles.R_SUN), rel_tol=1e-10)
        dip = oracles.R_SUN - result.closest_approach_m
        assert dip == pytest.approx(oracles.MU_SUN, rel=0.05)

    def test_mirror_symmetry(self, sun):
        b = 5.0 * oracles.R_SUN
        upper = trace_ray(impact_parameter_ray(sun, b), rel_tol=1e-9)
        r_term = 200.0 * b
        x0 = -math.sqrt(r_term**2 - b**2)
        lower = trace_ray(
            RayPath(start=(x0, -b), direction=(1.0, 0.0),
                    bodies=(PlanarBody(sun),), termination_radius=r_term),
            rel_tol=1e-9,
        )
        assert upper.deflection_rad < 0.0 < lower.deflection_rad
        assert abs(upper.deflection_rad) == pytest.approx(abs(lower.deflection_rad), rel=1e-6)

    def test_inverse_impact_parameter_scaling(self, sun):
        near = trace_ray(impact_parameter_ray(sun, 10.0 * oracles.R_SUN), rel_tol=1e-10)
        far = trace_ray(impact_parameter_ray(sun, 20.0 * oracles.R_SUN), rel_tol=1e-10)
        assert near.deflection_rad / far.deflection_rad == pytest.approx(2.0, rel=1e-3)

    def test_halving_tolerance_stays_within_error_estimate(self, sun):
        b = 2.0 * oracles.R_SUN
        coarse = trace_ray(impact_parameter_ray(sun, b), rel_tol=1e-8)
        fine = trace_ray(impact_parameter_ray(sun, b), rel_tol=5e-9)
        assert abs(fine.deflection_rad - coarse.deflection_rad) < coarse.deflection_error_rad

    def test_transit_time_never_undercuts_straight_line(self, sun):
        for b in (oracles.R_SUN, 3.0 * oracles.R_SUN):
            result = trace_ray(impact_parameter_ray(sun, b), rel_tol=1e-9)
            assert result.time_excess_s >= 0.0
            assert result.transit_time_s >= result.straight_line_time_s

    def test_impact_raises_with_closest_approach(self, sun):
        with pytest.raises(ImpactError) as err:
            trace_ray(impact_parameter_ray(sun, 0.5 * oracles.R_SUN), rel_tol=1e-8)
        assert err.value.body == "sun"
        assert err.value.closest_approach_m < oracles.R_SUN

    def test_impact_is_judged_per_body(self):
        # the ray passes 2e7 m from big (radius 1e7 m) and 5e6 m from small
        # (radius 1e3 m): the least distance over both bodies lies inside
        # big's radius, yet neither body is hit
        big = CelestialBody.from_si("big", 5.9722e24, 1e7)
        small = CelestialBody.from_si("small", 1e20, 1e3)
        path = RayPath(start=(-3.9e9, 2e7), direction=(1.0, 0.0),
                       bodies=(PlanarBody(big), PlanarBody(small, (0.0, 2.5e7))),
                       termination_radius=4e9)
        result = trace_ray(path, rel_tol=1e-8)
        assert result.closest_approach_m == pytest.approx(5.0e6, rel=1e-6)

    def test_successful_graze_respects_margin(self, sun):
        result = trace_ray(impact_parameter_ray(sun, oracles.R_SUN), rel_tol=1e-9)
        assert result.closest_approach_m >= oracles.R_SUN * (1.0 - 1e-5)
