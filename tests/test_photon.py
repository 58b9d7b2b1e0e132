import math
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from gravshift import photon
from gravshift.errors import ConvergenceError, DomainError, ImpactError
from gravshift.gravity import CelestialBody, FieldPoint
from gravshift.photon import IMPACT_MARGIN, trace_ray
from gravshift.spectra import ShiftModel, fractional_shift

import oracles

MASS_RADIUS = oracles.MASS_RADIUS


def solve_raising(fun, t_span, y0, **kwargs):
    """A solve_ivp that refuses its input with ValueError("x")."""
    raise ValueError("x")


def integrated_periapsis(mass_kg, b, factor):
    """Least distance from the centre (m) of the ray that trace_ray starts,
    found by integrating d/ds(n dx/ds) = grad n in arc length, in units of b,
    up to where x.p turns positive.  The body is not an obstacle here, and
    nothing uses the invariant n r sin(psi).

    Classical fourth-order Runge-Kutta steps of 0.005 r; the last one is
    bisected to where x.p changes sign.  The height is carried as y - 1, so
    that its rounding scales with the bend, not with b: the periapsis is
    then within 2e-16 of r_min = l - mu for every ray the tests trace.
    """
    k = oracles.G * mass_kg / oracles.C2 / b

    def rhs(state):
        x, dy, px, py = state
        y = 1.0 + dy
        r = math.hypot(x, y)
        n, g = 1.0 + k / r, k / r ** 3
        return px / n, py / n, -g * x, -g * y

    def step(state, h):
        k1 = rhs(state)
        k2 = rhs([v + h / 2.0 * d for v, d in zip(state, k1)])
        k3 = rhs([v + h / 2.0 * d for v, d in zip(state, k2)])
        k4 = rhs([v + h * d for v, d in zip(state, k3)])
        return [v + h / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                for v, d1, d2, d3, d4 in zip(state, k1, k2, k3, k4)]

    def outbound(state):
        x, dy, px, py = state
        return x * px + (1.0 + dy) * py > 0.0

    state = [-math.sqrt(factor * factor - 1.0), 0.0, 1.0 + k / factor, 0.0]
    while True:
        h = 0.005 * math.hypot(state[0], 1.0 + state[1])
        after = step(state, h)
        if outbound(after):
            break
        state = after
    lo, hi = 0.0, h
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if outbound(step(state, mid)) else (mid, hi)
    x, dy, _, _ = step(state, lo)
    return math.hypot(x, 1.0 + dy) * b


class TestPhotonFrequencyShift:
    """The photon reading's shift, as `shift --model photon` computes it."""

    @staticmethod
    def shift(emit, obs):
        return fractional_shift(ShiftModel.photon, emit, obs)

    def test_equal_potentials(self, sun):
        surface = FieldPoint("sun:0", [(sun, sun.radius_m)])
        assert self.shift(surface, surface) == 0.0

    def test_tower_ascent_is_red(self, earth):
        fractional = self.shift(FieldPoint("earth:0", [(earth, earth.radius_m)]),
                                FieldPoint("earth:22.5", [(earth, earth.radius_m + 22.5)]))
        assert fractional == pytest.approx(-oracles.G_STANDARD * 22.5 / oracles.C2, rel=2e-3)

    def test_sun_surface_to_one_au(self, sun):
        fractional = self.shift(FieldPoint("sun:0", [(sun, sun.radius_m)]),
                                FieldPoint("1 AU", [(sun, oracles.AU)]))
        expected = -oracles.G * oracles.M_SUN * (1.0 / oracles.R_SUN - 1.0 / oracles.AU) / oracles.C2
        assert fractional == pytest.approx(expected, rel=1e-12)
        assert fractional == pytest.approx(-2.11e-6, rel=2e-3)


class TestRayPathValidation:
    BODIES = [("sun", oracles.M_SUN, oracles.R_SUN),
              ("earth", oracles.M_EARTH, oracles.R_EARTH),
              ("compact", oracles.M_SUN, 1.0),
              ("pebble", 1.0, 1.0)]

    @settings(deadline=None)
    @given(
        body=st.sampled_from(BODIES),
        depth=st.floats(min_value=1e-6, max_value=1.0),
        factor=st.floats(min_value=10.0, max_value=200.0),
    )
    def test_start_inside_body_rejected(self, body, depth, factor):
        # the termination circle, of radius depth * R, lies on or inside the
        # body, so b <= R/factor and the periapsis, below b, is an impact
        name, mass_kg, radius_m = body
        with pytest.raises(ImpactError, match=f"impacted body '{name}'"):
            trace_ray(CelestialBody(name, mass_kg, radius_m), depth * radius_m / factor,
                      factor, 1e-6)

    @pytest.mark.parametrize("body", BODIES)
    @pytest.mark.parametrize("factor", [10.0, 200.0])
    @pytest.mark.parametrize("b", [5e-324, 1e-320, 1e-306])
    def test_underflowing_impact_parameter_rejected(self, body, factor, b):
        # so small a b makes mu = G*M/(c^2 L) overflow, or L = factor*b/200
        # underflow to 0; the ray is still refused as an impact, not handed
        # to the integrator
        name, mass_kg, radius_m = body
        with pytest.raises(ImpactError, match=f"impacted body '{name}'"):
            trace_ray(CelestialBody(name, mass_kg, radius_m), b, factor, 1e-6)

    def test_start_rounding_stays_inside_termination_circle(self, sun):
        # the third ray of `--sweep-radii 1:20:8`; the rounded start used to
        # land just outside the termination circle, and the ray was refused
        result = trace_ray(sun, 6.428571428571429 * oracles.R_SUN, 200.0, 1e-6)
        assert result.deflection_rad < 0.0

    @settings(deadline=None)
    @given(
        b_radii=st.floats(min_value=1.0, max_value=20.0),
        factor=st.floats(min_value=10.0, max_value=200.0),
    )
    def test_impact_parameter_ray_starts_inside(self, sun, b_radii, factor):
        # every b and factor in range traces: rounding never puts the start
        # outside the termination circle
        b = b_radii * oracles.R_SUN
        result = trace_ray(sun, b, factor, 1e-6)
        assert result.closest_approach_m < b
        expected, _, _ = oracles.bent_ray_closed_form(oracles.MU_SUN, b, factor * b)
        assert abs(result.deflection_rad - expected) <= 1e-6 * abs(expected)

    @pytest.mark.parametrize("factor", [9.9, 200.5, 1e3, 1e9])
    def test_termination_factor_outside_10_to_200_refused(self, sun, factor):
        # beyond 200 the path-minus-chord term pulls the time excess away
        # from its straight-line value
        with pytest.raises(DomainError, match=r"\[10, 200\]"):
            trace_ray(sun, oracles.R_SUN, factor, 1e-6)

    @pytest.mark.parametrize("b_m, reason", [
        (0.0, "impact parameter must be positive and finite, got 0.0"),
        (-1.0, "impact parameter must be positive and finite, got -1.0"),
        (math.nan, "impact parameter must be positive and finite, got nan"),
        (math.inf, "impact parameter must be positive and finite, got inf"),
        # finite, but the termination radius squared is not
        (1e300, "termination radius 2e+302 m is too large: its square is not finite"),
        # finite, but 200 * b itself overflows
        (1e307, "termination radius inf m is too large: its square is not finite"),
    ], ids=["0", "-1", "nan", "inf", "1e+300", "1e+307"])
    def test_bad_impact_parameter_refused(self, sun, b_m, reason):
        with pytest.raises(DomainError, match=f"^{re.escape(reason)}$"):
            trace_ray(sun, b_m, 200.0, 1e-6)

    def test_tolerance_range_enforced(self, sun):
        b = 2.0 * oracles.R_SUN
        with pytest.raises(DomainError, match=re.escape("tolerance 1e-13 outside [1e-12, 1e-6]")):
            trace_ray(sun, b, 200.0, 1e-13)
        with pytest.raises(DomainError, match=re.escape("tolerance 1e-05 outside [1e-12, 1e-6]")):
            trace_ray(sun, b, 200.0, 1e-5)


class TestDeflectionQuadrature:
    @pytest.mark.parametrize("k, expected", [
        # 2k * int_0^{pi/2} cos t/(1 + k cos t) dt by QUADPACK's adaptive
        # qags rule (epsabs 1e-16, epsrel 1e-12), written down as literals
        (1e-15, 1.999999999999999e-15),
        (1e-9, 1.999999998429204e-09),
        (oracles.MU_SUN / oracles.R_SUN, 4.245190477928366e-06),
        (1e-3, 0.001998430535829507),
        (0.1, 0.18551732884024363),
        (0.45, 0.6690379259774896),
    ])
    def test_matches_library_quadrature(self, k, expected):
        assert oracles.deflection_quadrature(k, 1.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("k", [1e-9, 0.1, 0.45, 0.9])
    def test_matches_closed_form(self, k):
        # int_0^{pi/2} dt/(1 + k cos t) = 2/sqrt(1 - k^2) * atan(sqrt((1 - k)/(1 + k))),
        # and cos t/(1 + k cos t) = (1 - 1/(1 + k cos t))/k
        inverse = 2.0 / math.sqrt(1.0 - k * k) * math.atan(math.sqrt((1.0 - k) / (1.0 + k)))
        expected = 2.0 * (math.pi / 2.0 - inverse)
        assert oracles.deflection_quadrature(k, 1.0) == pytest.approx(
            expected, rel=1e-15 / k)


class TestTraceRay:
    def test_solar_grazing_matches_quadrature(self, sun):
        result = trace_ray(sun, oracles.R_SUN, 200.0, 1e-10)
        expected = oracles.deflection_quadrature(oracles.MU_SUN, oracles.R_SUN)
        # the upper ray bends down, towards the body
        assert result.deflection_rad < 0.0
        assert abs(result.deflection_rad) == pytest.approx(expected, rel=2e-2)
        assert abs(result.deflection_arcsec) == pytest.approx(0.8756, rel=1e-3)

    def test_grazing_periapsis_dip_matches_index_invariant(self, sun):
        # the ray dips about GM/c^2 below b; the dip is 1477 m of 7e8, so
        # 1e-14 of the periapsis is 5e-9 of the dip
        result = trace_ray(sun, oracles.R_SUN, 200.0, 1e-10)
        expected = integrated_periapsis(oracles.M_SUN, oracles.R_SUN, 200.0)
        assert abs(result.closest_approach_m - expected) <= 1e-14 * expected
        dip = oracles.R_SUN - result.closest_approach_m
        assert dip == pytest.approx(oracles.MU_SUN, rel=0.01)

    @pytest.mark.parametrize("name", ["sun", "earth"])
    @pytest.mark.parametrize("b_radii", [1.0, 3.0, 20.0])
    @pytest.mark.parametrize("factor", [10.0, 200.0])
    def test_periapsis_matches_integrated_trajectory(self, bodies, name, b_radii, factor):
        mass, radius = MASS_RADIUS[name]
        b = b_radii * radius
        expected = integrated_periapsis(mass, b, factor)
        result = trace_ray(bodies[name], b, factor, 1e-6)
        assert abs(result.closest_approach_m - expected) <= 1e-14 * expected

    def test_inverse_impact_parameter_scaling(self, sun):
        near = trace_ray(sun, 10.0 * oracles.R_SUN, 200.0, 1e-10)
        far = trace_ray(sun, 20.0 * oracles.R_SUN, 200.0, 1e-10)
        assert near.deflection_rad / far.deflection_rad == pytest.approx(2.0, rel=1e-3)

    def test_transit_time_never_undercuts_straight_line(self, sun):
        for b in (oracles.R_SUN, 3.0 * oracles.R_SUN):
            result = trace_ray(sun, b, 200.0, 1e-9)
            delta, _, _ = oracles.bent_ray_closed_form(oracles.MU_SUN, b, 200.0 * b)
            assert result.time_excess_s >= 0.0
            assert result.transit_time_s > oracles.chord_time(b, 200.0 * b, delta)
            assert type(result.transit_time_s) is float
            assert type(result.closest_approach_m) is float

    def test_impact_raises_with_closest_approach(self, sun):
        # the error carries the periapsis the ray would reach unobstructed
        with pytest.raises(ImpactError) as err:
            trace_ray(sun, 0.5 * oracles.R_SUN, 200.0, 1e-8)
        assert err.value.body == "sun"
        expected = integrated_periapsis(oracles.M_SUN, 0.5 * oracles.R_SUN, 200.0)
        assert abs(err.value.closest_approach_m - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
    def test_periapsis_at_the_impact_radius(self, sun, side):
        # the start lies 200 b from the centre, so the ray dips
        # GM/c^2 * (1 - 1/200) below b to first order
        target = oracles.R_SUN * (1.0 - IMPACT_MARGIN) * (1.0 + side * 1e-9)
        b = target + oracles.MU_SUN * (1.0 - 1.0 / 200.0)
        expected = integrated_periapsis(oracles.M_SUN, b, 200.0)
        assert expected == pytest.approx(target, rel=1e-12)
        if side > 0.0:
            closest = trace_ray(sun, b, 200.0, 1e-8).closest_approach_m
        else:
            with pytest.raises(ImpactError) as err:
                trace_ray(sun, b, 200.0, 1e-8)
            closest = err.value.closest_approach_m
        assert abs(closest - expected) <= 1e-14 * expected

    def test_ray_that_falls_to_the_centre_reports_zero(self):
        # mu = 1477 m exceeds b n(200 b) = 1007 m, so n r sin(psi) never
        # reaches n r and the ray falls all the way in
        compact = CelestialBody("compact", oracles.M_SUN, 1.0)
        with pytest.raises(ImpactError) as err:
            trace_ray(compact, 1000.0, 200.0, 1e-8)
        assert err.value.closest_approach_m == 0.0

    def test_successful_graze_respects_margin(self, sun):
        result = trace_ray(sun, oracles.R_SUN, 200.0, 1e-9)
        assert result.closest_approach_m >= oracles.R_SUN * (1.0 - 1e-5)

    @pytest.mark.parametrize("name", ["sun", "earth"])
    @pytest.mark.parametrize("b_radii", [1.0, 20.0, 1e3])
    def test_time_excess_matches_closed_form(self, bodies, name, b_radii):
        # the excess of the bent path over its chord, in closed form
        mass, radius = MASS_RADIUS[name]
        b = b_radii * radius
        _, _, expected = oracles.bent_ray_closed_form(oracles.G * mass / oracles.C2, b, 200.0 * b)
        result = trace_ray(bodies[name], b, 200.0, 1e-10)
        assert result.time_excess_s == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("name", ["sun", "earth"])
    @pytest.mark.parametrize("b_radii", [1.0, 1.3, 3.0, 20.0, 1e3])
    @pytest.mark.parametrize("factor", [10.0, 200.0])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_error_bar_covers_closed_form_deflection(self, bodies, name, b_radii, factor, tol):
        # the error bar is tol * |delta_R|, delta_R the bend inside the circle
        mass, radius = MASS_RADIUS[name]
        b = b_radii * radius
        expected, _, _ = oracles.bent_ray_closed_form(
            oracles.G * mass / oracles.C2, b, factor * b)
        result = trace_ray(bodies[name], b, factor, tol)
        assert abs(result.deflection_rad - expected) <= tol * abs(expected)

    @pytest.mark.parametrize("name", ["sun", "earth"])
    @pytest.mark.parametrize("b_radii", [1.0, 3.0, 20.0])
    @pytest.mark.parametrize("factor", [10.0, 200.0])
    def test_error_bar_covers_solver_error(self, bodies, name, b_radii, factor):
        # the same error bar, against the tightest solve instead of the oracle
        body = bodies[name]
        b = b_radii * body.radius_m
        reference = trace_ray(body, b, factor, 1e-12).deflection_rad
        for tol in (1e-6, 1e-8, 1e-10):
            result = trace_ray(body, b, factor, tol)
            assert abs(result.deflection_rad - reference) <= tol * abs(reference)

    @pytest.mark.parametrize("x", [1e-155, 1e-200, 1e-300, 1.12e-308])
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_feeble_body_keeps_the_error_bar(self, x, tol):
        # a 1 m body of G*M/(R*c^2) = x: below a bend of about 1e-150 the
        # tolerance of the time-excess component underflowed to 0, and the
        # solve never ended; the bend 2.24e-308 of the last is just normal
        body = CelestialBody("feeble", x * oracles.C2 / oracles.G, 1.0)
        expected, _, excess = oracles.bent_ray_closed_form(body.mu / oracles.C2, 1.0, 200.0)
        result = trace_ray(body, 1.0, 200.0, tol)
        assert abs(result.deflection_rad - expected) <= tol * abs(expected)
        assert result.time_excess_s == pytest.approx(excess, rel=1e-6)

    def test_one_solve_per_ray(self, sun, monkeypatch):
        # one event (the exit) and five state components: x, y, p and K
        rtols = []
        real = photon.solve_ivp

        def counting_solve_ivp(fun, t_span, y0, **kwargs):
            assert callable(kwargs["events"]) and len(y0) == 5
            rtols.append(kwargs["rtol"])
            return real(fun, t_span, y0, **kwargs)

        monkeypatch.setattr(photon, "solve_ivp", counting_solve_ivp)
        trace_ray(sun, 2.0 * oracles.R_SUN, 200.0, 1e-8)
        trace_ray(sun, 2.0 * oracles.R_SUN, 200.0, 1e-12)
        assert rtols == [1e-8, 1e-12]

    @pytest.mark.parametrize("solve, message", [
        # the solver refuses its input
        (solve_raising, "ray integration failed: x"),
        # the solver gives up mid-way
        (lambda *args, **kwargs: SimpleNamespace(status=-1, message="step too small",
                                                 t_events=[[]]),
         "ray integration failed: step too small"),
        # the solve reaches the end of its span without the exit event
        (lambda *args, **kwargs: SimpleNamespace(status=0, message="end of span",
                                                 t_events=[[]]),
         "ray did not reach the termination radius within 8 termination radii of path"),
    ], ids=["raises", "status -1", "no exit event"])
    def test_failed_solve_is_a_convergence_error(self, sun, monkeypatch, solve, message):
        monkeypatch.setattr(photon, "solve_ivp", solve)
        with pytest.raises(ConvergenceError) as excinfo:
            trace_ray(sun, 2.0 * oracles.R_SUN, 200.0, 1e-8)
        assert str(excinfo.value) == message
