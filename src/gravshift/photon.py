"""Photon-interaction hypothesis: effective photon mass, slowed light, ray bending.

If a photon of frequency nu is assigned the mass h*nu/c^2 and couples to the
potential, its mass changes by m_ph*dphi/c^2 along a descent dphi, the local
light speed becomes

    c'(r) = c / (1 - phi(r)/c^2)      (<= c, since phi <= 0),

and its frequency picks up the same fractional change (phi1 - phi2)/c^2 as
the emitter-side model; the photon mass cancels from that ratio, which
:func:`gravshift.spectra.fractional_shift` computes for both.  The slowed
light speed is equivalent to a graded-index medium.  Around one body of mass
M at the origin its refractive index is

    n(r) = c/c'(r) = 1 - phi(r)/c^2 = 1 + mu/r,      mu = G*M/c^2,

so a ray passing the body follows the classical ray equation
d/ds(n * dx/ds) = grad n.  :func:`trace_ray` starts a ray on the termination
circle of radius factor * b, travelling along +x at height b above the body,
and reports the deflection between the incoming and the exit direction, the
transit time integral ds/c' and the closest approach.  A point mass and a ray
define a plane, so the geometry is 2D.

The index is central, so Bouguer's invariant n r sin(psi) = ell holds along
the ray, psi being the angle between the ray and the radius (Born & Wolf,
Principles of Optics, 3.2).  At the periapsis sin(psi) = 1 and n r = r + mu,
so the closest approach is r_min = ell - mu exactly, ell being fixed by the
start, and whether the ray strikes the body is known before any integration.

The deflection and the time excess come from one adaptive Runge-Kutta solve
in the Sundman variable tau, with ds = r dtau, up to the exit from the circle.
A unit of tau covers little path near the body and much far from it, so the
steps shrink at the periapsis by themselves and need no cap.  The time excess
is never a difference of two transit times but the sum of two integrals:

    E = int (n - 1) ds = mu * tau  (the slowed light, as (n - 1) r = mu),
    K = int (1 - cos theta) ds     (the path's excess over its projection),

where theta is the angle of p = n dx/ds from +x and 1 - cos theta =
p_y^2 / (|p| (|p| + p_x)) involves no subtraction; the solve carries K beside
x and p.  For the chord D from start to exit, the transit time exceeds the
straight-line time |D|/c by (E + K - (|D| - D_x))/c, with |D| - D_x written
the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import solve_ivp

from .errors import ConvergenceError, DomainError, ImpactError
from .gravity import CelestialBody
from .units import CONSTANTS, normal_float, positive_finite, weak_field

__all__ = ["RayResult", "trace_ray", "RADIANS_TO_ARCSEC"]

RADIANS_TO_ARCSEC = 180.0 / math.pi * 3600.0
#: A ray strikes a body only below (1 - IMPACT_MARGIN) * radius; see trace_ray.
IMPACT_MARGIN = 1e-5


@dataclass(frozen=True)
class RayResult:
    """Outcome of one trace: one field per value `gravshift photon` prints.

    deflection_rad is the signed angle from the incoming direction to the
    direction where the ray crosses the termination circle: the bend inside
    that circle, not the asymptotic bend.  It falls short of the asymptotic
    2*mu/b by about 1/(2*factor^2) relative, with factor = termination
    radius / b: 0.50% at factor 10 and 1.25e-5 at factor 200.
    deflection_arcsec is the same angle in arcseconds.  Times are seconds.
    time_excess_s is integrated along the ray, not differenced from two
    transit times, and is never negative because c' <= c; transit_time_s is
    the vacuum time along the chord from start to exit plus that excess.

    closest_approach_m is the ray's least distance from the body's centre,
    from Bouguer's invariant; for a ray that strikes the body, an ImpactError
    carries the same distance, the periapsis the ray would reach unobstructed.
    """

    deflection_rad: float
    deflection_arcsec: float
    transit_time_s: float
    time_excess_s: float
    closest_approach_m: float


def _gap(par: float, perp: float, norm: float) -> float:
    """norm - par for a vector of length norm with components par along +x
    and perp across it, written perp^2/(norm + par) so that a vector near +x
    loses nothing to cancellation."""
    return perp * perp / (norm + par) if par > 0.0 else norm - par


def trace_ray(body: CelestialBody, impact_parameter_m: float, termination_factor: float,
              rel_tol: float) -> RayResult:
    """Trace a ray past the body through the index n(r) = 1 - phi(r)/c^2.

    The ray starts on the termination circle (radius = factor * b, factor in
    [10, 200]), travelling along +x, offset by b in +y; the undeflected line
    would pass the body at distance b.  Integrates d/ds(n * dx/ds) = grad n
    with adaptive stepping at the given relative tolerance (allowed range
    1e-12..1e-6) until the ray exits the termination circle, in one solve.
    The deflection is then within tol * |bend| of the closed-form bend
    inside that circle.  Raises ConvergenceError if the ray cannot reach the
    exit.

    A grazing ray whose undeflected line just touches the surface dips below
    it by the periapsis shift G*M/c^2 (about 2e-6 of the solar radius), which
    is a property of the index medium, not a strike.  So ImpactError is
    raised, before any integration and with the unobstructed periapsis, only
    when the periapsis lies below (1 - IMPACT_MARGIN) * radius.  A start on
    or inside the body is refused the same way: there b <= radius/factor, and
    the periapsis b - mu*(1 - 1/factor) lies below b, or is 0 once mu overflows.
    A bend 2*mu/b below the smallest normal float raises DomainError: it keeps
    too few bits for the error bar.
    """
    b = positive_finite(float(impact_parameter_m), "impact parameter")
    if not 10.0 <= termination_factor <= 200.0:
        # the path-minus-chord term of the time excess grows like
        # factor * b * (2 mu/b)^2, so beyond 200 it pulls the excess away
        # from its straight-line value (50x too large on the sun at 1e9)
        raise DomainError(f"termination factor {termination_factor:g} outside [10, 200]")
    r_term = termination_factor * b
    if not math.isfinite(r_term * r_term):
        raise DomainError(f"termination radius {r_term:g} m is too large: "
                          "its square is not finite")
    rel_tol = float(rel_tol)
    if not 1e-12 <= rel_tol <= 1e-6:
        raise DomainError(f"relative tolerance {rel_tol:g} outside [1e-12, 1e-6]")
    x0 = -math.sqrt(r_term * r_term - b * b)
    if math.hypot(x0, b) > r_term:
        # rounding can put the start one ulp outside the circle
        x0 = math.nextafter(x0, 0.0)

    # one solve in tau, in units of L = r_term/200, from (x0, b) along +x
    scale = r_term / 200.0
    mu = body.mu / (CONSTANTS.c_squared * scale) if scale > 0.0 else math.inf
    if not math.isfinite(mu):
        # b so small that mu overflows: ell = p0 * sy <= mu, the ray falls to r = 0
        raise ImpactError(body.name, 0.0)
    r_exit = r_term / scale
    sx, sy = x0 / scale, b / scale
    p0 = 1.0 + mu / math.hypot(sx, sy)
    # Bouguer: ell = n r sin(psi) = p0 * sy; a ray with ell <= mu falls to r = 0
    r_min = max(p0 * sy - mu, 0.0)
    if not r_min * scale >= body.radius_m * (1.0 - IMPACT_MARGIN):
        raise ImpactError(body.name, r_min * scale)
    # at the periapsis |phi|/c^2 = mu/r_min; below 1, ell > 2*mu keeps |delta|
    # under 1.7 rad, so the bend cannot wind past the atan2 range
    weak_field(mu / r_min)
    # p scales with the bend 2*mu/b, K with its square; a scalar atol would
    # swamp them (earth's whole p_y is about 1.4e-9).  A subnormal bend keeps
    # too few bits to meet tol * |bend|
    bend = normal_float(2.0 * mu / sy, "bend")

    def rhs(tau, state):
        x, y, px, py, _ = state.tolist()
        r = math.hypot(x, y)
        w = mu / (r * r)
        p = math.hypot(px, py)
        per_p = r / p
        return [px * per_p, py * per_p, -w * x, -w * y, _gap(px, py, p) * per_p]

    def exit_event(tau, state):
        return math.hypot(state[0], state[1]) - r_exit

    exit_event.terminal, exit_event.direction = True, 1.0

    y0 = [sx, sy, p0, 0.0, 0.0]
    atol = rel_tol * 1e-3
    # below a bend of about 1e-150 atol * bend^2 underflows, and a zero
    # tolerance on K (which starts at 0) makes every step NaN: the solve never ends
    atols = [max(a, math.ulp(0.0))
             for a in (atol, atol, atol * bend, atol * bend, atol * bend * bend)]
    # ds = r dtau >= r_min dtau, so tau_max allows at least 8 termination
    # radii of path
    tau_max = 8.0 * r_exit / r_min

    try:
        sol = solve_ivp(rhs, (0.0, tau_max), y0, method="DOP853", events=exit_event,
                        rtol=rel_tol, atol=atols)
    except ValueError as exc:
        raise ConvergenceError(f"ray integration failed: {exc}") from None
    if sol.status == -1:
        raise ConvergenceError(f"ray integration failed: {sol.message}")
    if len(sol.t_events[0]) == 0:
        raise ConvergenceError("ray did not reach the termination radius within 8 "
                               "termination radii of path")

    x, y, px, py, k = sol.y_events[0][0].tolist()
    e = mu * float(sol.t_events[0][0])
    deflection = math.atan2(py, px)
    chord_x, chord_y = x - sx, y - sy
    chord = math.hypot(chord_x, chord_y)
    gap = _gap(chord_x, chord_y, chord)
    seconds_per_unit = scale / CONSTANTS.c
    excess = (e + k - gap) * seconds_per_unit
    return RayResult(
        deflection_rad=deflection,
        deflection_arcsec=deflection * RADIANS_TO_ARCSEC,
        transit_time_s=chord * seconds_per_unit + excess,
        time_excess_s=excess,
        closest_approach_m=r_min * scale,
    )
