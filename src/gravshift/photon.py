"""Photon-interaction hypothesis: effective photon mass, slowed light, ray bending.

If a photon of frequency nu is assigned the mass h*nu/c^2 and couples to the
potential, its mass changes by m_ph*dphi/c^2 along a descent dphi, the local
light speed becomes

    c'(r) = c / (1 - phi(r)/c^2)      (<= c, since phi <= 0),

and its frequency picks up the same fractional change (phi1 - phi2)/c^2 as
the emitter-side model; the photon mass cancels from that ratio, which
:func:`gravshift.spectra.fractional_shift` computes for both.  The slowed
light speed is equivalent to a graded-index medium with refractive index

    n(r) = c/c'(r) = 1 - phi(r)/c^2 = 1 + sum_i G*M_i/(r_i c^2),

so the bending of a ray passing a body can be computed with the classical
ray equation d/ds(n * dx/ds) = grad n.  :func:`trace_ray` integrates that
system with adaptive Runge-Kutta stepping and reports the deflection
between the incoming direction and the direction at the termination circle,
the transit time integral ds/c', and the closest approach.  A single point
mass and a ray define a plane, so the geometry is 2D.

The solve runs in the Sundman variable tau, with ds = r_eff dtau and
r_eff = (sum_i 1/r_i)^-1 (r_eff = 1 in an empty field).  A unit of tau covers
little path near a body and much far from it, so the adaptive steps shrink
at each periapsis by themselves and need no cap.  Besides the position x and
the momentum p = n dx/ds, the solve carries the two integrals that make up
the time excess, so it is never a difference of two transit times:

    E = int (n - 1) ds             (the slowed light),
    K = int (1 - cos theta) ds     (the path's excess over its projection),

where theta is the angle of p from the start direction d0 and
1 - cos theta = p_perp^2 / (|p| (|p| + p_par)) involves no subtraction.  For
the chord D from start to exit, the transit time exceeds the straight-line
time |D|/c by (E + K - (|D| - D_par))/c, with |D| - D_par written the same
way.  The deflection's error estimate is twice its change under a re-solve
at a hundredth of the tolerance, plus a round-off floor.

The closest approach comes from the integrator's own event location: a
body's closest centre distance is the least over its periapsis events, where
(x - c).p turns positive, and the two ends of the solve.  Each body's impact
test uses its own closest approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import solve_ivp

from .errors import ConfigurationError, ConvergenceError, DomainError, ImpactError
from .gravity import CelestialBody
from .units import CONSTANTS

__all__ = [
    "PlanarBody",
    "RayPath",
    "RayResult",
    "trace_ray",
    "impact_parameter_ray",
    "RADIANS_TO_ARCSEC",
]

RADIANS_TO_ARCSEC = 180.0 / math.pi * 3600.0
#: A ray strikes a body only below (1 - IMPACT_MARGIN) * radius; see trace_ray.
IMPACT_MARGIN = 1e-5


@dataclass(frozen=True)
class PlanarBody:
    """A body pinned to a 2D position in the ray's plane (coordinates in m)."""

    body: CelestialBody
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        cx, cy = self.center
        object.__setattr__(self, "center", (float(cx), float(cy)))


@dataclass(frozen=True)
class RayPath:
    """Initial conditions for one ray: start, unit direction, field, exit circle."""

    start: tuple[float, float]
    direction: tuple[float, float]
    bodies: tuple[PlanarBody, ...] = ()
    termination_radius: float = 0.0

    def __post_init__(self) -> None:
        sx, sy = self.start
        dx, dy = self.direction
        object.__setattr__(self, "start", (float(sx), float(sy)))
        object.__setattr__(self, "direction", (float(dx), float(dy)))
        object.__setattr__(self, "bodies", tuple(self.bodies))
        object.__setattr__(self, "termination_radius", float(self.termination_radius))
        coords = [*self.start, *self.direction, self.termination_radius]
        for pb in self.bodies:
            coords += pb.center
        if not all(map(math.isfinite, coords)):
            raise ConfigurationError(
                "ray start, direction, termination radius and body centres must be finite"
            )
        norm = math.hypot(*self.direction)
        if abs(norm - 1.0) > 1e-12:
            raise ConfigurationError(
                f"ray direction must be a unit vector (|d| = {norm!r})"
            )
        if self.termination_radius <= 0.0:
            raise ConfigurationError("termination radius must be positive")
        if math.hypot(*self.start) > self.termination_radius:
            raise ConfigurationError("ray must start inside the termination circle")
        for pb in self.bodies:
            dist = math.hypot(self.start[0] - pb.center[0], self.start[1] - pb.center[1])
            if dist <= pb.body.radius.value:
                raise ConfigurationError(
                    f"ray starts inside body {pb.body.name!r} (r = {dist:g} m)"
                )
            if math.hypot(*pb.center) + pb.body.radius.value >= self.termination_radius:
                raise ConfigurationError(
                    f"body {pb.body.name!r} is not strictly inside the termination circle"
                )


@dataclass(frozen=True)
class RayResult:
    """Outcome of one trace.

    deflection_rad is the signed angle from the incoming direction to the
    direction where the ray crosses the termination circle: the bend inside
    that circle, not the asymptotic bend.  For a ray past one body at impact
    parameter b it falls short of the asymptotic 2*mu/b by about
    1/(2*factor^2) relative, with factor = termination radius / b: 0.50% at
    factor 10 and 1.25e-5 at factor 200.  deflection_error_rad covers only the
    solver error, not that shortfall: it is an a-posteriori estimate, twice
    the deflection's change under a re-solve at a hundredth of the tolerance,
    plus a round-off floor.  Times are seconds.
    time_excess_s is integrated along the ray, not differenced from two
    transit times, and is never negative because c' <= c; the transit time
    is the straight-line vacuum time plus that excess.

    closest_approach_m is the least, over bodies, of each body's closest
    centre distance (the distance to the origin when there are no bodies).
    An ImpactError instead carries the struck body's own closest approach.
    """

    deflection_rad: float
    deflection_error_rad: float
    straight_line_time_s: float
    time_excess_s: float
    closest_approach_m: float

    @property
    def transit_time_s(self) -> float:
        return self.straight_line_time_s + self.time_excess_s

    @property
    def deflection_arcsec(self) -> float:
        return self.deflection_rad * RADIANS_TO_ARCSEC


def impact_parameter_ray(body: CelestialBody, impact_parameter_m: float,
                         termination_factor: float = 200.0) -> RayPath:
    """Ray aimed past a body at the origin with the given impact parameter.

    The ray starts on the termination circle (radius = factor * b), travelling
    along +x, offset by b in +y; the undeflected line would pass the body at
    distance b.  The factor must lie in [10, 200].
    """
    b = float(impact_parameter_m)
    if not math.isfinite(b):
        raise ConfigurationError(f"impact parameter {b!r} is not finite")
    if b <= 0.0:
        raise ConfigurationError("impact parameter must be positive")
    if not 10.0 <= termination_factor <= 200.0:
        # the path-minus-chord term of the time excess grows like
        # factor * b * (2 mu/b)^2, so beyond 200 it pulls the excess away
        # from its straight-line value (50x too large on the sun at 1e9)
        raise ConfigurationError(
            f"termination factor {termination_factor:g} outside [10, 200]"
        )
    r_term = termination_factor * b
    x0 = -math.sqrt(max(r_term * r_term - b * b, 0.0))
    if math.hypot(x0, b) > r_term:
        # rounding can put the start one ulp outside the circle
        x0 = math.nextafter(x0, 0.0)
    return RayPath(
        start=(x0, b),
        direction=(1.0, 0.0),
        bodies=(PlanarBody(body),),
        termination_radius=r_term,
    )


def _gap(par: float, perp: float, norm: float) -> float:
    """norm - par for a vector of length norm with components par along d0
    and perp across it, written perp^2/(norm + par) so that a vector near d0
    loses nothing to cancellation."""
    return perp * perp / (norm + par) if par > 0.0 else norm - par


def _integrate(path: RayPath, rel_tol: float):
    """One solve in tau, in units of L = termination_radius/200.

    The solve runs in the ray frame, rotated about the origin so that the
    start direction d0 is +x; p_y is then p_perp itself, not a difference of
    rotated components.  Returns the deflection, the time excess, the
    straight-line time and the closest approach.
    """
    scale = path.termination_radius / 200.0
    r_term = path.termination_radius / scale
    c2 = CONSTANTS.c.value ** 2
    dx, dy = path.direction

    def to_ray_frame(x: float, y: float) -> tuple[float, float]:
        return (dx * x + dy * y) / scale, (dx * y - dy * x) / scale

    sx, sy = to_ray_frame(*path.start)
    # (centre x, centre y, G*M/c^2) of each body
    field = [(*to_ray_frame(*pb.center), pb.body.mu().value / (c2 * scale))
             for pb in path.bodies]
    barriers = [pb.body.radius.value * (1.0 - IMPACT_MARGIN) / scale for pb in path.bodies]

    def rhs(tau, state):
        x, y, px, py, _, _ = state.tolist()
        inv_r = excess = gx = gy = 0.0
        for cx, cy, mu in field:
            rx, ry = x - cx, y - cy
            r = math.hypot(rx, ry)
            inv_r += 1.0 / r
            excess += mu / r
            w = mu / (r * r * r)
            gx -= w * rx
            gy -= w * ry
        ds = 1.0 / inv_r if field else 1.0
        p = math.hypot(px, py)
        per_p = ds / p
        return [px * per_p, py * per_p, gx * ds, gy * ds, excess * ds,
                _gap(px, py, p) * per_p]

    def exit_event(tau, state):
        return math.hypot(state[0], state[1]) - r_term

    exit_event.terminal = True
    exit_event.direction = 1.0

    events = [exit_event]
    for (cx, cy, _), barrier in zip(field, barriers):
        def impact_event(tau, state, _cx=cx, _cy=cy, _barrier=barrier):
            return math.hypot(state[0] - _cx, state[1] - _cy) - _barrier

        impact_event.terminal = True
        impact_event.direction = -1.0
        events.append(impact_event)

    # (x - c).p turns from negative to positive where |x - c| has a minimum
    points = [(cx, cy) for cx, cy, _ in field] or [(0.0, 0.0)]
    for cx, cy in points:
        def periapsis_event(tau, state, _cx=cx, _cy=cy):
            return (state[0] - _cx) * state[2] + (state[1] - _cy) * state[3]

        periapsis_event.direction = 1.0
        events.append(periapsis_event)

    n0 = 1.0 + sum(mu / math.hypot(sx - cx, sy - cy) for cx, cy, mu in field)
    y0 = [sx, sy, n0, 0.0, 0.0, 0.0]
    # p and E scale with the bend 2*mu/b of each body, K with its square;
    # a scalar atol would swamp them (earth's whole p_y is about 1.4e-9)
    bend = sum(2.0 * mu / max(abs(cy - sy), barrier)
               for (cx, cy, mu), barrier in zip(field, barriers)) or 1.0
    atol = rel_tol * 1e-3
    atols = [atol, atol, atol * bend, atol * bend, atol * bend, atol * bend * bend]
    # ds >= dtau * min(barrier)/N above every barrier, so tau_max allows at
    # least 8 termination radii of path
    tau_max = 8.0 * r_term * len(field) / min(barriers) if field else 8.0 * r_term

    try:
        sol = solve_ivp(
            rhs, (0.0, tau_max), y0, method="DOP853", events=events,
            rtol=rel_tol, atol=atols,
        )
    except ValueError as exc:
        raise ConvergenceError(f"ray integration failed: {exc}") from None
    if sol.status == -1:
        raise ConvergenceError(f"ray integration failed: {sol.message}")

    # each point's closest approach lies at one of its periapsis events or
    # at an end of the solve
    ends = [(sx, sy), sol.y[:2, -1].tolist()]
    closest = [
        min(math.hypot(s[0] - cx, s[1] - cy) for s in ends + hits.tolist()) * scale
        for (cx, cy), hits in zip(points, sol.y_events[-len(points):])
    ]
    for pb, hits, dist in zip(path.bodies, sol.t_events[1:], closest):
        if len(hits) > 0 or dist < pb.body.radius.value * (1.0 - IMPACT_MARGIN):
            raise ImpactError(pb.body.name, dist)
    if len(sol.t_events[0]) == 0:
        raise ConvergenceError(
            "ray did not reach the termination radius within 8 termination radii of path"
        )

    x, y, px, py, e, k = sol.y_events[0][0].tolist()
    deflection = math.atan2(py, px)
    chord_x, chord_y = x - sx, y - sy
    chord = math.hypot(chord_x, chord_y)
    gap = _gap(chord_x, chord_y, chord)
    seconds_per_unit = scale / CONSTANTS.c.value
    return deflection, (e + k - gap) * seconds_per_unit, chord * seconds_per_unit, min(closest)


def trace_ray(path: RayPath, rel_tol: float = 1e-10) -> RayResult:
    """Trace a ray through the potential-induced index n(r) = 1 - phi(r)/c^2.

    Integrates d/ds(n * dx/ds) = grad n with adaptive stepping at the given
    relative tolerance (allowed range 1e-12..1e-6) until the ray exits the
    termination circle, then re-solves at a hundredth of the tolerance (at
    least 1e-13) for the deflection's error estimate.  Raises ImpactError if
    the ray strikes a body and ConvergenceError if it cannot reach the exit.

    A grazing ray whose undeflected line just touches the surface dips below
    it by the periapsis shift G*M/c^2 (about 2e-6 of the solar radius), which
    is a property of the index medium, not a strike; a ray therefore counts
    as impacting only when it descends below (1 - IMPACT_MARGIN) * radius.
    """
    rel_tol = float(rel_tol)
    if not 1e-12 <= rel_tol <= 1e-6:
        raise DomainError(f"relative tolerance {rel_tol:g} outside [1e-12, 1e-6]")
    deflection, excess, straight, closest = _integrate(path, rel_tol)
    fine_deflection, _, _, _ = _integrate(path, max(rel_tol / 100.0, 1e-13))
    # the fine solve's own error is a few percent of the difference, so the
    # difference is doubled; the rest is a roundoff floor for the exit
    # direction, which stays within 1e-13 of |deflection| over rotated paths
    error = 2.0 * abs(deflection - fine_deflection) + abs(deflection) * 1e-12 + 1e-16
    return RayResult(
        deflection_rad=deflection,
        deflection_error_rad=error,
        straight_line_time_s=straight,
        time_excess_s=excess,
        closest_approach_m=closest,
    )
