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
system with adaptive Runge-Kutta stepping and reports the asymptotic
deflection between the incoming and outgoing directions, the transit time
integral ds/c', and the closest approach.  A single point mass and a ray
define a plane, so the geometry is 2D.

The closest approach comes from the integrator's own event location: a
body's closest centre distance is the least over its periapsis events, where
(x - c).p turns positive, and the two ends of the solve.  Each body's impact
test uses its own closest approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConfigurationError, ConvergenceError, DomainError, ImpactError
from .gravity import CelestialBody
from .units import CONSTANTS, ConstantSet

__all__ = [
    "PlanarBody",
    "RayPath",
    "RayResult",
    "trace_ray",
    "impact_parameter_ray",
    "RADIANS_TO_ARCSEC",
]

RADIANS_TO_ARCSEC = 180.0 / math.pi * 3600.0


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

    deflection_rad is the signed angle from the incoming to the outgoing
    direction; deflection_error_rad is an a-posteriori estimate from a
    second, coarser integration.  Times are seconds; the transit time can
    never undercut the straight-line vacuum time because c' <= c.

    closest_approach_m is the least, over bodies, of each body's closest
    centre distance (the distance to the origin when there are no bodies).
    An ImpactError instead carries the struck body's own closest approach.
    """

    deflection_rad: float
    deflection_error_rad: float
    transit_time_s: float
    straight_line_time_s: float
    closest_approach_m: float

    @property
    def time_excess_s(self) -> float:
        return self.transit_time_s - self.straight_line_time_s

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
    if b <= 0.0:
        raise ConfigurationError("impact parameter must be positive")
    if not 10.0 <= termination_factor <= 200.0:
        # _integrate caps the step at r_term/400, which is b/2 only up to 200
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


def _signed_angle(d0: np.ndarray, d1: np.ndarray) -> float:
    cross = d0[0] * d1[1] - d0[1] * d1[0]
    dot = d0[0] * d1[0] + d0[1] * d1[1]
    return math.atan2(cross, dot)


def _integrate(path: RayPath, rel_tol: float, impact_margin: float, constants: ConstantSet):
    """One solve of the eikonal system in units of L = termination_radius/200."""
    scale = path.termination_radius / 200.0
    r_term = path.termination_radius / scale
    centers = np.array([pb.center for pb in path.bodies], dtype=float).reshape(-1, 2) / scale
    radii = np.array([pb.body.radius.value for pb in path.bodies], dtype=float) / scale
    barrier = radii * (1.0 - impact_margin)
    mus = np.array(
        [pb.body.mu(constants).value for pb in path.bodies], dtype=float
    ) / (constants.c.value ** 2 * scale)

    def index_and_gradient(pos: np.ndarray) -> tuple[float, np.ndarray]:
        if centers.shape[0] == 0:
            return 1.0, np.zeros(2)
        rel = pos - centers
        dist = np.hypot(rel[:, 0], rel[:, 1])
        n = 1.0 + float(np.sum(mus / dist))
        grad = -np.sum((mus / dist**3)[:, None] * rel, axis=0)
        return n, grad

    def rhs(s, y):
        pos, p = y[:2], y[2:4]
        n, grad = index_and_gradient(pos)
        pnorm = math.hypot(p[0], p[1])
        return np.array([p[0] / pnorm, p[1] / pnorm, grad[0], grad[1], n])

    def exit_event(s, y):
        return math.hypot(y[0], y[1]) - r_term

    exit_event.terminal = True
    exit_event.direction = 1.0

    events = [exit_event]
    for i in range(centers.shape[0]):
        def impact_event(s, y, _i=i):
            return math.hypot(y[0] - centers[_i, 0], y[1] - centers[_i, 1]) - barrier[_i]

        impact_event.terminal = True
        impact_event.direction = -1.0
        events.append(impact_event)

    # (x - c).p turns from negative to positive where |x - c| has a minimum
    points = centers if centers.shape[0] else np.zeros((1, 2))
    for c in points:
        def periapsis_event(s, y, _c=c):
            return (y[0] - _c[0]) * y[2] + (y[1] - _c[1]) * y[3]

        periapsis_event.direction = 1.0
        events.append(periapsis_event)

    start = np.asarray(path.start, dtype=float) / scale
    direction = np.asarray(path.direction, dtype=float)
    n0, _ = index_and_gradient(start)
    y0 = np.array([start[0], start[1], n0 * direction[0], n0 * direction[1], 0.0])
    s_max = 8.0 * r_term

    try:
        # cap the step at L/2 so the narrow bending region near periapsis
        # (width ~ b = 1 L for impact-parameter geometry) is never straddled
        # by one giant step accepted in the flat approach region
        sol = solve_ivp(
            rhs, (0.0, s_max), y0, method="DOP853", events=events,
            rtol=rel_tol, atol=rel_tol * 1e-3, max_step=0.5,
        )
    except ValueError as exc:
        raise ConvergenceError(f"ray integration failed: {exc}") from None
    if sol.status == -1:
        raise ConvergenceError(f"ray integration failed: {sol.message}")

    # each point's closest approach lies at one of its periapsis events or
    # at an end of the solve
    closest = []
    for c, ys in zip(points, sol.y_events[-len(points):]):
        rel = np.array([sol.y[:2, 0], sol.y[:2, -1], *(y[:2] for y in ys)]) - c
        closest.append(float(np.min(np.hypot(rel[:, 0], rel[:, 1]))) * scale)
    for pb, hits, dist in zip(path.bodies, sol.t_events[1:], closest):
        if len(hits) > 0 or dist < pb.body.radius.value * (1.0 - impact_margin):
            raise ImpactError(pb.body.name, dist)
    if len(sol.t_events[0]) == 0:
        raise ConvergenceError(
            "ray did not reach the termination radius within the step budget"
        )

    y_end = sol.y_events[0][0]
    p_end = y_end[2:4]
    deflection = _signed_angle(direction, p_end / math.hypot(p_end[0], p_end[1]))
    end_pos = y_end[:2]
    chord = math.hypot(end_pos[0] - start[0], end_pos[1] - start[1]) * scale
    transit = float(y_end[4]) * scale / constants.c.value
    straight = chord / constants.c.value
    return deflection, transit, straight, min(closest)


def trace_ray(path: RayPath, rel_tol: float = 1e-10,
              impact_margin: float = 1e-5,
              constants: ConstantSet = CONSTANTS) -> RayResult:
    """Trace a ray through the potential-induced index n(r) = 1 - phi(r)/c^2.

    Integrates d/ds(n * dx/ds) = grad n with adaptive stepping at the given
    relative tolerance (allowed range 1e-12..1e-6) until the ray exits the
    termination circle.  Raises ImpactError if the ray strikes a body and
    ConvergenceError if it cannot reach the exit.

    A grazing ray whose undeflected line just touches the surface dips below
    it by the periapsis shift G*M/c^2 (about 2e-6 of the solar radius), which
    is a property of the index medium, not a strike; a ray therefore counts
    as impacting only when it descends below (1 - impact_margin) * radius.
    """
    rel_tol = float(rel_tol)
    if not 1e-12 <= rel_tol <= 1e-6:
        raise DomainError(f"relative tolerance {rel_tol:g} outside [1e-12, 1e-6]")
    if not 0.0 <= impact_margin < 1e-3:
        raise DomainError("impact margin must lie in [0, 1e-3)")
    deflection, transit, straight, closest = _integrate(path, rel_tol, impact_margin, constants)
    coarse_deflection, _, _, _ = _integrate(
        path, min(rel_tol * 100.0, 1e-4), impact_margin, constants)
    # the second term is a roundoff floor: ~1600 capped steps accumulate
    # O(sqrt(N)*eps) noise in the exit direction regardless of tolerance
    error = abs(deflection - coarse_deflection) + 5e-13 + abs(deflection) * 3e-8
    return RayResult(
        deflection_rad=deflection,
        deflection_error_rad=error,
        transit_time_s=transit,
        straight_line_time_s=straight,
        closest_approach_m=closest,
    )
