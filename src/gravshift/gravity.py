"""Newtonian point-mass potentials at field points.

A field point is a label plus the bodies that act there, each with its
radial distance from the point, so the point alone fixes its potential.  The
potential only ever needs those radial distances, so no 3D geometry appears
here.  Superposition over several bodies lets Sun+Earth configurations be
expressed with the same single formula phi(r) = -G*M/r per body.

A point is written as a point spec, the one syntax of the CLI and of the
experiment registry: 'body:ALT_m' lies at the body radius + ALT_m,
'body:r=R_m' at R_m, and '+' superposes bodies, as in
'sun:0+earth:r=1.495978707e11'.

Bodies and points hold plain SI floats, and the exterior domain is enforced
when a point is built: every distance must be at least the body radius.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Mapping

from .data import RegistryPath, check_name, read_records
from .errors import DomainError
from .units import CONSTANTS, POTENTIAL, Quantity, positive_finite

__all__ = [
    "BODY_FIELDS",
    "CelestialBody",
    "FieldPoint",
    "parse_point_spec",
    "potential",
    "load_bodies",
    "lookup_body",
]

#: the fields of a body registry record besides its name, each a JSON number
BODY_FIELDS = {"mass_kg": float, "radius_m": float}


@dataclass(frozen=True)
class CelestialBody:
    """Named point-mass source: mass in kg and exterior-validity radius in m,
    plain SI floats, each finite and positive."""

    name: str
    mass_kg: float
    radius_m: float

    def __post_init__(self) -> None:
        check_name(self.name, "body")
        for field in ("mass_kg", "radius_m"):
            positive_finite(getattr(self, field), field)

    @property
    def mu(self) -> float:
        """Standard gravitational parameter G*M (m^3/s^2)."""
        return CONSTANTS.G * self.mass_kg


@dataclass(frozen=True)
class FieldPoint:
    """A labelled point: a (body, radial distance in m) pair for each body
    acting there, each body named once and each distance finite and exterior."""

    label: str
    distances: tuple[tuple[CelestialBody, float], ...]

    def __post_init__(self) -> None:
        distances = tuple(self.distances)
        if not distances:
            raise DomainError(f"point {self.label!r} names no body")
        names = set()
        for body, r in distances:
            if body.name in names:
                raise DomainError(f"point {self.label!r} names body {body.name!r} twice")
            names.add(body.name)
            if not math.isfinite(r):
                raise DomainError(
                    f"point {self.label!r}: distance to body {body.name!r} is not finite"
                )
            if r < body.radius_m:
                raise DomainError(
                    f"point {self.label!r}: r = {r:g} m is inside body "
                    f"{body.name!r} (radius {body.radius_m:g} m); exterior field only"
                )
        object.__setattr__(self, "distances", distances)

    @functools.cached_property
    def phi(self) -> Quantity:
        """`potential` at this point, computed on first use and then kept."""
        return potential(self)


def parse_point_spec(spec: str, bodies: Mapping[str, CelestialBody],
                     label: str | None = None) -> FieldPoint:
    """The point of a 'body:ALT_m' / 'body:r=R_m' point spec, superposed with
    '+', labelled ``label`` (default: the spec itself)."""
    pairs = []
    # split where a body name follows the '+', so 1e+3 keeps its exponent
    for part in re.split(r"\+(?=[A-Za-z_])", spec):
        name, sep, rest = part.partition(":")
        if not sep or not rest:
            raise DomainError(
                f"bad point spec {part!r}: expected 'body:ALT_m' or 'body:r=R_m'"
            )
        body = lookup_body(bodies, name)
        try:
            # float() strips whitespace that the printed label would keep
            if re.search(r"\s", rest):
                raise ValueError(rest)
            if rest.startswith("r="):
                r = float(rest[2:])
            else:
                r = body.radius_m + float(rest)
        except ValueError:
            raise DomainError(f"bad distance in point spec {part!r}") from None
        pairs.append((body, r))
    return FieldPoint(label or spec, pairs)


def potential(point: FieldPoint) -> Quantity:
    """Total potential sum_i -G*M_i/r_i at the point; always <= 0."""
    terms = [-body.mu / r for body, r in point.distances]
    return Quantity(math.fsum(terms), POTENTIAL)


# -- body registry -------------------------------------------------------


def load_bodies(path: RegistryPath) -> dict[str, CelestialBody]:
    """Read a registry file (see `gravshift.data`) of bodies into a name-keyed dict."""
    bodies = read_records(path, "body registry", "body", BODY_FIELDS, CelestialBody)
    return {body.name: body for body in bodies}


def lookup_body(bodies: Mapping[str, CelestialBody], name: str) -> CelestialBody:
    """The body of the registry named ``name``; refuses a name the registry lacks."""
    if name not in bodies:
        raise DomainError(f"unknown body {name!r}")
    return bodies[name]
