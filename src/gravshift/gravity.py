"""Newtonian point-mass potentials at field points.

A field point is a label plus the bodies that act there, each with its
radial distance from the point, so the point alone fixes its potential.  The
potential only ever needs those radial distances, so no 3D geometry appears
here.  Superposition over several bodies lets Sun+Earth configurations be
expressed with the same single formula phi(r) = -G*M/r per body.

The exterior domain is enforced when a point is built: every distance must
be at least the body radius.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .data import read_entries
from .errors import ConfigurationError, DomainError, RegistryError
from .units import (
    CONSTANTS,
    LENGTH,
    MASS,
    POTENTIAL,
    Quantity,
    ensure_dimension,
    kilograms,
    metres,
)

__all__ = [
    "CelestialBody",
    "FieldPoint",
    "require_same_bodies",
    "potential",
    "load_bodies",
    "lookup_body",
]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")


@dataclass(frozen=True)
class CelestialBody:
    """Named point-mass source with an exterior-validity radius."""

    name: str
    mass: Quantity
    radius: Quantity

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ConfigurationError(f"invalid body name {self.name!r}")
        ensure_dimension(self.mass, MASS, f"mass of {self.name}")
        ensure_dimension(self.radius, LENGTH, f"radius of {self.name}")
        if self.mass.value <= 0.0:
            raise DomainError(f"body {self.name}: mass must be positive")
        if self.radius.value <= 0.0:
            raise DomainError(f"body {self.name}: radius must be positive")

    @classmethod
    def from_si(cls, name: str, mass_kg: float, radius_m: float) -> "CelestialBody":
        return cls(name, kilograms(mass_kg), metres(radius_m))

    def mu(self) -> Quantity:
        """Standard gravitational parameter G*M (m^3/s^2)."""
        return CONSTANTS.G * self.mass


@dataclass(frozen=True)
class FieldPoint:
    """A labelled point: each body that acts there, with its radial distance."""

    label: str
    distances: Mapping[CelestialBody, Quantity]

    def __post_init__(self) -> None:
        distances = dict(self.distances)
        if not distances:
            raise ConfigurationError(f"point {self.label!r} names no body")
        for body, r in distances.items():
            ensure_dimension(r, LENGTH, f"distance to {body.name}")
            if r < body.radius:
                raise DomainError(
                    f"point {self.label!r}: r = {r.value:g} m is inside body "
                    f"{body.name!r} (radius {body.radius.value:g} m); exterior field only"
                )
        object.__setattr__(self, "distances", distances)

    @classmethod
    def from_si(cls, label: str,
                distances_m: Iterable[tuple[CelestialBody, float]]) -> "FieldPoint":
        """Point from (body, radial distance in m) pairs, each body named once."""
        distances: dict[CelestialBody, Quantity] = {}
        for body, r_m in distances_m:
            if any(b.name == body.name for b in distances):
                raise ConfigurationError(f"point {label!r} names body {body.name!r} twice")
            if not math.isfinite(r_m):
                raise DomainError(
                    f"point {label!r}: distance to body {body.name!r} is not finite"
                )
            distances[body] = metres(r_m)
        return cls(label, distances)

    @classmethod
    def at_altitude(cls, body: CelestialBody, altitude_m: float,
                    label: str | None = None) -> "FieldPoint":
        """Point at body radius + altitude above the single body given.

        R + altitude is rounded to a float once; every potential and shift
        at the point is that of the rounded radius.
        """
        r = body.radius.value + float(altitude_m)
        return cls.from_si(label or f"{body.name}+{altitude_m:g}m", [(body, r)])


def require_same_bodies(emit: FieldPoint, obs: FieldPoint) -> None:
    """Refuse two points that do not name the same bodies.

    A potential difference between them would count some body's term at one
    end only.
    """
    names = sorted({b.name for p in (emit, obs) for b in p.distances})
    for point in (emit, obs):
        present = {b.name for b in point.distances}
        for name in names:
            if name not in present:
                raise ConfigurationError(
                    f"point {point.label!r} has no distance for body {name!r}"
                )


def potential(point: FieldPoint) -> Quantity:
    """Total potential sum_i -G*M_i/r_i at the point; always <= 0."""
    terms = [(-body.mu() / r).value for body, r in point.distances.items()]
    return Quantity(math.fsum(terms), POTENTIAL)


# -- body registry -------------------------------------------------------


def load_bodies(path: str | Path) -> dict[str, CelestialBody]:
    """Read a JSON array of {name, mass_kg, radius_m} into a name-keyed registry."""
    registry: dict[str, CelestialBody] = {}
    for where, entry in read_entries(path, "body registry", "bodies", "body"):
        try:
            name = entry["name"]
            mass_kg = entry["mass_kg"]
            radius_m = entry["radius_m"]
        except KeyError as exc:
            raise RegistryError(f"{where}: missing field {exc.args[0]!r}") from None
        try:
            body = CelestialBody.from_si(str(name), float(mass_kg), float(radius_m))
        except (TypeError, ValueError) as exc:
            raise RegistryError(f"{where}: {exc}") from None
        if body.name in registry:
            raise RegistryError(f"{where}: duplicate body name {body.name!r}")
        registry[body.name] = body
    return registry


def lookup_body(bodies: Mapping[str, CelestialBody], name) -> CelestialBody:
    """The body of the registry named ``name``; refuses a name it lacks."""
    name = str(name)
    if name not in bodies:
        raise ConfigurationError(f"unknown body {name!r}")
    return bodies[name]
