"""Newtonian point-mass potential fields.

A field is a set of named point masses; a field point is a label plus one
radial distance per body.  The scalar operations (potential, gradient, tidal
correction over an atomic length) only ever need those radial distances, so
no 3D geometry appears here.  Superposition over several bodies lets
Sun+Earth configurations be expressed with the same single formula
phi(r) = -G*M/r per body.

The exterior domain is enforced throughout: every distance must be at least
the body radius.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .data import data_file, read_entries
from .errors import ConfigurationError, DomainError, RegistryError
from .units import (
    ACCELERATION,
    CONSTANTS,
    LENGTH,
    MASS,
    POTENTIAL,
    ConstantSet,
    Quantity,
    ensure_dimension,
    kilograms,
    metres,
)

__all__ = [
    "CelestialBody",
    "FieldPoint",
    "PotentialField",
    "potential",
    "gradient",
    "atomic_scale_correction",
    "load_bodies",
    "default_bodies",
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

    def mu(self, constants: ConstantSet = CONSTANTS) -> Quantity:
        """Standard gravitational parameter G*M (m^3/s^2)."""
        return constants.G * self.mass


@dataclass(frozen=True)
class FieldPoint:
    """A labelled point given as one radial distance per body name."""

    label: str
    distances: Mapping[str, Quantity]

    def __post_init__(self) -> None:
        frozen = {}
        for name, r in dict(self.distances).items():
            ensure_dimension(r, LENGTH, f"distance to {name}")
            frozen[str(name)] = r
        object.__setattr__(self, "distances", frozen)

    @classmethod
    def from_si(cls, label: str, distances_m: Mapping[str, float]) -> "FieldPoint":
        return cls(label, {k: metres(v) for k, v in distances_m.items()})

    @classmethod
    def at_altitude(cls, body: CelestialBody, altitude_m: float,
                    label: str | None = None) -> "FieldPoint":
        """Point at body radius + altitude above the single body given."""
        r = body.radius.value + float(altitude_m)
        return cls.from_si(label or f"{body.name}+{altitude_m:g}m", {body.name: r})

    def distance_to(self, body: CelestialBody) -> Quantity:
        try:
            r = self.distances[body.name]
        except KeyError:
            raise ConfigurationError(
                f"point {self.label!r} has no distance for body {body.name!r}"
            ) from None
        if r < body.radius:
            raise DomainError(
                f"point {self.label!r}: r = {r.value:g} m is inside body "
                f"{body.name!r} (radius {body.radius.value:g} m); exterior field only"
            )
        return r


@dataclass(frozen=True)
class PotentialField:
    """Superposition of point-mass potentials, one per body."""

    bodies: tuple[CelestialBody, ...]
    constants: ConstantSet = field(default=CONSTANTS, repr=False)

    def __post_init__(self) -> None:
        bodies = tuple(self.bodies)
        if not bodies:
            raise ConfigurationError("a potential field needs at least one body")
        names = [b.name for b in bodies]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate body names in field: {names}")
        object.__setattr__(self, "bodies", bodies)

    @classmethod
    def of(cls, *bodies: CelestialBody, constants: ConstantSet = CONSTANTS) -> "PotentialField":
        return cls(tuple(bodies), constants)


def _per_body(field_: PotentialField, point: FieldPoint) -> Iterable[tuple[CelestialBody, Quantity]]:
    for body in field_.bodies:
        yield body, point.distance_to(body)


def potential(field_: PotentialField, point: FieldPoint) -> Quantity:
    """Total potential sum_i -G*M_i/r_i at the point; always <= 0."""
    terms = [(-(body.mu(field_.constants)) / r).value for body, r in _per_body(field_, point)]
    return Quantity(math.fsum(terms), POTENTIAL)


def gradient(field_: PotentialField, point: FieldPoint) -> Quantity:
    """Radial derivative sum_i G*M_i/r_i^2 (m/s^2), each along its body axis.

    For a single body this is d(phi)/dr = +G*M/r^2: the potential increases
    toward zero with distance.
    """
    terms = [(body.mu(field_.constants) / (r * r)).value for body, r in _per_body(field_, point)]
    return Quantity(math.fsum(terms), ACCELERATION)


def atomic_scale_correction(field_: PotentialField, point: FieldPoint, a: Quantity) -> Quantity:
    """First-order change of the potential over a small length a.

    Returns a * d(phi)/dr at the point, i.e. a * sum_i G*M_i/r_i^2.  The
    length must satisfy a/r < 1e-3 for every body; beyond that the
    first-order form stops being a faithful stand-in for
    phi(r + a) - phi(r).
    """
    ensure_dimension(a, LENGTH, "a")
    if a.value < 0.0:
        raise DomainError("atomic-scale length a must be non-negative")
    if a.value > 0.0:
        for body, r in _per_body(field_, point):
            if a.value / r.value >= 1e-3:
                raise DomainError(
                    f"a/r = {a.value / r.value:.3e} for body {body.name!r} exceeds "
                    "the 1e-3 approximation domain of the first-order correction"
                )
    return a * gradient(field_, point)


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


def default_bodies() -> dict[str, CelestialBody]:
    """Packaged Earth/Sun registry, overridable via GRAVSHIFT_DATA_DIR."""
    return load_bodies(data_file("bodies.json"))
