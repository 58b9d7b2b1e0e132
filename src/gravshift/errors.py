"""Exception hierarchy shared by all gravshift modules."""

from __future__ import annotations

__all__ = [
    "GravshiftError",
    "DimensionError",
    "DomainError",
    "ImpactError",
    "ConvergenceError",
]


class GravshiftError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(GravshiftError, TypeError):
    """Arithmetic or an operation was attempted on incompatible dimensions."""


class DomainError(GravshiftError, ValueError):
    """Refused input: every flag, argument, field point, quantum state,
    parameter, registry file or registry record that is refused raises this
    class, and its message says what was refused.  A registry's message also
    says where: the file and, for a record, its index and name.

    Among them are the range rules of `gravshift.units` (positive and finite,
    a normal float, the weak field |phi|/c^2 < 1), interior field points,
    level energies past the float range and non-positive photon energies.
    """


class ImpactError(GravshiftError, RuntimeError):
    """A traced ray hit a body surface instead of escaping.

    Attributes
    ----------
    body : str
        Name of the body that was struck.
    closest_approach_m : float
        Periapsis the ray would reach if the body did not stop it: its least
        distance from the body's centre.
    """

    def __init__(self, body: str, closest_approach_m: float):
        super().__init__(
            f"ray impacted body '{body}' (closest approach {closest_approach_m:.6e} m)"
        )
        self.body = body
        self.closest_approach_m = closest_approach_m


class ConvergenceError(GravshiftError, RuntimeError):
    """The ray integrator could not reach the termination radius."""
