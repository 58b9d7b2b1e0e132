"""Dimension-tagged scalar quantities and the physical constants used everywhere.

Every value that crosses a module boundary is a :class:`Quantity`: a float in
SI units plus a dimension signature (integer exponents over kg, m, s).
Arithmetic combines signatures, so a dimensionally invalid expression fails at
construction time instead of producing a silently wrong number.  Only the
dimensions actually needed by the formulas are given names; arbitrary integer
exponents still compose correctly in intermediate products.

Constants are stored as CODATA 2018 literals.  The fine-structure constant is
stored directly (never derived from the elementary charge), and the
electronvolt appears only as an I/O conversion factor -- internally everything
is SI.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

from .errors import DimensionError, DomainError

__all__ = [
    "Dimension",
    "Quantity",
    "ConstantSet",
    "CONSTANTS",
    "DIMENSIONLESS",
    "MASS",
    "LENGTH",
    "TIME",
    "VELOCITY",
    "ACCELERATION",
    "ENERGY",
    "FREQUENCY",
    "POTENTIAL",
    "ensure_dimension",
    "weak_field_ratio",
    "kilograms",
    "metres",
    "potential_m2_s2",
]


@dataclass(frozen=True)
class Dimension:
    """Integer exponents over the SI base units (kg, m, s)."""

    mass: int = 0
    length: int = 0
    time: int = 0

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.mass + other.mass, self.length + other.length,
                         self.time + other.time)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.mass - other.mass, self.length - other.length,
                         self.time - other.time)

    def __pow__(self, exponent: int) -> "Dimension":
        if not isinstance(exponent, int):
            raise DimensionError("dimension exponents must be integers")
        return Dimension(self.mass * exponent, self.length * exponent,
                         self.time * exponent)

    def __str__(self) -> str:
        if self == DIMENSIONLESS:
            return "1"
        parts = []
        for symbol, exp in (("kg", self.mass), ("m", self.length), ("s", self.time)):
            if exp == 1:
                parts.append(symbol)
            elif exp != 0:
                parts.append(f"{symbol}^{exp}")
        return "*".join(parts)


DIMENSIONLESS = Dimension()
MASS = Dimension(mass=1)
LENGTH = Dimension(length=1)
TIME = Dimension(time=1)
VELOCITY = Dimension(length=1, time=-1)
ACCELERATION = Dimension(length=1, time=-2)
ENERGY = Dimension(mass=1, length=2, time=-2)
FREQUENCY = Dimension(time=-1)
#: Gravitational potential, m^2/s^2 (negative for attractive sources).
POTENTIAL = Dimension(length=2, time=-2)


@functools.total_ordering
@dataclass(frozen=True)
class Quantity:
    """A finite SI value tagged with a :class:`Dimension`.

    Addition, subtraction and comparison require matching dimensions;
    multiplication and division compose them.  Construction rejects NaN and
    infinities so they cannot propagate through a calculation.
    """

    value: float
    dim: Dimension = DIMENSIONLESS

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise DomainError(f"quantity value must be finite, got {self.value!r}")
        if not isinstance(self.dim, Dimension):
            raise DimensionError(f"dim must be a Dimension, got {type(self.dim).__name__}")

    def _check_same(self, other: "Quantity", op: str) -> None:
        if not isinstance(other, Quantity):
            raise DimensionError(f"cannot {op} Quantity and {type(other).__name__}")
        if other.dim != self.dim:
            raise DimensionError(
                f"cannot {op} quantities of dimension {self.dim} and {other.dim}"
            )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Quantity") -> "Quantity":
        self._check_same(other, "add")
        return Quantity(self.value + other.value, self.dim)

    def __sub__(self, other: "Quantity") -> "Quantity":
        self._check_same(other, "subtract")
        return Quantity(self.value - other.value, self.dim)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value * other.value, self.dim * other.dim)
        if isinstance(other, (int, float)):
            return Quantity(self.value * other, self.dim)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value / other.value, self.dim / other.dim)
        if isinstance(other, (int, float)):
            return Quantity(self.value / other, self.dim)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return Quantity(other / self.value, DIMENSIONLESS / self.dim)
        return NotImplemented

    def __pow__(self, exponent: int) -> "Quantity":
        return Quantity(self.value ** exponent, self.dim ** exponent)

    def __neg__(self) -> "Quantity":
        return Quantity(-self.value, self.dim)

    def __abs__(self) -> "Quantity":
        return Quantity(abs(self.value), self.dim)

    # -- comparison ----------------------------------------------------

    def __lt__(self, other: "Quantity") -> bool:
        self._check_same(other, "compare")
        return self.value < other.value

    def __float__(self) -> float:
        if self.dim != DIMENSIONLESS:
            raise DimensionError(
                f"only dimensionless quantities convert to bare floats, got {self.dim}"
            )
        return self.value

    def __str__(self) -> str:
        unit = str(self.dim)
        return f"{self.value:g}" if unit == "1" else f"{self.value:g} {unit}"


def ensure_dimension(q: Quantity, dim: Dimension, label: str) -> Quantity:
    """Raise DimensionError unless ``q`` carries dimension ``dim``."""
    if not isinstance(q, Quantity):
        raise DimensionError(f"{label} must be a Quantity, got {type(q).__name__}")
    if q.dim != dim:
        raise DimensionError(f"{label} must have dimension {dim}, got {q.dim}")
    return q


# -- factories ---------------------------------------------------------


def kilograms(value: float) -> Quantity:
    return Quantity(value, MASS)


def metres(value: float) -> Quantity:
    return Quantity(value, LENGTH)


def potential_m2_s2(value: float) -> Quantity:
    return Quantity(value, POTENTIAL)


# -- constants ---------------------------------------------------------


@dataclass(frozen=True)
class ConstantSet:
    """CODATA 2018 constants as dimension-tagged quantities.

    Attributes
    ----------
    G : Quantity
        Gravitational constant, m^3 kg^-1 s^-2.
    c : Quantity
        Speed of light in vacuum, m/s.
    h, hbar : Quantity
        Planck constant and reduced Planck constant, J s.
    alpha : Quantity
        Fine-structure constant (dimensionless, stored literally).
    m_electron : Quantity
        Electron rest mass, kg.
    eV : Quantity
        Electronvolt, J (I/O conversion factor only).
    """

    G: Quantity
    c: Quantity
    h: Quantity
    hbar: Quantity
    alpha: Quantity
    m_electron: Quantity
    eV: Quantity

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name).value <= 0.0:
                raise DomainError(f"constant {f.name} must be strictly positive")

    @classmethod
    def codata2018(cls) -> "ConstantSet":
        return cls(
            G=Quantity(6.67430e-11, Dimension(mass=-1, length=3, time=-2)),
            c=Quantity(299792458.0, VELOCITY),
            h=Quantity(6.62607015e-34, Dimension(mass=1, length=2, time=-1)),
            hbar=Quantity(1.054571817e-34, Dimension(mass=1, length=2, time=-1)),
            alpha=Quantity(7.2973525693e-3, DIMENSIONLESS),
            m_electron=Quantity(9.1093837015e-31, MASS),
            eV=Quantity(1.602176634e-19, ENERGY),
        )

    @property
    def c_squared(self) -> Quantity:
        return self.c * self.c

    def as_si_dict(self) -> dict[str, float]:
        """Flat mapping of constant name to SI value, for report emission."""
        return {f.name: getattr(self, f.name).value for f in fields(self)}


CONSTANTS = ConstantSet.codata2018()


# -- operations --------------------------------------------------------


def weak_field_ratio(phi: Quantity, constants: ConstantSet) -> float:
    """phi/c^2 as a float, guarded to the weak-field domain |phi|/c^2 < 1."""
    ensure_dimension(phi, POTENTIAL, "phi")
    ratio = float(phi / constants.c_squared)
    if abs(ratio) >= 1.0:
        raise DomainError(
            f"|phi|/c^2 = {abs(ratio):.3g} >= 1: outside the weak-field domain"
        )
    return ratio

