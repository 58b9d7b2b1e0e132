"""Dimension-tagged scalar quantities and the physical constants used everywhere.

The values that pass between the formulas -- a potential, an emitter mass, a
level energy -- are :class:`Quantity` objects: a float in SI units plus a
dimension signature (integer exponents over kg, m, s).  Arithmetic combines
signatures, so a dimensionally invalid expression fails at construction time
instead of producing a silently wrong number.  Signatures are checked where a
value enters or leaves a formula; inside one, as in bodies and field points,
the arithmetic is on plain SI floats.  Only the dimensions actually needed by
the formulas are given names; arbitrary integer exponents still compose
correctly in intermediate products.

Constants are CODATA 2018 literals, plain floats in SI units, in the one set
:data:`CONSTANTS`, which every operation of the package reads.  The
fine-structure constant is stored directly (never derived from the
elementary charge), and the electronvolt appears only as an I/O conversion
factor -- internally everything is SI.

Each range rule -- positive and finite, a normal float, the weak field
|phi|/c^2 < 1 -- is written here once, its decision and its wording, and
every module refuses through it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DimensionError, DomainError

__all__ = [
    "Dimension",
    "Quantity",
    "ConstantSet",
    "CONSTANTS",
    "MASS",
    "POTENTIAL",
    "ensure_dimension",
    "positive_finite",
    "normal_float",
    "weak_field",
    "weak_field_ratio",
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

    def __str__(self) -> str:
        parts = []
        for symbol, exp in (("kg", self.mass), ("m", self.length), ("s", self.time)):
            if exp == 1:
                parts.append(symbol)
            elif exp != 0:
                parts.append(f"{symbol}^{exp}")
        return "*".join(parts) or "1"


MASS = Dimension(mass=1)
#: Gravitational potential, m^2/s^2 (negative for attractive sources).
POTENTIAL = Dimension(length=2, time=-2)


@dataclass(frozen=True)
class Quantity:
    """A finite SI value tagged with a :class:`Dimension`.

    Addition and comparison require matching dimensions; multiplication and
    division compose them.  Construction rejects NaN and infinities so they
    cannot propagate through a calculation.
    """

    value: float
    dim: Dimension

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
            raise DimensionError(f"cannot {op} quantities of dimension {self.dim} and {other.dim}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Quantity") -> "Quantity":
        self._check_same(other, "add")
        return Quantity(self.value + other.value, self.dim)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value * other.value, self.dim * other.dim)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value / other.value, self.dim / other.dim)
        return NotImplemented

    # -- comparison ----------------------------------------------------

    def __lt__(self, other: "Quantity") -> bool:
        self._check_same(other, "compare")
        return self.value < other.value


def ensure_dimension(q: Quantity, dim: Dimension, label: str) -> None:
    """Raise DimensionError unless ``q`` carries dimension ``dim``."""
    if not isinstance(q, Quantity):
        raise DimensionError(f"{label} must be a Quantity, got {type(q).__name__}")
    if q.dim != dim:
        raise DimensionError(f"{label} must have dimension {dim}, got {q.dim}")


# -- constants ---------------------------------------------------------


@dataclass(frozen=True)
class ConstantSet:
    """CODATA 2018 constants as plain floats in SI units.

    Attributes
    ----------
    G : float
        Gravitational constant, m^3 kg^-1 s^-2.
    c : float
        Speed of light in vacuum, m/s.
    h, hbar : float
        Planck constant and reduced Planck constant, J s.
    alpha : float
        Fine-structure constant (dimensionless, stored literally).
    m_electron : float
        Electron rest mass, kg.
    eV : float
        Electronvolt, J (I/O conversion factor only).
    """

    G: float
    c: float
    h: float
    hbar: float
    alpha: float
    m_electron: float
    eV: float

    @property
    def c_squared(self) -> float:
        return self.c * self.c


CONSTANTS = ConstantSet(
    G=6.67430e-11,
    c=299792458.0,
    h=6.62607015e-34,
    hbar=1.054571817e-34,
    alpha=7.2973525693e-3,
    m_electron=9.1093837015e-31,
    eV=1.602176634e-19,
)


# -- range rules -------------------------------------------------------


def positive_finite(value: float, what: str) -> float:
    """``value``, refused unless 0 < value < inf (NaN fails both comparisons)."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{what} must be positive and finite, got {value!r}")
    return value


def normal_float(value: float, what: str) -> float:
    """``value``, refused below the smallest normal float: too few bits left."""
    if value < sys.float_info.min:
        raise DomainError(f"{what} {value:g} is below the smallest normal float "
                          f"({sys.float_info.min:g}); it would be lost to rounding")
    return value


def weak_field(x: float) -> float:
    """``x`` = phi/c^2, refused outside the weak-field domain |x| < 1."""
    if abs(x) >= 1.0:
        raise DomainError(f"|phi|/c^2 = {abs(x):.3g} >= 1: outside the weak-field domain")
    return x


def weak_field_ratio(phi: Quantity) -> float:
    """phi/c^2 as a float, guarded by `weak_field`."""
    ensure_dimension(phi, POTENTIAL, "phi")
    return weak_field(phi.value / CONSTANTS.c_squared)
