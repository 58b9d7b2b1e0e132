"""Bound-emitter spectra in a gravitational potential.

An emitter sitting at potential phi (<= 0) loses the mass equivalent of its
gravitational binding energy:

    m_eff = m * (1 + phi/c^2),        defect  dm = m - m_eff = m*|phi|/c^2.

Hydrogen-like levels are evaluated at that effective mass with the leading
fine-structure correction, truncated exactly where the model stops:

    E(Z, n, j) = (alpha^2 * m_eff * c^2 / 2) * (Z^2/n^2)
                 * [1 + (alpha^2 Z^2 / n) * (1/(j + 1/2) - 3/(4n))]

with quantum numbers n' = 0, 1, 2, ...;  j = 1/2, 3/2, 5/2, ...;
n = n' + j + 1/2.  E is the (positive) binding energy; a photon's energy is
the difference of binding energies of the two levels.

Because E is homogeneous of degree one in the mass, every line shifts by the
same fraction phi/c^2 -- that linearity is the heart of the model, and the
implementation keeps it numerically faithful by computing a mass-independent
specific energy factor per state and multiplying by the mass exactly once.

Fractional line shifts between two locations come in three flavours: the
emitter-mass-defect shift, the in-flight photon-interaction shift (same
functional form, different physical locus), and their arithmetic sum, the
"double effect".  Negative means red (emitter deeper in the potential).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError
from .units import (
    CONSTANTS,
    MASS,
    POTENTIAL,
    ConstantSet,
    Quantity,
    ensure_dimension,
    weak_field_ratio,
)

__all__ = [
    "Emitter",
    "EffectiveMass",
    "QuantumState",
    "ShiftModel",
    "NuclearScaling",
    "ShiftSign",
    "effective_mass",
    "level_energy",
    "transition_frequency",
    "fractional_shift",
    "nuclear_shift_sign",
    "states_for_n",
]


@dataclass(frozen=True)
class Emitter:
    """A radiating particle characterised only by its free rest mass."""

    rest_mass: Quantity

    def __post_init__(self) -> None:
        ensure_dimension(self.rest_mass, MASS, "rest_mass")
        if self.rest_mass.value <= 0.0:
            raise DomainError("emitter rest mass must be positive")

    @classmethod
    def electron(cls, constants: ConstantSet = CONSTANTS) -> "Emitter":
        return cls(constants.m_electron)


@dataclass(frozen=True)
class EffectiveMass:
    """Rest mass reduced by the gravitational binding fraction phi/c^2."""

    value: Quantity
    source_potential: Quantity

    def __post_init__(self) -> None:
        ensure_dimension(self.value, MASS, "effective mass")
        ensure_dimension(self.source_potential, POTENTIAL, "source potential")
        if self.source_potential.value > 0.0:
            raise DomainError("effective mass is defined for attractive potentials (phi <= 0)")
        if self.value.value <= 0.0:
            raise DomainError("effective mass must stay positive (weak-field domain)")


def effective_mass(emitter: Emitter, phi: Quantity,
                   constants: ConstantSet = CONSTANTS) -> EffectiveMass:
    """m_eff = m*(1 + phi/c^2); equals the rest mass for phi = 0."""
    x = weak_field_ratio(phi, constants)
    value = Quantity(emitter.rest_mass.value * (1.0 + x), MASS)
    return EffectiveMass(value=value, source_potential=phi)


@dataclass(frozen=True)
class QuantumState:
    """Hydrogen-like quantum numbers (Z, n', j, n) with n = n' + j + 1/2."""

    Z: int
    n_prime: int
    j: float
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.Z, int) or self.Z < 1:
            raise ConfigurationError(f"Z must be a positive integer, got {self.Z!r}")
        if not isinstance(self.n_prime, int) or self.n_prime < 0:
            raise ConfigurationError(f"n' must be a non-negative integer, got {self.n_prime!r}")
        twice_j = 2.0 * float(self.j)
        if twice_j <= 0 or twice_j != int(twice_j) or int(twice_j) % 2 != 1:
            raise ConfigurationError(
                f"j must be a positive half-odd-integer (1/2, 3/2, ...), got {self.j!r}"
            )
        object.__setattr__(self, "j", float(self.j))
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigurationError(f"n must be a positive integer, got {self.n!r}")
        # exact in binary arithmetic: n' integer, j half-odd-integer
        if self.n_prime + self.j + 0.5 != self.n:
            raise ConfigurationError(
                f"quantum numbers must satisfy n = n' + j + 1/2; "
                f"got n={self.n}, n'={self.n_prime}, j={self.j}"
            )
        if self.j + 0.5 > self.n:
            raise ConfigurationError(f"j + 1/2 = {self.j + 0.5:g} exceeds n = {self.n}")

    @classmethod
    def from_n_j(cls, Z: int, n: int, j: float) -> "QuantumState":
        n_prime = n - float(j) - 0.5
        if n_prime < 0 or n_prime != int(n_prime):
            raise ConfigurationError(f"no state with n={n}, j={j}: n' would be {n_prime}")
        return cls(Z=Z, n_prime=int(n_prime), j=float(j), n=n)

    @classmethod
    def from_radial(cls, Z: int, n_prime: int, j: float) -> "QuantumState":
        n = n_prime + float(j) + 0.5
        return cls(Z=Z, n_prime=n_prime, j=float(j), n=int(n))

    def label(self) -> str:
        tj = int(2 * self.j)
        return f"Z={self.Z} n={self.n} j={tj}/2 n'={self.n_prime}"


def states_for_n(Z: int, n: int) -> list[QuantumState]:
    """All (n', j) states sharing the principal number n; exactly n of them."""
    states = []
    tj = 1
    while (tj / 2.0) + 0.5 <= n:
        states.append(QuantumState.from_n_j(Z, n, tj / 2.0))
        tj += 2
    return states


def _specific_level_energy(state: QuantumState, constants: ConstantSet) -> Quantity:
    """Binding energy per unit emitter mass (m^2/s^2); mass-independent.

    Keeping the mass out of this factor means level energies and transition
    frequencies are a single multiplication away from the emitter mass, so
    the fractional shift of any line reproduces phi/c^2 to rounding error.
    Every energy and frequency passes through here, so this is where the
    perturbative domain alpha*Z < 1 of the given constant set is enforced.
    """
    alpha_z = constants.alpha.value * state.Z
    if alpha_z >= 1.0:
        raise DomainError(f"alpha*Z = {alpha_z:.3f} >= 1: outside the perturbative domain")
    a2 = constants.alpha.value ** 2
    z2 = float(state.Z * state.Z)
    n = float(state.n)
    bracket = 1.0 + (a2 * z2 / n) * (1.0 / (state.j + 0.5) - 3.0 / (4.0 * n))
    k = (a2 * constants.c.value ** 2 / 2.0) * (z2 / (n * n)) * bracket
    return Quantity(k, POTENTIAL)


def level_energy(state: QuantumState, m_eff: EffectiveMass,
                 constants: ConstantSet = CONSTANTS) -> Quantity:
    """Positive binding energy of the state at the given effective mass."""
    return m_eff.value * _specific_level_energy(state, constants)


def transition_frequency(s_upper: QuantumState, s_lower: QuantumState,
                         m_eff: EffectiveMass,
                         constants: ConstantSet = CONSTANTS) -> Quantity:
    """Photon frequency nu = (E_b(lower) - E_b(upper))/h for a downward jump.

    The lower state must bind more deeply than the upper one, and both must
    share the nuclear charge Z.
    """
    if s_upper.Z != s_lower.Z:
        raise ConfigurationError(
            f"transition states must share Z (got {s_upper.Z} and {s_lower.Z})"
        )
    dk = _specific_level_energy(s_lower, constants) - _specific_level_energy(s_upper, constants)
    if dk.value <= 0.0:
        raise DomainError(
            "non-positive photon energy: the lower state must bind more deeply "
            f"({s_lower.label()} vs {s_upper.label()})"
        )
    return (m_eff.value * dk) / constants.h


class ShiftModel(enum.Enum):
    """Competing explanations of the gravitational line shift."""

    EMITTER_MASS_DEFECT = "emitter"
    PHOTON_INTERACTION = "photon"
    DOUBLE_EFFECT = "double"


class NuclearScaling(enum.Enum):
    PROPORTIONAL_TO_MASS = "proportional"
    INVERSELY_PROPORTIONAL_TO_MASS = "inverse"


class ShiftSign(enum.Enum):
    RED = "red"
    VIOLET = "violet"
    NONE = "none"


def fractional_shift(model: ShiftModel, phi_emit: Quantity, phi_obs: Quantity,
                     constants: ConstantSet = CONSTANTS) -> Quantity:
    """Fractional frequency shift between emission and observation points.

    Both single-locus models predict (phi_emit - phi_obs)/c^2; the double
    effect is their arithmetic sum.  Negative = red shift (emitter deeper).
    """
    weak_field_ratio(phi_emit, constants)
    weak_field_ratio(phi_obs, constants)
    single = (phi_emit - phi_obs) / constants.c_squared
    if model is ShiftModel.DOUBLE_EFFECT:
        return single + single
    return single


def nuclear_shift_sign(scaling: NuclearScaling, phi_emit: Quantity, phi_obs: Quantity,
                       constants: ConstantSet = CONSTANTS) -> ShiftSign:
    """Sign of the nuclear-line displacement under the assumed mass scaling.

    Levels proportional to the radiating nucleon's mass shift like atomic
    ones (red for a deeper emitter); inversely proportional levels would
    shift the opposite way.
    """
    weak_field_ratio(phi_emit, constants)
    weak_field_ratio(phi_obs, constants)
    if phi_emit.value == phi_obs.value:
        return ShiftSign.NONE
    emitter_deeper = phi_emit.value < phi_obs.value
    if scaling is NuclearScaling.PROPORTIONAL_TO_MASS:
        return ShiftSign.RED if emitter_deeper else ShiftSign.VIOLET
    return ShiftSign.VIOLET if emitter_deeper else ShiftSign.RED
