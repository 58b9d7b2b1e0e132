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
That arithmetic is on floats: the public functions check the dimension of the
mass they take and tag the energy or frequency they return.

Each value is refused where it is built: a `QuantumState` with Z outside
1 <= Z < 1/alpha (Z <= 137) or a bad n' or j; a mass or potential in
`effective_mass`; an energy that is no normal float or has no finite
frequency in `level_energy` and `transition_frequency`; two points that do
not name the same bodies in `fractional_shift`.

A model of the line shift between two locations is its couplings (k_e, k_p)
to the potential: of the emitter's mass (the defect above) and of the photon
in flight.  Each adds the single shift (phi_emit - phi_obs)/c^2: emitter
(1, 0) and photon (0, 1) predict it, the "double effect" (1, 1) twice it.
Negative means red (emitter deeper in the potential).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .gravity import FieldPoint
from .units import (
    CONSTANTS,
    MASS,
    POTENTIAL,
    Dimension,
    Quantity,
    ensure_dimension,
    normal_float,
    positive_finite,
    weak_field_ratio,
)

__all__ = [
    "QuantumState",
    "ShiftModel",
    "effective_mass",
    "level_energy",
    "transition_frequency",
    "fractional_shift",
    "states_for_n",
]


def effective_mass(rest_mass: Quantity, phi: Quantity) -> Quantity:
    """m_eff = m*(1 + phi/c^2) of an emitter of free rest mass m bound at
    phi <= 0; equals the rest mass for phi = 0."""
    ensure_dimension(rest_mass, MASS, "rest_mass")
    positive_finite(rest_mass.value, "emitter rest mass")
    x = weak_field_ratio(phi)
    if phi.value > 0.0:
        raise DomainError("effective mass is defined for attractive potentials (phi <= 0)")
    # a subnormal mass keeps too few bits to carry the factor 1 + phi/c^2
    return Quantity(normal_float(rest_mass.value * (1.0 + x), "effective mass"), MASS)


@dataclass(frozen=True)
class QuantumState:
    """Hydrogen-like quantum numbers (Z, n', j), 1 <= Z < 1/alpha (the
    perturbative domain); they fix n = n' + j + 1/2."""

    Z: int
    n_prime: int
    j: float

    def __post_init__(self) -> None:
        if not isinstance(self.Z, int) or self.Z < 1:
            raise DomainError(f"Z must be a positive integer, got {self.Z!r}")
        # compared as int against float, so no Z is too large to test
        if self.Z >= 1.0 / CONSTANTS.alpha:
            raise DomainError(f"alpha*Z >= 1 at Z = {self.Z}: outside the perturbative domain")
        if not isinstance(self.n_prime, int) or self.n_prime < 0:
            raise DomainError(f"n' must be a non-negative integer, got {self.n_prime!r}")
        twice_j = 2.0 * float(self.j)
        if twice_j <= 0 or twice_j != int(twice_j) or int(twice_j) % 2 != 1:
            raise DomainError(
                f"j must be a positive half-odd-integer (1/2, 3/2, ...), got {self.j!r}"
            )
        object.__setattr__(self, "j", float(self.j))

    @property
    def n(self) -> int:
        """Principal quantum number n' + j + 1/2 (exact: j is half-odd-integer)."""
        return self.n_prime + int(self.j + 0.5)

    def label(self) -> str:
        tj = int(2 * self.j)
        return f"Z={self.Z} n={self.n} j={tj}/2 n'={self.n_prime}"


def states_for_n(Z: int, n: int) -> list[QuantumState]:
    """All (n', j) states sharing the principal number n; exactly n of them."""
    return [QuantumState(Z, n - 1 - k, k + 0.5) for k in range(n)]


_ALPHA2 = CONSTANTS.alpha ** 2
#: alpha^2 c^2 / 2, the Rydberg energy per unit mass (J/kg)
_RYDBERG_PER_KG = _ALPHA2 * CONSTANTS.c_squared / 2.0
#: k underflows to 0 long before n = 1e300; the clamp keeps float(n) finite
_N_CLAMP = 10**300


def _specific_level_energy(state: QuantumState) -> float:
    """Binding energy per unit emitter mass (m^2/s^2); mass-independent.

    Keeping the mass out of this factor means level energies and transition
    frequencies are a single multiplication away from the emitter mass, so
    the fractional shift of any line reproduces phi/c^2 to rounding error.
    The state is in the perturbative domain alpha*Z < 1 by construction.
    """
    z2 = float(state.Z * state.Z)
    n = float(min(state.n, _N_CLAMP))
    bracket = 1.0 + (_ALPHA2 * z2 / n) * (1.0 / (state.j + 0.5) - 3.0 / (4.0 * n))
    return _RYDBERG_PER_KG * (z2 / (n * n)) * bracket


def _energy(mass: float, k: float, what: str, *states: QuantumState) -> float:
    """E = mass*k, refused where E is not a normal float, whose shift would
    be lost to rounding, and where E/h overflows, so the energy converts to a
    finite frequency and, as h < 1 eV, to a finite value in eV.  The message
    names ``what`` of ``states``, labelled only on refusal."""
    energy = mass * k
    if energy < sys.float_info.min or not math.isfinite(energy / CONSTANTS.h):
        flow = "underflows" if energy < sys.float_info.min else "overflows"
        raise DomainError(f"{what} of {' -> '.join(s.label() for s in states)} {flow} at "
                          f"mass {mass:g} kg: E must be a normal float and E/h finite")
    return energy


def level_energy(state: QuantumState, m_eff: Quantity) -> Quantity:
    """Positive binding energy of the state at the given effective mass;
    refused where it is not a normal float or its frequency overflows."""
    ensure_dimension(m_eff, MASS, "m_eff")
    energy = _energy(m_eff.value, _specific_level_energy(state), "level energy", state)
    return Quantity(energy, MASS * POTENTIAL)


def transition_frequency(s_upper: QuantumState, s_lower: QuantumState,
                         m_eff: Quantity) -> Quantity:
    """Photon frequency nu = (E_b(lower) - E_b(upper))/h for a downward jump.

    The lower state must bind more deeply than the upper one, and both must
    share the nuclear charge Z.  The photon energy is refused where a level
    energy would be: below the smallest normal float or with nu overflowing.
    """
    ensure_dimension(m_eff, MASS, "m_eff")
    if s_upper.Z != s_lower.Z:
        raise DomainError(
            f"transition states must share Z (got {s_upper.Z} and {s_lower.Z})"
        )
    dk = _specific_level_energy(s_lower) - _specific_level_energy(s_upper)
    if dk <= 0.0:
        raise DomainError(
            "non-positive photon energy: the lower state must bind more deeply "
            f"({s_lower.label()} vs {s_upper.label()})"
        )
    energy = _energy(m_eff.value, dk, "photon energy", s_upper, s_lower)
    return Quantity(energy / CONSTANTS.h, Dimension(time=-1))


class ShiftModel(enum.Enum):
    """The competing readings of the line shift, named as the CLI names them and
    valued by their couplings (k_e, k_p) of the emitter's mass and the photon."""

    emitter = (1, 0)
    photon = (0, 1)
    double = (1, 1)

    def __init__(self, k_e: int, k_p: int) -> None:
        self.k_e, self.k_p = k_e, k_p


def fractional_shift(model: ShiftModel, emit: FieldPoint, obs: FieldPoint) -> float:
    """Fractional frequency shift between an emission and an observation point.

    A model predicts k_e + k_p times the single shift (phi_emit - phi_obs)/c^2.
    Negative = red shift (emitter deeper).
    Two points that do not name the same bodies are refused: their difference
    would count some body's term at one end only.
    The shift is first order: with x = phi/c^2, the emitter model's exact
    ratio of the level frequencies at the two points, less 1, is
    (x_emit - x_obs)/(1 + x_obs), 1.06e-8 relative apart at the Snider points.
    The difference is summed body by body as mu*(r_emit - r_obs)/(r_emit*r_obs),
    so two nearly equal potentials are never subtracted; r_emit - r_obs is
    exact when the distances are within a factor 2 of each other.
    """
    emit_names = {body.name for body, _ in emit.distances}
    r_obs = {body.name: r for body, r in obs.distances}
    for point, lacks in ((emit, r_obs.keys() - emit_names), (obs, emit_names - r_obs.keys())):
        if lacks:
            raise DomainError(f"point {point.label!r} has no distance for body {min(lacks)!r}")
    for point in (emit, obs):
        weak_field_ratio(point.phi)
    terms = []
    for body, r in emit.distances:
        near, far = sorted((r, r_obs[body.name]))
        # mu/near times a ratio of magnitude below 1 underflows only where the
        # term itself does; mu/far can underflow while the term is normal
        terms.append(body.mu / near * ((r - r_obs[body.name]) / far))
    single = math.fsum(terms) / CONSTANTS.c_squared
    return (model.k_e + model.k_p) * single
