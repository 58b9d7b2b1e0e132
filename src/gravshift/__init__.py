"""gravshift: gravitational line-shift models, fine-structure spectra and
experiment comparisons, with dimension-checked arithmetic throughout.

The package splits along the physics:

units
    Dimension-tagged quantities and the CODATA constant set.
gravity
    Newtonian point-mass potential fields and the tidal correction over
    atomic distances.
spectra
    Effective emitter mass in a potential, hydrogen-like fine-structure
    levels at that mass, and fractional line shifts under the competing
    models.
photon
    Graded-index ray tracing of the photon-interaction reading, for the
    bending question.
experiments
    Measurement registry and the comparison harness that tests each model,
    including whether the "double effect" is excluded.
cli
    The `gravshift` command-line front end.
"""

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DimensionError,
    DomainError,
    GravshiftError,
    ImpactError,
    RegistryError,
)
from .units import CONSTANTS, ConstantSet, Dimension, Quantity

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CONSTANTS",
    "ConstantSet",
    "Dimension",
    "Quantity",
    "GravshiftError",
    "DimensionError",
    "DomainError",
    "ConfigurationError",
    "RegistryError",
    "ImpactError",
    "ConvergenceError",
]
