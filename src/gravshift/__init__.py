"""gravshift: gravitational line-shift models, fine-structure spectra and
experiment comparisons, with dimension-checked potentials, masses and energies.

The package splits along the physics:

units
    Dimension-tagged quantities and the CODATA constant set in SI floats.
gravity
    Bodies and field points in SI floats, each point carrying the bodies
    acting on it, and their Newtonian point-mass potential.
spectra
    Effective emitter mass in a potential, hydrogen-like fine-structure
    levels at that mass, and fractional line shifts under the competing
    models.
photon
    Graded-index ray tracing of the photon-interaction reading: one ray past
    one body at the origin, for the bending question.
experiments
    Measurement registry and the comparison harness that tests each model,
    including whether the "double effect" is excluded.
data
    The packaged registry files (bodies, experiments) and their one reader.
errors
    One exception class per kind of failure, under `GravshiftError`.
cli
    The `gravshift` command-line front end.

Each name is imported from its module, for example `gravshift.errors.DomainError`;
the package itself holds only `__version__`.
"""

__version__ = "0.1.0"
