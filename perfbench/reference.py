"""Fixed reference task that gauges the machine's current speed.

Usage: python perfbench/reference.py

It does the same kinds of work as a `gravshift` op, with none of its code:
a fresh interpreter imports numpy, scipy.integrate and scipy.optimize, then
integrates a Kepler orbit with DOP853 through a right-hand side that builds
small numpy arrays, as the photon tracer does.  The work never changes, so
its wall time moves only with the machine.  run.py runs it before and after
every set-up sample and op, and scales each of those by the two reference
walls around it (see README.md, "Normalisation").  It prints the orbit's
energy drift and the step count, which run.py checks, so a broken reference
cannot pass unnoticed.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.optimize  # noqa: F401  (imported for its cost, as gravshift.cli does)
from scipy.integrate import solve_ivp

ECCENTRICITY = 0.5
ORBITS = 4
MAX_STEP = 0.02


def kepler(_t: float, y: np.ndarray) -> np.ndarray:
    r = math.hypot(y[0], y[1])
    return np.array([y[2], y[3], -y[0] / r**3, -y[1] / r**3])


def energy(y: np.ndarray) -> float:
    return 0.5 * (y[2] ** 2 + y[3] ** 2) - 1.0 / math.hypot(y[0], y[1])


def main() -> None:
    # Periapsis of an orbit with semi-major axis 1 (period 2*pi).
    e = ECCENTRICITY
    y0 = np.array([1.0 - e, 0.0, 0.0, math.sqrt((1.0 + e) / (1.0 - e))])
    sol = solve_ivp(kepler, (0.0, ORBITS * 2.0 * math.pi), y0, method="DOP853",
                    rtol=1e-10, atol=1e-13, max_step=MAX_STEP)
    print(json.dumps({"status": sol.status, "steps": len(sol.t) - 1,
                      "energy_drift": abs(energy(sol.y[:, -1]) - energy(y0)) / 0.5}))


if __name__ == "__main__":
    main()
