"""Seeded generators of `gravshift` argv lists, one stream per workload.

`ops(workload, seed)` yields an endless, deterministic sequence of argv lists
(without the leading `python -m gravshift`).  The program sees only these
argv lists; the seed never reaches it.  See README.md for why each workload
exists.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

# Packaged body radii (m), used only to place points and impact parameters.
RADIUS = {"earth": 6.371e6, "sun": 6.957e8}
AU_M = 1.495978707e11
FORMATS = ("json", "csv", "text")
SHIFT_MODELS = ("emitter", "photon", "double")
TOLERANCES = ("1e-6", "1e-8", "1e-10", "1e-12")
B_RADII_RANGE = (1.0, 20.0)
# The CLI default; kept there because that is the traffic.
TERM_FACTOR = 200.0


def start_point_refused(b_m: float, factor: float = TERM_FACTOR) -> bool:
    """True if the CLI refuses this impact parameter with "ray must start
    inside the termination circle".

    `impact_parameter_ray` places the start at x0 = -sqrt((factor*b)^2 - b^2)
    and the rounding of that square root can put the point just outside the
    circle of radius factor*b.  This is a known defect of the program (about
    8% of impact parameters at the default factor), documented in README.md
    and left to a later fix; the generators skip such b so that every op
    is expected to succeed, and count how many draws they skipped.
    """
    r_term = factor * b_m
    x0 = -math.sqrt(max(r_term * r_term - b_m * b_m, 0.0))
    return math.hypot(x0, b_m) > r_term


class Stream:
    """One workload's seeded op stream, with a count of skipped draws."""

    def __init__(self, workload: str, seed: int):
        if workload not in GENERATORS:
            raise ValueError(f"unknown workload {workload!r}")
        self.rng = random.Random(f"{workload}:{seed}")
        self.skipped_draws = 0
        self._next = GENERATORS[workload]

    def __iter__(self) -> Iterator[list[str]]:
        while True:
            yield self._next(self)

    def take(self, count: int) -> list[list[str]]:
        it = iter(self)
        return [next(it) for _ in range(count)]

    def _num(self, lo: float, hi: float, digits: int) -> str:
        return f"{round(self.rng.uniform(lo, hi), digits):.{digits}f}"

    def _spec_part(self, body: str) -> str:
        if self.rng.random() < 0.5:
            return f"{body}:{self._num(0.0, 10.0 * RADIUS[body], 1)}"
        if body == "sun" and self.rng.random() < 0.5:
            return f"sun:r={AU_M!r}"
        return f"{body}:r={self._num(1.0 * RADIUS[body], 1000.0 * RADIUS[body], 1)}"

    def _spec(self, bodies: tuple[str, ...]) -> str:
        return "+".join(self._spec_part(b) for b in bodies)

    def _bodies(self) -> tuple[str, ...]:
        return self.rng.choice((("earth",), ("sun",), ("sun", "earth")))

    # -- cli-mix --------------------------------------------------------------

    def cli_mix(self) -> list[str]:
        kind = self.rng.choices(
            ("constants", "potential", "shift", "spectrum", "experiment"),
            weights=(1, 2, 3, 3, 1))[0]
        return getattr(self, f"_op_{kind}")()

    def _op_constants(self) -> list[str]:
        return ["constants"]

    def _op_potential(self) -> list[str]:
        argv = ["potential"]
        for _ in range(self.rng.randint(1, 3)):
            argv += ["--at", self._spec(self._bodies())]
        return argv + ["--format", self.rng.choice(FORMATS)]

    def _op_shift(self) -> list[str]:
        argv = ["shift", "--model", self.rng.choice(SHIFT_MODELS)]
        form = self.rng.choice(("tower", "radius", "spec"))
        if form == "spec":
            bodies = self._bodies()
            argv += ["--emit", self._spec(bodies), "--obs", self._spec(bodies)]
        else:
            body = self.rng.choice(tuple(RADIUS))
            argv += ["--body", body]
            if form == "tower":
                base = self._num(0.0, 1e4, 1)
                height = self._num(1.0, 1e3, 2)
                argv += ["--emit-alt", base, "--obs-alt", f"{float(base) + float(height)!r}"]
            else:
                r = RADIUS[body]
                argv += ["--emit-r-m", self._num(r, 10.0 * r, 1),
                         "--obs-r-m", self._num(r, 1000.0 * r, 1)]
        return argv + ["--format", self.rng.choice(FORMATS)]

    def _op_spectrum(self) -> list[str]:
        lo = self.rng.randint(1, 30)
        hi = self.rng.randint(lo, 30)
        argv = ["spectrum", "--z", str(self.rng.randint(1, 10)), "--n-range", f"{lo}:{hi}"]
        if self.rng.random() < 0.5:
            argv += ["--at", self._spec(self._bodies())]
        return argv + ["--format", self.rng.choice(FORMATS)]

    def _op_experiment(self) -> list[str]:
        return ["experiment", "--report", self.rng.choice(("text", "json"))]

    # -- ray-tol-ladder ---------------------------------------------------------

    def _impact_radii(self) -> float:
        return round(self.rng.uniform(*B_RADII_RANGE), 3)

    def ray_tol_ladder(self) -> list[str]:
        body = self.rng.choice(tuple(RADIUS))
        radius = RADIUS[body]
        in_metres = self.rng.random() < 0.5
        while True:
            radii = self._impact_radii()
            b_m = float(round(radii * radius)) if in_metres else radii * radius
            if not start_point_refused(b_m):
                break
            self.skipped_draws += 1
        b_arg = ["--b-m", f"{b_m!r}"] if in_metres else ["--b-radii", f"{radii!r}"]
        return ["photon", "--body", body, *b_arg, "--tol", self.rng.choice(TOLERANCES),
                "--format", self.rng.choice(FORMATS)]


GENERATORS = {
    "cli-mix": Stream.cli_mix,
    "ray-tol-ladder": Stream.ray_tol_ladder,
}
WORKLOADS = tuple(GENERATORS)
