"""Registry of shift measurements and the model-comparison harness.

Each record stores the measured shift as a ratio to the single-shift
prediction (the normalized form the measurements were published in), with a
one-sigma uncertainty.  Testing a single-locus model therefore reads the
ratio as-is; testing the double effect halves both the ratio and its
uncertainty (the measured shift is unchanged, the prediction doubles), which
is algebraically the same as sigma = |ratio - 2|/uncertainty.

A record holds its emit and observe points.  The registry loader resolves
each record's geometry (a tower above one body, or two points given as body
distances) against the body registry when it reads the file, so every
failure of a record is reported there, with the file and the record named.

A record is Consistent with a model when |ratio - 1| stays within the
exclusion threshold (default 5 sigma) and Excluded otherwise.  The shipped
registry holds the two tower measurements and the solar-line measurement;
the verdict of interest is whether any of them excludes the double effect.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .data import data_file, read_entries
from .errors import ConfigurationError, GravshiftError, RegistryError
from .gravity import CelestialBody, FieldPoint, potential, require_same_bodies
from .spectra import ShiftModel, fractional_shift
from .units import Quantity

__all__ = [
    "ExperimentRecord",
    "Verdict",
    "ComparisonReport",
    "ComparisonSummary",
    "predict",
    "compare",
    "double_effect_verdict",
    "load_registry",
    "default_registry",
]


@dataclass(frozen=True)
class ExperimentRecord:
    name: str
    emit: FieldPoint
    observe: FieldPoint
    measured_ratio: float
    ratio_uncertainty: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("experiment name must be non-empty")
        if not (math.isfinite(self.measured_ratio)
                and math.isfinite(self.ratio_uncertainty)):
            raise ConfigurationError(
                f"{self.name}: measured ratio and its uncertainty must be finite"
            )
        if self.measured_ratio <= 0.0:
            raise ConfigurationError(
                f"{self.name}: measured ratio must be a positive magnitude"
            )
        if self.ratio_uncertainty <= 0.0:
            raise ConfigurationError(f"{self.name}: ratio uncertainty must be positive")
        require_same_bodies(self.emit, self.observe)


class Verdict(enum.Enum):
    CONSISTENT = "consistent"
    EXCLUDED = "excluded"


@dataclass(frozen=True)
class ComparisonReport:
    experiment: str
    model: ShiftModel
    predicted_shift: float
    ratio: float
    ratio_uncertainty: float
    sigma: float
    verdict: Verdict


@dataclass(frozen=True)
class ComparisonSummary:
    reports: tuple[ComparisonReport, ...]
    single_models_consistent: bool
    double_effect_excluded: bool
    threshold: float

    @property
    def ci_exit_code(self) -> int:
        return 0 if self.single_models_consistent and self.double_effect_excluded else 1


def predict(record: ExperimentRecord, model: ShiftModel) -> Quantity:
    """Model's fractional shift for the record's endpoints (negative = red)."""
    return fractional_shift(model, potential(record.emit), potential(record.observe))


def compare(record: ExperimentRecord, model: ShiftModel,
            threshold: float = 5.0) -> ComparisonReport:
    """Measured-over-predicted ratio test of one record against one model."""
    if not threshold > 0.0:  # also refuses NaN, which every sigma would pass
        raise ConfigurationError("exclusion threshold must be positive")
    predicted = float(predict(record, model))
    ratio = record.measured_ratio
    unc = record.ratio_uncertainty
    if model is ShiftModel.DOUBLE_EFFECT:
        # measured shift unchanged, predicted doubled
        ratio = ratio / 2.0
        unc = unc / 2.0
    sigma = abs(ratio - 1.0) / unc
    verdict = Verdict.EXCLUDED if sigma > threshold else Verdict.CONSISTENT
    return ComparisonReport(
        experiment=record.name,
        model=model,
        predicted_shift=predicted,
        ratio=ratio,
        ratio_uncertainty=unc,
        sigma=sigma,
        verdict=verdict,
    )


def double_effect_verdict(records: Sequence[ExperimentRecord],
                          threshold: float = 5.0) -> ComparisonSummary:
    """Every record against every model, plus the overall double-effect verdict.

    The double effect counts as excluded when any record excludes it at the
    configured threshold.
    """
    if not records:
        raise ConfigurationError("experiment registry is empty")
    reports = []
    for record in records:
        for model in ShiftModel:
            reports.append(compare(record, model, threshold))
    single_ok = all(
        r.verdict is Verdict.CONSISTENT
        for r in reports
        if r.model is not ShiftModel.DOUBLE_EFFECT
    )
    double_excluded = any(
        r.verdict is Verdict.EXCLUDED
        for r in reports
        if r.model is ShiftModel.DOUBLE_EFFECT
    )
    return ComparisonSummary(
        reports=tuple(reports),
        single_models_consistent=single_ok,
        double_effect_excluded=double_excluded,
        threshold=threshold,
    )


# -- registry file -------------------------------------------------------


def _body(bodies: dict[str, CelestialBody], name) -> CelestialBody:
    name = str(name)
    if name not in bodies:
        raise ConfigurationError(f"unknown body {name!r}")
    return bodies[name]


def _resolve_geometry(geometry, name: str,
                      bodies: dict[str, CelestialBody]) -> tuple[FieldPoint, FieldPoint]:
    """A record's emit and observe points from its geometry object."""
    if not isinstance(geometry, dict) or "type" not in geometry:
        raise ConfigurationError("geometry must be an object with a 'type' field")
    kind = geometry["type"]
    if kind == "tower":
        body = _body(bodies, geometry["body"])
        base = float(geometry.get("base_altitude_m", 0.0))
        height = float(geometry["height_m"])
        if not height > 0.0:  # also refuses NaN
            raise ConfigurationError("tower height must be positive")
        return (FieldPoint.at_altitude(body, base, f"{name}:emit"),
                FieldPoint.at_altitude(body, base + height, f"{name}:observe"))
    if kind == "two_point":
        points = []
        for side in ("emit", "observe"):
            pairs = geometry[side]
            if not (isinstance(pairs, list) and all(
                    isinstance(p, dict) and "body" in p and "r_m" in p for p in pairs)):
                raise ConfigurationError(
                    f"geometry {side}: expected an array of {{body, r_m}} objects")
            points.append(FieldPoint.from_si(
                f"{name}:{side}", [(_body(bodies, p["body"]), float(p["r_m"])) for p in pairs]))
        return points[0], points[1]
    raise ConfigurationError(f"unknown geometry type {kind!r}")


def load_registry(path: str | Path,
                  bodies: dict[str, CelestialBody]) -> list[ExperimentRecord]:
    """Read and validate a JSON array of experiment records.

    Each record's geometry becomes its emit and observe points, resolved
    against ``bodies``.
    """
    records: list[ExperimentRecord] = []
    seen: set[str] = set()
    for where, entry in read_entries(path, "experiment registry", "experiment records",
                                     "record"):
        for fieldname in ("name", "geometry", "measured_ratio", "ratio_uncertainty"):
            if fieldname not in entry:
                raise RegistryError(f"{where}: missing field {fieldname!r}")
        name = str(entry["name"])
        if name in seen:
            raise RegistryError(f"{where}: duplicate experiment name {name!r}")
        seen.add(name)
        try:
            emit, observe = _resolve_geometry(entry["geometry"], name, bodies)
            record = ExperimentRecord(
                name=name,
                emit=emit,
                observe=observe,
                measured_ratio=float(entry["measured_ratio"]),
                ratio_uncertainty=float(entry["ratio_uncertainty"]),
            )
        except KeyError as exc:
            raise RegistryError(
                f"{where} ({name}): missing geometry field {exc.args[0]!r}") from None
        except (TypeError, ValueError, GravshiftError) as exc:
            raise RegistryError(f"{where} ({name}): {exc}") from None
        records.append(record)
    return records


def default_registry(bodies: dict[str, CelestialBody]) -> list[ExperimentRecord]:
    """Packaged records, overridable via GRAVSHIFT_DATA_DIR."""
    return load_registry(data_file("experiments.json"), bodies)
