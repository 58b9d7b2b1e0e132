"""Registry of shift measurements and the model-comparison harness.

Each record stores the measured shift as a ratio to the single-shift
prediction (the normalized form the measurements were published in), with a
one-sigma uncertainty.  Each row divides the ratio and its uncertainty by
k, the model's prediction (`gravshift.spectra.fractional_shift`) over the
single shift, so a model's shift is read from `spectra` alone.

A record holds its emit and observe points, given in a registry file (see
`gravshift.data`) as point specs that the loader parses against the body
registry, so every failure of a record is refused where the file is read.
Built, a record refuses points that name different bodies, lie in the
strong field or sit at one potential (no shift, so it tests no model); the
comparison refuses only an empty registry, a bad threshold and a sigma that
is not finite.

A record excludes a model when sigma = |ratio - 1|/uncertainty, of the
divided ratio and uncertainty, exceeds the exclusion threshold; a sigma that
is not a finite float is refused.  Every record is tested against every
model in one table.  The shipped registry holds the two tower measurements
and the solar-line measurement; the verdict of interest is whether the
single-locus models all stand and any record excludes the double effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .data import RegistryPath, check_name, read_records
from .errors import DomainError
from .gravity import CelestialBody, FieldPoint, parse_point_spec
from .spectra import ShiftModel, fractional_shift
from .units import positive_finite

__all__ = [
    "RECORD_FIELDS",
    "ExperimentRecord",
    "ComparisonReport",
    "ComparisonSummary",
    "double_effect_verdict",
    "load_registry",
]

#: the fields of an experiment registry record besides its name
RECORD_FIELDS = {"emit": str, "observe": str, "measured_ratio": float, "ratio_uncertainty": float}


@dataclass(frozen=True)
class ExperimentRecord:
    name: str
    emit: FieldPoint
    observe: FieldPoint
    measured_ratio: float
    ratio_uncertainty: float

    def __post_init__(self) -> None:
        check_name(self.name, "experiment")
        for field in ("measured_ratio", "ratio_uncertainty"):
            positive_finite(getattr(self, field), field)
        # refuses points that name different bodies or lie in the strong field
        if fractional_shift(ShiftModel.emitter, self.emit, self.observe) == 0.0:
            # a record that predicts no shift tests no model
            raise DomainError("emit and observe are at the same potential")


@dataclass(frozen=True)
class ComparisonReport:
    """One printed row of ``gravshift experiment``: a record against a model,
    one field per column, in print order; ``model`` is the model's name and
    ``verdict`` is "excluded" or "consistent"."""

    experiment: str
    model: str
    predicted_shift: float
    ratio: float
    ratio_uncertainty: float
    sigma: float
    verdict: str


@dataclass(frozen=True)
class ComparisonSummary:
    """The printed body of ``gravshift experiment``: every row, then the two
    verdicts the exit code is read from."""

    reports: tuple[ComparisonReport, ...]
    single_models_consistent: bool
    double_effect_excluded: bool


def double_effect_verdict(records: Sequence[ExperimentRecord],
                          threshold: float) -> ComparisonSummary:
    """Every record against every model, plus the overall double-effect verdict.

    Each report is the measured-over-predicted ratio test of one record
    against one model.  The double effect counts as excluded when any record
    excludes it at the threshold.
    """
    if not records:
        raise DomainError("experiment registry is empty")
    # NaN and infinity exclude nothing, and JSON has a token for neither
    positive_finite(threshold, "exclusion threshold")
    reports = []
    for record in records:
        single = fractional_shift(ShiftModel.emitter, record.emit, record.observe)
        for model in ShiftModel:
            predicted = fractional_shift(model, record.emit, record.observe)
            k = predicted / single
            ratio, unc = record.measured_ratio / k, record.ratio_uncertainty / k
            sigma = abs(ratio - 1.0) / unc if unc else math.inf
            if not math.isfinite(sigma):
                # an uncertainty divided down to 0 or a sigma past the float range
                raise DomainError(
                    f"record {record.name!r}: sigma of the {model.name} model is not finite "
                    f"(ratio {ratio:g}, uncertainty {unc:g})")
            reports.append(ComparisonReport(
                experiment=record.name,
                model=model.name,
                predicted_shift=predicted,
                ratio=ratio,
                ratio_uncertainty=unc,
                sigma=sigma,
                verdict="excluded" if sigma > threshold else "consistent",
            ))
    excluded = {ShiftModel[r.model] for r in reports if r.verdict == "excluded"}
    return ComparisonSummary(
        reports=tuple(reports),
        single_models_consistent=excluded <= {ShiftModel.double},
        double_effect_excluded=ShiftModel.double in excluded,
    )


# -- registry file -------------------------------------------------------


def load_registry(path: RegistryPath,
                  bodies: dict[str, CelestialBody]) -> list[ExperimentRecord]:
    """Read a registry file (see `gravshift.data`) of experiment records,
    parsing each one's emit and observe point specs against ``bodies``."""
    def record(name: str, emit: str, observe: str, **ratios: float) -> ExperimentRecord:
        return ExperimentRecord(name, parse_point_spec(emit, bodies, "emit"),
                                parse_point_spec(observe, bodies, "observe"), **ratios)
    return read_records(path, "experiment registry", "record", RECORD_FIELDS, record)
