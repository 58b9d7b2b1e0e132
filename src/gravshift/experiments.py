"""Registry of shift measurements and the model-comparison harness.

Each record stores the measured shift as a ratio to the single-shift
prediction (the normalized form the measurements were published in), with a
one-sigma uncertainty.  A model with couplings (k_e, k_p) predicts
k = k_e + k_p times the single shift, so each of its rows divides the ratio
and its uncertainty by k.

A record holds its emit and observe points.  A registry file gives each as
a point spec string, as for the CLI's ``--at`` (``"earth:0"``,
``"sun:r=1.495978707e11+earth:0"``); the loader parses both against the body
registry when it reads the file, so every failure of a record is reported
there, with the file, the record's index and its name.  Built, a record
refuses points that name different bodies, lie in the strong field or sit
at one potential (no shift, so it tests no model); the comparison refuses
only an empty registry, a bad threshold and a sigma that is not finite.

A record excludes a model when sigma = |ratio - 1|/uncertainty, of the
divided ratio and uncertainty, exceeds the exclusion threshold; a sigma that
is not a finite float is refused.  Every record is tested against every
model in one table.  The shipped registry holds the two tower measurements
and the solar-line measurement; the verdict of interest is whether the
single-locus models all stand and any record excludes the double effect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .data import check_name, number, read_records
from .errors import ConfigurationError, GravshiftError, RegistryError
from .gravity import CelestialBody, FieldPoint, parse_point_spec
from .spectra import ShiftModel, fractional_shift

__all__ = [
    "ExperimentRecord",
    "ComparisonReport",
    "ComparisonSummary",
    "double_effect_verdict",
    "load_registry",
]


@dataclass(frozen=True)
class ExperimentRecord:
    name: str
    emit: FieldPoint
    observe: FieldPoint
    measured_ratio: float
    ratio_uncertainty: float

    def __post_init__(self) -> None:
        check_name(self.name, "experiment")
        if not (math.isfinite(self.measured_ratio)
                and math.isfinite(self.ratio_uncertainty)):
            raise ConfigurationError("measured ratio and its uncertainty must be finite")
        if self.measured_ratio <= 0.0:
            raise ConfigurationError("measured ratio must be a positive magnitude")
        if self.ratio_uncertainty <= 0.0:
            raise ConfigurationError("ratio uncertainty must be positive")
        # refuses points that name different bodies or lie in the strong field
        if fractional_shift(ShiftModel.emitter, self.emit, self.observe) == 0.0:
            # a record that predicts no shift tests no model
            raise ConfigurationError("emit and observe are at the same potential")


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
        raise ConfigurationError("experiment registry is empty")
    # NaN and infinity exclude nothing, and JSON has a token for neither
    if not 0.0 < threshold < math.inf:
        raise ConfigurationError("exclusion threshold must be positive and finite")
    reports = []
    for record in records:
        single = fractional_shift(ShiftModel.emitter, record.emit, record.observe)
        for model in ShiftModel:
            k = model.k_e + model.k_p
            ratio, unc = record.measured_ratio / k, record.ratio_uncertainty / k
            sigma = abs(ratio - 1.0) / unc if unc else math.inf
            if not math.isfinite(sigma):
                # an uncertainty divided down to 0 or a sigma past the float range
                raise ConfigurationError(
                    f"record {record.name!r}: sigma of the {model.name} model is not finite "
                    f"(ratio {ratio:g}, uncertainty {unc:g})")
            reports.append(ComparisonReport(
                experiment=record.name,
                model=model.name,
                predicted_shift=k * single,
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


def load_registry(path: str | Path,
                  bodies: dict[str, CelestialBody]) -> list[ExperimentRecord]:
    """Read a registry file (see `gravshift.data`) of experiment records.

    Each record's emit and observe point specs are parsed against ``bodies``.
    """
    records: list[ExperimentRecord] = []
    for where, entry in read_records(path, "experiment registry", "record",
                                     ("emit", "observe", "measured_ratio", "ratio_uncertainty")):
        name = entry["name"]
        try:
            points = []
            for side in ("emit", "observe"):
                spec = entry[side]
                if not isinstance(spec, str):
                    raise ConfigurationError(
                        f"{side} must be a point spec string, got {json.dumps(spec)}")
                points.append(parse_point_spec(spec, bodies, f"{name}:{side}"))
            records.append(ExperimentRecord(
                name, *points,
                measured_ratio=number(entry["measured_ratio"], "measured_ratio"),
                ratio_uncertainty=number(entry["ratio_uncertainty"], "ratio_uncertainty"),
            ))
        except GravshiftError as exc:
            raise RegistryError(f"{where} ({name}): {exc}") from None
    return records
