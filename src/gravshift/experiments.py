"""Registry of shift measurements and the model-comparison harness.

Each record stores the measured shift as a ratio to the single-shift
prediction (the normalized form the measurements were published in), with a
one-sigma uncertainty.  Testing a single-locus model therefore reads the
ratio as-is; testing the double effect halves both the ratio and its
uncertainty (the measured shift is unchanged, the prediction doubles), which
is algebraically the same as sigma = |ratio - 2|/uncertainty.

A record is Consistent with a model when |ratio - 1| stays within the
exclusion threshold (default 5 sigma) and Excluded otherwise.  The shipped
registry holds the two tower measurements and the solar-line measurement;
the verdict of interest is whether any of them excludes the double effect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .data import data_file, read_entries
from .errors import ConfigurationError, RegistryError
from .gravity import CelestialBody, FieldPoint, PotentialField, potential
from .spectra import ShiftModel, fractional_shift
from .units import CONSTANTS, ConstantSet, Quantity

__all__ = [
    "TowerGeometry",
    "TwoPointGeometry",
    "ExperimentRecord",
    "Verdict",
    "ComparisonReport",
    "ComparisonSummary",
    "predict",
    "compare",
    "double_effect_verdict",
    "load_registry",
    "default_registry",
    "resolve_endpoints",
]


@dataclass(frozen=True)
class TowerGeometry:
    """Emitter at base altitude, observer height_m above it, one body."""

    body: str
    base_altitude_m: float
    height_m: float

    def __post_init__(self) -> None:
        if self.height_m <= 0.0:
            raise ConfigurationError("tower height must be positive")


@dataclass(frozen=True)
class TwoPointGeometry:
    """Explicit emit/observe points as (body name, radial distance m) pairs."""

    emit: tuple[tuple[str, float], ...]
    observe: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        for side, pairs in (("emit", self.emit), ("observe", self.observe)):
            if not pairs:
                raise ConfigurationError(f"{side} point needs at least one body distance")
        object.__setattr__(self, "emit", tuple((str(b), float(r)) for b, r in self.emit))
        object.__setattr__(self, "observe", tuple((str(b), float(r)) for b, r in self.observe))


Geometry = TowerGeometry | TwoPointGeometry


@dataclass(frozen=True)
class ExperimentRecord:
    name: str
    geometry: Geometry
    measured_ratio: float
    ratio_uncertainty: float
    citation: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("experiment name must be non-empty")
        if self.measured_ratio <= 0.0:
            raise ConfigurationError(
                f"{self.name}: measured ratio must be a positive magnitude"
            )
        if self.ratio_uncertainty <= 0.0:
            raise ConfigurationError(f"{self.name}: ratio uncertainty must be positive")


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
    threshold: float


@dataclass(frozen=True)
class ComparisonSummary:
    reports: tuple[ComparisonReport, ...]
    single_models_consistent: bool
    double_effect_excluded: bool
    threshold: float

    @property
    def ci_exit_code(self) -> int:
        return 0 if self.single_models_consistent and self.double_effect_excluded else 1


def resolve_endpoints(
    record: ExperimentRecord,
    bodies: dict[str, CelestialBody],
) -> tuple[PotentialField, FieldPoint, FieldPoint]:
    """Turn a record's geometry into a field plus emit/observe points."""
    geom = record.geometry
    if isinstance(geom, TowerGeometry):
        try:
            body = bodies[geom.body]
        except KeyError:
            raise ConfigurationError(
                f"{record.name}: unknown body {geom.body!r} in registry"
            ) from None
        field = PotentialField.of(body)
        emit = FieldPoint.at_altitude(body, geom.base_altitude_m, f"{record.name}:emit")
        obs = FieldPoint.at_altitude(
            body, geom.base_altitude_m + geom.height_m, f"{record.name}:observe"
        )
        return field, emit, obs
    names = {b for b, _ in geom.emit} | {b for b, _ in geom.observe}
    missing = sorted(n for n in names if n not in bodies)
    if missing:
        raise ConfigurationError(f"{record.name}: unknown bodies {missing} in registry")
    field = PotentialField.of(*(bodies[n] for n in sorted(names)))
    emit = FieldPoint.from_si(f"{record.name}:emit", dict(geom.emit))
    obs = FieldPoint.from_si(f"{record.name}:observe", dict(geom.observe))
    return field, emit, obs


def predict(record: ExperimentRecord, model: ShiftModel,
            bodies: dict[str, CelestialBody],
            constants: ConstantSet = CONSTANTS) -> Quantity:
    """Model's fractional shift for the record's endpoints (negative = red)."""
    field, emit, obs = resolve_endpoints(record, bodies)
    phi_emit = potential(field, emit)
    phi_obs = potential(field, obs)
    return fractional_shift(model, phi_emit, phi_obs, constants)


def compare(record: ExperimentRecord, model: ShiftModel,
            bodies: dict[str, CelestialBody],
            threshold: float = 5.0,
            constants: ConstantSet = CONSTANTS) -> ComparisonReport:
    """Measured-over-predicted ratio test of one record against one model."""
    if threshold <= 0.0:
        raise ConfigurationError("exclusion threshold must be positive")
    predicted = float(predict(record, model, bodies, constants))
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
        threshold=threshold,
    )


def double_effect_verdict(records: Sequence[ExperimentRecord],
                          bodies: dict[str, CelestialBody],
                          threshold: float = 5.0,
                          constants: ConstantSet = CONSTANTS) -> ComparisonSummary:
    """Every record against every model, plus the overall double-effect verdict.

    The double effect counts as excluded when any record excludes it at the
    configured threshold.
    """
    if not records:
        raise ConfigurationError("experiment registry is empty")
    reports = []
    for record in records:
        for model in ShiftModel:
            reports.append(compare(record, model, bodies, threshold, constants))
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


def _parse_point(pairs, where: str) -> tuple[tuple[str, float], ...]:
    if not isinstance(pairs, list):
        raise RegistryError(f"{where}: expected an array of {{body, r_m}} objects")
    out = []
    for k, item in enumerate(pairs):
        if not isinstance(item, dict) or "body" not in item or "r_m" not in item:
            raise RegistryError(f"{where}[{k}]: expected an object with 'body' and 'r_m'")
        out.append((str(item["body"]), float(item["r_m"])))
    return tuple(out)


def _parse_geometry(raw, where: str) -> Geometry:
    if not isinstance(raw, dict) or "type" not in raw:
        raise RegistryError(f"{where}: geometry must be an object with a 'type' field")
    kind = raw["type"]
    try:
        if kind == "tower":
            return TowerGeometry(
                body=str(raw["body"]),
                base_altitude_m=float(raw.get("base_altitude_m", 0.0)),
                height_m=float(raw["height_m"]),
            )
        if kind == "two_point":
            return TwoPointGeometry(
                emit=_parse_point(raw["emit"], f"{where}.emit"),
                observe=_parse_point(raw["observe"], f"{where}.observe"),
            )
    except KeyError as exc:
        raise RegistryError(f"{where}: missing geometry field {exc.args[0]!r}") from None
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise RegistryError(f"{where}: {exc}") from None
    raise RegistryError(f"{where}: unknown geometry type {kind!r}")


def load_registry(path: str | Path) -> list[ExperimentRecord]:
    """Read and validate a JSON array of experiment records."""
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
        geometry = _parse_geometry(entry["geometry"], f"{where} ({name}) geometry")
        try:
            record = ExperimentRecord(
                name=name,
                geometry=geometry,
                measured_ratio=float(entry["measured_ratio"]),
                ratio_uncertainty=float(entry["ratio_uncertainty"]),
                citation=str(entry.get("citation", "")),
            )
        except (TypeError, ValueError, ConfigurationError) as exc:
            raise RegistryError(f"{where} ({name}): {exc}") from None
        records.append(record)
    return records


def default_registry() -> list[ExperimentRecord]:
    """Packaged records, overridable via GRAVSHIFT_DATA_DIR."""
    return load_registry(data_file("experiments.json"))
