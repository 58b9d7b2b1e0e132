"""Command-line front end binding all modules.

Subcommands: constants, potential, spectrum, shift, photon, experiment.
Output is deterministic for fixed inputs and registry files; JSON mode prints
floats with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import experiments as experiments_mod
from .data import ENV_DATA_DIR
from .errors import ConfigurationError, GravshiftError
from .gravity import (
    CelestialBody,
    FieldPoint,
    PotentialField,
    default_bodies,
    load_bodies,
    potential,
)
from .photon import impact_parameter_ray, trace_ray
from .spectra import (
    Emitter,
    QuantumState,
    ShiftModel,
    effective_mass,
    fractional_shift,
    level_energy,
    states_for_n,
)
from .units import CONSTANTS, kilograms, potential_m2_s2

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_MODEL_NAMES = {m.value: m for m in ShiftModel}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _format_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {_format_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_format_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _cell(value) -> str:
    return _fmt(value) if isinstance(value, float) else str(value)


def _emit_rows(columns: list[str], rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        print(_format_json(rows))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
        sys.stdout.write(buf.getvalue())
    else:
        cells = [[_cell(row[c]) for c in columns] for row in rows]
        widths = [max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
                  for i, col in enumerate(columns)]
        print("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip())
        for r in cells:
            print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def _emit_record(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(_format_json(record))
    elif fmt == "csv":
        _emit_rows(list(record.keys()), [record], "csv")
    else:
        width = max(len(k) for k in record)
        for key, value in record.items():
            print(f"{key.ljust(width)}  {_cell(value)}")


# -- shared argument plumbing -------------------------------------------


def _registry(args) -> dict[str, CelestialBody]:
    return load_bodies(args.bodies) if args.bodies else default_bodies()


def parse_point_spec(spec: str, bodies: dict[str, CelestialBody],
                     label: str | None = None) -> FieldPoint:
    """Parse 'body:ALT_m' / 'body:r=R_m' point specs, superposed with '+'."""
    distances: dict[str, float] = {}
    for part in spec.split("+"):
        name, sep, rest = part.partition(":")
        if not sep or not rest:
            raise ConfigurationError(
                f"bad point spec {part!r}: expected 'body:ALT_m' or 'body:r=R_m'"
            )
        if name not in bodies:
            raise ConfigurationError(f"unknown body {name!r} in point spec {spec!r}")
        if name in distances:
            raise ConfigurationError(f"body {name!r} repeated in point spec {spec!r}")
        try:
            if rest.startswith("r="):
                r = float(rest[2:])
            else:
                r = bodies[name].radius.value + float(rest)
        except ValueError:
            raise ConfigurationError(f"bad distance in point spec {part!r}") from None
        distances[name] = r
    return FieldPoint.from_si(label or spec, distances)


def _field_for(points: list[FieldPoint], bodies: dict[str, CelestialBody]) -> PotentialField:
    names = sorted({n for p in points for n in p.distances})
    return PotentialField.of(*(bodies[n] for n in names))


def _add_format(parser, default: str, choices=("json", "csv", "text")) -> None:
    parser.add_argument("--format", choices=list(choices), default=default,
                        help=f"output format (default: {default})")


# -- subcommands ---------------------------------------------------------


def _cmd_constants(args) -> int:
    print(_format_json(CONSTANTS.as_si_dict()))
    return EXIT_OK


def _cmd_potential(args) -> int:
    bodies = _registry(args)
    rows = []
    for spec in args.at:
        point = parse_point_spec(spec, bodies)
        field = _field_for([point], bodies)
        phi = potential(field, point)
        rows.append({
            "point": spec,
            "phi_m2_s2": phi.value,
            "phi_over_c2": float(phi / CONSTANTS.c_squared),
        })
    _emit_rows(["point", "phi_m2_s2", "phi_over_c2"], rows, args.format)
    return EXIT_OK


def _parse_states(args) -> list[QuantumState]:
    if args.states:
        states = []
        for chunk in args.states.split(","):
            np_txt, sep, j_txt = chunk.partition(":")
            if not sep:
                raise ConfigurationError(
                    f"bad state {chunk!r}: expected N_PRIME:J (e.g. 0:1/2)"
                )
            try:
                n_prime = int(np_txt)
                j = float(Fraction(j_txt))
            except (ValueError, ZeroDivisionError):
                raise ConfigurationError(f"bad state {chunk!r}") from None
            states.append(QuantumState.from_radial(args.z, n_prime, j))
        return states
    lo_txt, sep, hi_txt = args.n_range.partition(":")
    try:
        lo = int(lo_txt)
        hi = int(hi_txt) if sep else lo
    except ValueError:
        raise ConfigurationError(f"bad --n-range {args.n_range!r}: expected LO:HI") from None
    if lo < 1 or hi < lo:
        raise ConfigurationError(f"bad --n-range {args.n_range!r}")
    states = []
    for n in range(lo, hi + 1):
        states.extend(states_for_n(args.z, n))
    return states


def _cmd_spectrum(args) -> int:
    states = _parse_states(args)
    emitter = Emitter(kilograms(args.emitter_mass_kg)) if args.emitter_mass_kg \
        else Emitter.electron()
    if args.at:
        bodies = _registry(args)
        point = parse_point_spec(args.at, bodies)
        phi = potential(_field_for([point], bodies), point)
    else:
        phi = potential_m2_s2(0.0)
    m_eff = effective_mass(emitter, phi)
    m_free = effective_mass(emitter, potential_m2_s2(0.0))
    rows = []
    for state in states:
        energy = level_energy(state, m_eff)
        free_energy = level_energy(state, m_free)
        shift = (energy.value - free_energy.value) / free_energy.value
        rows.append({
            "state": state.label(),
            "E_eV": float(energy / CONSTANTS.eV),
            "nu_Hz": float((energy / CONSTANTS.h).value),
            "shift_fractional": shift,
        })
    _emit_rows(["state", "E_eV", "nu_Hz", "shift_fractional"], rows, args.format)
    return EXIT_OK


def _shift_point(args, side: str, bodies) -> FieldPoint:
    spec = getattr(args, side)
    alt = getattr(args, f"{side}_alt")
    r_m = getattr(args, f"{side}_r_m")
    given = [x is not None for x in (spec, alt, r_m)]
    if sum(given) != 1:
        raise ConfigurationError(
            f"give exactly one of --{side}, --{side}-alt, --{side}-r-m"
        )
    if spec is not None:
        return parse_point_spec(spec, bodies, label=side)
    if args.body is None:
        raise ConfigurationError(f"--{side}-alt/--{side}-r-m need --body")
    if args.body not in bodies:
        raise ConfigurationError(f"unknown body {args.body!r}")
    body = bodies[args.body]
    if alt is not None:
        return FieldPoint.at_altitude(body, alt, label=side)
    return FieldPoint.from_si(side, {body.name: r_m})


def _cmd_shift(args) -> int:
    bodies = _registry(args)
    emit = _shift_point(args, "emit", bodies)
    obs = _shift_point(args, "obs", bodies)
    field = _field_for([emit, obs], bodies)
    phi_emit = potential(field, emit)
    phi_obs = potential(field, obs)
    model = _MODEL_NAMES[args.model]
    shift = fractional_shift(model, phi_emit, phi_obs)
    _emit_record({
        "model": args.model,
        "phi_emit_m2_s2": phi_emit.value,
        "phi_obs_m2_s2": phi_obs.value,
        "fractional_shift": float(shift),
    }, args.format)
    return EXIT_OK


def _trace_record(body, b_m: float, args) -> dict:
    path = impact_parameter_ray(body, b_m, termination_factor=args.term_factor)
    result = trace_ray(path, rel_tol=args.tol)
    return {
        "b_m": b_m,
        "deflection_rad": result.deflection_rad,
        "deflection_arcsec": result.deflection_arcsec,
        "transit_time_s": result.transit_time_s,
        "time_excess_s": result.time_excess_s,
        "closest_approach_m": result.closest_approach_m,
    }


def _parse_sweep(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"bad sweep {text!r}: expected MIN:MAX:COUNT")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigurationError(f"bad sweep {text!r}") from None
    if count < 2 or hi <= lo:
        raise ConfigurationError(f"bad sweep {text!r}: need MAX > MIN and COUNT >= 2")
    return lo, hi, count


def _cmd_photon(args) -> int:
    bodies = _registry(args)
    if args.body not in bodies:
        raise ConfigurationError(f"unknown body {args.body!r}")
    body = bodies[args.body]
    radius = body.radius.value
    sweep = args.sweep_m or args.sweep_radii
    if sweep:
        lo, hi, count = _parse_sweep(sweep)
        unit = 1.0 if args.sweep_m else radius
        step = (hi - lo) / (count - 1)
        b_values = [(lo + i * step) * unit for i in range(count)]
        rows = [_trace_record(body, b, args) for b in b_values]
        columns = ["b_m", "deflection_rad", "deflection_arcsec", "transit_time_s",
                   "time_excess_s", "closest_approach_m"]
        _emit_rows(columns, rows, args.format)
        return EXIT_OK
    b_m = args.b_m if args.b_m is not None else args.b_radii * radius
    record = _trace_record(body, b_m, args)
    del record["b_m"]
    _emit_record(record, args.format)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    bodies = _registry(args)
    if args.registry == "default":
        records = experiments_mod.default_registry()
    else:
        records = experiments_mod.load_registry(args.registry)
    summary = experiments_mod.double_effect_verdict(records, bodies, args.threshold)
    rows = [{
        "experiment": r.experiment,
        "model": r.model.value,
        "predicted_shift": r.predicted_shift,
        "ratio": r.ratio,
        "ratio_uncertainty": r.ratio_uncertainty,
        "sigma": r.sigma,
        "verdict": r.verdict.value,
    } for r in summary.reports]
    if args.report == "json":
        print(_format_json({
            "threshold": summary.threshold,
            "reports": rows,
            "single_models_consistent": summary.single_models_consistent,
            "double_effect_excluded": summary.double_effect_excluded,
            "exit_code": summary.ci_exit_code,
        }))
    else:
        columns = ["experiment", "model", "predicted_shift", "ratio",
                   "ratio_uncertainty", "sigma", "verdict"]
        _emit_rows(columns, rows, "text")
        print()
        print(f"single-locus models consistent: {'yes' if summary.single_models_consistent else 'no'}")
        excl = "EXCLUDED" if summary.double_effect_excluded else "not excluded"
        print(f"double effect: {excl} at threshold {_fmt(summary.threshold)} sigma")
    return summary.ci_exit_code


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravshift",
        description="Gravitational line-shift models, spectra and experiment comparisons.",
        epilog=f"Set {ENV_DATA_DIR} to override the directory holding "
               "bodies.json and experiments.json.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="dump the constant set as flat JSON")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("potential", help="potential at one or more field points")
    p.add_argument("--at", action="append", required=True, metavar="SPEC",
                   help="point spec 'body:ALT_m' or 'body:r=R_m'; superpose with '+'")
    p.add_argument("--bodies", help="body registry JSON (default: packaged)")
    _add_format(p, "text")
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("spectrum", help="fine-structure levels at a potential")
    p.add_argument("--z", type=int, default=1, help="nuclear charge (default 1)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--states", metavar="LIST",
                       help="comma list of N_PRIME:J states, e.g. '0:1/2,1:1/2'")
    group.add_argument("--n-range", metavar="LO:HI",
                       help="all states with principal number in the range")
    p.add_argument("--at", metavar="SPEC", help="emitter location (default: free, phi = 0)")
    p.add_argument("--emitter-mass-kg", type=float, default=None,
                   help="emitter rest mass (default: electron)")
    p.add_argument("--bodies", help="body registry JSON (default: packaged)")
    _add_format(p, "csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("shift", help="fractional line shift between two points")
    p.add_argument("--model", choices=sorted(_MODEL_NAMES), required=True)
    p.add_argument("--body", help="body for --emit-alt/--obs-alt/--*-r-m forms")
    p.add_argument("--emit", metavar="SPEC", help="emission point spec")
    p.add_argument("--obs", metavar="SPEC", help="observation point spec")
    p.add_argument("--emit-alt", type=float, help="emission altitude above --body radius (m)")
    p.add_argument("--obs-alt", type=float, help="observation altitude above --body radius (m)")
    p.add_argument("--emit-r-m", type=float, help="emission radial distance from --body (m)")
    p.add_argument("--obs-r-m", type=float, help="observation radial distance from --body (m)")
    p.add_argument("--bodies", help="body registry JSON (default: packaged)")
    _add_format(p, "text")
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("photon", help="trace a ray past a body (graded-index bending)")
    p.add_argument("--body", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--b-m", type=float, help="impact parameter (m)")
    group.add_argument("--b-radii", type=float, help="impact parameter (body radii)")
    group.add_argument("--sweep-m", metavar="MIN:MAX:COUNT", help="sweep b in metres, CSV out")
    group.add_argument("--sweep-radii", metavar="MIN:MAX:COUNT", help="sweep b in body radii")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="integrator relative tolerance in [1e-12, 1e-6] (default 1e-10)")
    p.add_argument("--term-factor", type=float, default=200.0,
                   help="termination radius as a multiple of b, in [10, 200] (default 200)")
    p.add_argument("--bodies", help="body registry JSON (default: packaged)")
    _add_format(p, "json")
    p.set_defaults(func=_cmd_photon)

    p = sub.add_parser("experiment", help="compare all models against the registry")
    p.add_argument("--registry", default="default",
                   help="experiment registry JSON, or 'default' for the packaged one")
    p.add_argument("--threshold", type=float, default=5.0,
                   help="exclusion threshold in sigma (default 5)")
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.add_argument("--bodies", help="body registry JSON (default: packaged)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GravshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
