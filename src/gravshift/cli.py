"""Command-line front end binding all modules.

Subcommands: constants, potential, spectrum, shift, photon, experiment.
Output is deterministic for fixed inputs and registry files; JSON mode prints
floats with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from fractions import Fraction

from . import experiments as experiments_mod
from .data import data_file
from .errors import DomainError, GravshiftError
from .gravity import BODY_FIELDS, FieldPoint, load_bodies, lookup_body, parse_point_spec
from .photon import RayResult, trace_ray
from .spectra import (
    QuantumState,
    ShiftModel,
    effective_mass,
    fractional_shift,
    level_energy,
    states_for_n,
)
from .units import CONSTANTS, MASS, POTENTIAL, Quantity, positive_finite

EXIT_OK = 0
EXIT_FAILURE = 1
#: Most rays one sweep traces: a ray takes about 1.4 ms at --tol 1e-6, 3.2 ms at
#: 1e-10 and 5.5 ms at 1e-12 on one Xeon core, so 15 s to a minute of tracing.
#: COUNT above it is refused before any b value is built.
MAX_SWEEP_RAYS = 10_000
#: Most states one spectrum lists (about --n-range 1:446, seconds of work); a
#: range above it is refused before any state is built.
MAX_STATES = 100_000


def _silence(stream) -> None:
    """Point a stream whose reader has gone at devnull, so that what it still
    buffers, and anything later written to it, is dropped quietly."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _print_error(message: str, end: str = "\n") -> None:
    """Print a refusal to stderr; a closed stderr drops it, so that a command
    goes on to print its rows and its exit code stays the refusal's."""
    try:
        print(message, end=end, file=sys.stderr, flush=True)
    except BrokenPipeError:
        _silence(sys.stderr)


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
    if isinstance(obj, dict):
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
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(row[c]) for c in columns] for row in rows)
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


def _schema(fields) -> str:
    """The keys of a registry record, its name and then ``fields``, as help text."""
    return "{" + ", ".join(["name", *fields]) + "}"


def _add_format(parser, default: str) -> None:
    parser.add_argument("--format", choices=["json", "csv", "text"], default=default,
                        help=f"output format (default: {default})")


# -- subcommands ---------------------------------------------------------


def _cmd_constants(args) -> int:
    print(_format_json(dataclasses.asdict(CONSTANTS)))
    return EXIT_OK


def _cmd_potential(args) -> int:
    bodies = load_bodies(args.bodies)
    rows = []
    for spec in args.at:
        phi = parse_point_spec(spec, bodies).phi
        rows.append({
            "point": spec,
            "phi_m2_s2": phi.value,
            "phi_over_c2": phi.value / CONSTANTS.c_squared,
        })
    _emit_rows(["point", "phi_m2_s2", "phi_over_c2"], rows, args.format)
    return EXIT_OK


def _parse_states(args) -> list[QuantumState]:
    if args.states is not None:
        states = []
        for chunk in args.states.split(","):
            np_txt, sep, j_txt = chunk.partition(":")
            if not sep:
                raise DomainError(f"bad state {chunk!r}: expected N_PRIME:J (e.g. 0:1/2)")
            try:
                n_prime = int(np_txt)
                j = float(Fraction(j_txt))
            except (ValueError, ZeroDivisionError, OverflowError):
                raise DomainError(f"bad state {chunk!r}") from None
            states.append(QuantumState(args.z, n_prime, j))
        return states
    lo_txt, sep, hi_txt = args.n_range.partition(":")
    try:
        lo = int(lo_txt)
        hi = int(hi_txt) if sep else lo
    except ValueError:
        raise DomainError(f"bad --n-range {args.n_range!r}: expected LO:HI") from None
    if lo < 1 or hi < lo:
        raise DomainError(f"bad --n-range {args.n_range!r}")
    # principal number n holds n states, so LO:HI holds HI(HI+1)/2 - (LO-1)LO/2
    if (hi * (hi + 1) - (lo - 1) * lo) // 2 > MAX_STATES:
        raise DomainError(f"bad --n-range {args.n_range!r}: more than {MAX_STATES} states")
    states = []
    for n in range(lo, hi + 1):
        states.extend(states_for_n(args.z, n))
    return states


def _cmd_spectrum(args) -> int:
    states = _parse_states(args)
    # named here, as Quantity's own refusal of NaN would not name the mass
    positive_finite(args.emitter_mass_kg, "emitter rest mass")
    rest_mass = Quantity(args.emitter_mass_kg, MASS)
    if args.at is not None:
        phi = parse_point_spec(args.at, load_bodies(args.bodies)).phi
    else:
        phi = Quantity(0.0, POTENTIAL)
    m_eff = effective_mass(rest_mass, phi)
    # E is linear in the mass, so every level moves by -dm/m = phi/c^2 of itself
    shift = phi.value / CONSTANTS.c_squared
    rows = []
    for state in states:
        energy = level_energy(state, m_eff).value
        rows.append({
            "state": state.label(),
            "E_eV": energy / CONSTANTS.eV,
            "nu_Hz": energy / CONSTANTS.h,
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
        raise DomainError(f"give exactly one of --{side}, --{side}-alt, --{side}-r-m")
    if spec is not None:
        return parse_point_spec(spec, bodies, label=side)
    if args.body is None:
        raise DomainError(f"--{side}-alt/--{side}-r-m need --body")
    body = lookup_body(bodies, args.body)
    return FieldPoint(side, ((body, body.radius_m + alt if alt is not None else r_m),))


def _cmd_shift(args) -> int:
    bodies = load_bodies(args.bodies)
    emit = _shift_point(args, "emit", bodies)
    obs = _shift_point(args, "obs", bodies)
    shift = fractional_shift(ShiftModel[args.model], emit, obs)
    _emit_record({
        "model": args.model,
        "phi_emit_m2_s2": emit.phi.value,
        "phi_obs_m2_s2": obs.phi.value,
        "fractional_shift": shift,
    }, args.format)
    return EXIT_OK


def _parse_sweep(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"bad sweep {text!r}: expected MIN:MAX:COUNT")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"bad sweep {text!r}") from None
    if count < 2 or hi <= lo:
        raise DomainError(f"bad sweep {text!r}: need MAX > MIN and COUNT >= 2")
    if count > MAX_SWEEP_RAYS:
        raise DomainError(f"bad sweep {text!r}: COUNT above {MAX_SWEEP_RAYS}")
    return lo, hi, count


def _cmd_photon(args) -> int:
    body = lookup_body(load_bodies(args.bodies), args.body)
    radius = body.radius_m
    sweep = args.sweep_m if args.sweep_m is not None else args.sweep_radii
    if sweep is not None:
        lo, hi, count = _parse_sweep(sweep)
        unit = 1.0 if args.sweep_m is not None else radius
        step = (hi - lo) / (count - 1)
        b_values = [(lo + i * step) * unit for i in range(count)]
        rows, refused = [], 0
        for b in b_values:
            try:
                ray = trace_ray(body, b, args.term_factor, args.tol)
                rows.append({"b_m": b, **dataclasses.asdict(ray)})
            except GravshiftError as exc:
                # keep the rays that trace; name each refused b on stderr
                _print_error(f"error: b_m {_fmt(b)}: {exc}")
                refused += 1
        columns = ["b_m", *(f.name for f in dataclasses.fields(RayResult))]
        _emit_rows(columns, rows, args.format)
        return EXIT_FAILURE if refused else EXIT_OK
    b_m = args.b_m if args.b_m is not None else args.b_radii * radius
    ray = trace_ray(body, b_m, args.term_factor, args.tol)
    _emit_record(dataclasses.asdict(ray), args.format)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    records = experiments_mod.load_registry(args.registry, load_bodies(args.bodies))
    summary = experiments_mod.double_effect_verdict(records, args.threshold)
    code = EXIT_OK if summary.single_models_consistent and summary.double_effect_excluded \
        else EXIT_FAILURE
    if args.report == "json":
        print(_format_json({"threshold": args.threshold, **dataclasses.asdict(summary),
                            "exit_code": code}))
    else:
        _emit_rows([f.name for f in dataclasses.fields(experiments_mod.ComparisonReport)],
                   [dataclasses.asdict(r) for r in summary.reports], "text")
        print()
        print(f"single-locus models consistent: {'yes' if summary.single_models_consistent else 'no'}")
        excl = "EXCLUDED" if summary.double_effect_excluded else "not excluded"
        print(f"double effect: {excl} at threshold {_fmt(args.threshold)} sigma")
    return code


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravshift",
        description="Gravitational line-shift models, spectra and experiment comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand that reads a body registry takes its path from this one flag
    with_bodies = argparse.ArgumentParser(add_help=False)
    with_bodies.add_argument("--bodies", default=data_file("bodies.json"),
                             help=f"body registry: a JSON array of {_schema(BODY_FIELDS)} "
                                  "objects (default: the packaged bodies.json)")

    p = sub.add_parser("constants", help="dump the constant set as flat JSON")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("potential", parents=[with_bodies],
                       help="potential at one or more field points")
    p.add_argument("--at", action="append", required=True, metavar="SPEC",
                   help="point spec 'body:ALT_m' or 'body:r=R_m'; superpose with '+'")
    _add_format(p, "text")
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("spectrum", parents=[with_bodies],
                       help="fine-structure levels at a potential")
    p.add_argument("--z", type=int, default=1,
                   help="nuclear charge, 1 <= Z <= 137 (alpha*Z < 1; default 1)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--states", metavar="LIST",
                       help="comma list of N_PRIME:J states, e.g. '0:1/2,1:1/2'")
    group.add_argument("--n-range", metavar="LO:HI",
                       help="all states with principal number in the range")
    p.add_argument("--at", metavar="SPEC", help="emitter location (default: free, phi = 0)")
    p.add_argument("--emitter-mass-kg", type=float, default=CONSTANTS.m_electron,
                   help="emitter rest mass (default: electron)")
    _add_format(p, "csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("shift", parents=[with_bodies],
                       help="fractional line shift between two points")
    p.add_argument("--model", choices=sorted(ShiftModel.__members__), required=True,
                   help="shift model, by its couplings (k_e, k_p) of the emitter's mass and "
                        "the photon to the potential: emitter (1, 0), photon (0, 1), double "
                        "(1, 1); each prints (k_e + k_p)(phi_emit - phi_obs)/c^2, first order.  "
                        "The emitter model's exact ratio nu_emit/nu_obs - 1, which spectrum "
                        "implies, divides that by 1 + phi_obs/c^2: 1.06e-8 relative at Snider")
    p.add_argument("--body", help="body for --emit-alt/--obs-alt/--*-r-m forms")
    p.add_argument("--emit", metavar="SPEC", help="emission point spec")
    p.add_argument("--obs", metavar="SPEC", help="observation point spec")
    p.add_argument("--emit-alt", type=float,
                   help="emission altitude above --body radius (m); radius + altitude "
                        "is rounded to a float once, and the shift is exact for it")
    p.add_argument("--obs-alt", type=float,
                   help="observation altitude above --body radius (m), rounded the "
                        "same way")
    p.add_argument("--emit-r-m", type=float, help="emission radial distance from --body (m)")
    p.add_argument("--obs-r-m", type=float, help="observation radial distance from --body (m)")
    _add_format(p, "text")
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("photon", parents=[with_bodies],
                       help="trace a ray past a body (graded-index bending)")
    p.add_argument("--body", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--b-m", type=float, help="impact parameter (m)")
    group.add_argument("--b-radii", type=float, help="impact parameter (body radii)")
    group.add_argument("--sweep-m", metavar="MIN:MAX:COUNT", help="sweep b (m)")
    group.add_argument("--sweep-radii", metavar="MIN:MAX:COUNT", help="sweep b in body radii")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="integrator relative tolerance in [1e-12, 1e-6] (default 1e-10); "
                        "the deflection is within tol * |bend| of the exact bend "
                        "inside the termination circle")
    p.add_argument("--term-factor", type=float, default=200.0,
                   help="termination radius as a multiple of b, in [10, 200] (default "
                        "200); the printed deflection is the bend inside that circle, "
                        "short of the asymptotic 2GM/(b c^2) by about 1/(2 factor^2) "
                        "relative (0.50%% at 10, 1.25e-5 at 200)")
    _add_format(p, "json")
    p.set_defaults(func=_cmd_photon)

    p = sub.add_parser("experiment", parents=[with_bodies],
                       help="compare all models against the registry")
    p.add_argument("--registry", default=data_file("experiments.json"),
                   help="experiment registry: a JSON array of "
                        f"{_schema(experiments_mod.RECORD_FIELDS)} objects, where emit and "
                        "observe are point specs as for potential --at, e.g. "
                        "\"earth:22.5\" (default: the packaged experiments.json)")
    p.add_argument("--threshold", type=float, default=5.0,
                   help="exclusion threshold in sigma (default 5)")
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        finally:
            # on every path, argparse's exit too: it ignores a failed write of
            # its help to a closed stdout, or of its usage error to a closed
            # stderr, but keeps it buffered, and the flush at exit would fail
            _print_error("", end="")
            sys.stdout.flush()
    except GravshiftError as exc:
        _print_error(f"error: {exc}")
        return EXIT_FAILURE
    except BrokenPipeError:
        # stdout's reader closed early (stderr's refusals never raise this);
        # drop what is still buffered so the flush at exit stays silent
        _silence(sys.stdout)
        return EXIT_FAILURE
