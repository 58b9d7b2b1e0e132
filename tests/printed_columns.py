"""Every column the CLI prints, each held to its one oracle.

COLUMNS maps each subcommand's printed columns, in print order, to an
oracle from ``oracles`` with its allowance, or to LABEL for a column that
names its row.  check_stdout parses the stdout of any argv in any --format
and holds every printed value to its entry.  A column with no entry fails,
so a new printed value cannot land unchecked.

The rows a run should print are rebuilt from its argv alone, with each float
formed as the CLI forms it: a point spec 'body:ALT_m' lies at R + ALT and
'body:r=R_m' at R, and a value is read with ``float``.  ``bodies`` maps each
body name to its (mass_kg, radius_m).

A label column must equal the name its row is rebuilt with; an oracle is a
function (row, printed) -> (expected, allowance) of the rebuilt row and the
printed one.  A number passes when it lies within the allowance of the
expected value; a string or a boolean must be equal.
"""

import csv
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

from gravshift.data import data_file

import oracles

LABEL = None

#: each model's couplings (k_e, k_p) to the potential, of the emitter's mass
#: and of the photon, in the order the experiment table prints the models;
#: a model predicts k_e + k_p times the single shift
COUPLINGS = {"emitter": (1, 0), "photon": (0, 1), "double": (1, 1)}

#: 180 * 3600 / pi, arcseconds per radian
ARCSEC_PER_RAD = 206264.80624709636


def near(exact, ulps, scale=None):
    """``exact`` rounded once, within ``ulps`` ulps of it (or of ``scale``)."""
    value = float(exact)
    return value, ulps * math.ulp(value if scale is None else scale)


def relative(exact, rel):
    value = float(exact)
    return value, rel * abs(value)


def literal(value):
    return lambda row, printed: (value, 0)


def potential_m2_s2(pairs):
    """-sum G*M/r, within 1 ulp per body acting at the point."""
    return near(oracles.potential_exact(pairs), len(pairs))


def first_order_shift(row, printed):
    """(phi_emit - phi_obs)/c^2 times the model's k_e + k_p, within 8 ulps of
    the sum of its per-body magnitudes."""
    exact, scale = oracles.fractional_shift_exact(row["terms"])
    k = sum(COUPLINGS[row["model"]])
    return k * exact, 8 * math.ulp(k * scale)


def level(unit):
    """A level energy in ``unit``: within 8 ulps where phi/c^2 = x is small.
    The rounding of G*M enters m*(1 + x) amplified by |x|/(1 + x), so the
    allowance grows with it near x = -1."""
    return lambda row, printed: near(row["energy"] / Fraction(unit), 8 * (1 + row["gain"]))


def ray(row):
    """(delta_R, r_min, excess, chord time) of the closed-form ray, computed once per row."""
    if "ray" not in row:
        delta, r_min, excess = oracles.bent_ray_closed_form(row["mu"], row["b"], row["r_term"])
        row["ray"] = delta, r_min, excess, oracles.chord_time(row["b"], row["r_term"], delta)
    return row["ray"]


def transit_time(row, printed):
    """The chord time plus the excess, within 8 ulps and tol of the excess."""
    delta, _, excess, chord = ray(row)
    transit = chord + excess
    return transit, 8 * math.ulp(transit) + row["tol"] * excess


def verdict(row, printed):
    return "excluded" if float(printed["sigma"]) > row["threshold"] else "consistent", 0


COLUMNS = {
    "constants": {
        "G": literal(oracles.G),
        "c": literal(oracles.C),
        "h": literal(oracles.H),
        "hbar": literal(oracles.HBAR),
        "alpha": literal(oracles.ALPHA),
        "m_electron": literal(oracles.M_ELECTRON),
        "eV": literal(oracles.EV),
    },
    "potential": {
        "point": LABEL,
        "phi_m2_s2": lambda row, printed: potential_m2_s2(row["pairs"]),
        "phi_over_c2": lambda row, printed: near(
            oracles.potential_exact(row["pairs"]) / Fraction(oracles.C) ** 2, 4),
    },
    "spectrum": {
        "state": LABEL,
        "E_eV": level(oracles.EV),
        "nu_Hz": level(oracles.H),
        "shift_fractional": lambda row, printed: near(row["x"], 4),
    },
    "shift": {
        "model": LABEL,
        "phi_emit_m2_s2": lambda row, printed: potential_m2_s2(
            [(mass, r) for mass, r, _ in row["terms"]]),
        "phi_obs_m2_s2": lambda row, printed: potential_m2_s2(
            [(mass, r) for mass, _, r in row["terms"]]),
        "fractional_shift": first_order_shift,
    },
    "photon": {
        "b_m": lambda row, printed: (row["b_expected"], row["b_allowance"]),
        "deflection_rad": lambda row, printed: (ray(row)[0], row["tol"] * abs(ray(row)[0])),
        "deflection_arcsec": lambda row, printed: near(
            float(printed["deflection_rad"]) * ARCSEC_PER_RAD, 1),
        "transit_time_s": transit_time,
        "time_excess_s": lambda row, printed: relative(ray(row)[2], 1e-5),
        "closest_approach_m": lambda row, printed: relative(ray(row)[1], 1e-9),
    },
    "experiment": {
        "experiment": LABEL,
        "model": LABEL,
        "predicted_shift": first_order_shift,
        "ratio": lambda row, printed: (row["ratio"], 0),
        "ratio_uncertainty": lambda row, printed: (row["ratio_uncertainty"], 0),
        "sigma": lambda row, printed: relative(
            abs(Fraction(row["ratio"]) - 1) / Fraction(row["ratio_uncertainty"]), 1e-12),
        "verdict": verdict,
    },
    # the lines after the experiment table, or the JSON report's other keys
    "experiment summary": {
        "threshold": lambda row, printed: (row["threshold"], 0),
        "single_models_consistent": lambda row, printed: (row["single"], 0),
        "double_effect_excluded": lambda row, printed: (row["double"], 0),
        "exit_code": lambda row, printed: (row["exit_code"], 0),
    },
}

DEFAULT_FORMAT = {"potential": "text", "spectrum": "csv", "shift": "text", "photon": "json",
                  "experiment": "text"}
SUMMARY_TEXT = re.compile(r"single-locus models consistent: (yes|no)\n"
                          r"double effect: (EXCLUDED|not excluded) at threshold (\S+) sigma\n\Z")


# -- argv -------------------------------------------------------------------


def options(argv):
    """{flag: [values]} of the flags after the subcommand, each given as
    '--flag value' or '--flag=value'."""
    opts, args = {}, iter(argv[1:])
    for arg in args:
        name, eq, value = arg.partition("=")
        opts.setdefault(name, []).append(value if eq else next(args))
    return opts


def flag(opts, name, default=None):
    """The value of a flag: the last one given, as argparse keeps it."""
    return opts[name][-1] if name in opts else default


def sweep(opts):
    """The MIN:MAX:COUNT of a photon sweep, or None for a single ray."""
    return flag(opts, "--sweep-m", flag(opts, "--sweep-radii"))


def point(spec, bodies):
    """{body: distance in m} of a point spec."""
    distances = {}
    # a '+' starts the next part only where a body name follows it
    for part in re.split(r"\+(?=[A-Za-z_])", spec):
        name, _, rest = part.partition(":")
        distances[name] = float(rest[2:]) if rest.startswith("r=") \
            else bodies[name][1] + float(rest)
    return distances


def pairs(distances, bodies):
    return [(bodies[name][0], r) for name, r in distances.items()]


def shift_terms(emit, obs, bodies):
    """(mass_kg, r_emit, r_obs) of each body of two points."""
    return [(bodies[name][0], r, obs[name]) for name, r in emit.items()]


def shift_side(opts, side, bodies):
    if f"--{side}" in opts:
        return point(flag(opts, f"--{side}"), bodies)
    name = flag(opts, "--body")
    if f"--{side}-alt" in opts:
        return {name: bodies[name][1] + float(flag(opts, f"--{side}-alt"))}
    return {name: float(flag(opts, f"--{side}-r-m"))}


def states(opts):
    """(Z, n, n', j) of each state a spectrum argv lists, in order."""
    z = int(flag(opts, "--z", "1"))
    if "--states" in opts:
        chosen = []
        for chunk in flag(opts, "--states").split(","):
            n_prime, j = chunk.split(":")
            chosen.append((int(n_prime), Fraction(j)))
    else:
        lo, _, hi = flag(opts, "--n-range").partition(":")
        chosen = [(n - 1 - k, Fraction(2 * k + 1, 2))
                  for n in range(int(lo), int(hi or lo) + 1) for k in range(n)]
    return [(z, n_prime + int(j + Fraction(1, 2)), n_prime, j) for n_prime, j in chosen]


# -- the rows each subcommand should print ----------------------------------


def constants_rows(opts, bodies, printed):
    return [{}]


def potential_rows(opts, bodies, printed):
    return [{"point": spec, "pairs": pairs(point(spec, bodies), bodies)}
            for spec in opts["--at"]]


def spectrum_rows(opts, bodies, printed):
    at = pairs(point(flag(opts, "--at"), bodies), bodies) if "--at" in opts else []
    phi = oracles.potential_exact(at)
    x = phi / Fraction(oracles.C) ** 2
    mass = float(flag(opts, "--emitter-mass-kg", repr(oracles.M_ELECTRON)))
    return [{"state": f"Z={z} n={n} j={2 * j}/2 n'={n_prime}",
             "energy": oracles.level_energy_exact(z, n, j, mass, phi),
             "x": x, "gain": float(abs(x) / (1 + x))}
            for z, n, n_prime, j in states(opts)]


def shift_rows(opts, bodies, printed):
    emit, obs = (shift_side(opts, side, bodies) for side in ("emit", "obs"))
    return [{"model": flag(opts, "--model"), "terms": shift_terms(emit, obs, bodies)}]


def photon_rows(opts, bodies, printed):
    """One row per printed ray.  A sweep's printed b_m must be its sweep
    values, in order, less the refused ones."""
    mass, radius = bodies[flag(opts, "--body")]
    tol = float(flag(opts, "--tol", "1e-10"))
    factor = float(flag(opts, "--term-factor", "200"))

    def row(b, b_expected, b_allowance):
        return {"mu": oracles.G * mass / oracles.C2, "b": b, "r_term": factor * b, "tol": tol,
                "b_expected": b_expected, "b_allowance": b_allowance}

    if sweep(opts) is None:
        b = float(flag(opts, "--b-m")) if "--b-m" in opts \
            else float(flag(opts, "--b-radii")) * radius
        return [row(b, b, 0)]
    lo, hi, count = sweep(opts).split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    unit = 1.0 if "--sweep-m" in opts else radius
    expected = []
    # a sweep with a bound that is not finite traces no ray
    if math.isfinite(lo) and math.isfinite(hi):
        lo, step = Fraction(lo), (Fraction(hi) - Fraction(lo)) / (count - 1)
        for i in range(count):
            # lo + i*step, times the unit, within 8 ulps of its magnitude sum
            b = to_float((lo + i * step) * Fraction(unit))
            allowance = to_float(8 * Fraction(2.0 ** -52) * (abs(lo) + i * abs(step))
                                 * Fraction(unit))
            if math.isfinite(b) and math.isfinite(allowance):
                expected.append((b, allowance))
    rows, candidates = [], iter(expected)
    for ray_printed in printed:
        b = float(ray_printed["b_m"])
        # the first sweep value left that the printed one matches
        match = next((c for c in candidates if abs(b - c[0]) <= c[1]), None)
        assert match is not None, f"photon b_m {b!r} is no sweep value of {sweep(opts)!r} left"
        rows.append(row(b, *match))
    return rows


def to_float(exact):
    """``exact`` rounded to a float, or an infinity past the float range."""
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def experiment_rows(opts, bodies, printed):
    registry = flag(opts, "--registry")
    records = json.loads((Path(registry) if registry else data_file("experiments.json"))
                         .read_text(encoding="utf-8"))
    rows = []
    for record in records:
        terms = shift_terms(point(record["emit"], bodies), point(record["observe"], bodies),
                            bodies)
        for model, couplings in COUPLINGS.items():
            # the row holds the measured shift to k times the single shift
            k = sum(couplings)
            rows.append({
                "experiment": record["name"], "model": model, "terms": terms,
                "ratio": float(Fraction(record["measured_ratio"]) / k),
                "ratio_uncertainty": float(Fraction(record["ratio_uncertainty"]) / k),
                "threshold": threshold(opts)})
    return rows


def threshold(opts):
    return float(flag(opts, "--threshold", "5"))


ROWS = {"constants": constants_rows, "potential": potential_rows, "spectrum": spectrum_rows,
        "shift": shift_rows, "photon": photon_rows, "experiment": experiment_rows}


# -- stdout -----------------------------------------------------------------


def cells(line):
    """The cells of a text row: padded with two or more spaces, while a
    state label holds single ones."""
    return re.split(r" {2,}", line)


def parse_table(text, fmt):
    """(columns, rows) of a table printed in any --format."""
    if fmt == "json":
        rows = json.loads(text)
        return (list(rows[0]) if rows else None), rows
    lines = list(csv.reader(io.StringIO(text))) if fmt == "csv" \
        else [cells(line) for line in text.splitlines()]
    columns, *values = lines
    assert all(len(line) == len(columns) for line in values), f"ragged table:\n{text}"
    return columns, [dict(zip(columns, line)) for line in values]


def parse_record(text, fmt):
    """(columns, [record]) of a single record printed in any --format."""
    if fmt == "csv":
        columns, rows = parse_table(text, fmt)
        assert len(rows) == 1, f"not one record:\n{text}"
        return columns, rows
    if fmt == "json":
        record = json.loads(text)
    else:
        record = dict(cells(line) for line in text.splitlines())
    return list(record), [record]


def parse_stdout(argv, stdout):
    """(columns, rows, summary) of a run's stdout: the printed column names,
    one {column: value} per row, and the experiment summary ({} for the
    other subcommands).  Text and CSV values are strings; JSON values are
    what JSON reads."""
    command, opts = argv[0], options(argv)
    if command == "constants":
        columns, rows = parse_record(stdout, "json")
        return columns, rows, {}
    if command == "experiment":
        if flag(opts, "--report", "text") == "json":
            summary = json.loads(stdout)
            rows = summary.pop("reports")
            return (list(rows[0]) if rows else None), rows, summary
        table, _, tail = stdout.partition("\n\n")
        match = SUMMARY_TEXT.match(tail)
        assert match, f"experiment summary lines:\n{tail}"
        columns, rows = parse_table(table, "text")
        return columns, rows, {"threshold": match[3],
                               "single_models_consistent": match[1] == "yes",
                               "double_effect_excluded": match[2] == "EXCLUDED"}
    fmt = flag(opts, "--format", DEFAULT_FORMAT[command])
    is_record = command == "shift" or (command == "photon" and sweep(opts) is None)
    columns, rows = (parse_record if is_record else parse_table)(stdout, fmt)
    return columns, rows, {}


def check_cell(command, column, row, printed):
    oracle, value = COLUMNS[command][column], printed[column]
    if oracle is LABEL:
        assert value == row[column], f"{command} {column}: printed {value!r}, not {row[column]!r}"
        return
    expected, allowance = oracle(row, printed)
    where = f"{command} {column}: printed {value!r}, expected {expected!r}"
    if isinstance(expected, (bool, str)):
        assert value is expected if isinstance(expected, bool) else value == expected, where
        return
    number = float(value) if isinstance(value, str) else value
    assert not isinstance(number, bool) and abs(number - expected) <= allowance, \
        f"{where} within {allowance!r}"


def check_stdout(argv, code, stdout, bodies=oracles.MASS_RADIUS):
    """Hold every value a run printed to its oracle, and its exit code to the
    output.  A run that printed nothing must have failed.  A printed run
    exits 0, except a sweep with refused rays and an experiment whose
    verdict fails, which exit 1."""
    assert code in (0, 1, 2)
    if not stdout:
        assert code != 0, f"{argv}: exit 0 with no output"
        return
    command, opts = argv[0], options(argv)
    columns, printed, summary = parse_stdout(argv, stdout)
    unknown = [c for c in [*(columns or ()), *summary] if c not in
               {**COLUMNS[command], **COLUMNS.get(f"{command} summary", {})}]
    assert not unknown, f"{command}: no oracle for column(s) {unknown}"
    wanted = list(COLUMNS[command])
    if command == "photon" and sweep(opts) is None:
        wanted.remove("b_m")
    assert columns in (wanted, None), f"{command} columns {columns}, not {wanted}"

    rows = ROWS[command](opts, bodies, printed)
    assert len(printed) == len(rows), f"{command}: {len(printed)} rows printed, not {len(rows)}"
    for row, values in zip(rows, printed):
        assert list(values) == wanted, f"{command} row keys {list(values)}"
        for column in values:
            check_cell(command, column, row, values)

    expected_code = 0
    if command == "photon" and sweep(opts) is not None:
        expected_code = 0 if len(printed) == int(sweep(opts).split(":")[2]) else 1
    if command == "experiment":
        excluded = {row["model"] for row in printed if row["verdict"] == "excluded"}
        single, double = not excluded - {"double"}, "double" in excluded
        expected_code = 0 if single and double else 1
        verdicts = {"threshold": threshold(opts), "single": single, "double": double,
                    "exit_code": expected_code}
        wanted = list(COLUMNS["experiment summary"])
        if "exit_code" not in summary:
            wanted.remove("exit_code")
        assert list(summary) == wanted, f"experiment summary keys {list(summary)}"
        for column in summary:
            check_cell("experiment summary", column, verdicts, summary)
    assert code == expected_code, f"{argv}: exit {code}, not {expected_code}"
