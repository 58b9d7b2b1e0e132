"""Independent checker for the output of one `gravshift` command.

Everything here is declared as literals and evaluated with textbook formulas.
Nothing is imported from `gravshift` or from the repository's tests, so a
defect in the program cannot hide in its own oracle.  The checker reads the
command's argv itself, so a mistake in the workload generator cannot hide
either.

`check(argv, code, stdout)` raises `CheckError` on any disagreement and
otherwise returns a dict of per-op statistics (rays traced, largest relative
errors) that the benchmark aggregates.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from scipy.integrate import quad

# CODATA 2018, the vintage the program stores, declared separately here.
G = 6.67430e-11
C = 299792458.0
C2 = C * C
H = 6.62607015e-34
HBAR = 1.054571817e-34
ALPHA = 7.2973525693e-3
M_ELECTRON = 9.1093837015e-31
EV = 1.602176634e-19
CODATA_2018 = {"G": G, "c": C, "h": H, "hbar": HBAR, "alpha": ALPHA,
               "m_electron": M_ELECTRON, "eV": EV}

# The packaged body registry: name -> (mass kg, radius m).
BODIES = {"earth": (5.9722e24, 6.371e6), "sun": (1.9885e30, 6.957e8)}

RADIANS_TO_ARCSEC = 180.0 / math.pi * 3600.0
EPS = 2.0 ** -52
DEFAULT_TERM_FACTOR = 200.0
DEFAULT_THRESHOLD = 5.0

# Relative tolerances.  The deflection bound sits between the expected
# truncation error at the termination circle (1/(2 factor^2) = 1.25e-5 at the
# default factor) and the 1e-3 corruption the self-tests must catch.
REL_EXACT = 1e-12
REL_DEFLECTION = 1e-4
REL_TIME_EXCESS = 1e-3
# The time excess is a difference of two transit times, so its roundoff is
# measured in ulps of the transit time, not of the excess.
TIME_EXCESS_ULPS = 64.0


class CheckError(Exception):
    """The command's exit code or output disagrees with the oracle."""


# -- textbook formulas --------------------------------------------------------


def point_mass_potential(body: str, r_m: float) -> float:
    return -G * BODIES[body][0] / r_m


def level_energy_j(Z: int, n: int, j: float, mass_kg: float) -> float:
    """Fine-structure binding energy in one direct expression (J)."""
    return (ALPHA ** 2 * mass_kg * C2 / 2.0) * (Z ** 2 / n ** 2) * (
        1.0 + (ALPHA ** 2 * Z ** 2 / n) * (1.0 / (j + 0.5) - 3.0 / (4.0 * n)))


def deflection_quadrature(mu_m: float, b_m: float) -> float:
    """Deflection magnitude for n(r) = 1 + mu/r at impact parameter b.

    alpha = 2 (mu/b) * int_0^{pi/2} cos t / (1 + (mu/b) cos t) dt, the
    substitution r = b / cos t of the textbook graded-index integral.
    """
    k = mu_m / b_m
    value, _ = quad(lambda t: math.cos(t) / (1.0 + k * math.cos(t)),
                    0.0, math.pi / 2.0, epsabs=1e-16, epsrel=1e-12)
    return 2.0 * k * value


def time_excess_closed_form(mu_m: float, b_m: float, x1: float, x2: float) -> float:
    """Transit-time excess of n = 1 + mu/r along the line y = b from x1 to x2."""
    return (mu_m / C) * (math.asinh(x2 / b_m) - math.asinh(x1 / b_m))


# -- argv and output parsing --------------------------------------------------


def parse_argv(argv: list[str]) -> tuple[str, dict[str, list[str]]]:
    """Split `command --key value ...` into the command and a multi-map."""
    command, rest = argv[0], argv[1:]
    if len(rest) % 2:
        raise CheckError(f"unexpected argv shape: {argv!r}")
    opts: dict[str, list[str]] = {}
    for key, value in zip(rest[::2], rest[1::2]):
        if not key.startswith("--"):
            raise CheckError(f"unexpected argv token {key!r}")
        opts.setdefault(key[2:], []).append(value)
    return command, opts


def _one(opts: dict[str, list[str]], key: str, default: str | None = None) -> str | None:
    values = opts.get(key)
    return values[-1] if values else default


def _table(text: str, fmt: str, columns: list[str]) -> list[dict[str, str]]:
    """Rows of a table printed in json, csv or text form, as strings."""
    if fmt == "json":
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckError(f"bad JSON: {exc}") from None
        if not isinstance(rows, list):
            raise CheckError("JSON table is not an array")
        out = []
        for row in rows:
            if not isinstance(row, dict) or list(row) != columns:
                raise CheckError(f"JSON row has keys {list(row)!r}, expected {columns!r}")
            out.append({k: v if isinstance(v, str) else repr(v) for k, v in row.items()})
        return out
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline (truncated?)")
    lines = text.splitlines()
    if not lines:
        raise CheckError("empty output")
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != columns:
            raise CheckError(f"CSV header {rows[0]!r}, expected {columns!r}")
        if any(len(r) != len(columns) for r in rows[1:]):
            raise CheckError("CSV row with the wrong number of fields")
        return [dict(zip(columns, r)) for r in rows[1:]]
    header = lines[0]
    if header.split() != columns:
        raise CheckError(f"text header {header!r}, expected {columns!r}")
    starts = [header.index(col) for col in columns] + [None]
    return [{col: line[starts[i]:starts[i + 1]].strip() for i, col in enumerate(columns)}
            for line in lines[1:]]


def _record(text: str, fmt: str, keys: list[str]) -> dict[str, str]:
    """A single key/value record printed in json, csv or text form."""
    if fmt == "json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckError(f"bad JSON: {exc}") from None
        if not isinstance(obj, dict) or list(obj) != keys:
            raise CheckError(f"JSON record keys {list(obj)!r}, expected {keys!r}")
        return {k: v if isinstance(v, str) else repr(v) for k, v in obj.items()}
    if fmt == "csv":
        rows = _table(text, "csv", keys)
        if len(rows) != 1:
            raise CheckError(f"CSV record has {len(rows)} rows")
        return rows[0]
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline (truncated?)")
    pairs = [line.split(None, 1) for line in text.splitlines()]
    if [p[0] for p in pairs] != keys or any(len(p) != 2 for p in pairs):
        raise CheckError(f"text record keys differ from {keys!r}")
    return {k: v.strip() for k, v in pairs}


def _num(cell: str, what: str) -> float:
    try:
        value = float(cell)
    except (TypeError, ValueError):
        raise CheckError(f"{what}: {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckError(f"{what}: {cell!r} is not finite")
    return value


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(got - want) <= tol:
        raise CheckError(f"{what}: got {got!r}, oracle {want!r} (tolerance {tol:.3g})")


def _point(spec: str) -> dict[str, float]:
    """Point spec 'body:ALT_m' / 'body:r=R_m', superposed with '+' -> distances."""
    distances = {}
    for part in spec.split("+"):
        body, _, rest = part.partition(":")
        if body not in BODIES:
            raise CheckError(f"unknown body in spec {spec!r}")
        distances[body] = float(rest[2:]) if rest.startswith("r=") \
            else BODIES[body][1] + float(rest)
    return distances


def _phi(distances: dict[str, float]) -> float:
    return sum(point_mass_potential(b, r) for b, r in distances.items())


# -- per-command checks -------------------------------------------------------


def _check_constants(opts, stdout: str) -> dict:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"bad JSON: {exc}") from None
    if list(payload) != list(CODATA_2018):
        raise CheckError(f"constant names {list(payload)!r}")
    for name, value in CODATA_2018.items():
        if payload[name] != value:
            raise CheckError(f"constant {name}: {payload[name]!r} != CODATA 2018 {value!r}")
    return {}


def _check_potential(opts, stdout: str) -> dict:
    specs = opts["at"]
    rows = _table(stdout, _one(opts, "format", "text"), ["point", "phi_m2_s2", "phi_over_c2"])
    if len(rows) != len(specs):
        raise CheckError(f"{len(rows)} rows for {len(specs)} points")
    for spec, row in zip(specs, rows):
        if row["point"] != spec:
            raise CheckError(f"row for {row['point']!r}, expected {spec!r}")
        phi = _phi(_point(spec))
        _close(_num(row["phi_m2_s2"], "phi"), phi, REL_EXACT * abs(phi), f"phi at {spec}")
        _close(_num(row["phi_over_c2"], "phi/c^2"), phi / C2, REL_EXACT * abs(phi) / C2,
               f"phi/c^2 at {spec}")
    return {}


def _shift_distances(opts, side: str) -> dict[str, float]:
    spec = _one(opts, side)
    if spec is not None:
        return _point(spec)
    body = _one(opts, "body")
    alt = _one(opts, f"{side}-alt")
    if alt is not None:
        return {body: BODIES[body][1] + float(alt)}
    return {body: float(_one(opts, f"{side}-r-m"))}


def _check_shift(opts, stdout: str) -> dict:
    model = _one(opts, "model")
    keys = ["model", "phi_emit_m2_s2", "phi_obs_m2_s2", "fractional_shift"]
    record = _record(stdout, _one(opts, "format", "text"), keys)
    if record["model"] != model:
        raise CheckError(f"model {record['model']!r}, expected {model!r}")
    phi_emit = _phi(_shift_distances(opts, "emit"))
    phi_obs = _phi(_shift_distances(opts, "obs"))
    _close(_num(record["phi_emit_m2_s2"], "phi_emit"), phi_emit, REL_EXACT * abs(phi_emit),
           "phi_emit")
    _close(_num(record["phi_obs_m2_s2"], "phi_obs"), phi_obs, REL_EXACT * abs(phi_obs),
           "phi_obs")
    factor = 2.0 if model == "double" else 1.0
    want = factor * (phi_emit - phi_obs) / C2
    tol = REL_EXACT * abs(want) + 8 * EPS * factor * (abs(phi_emit) + abs(phi_obs)) / C2
    _close(_num(record["fractional_shift"], "fractional_shift"), want, tol,
           f"{model} fractional shift")
    return {}


_STATE = re.compile(r"^Z=(\d+) n=(\d+) j=(\d+)/2 n'=(\d+)$")


def _check_spectrum(opts, stdout: str) -> dict:
    Z = int(_one(opts, "z", "1"))
    lo_txt, _, hi_txt = _one(opts, "n-range").partition(":")
    lo = int(lo_txt)
    hi = int(hi_txt) if hi_txt else lo
    at = _one(opts, "at")
    phi = _phi(_point(at)) if at else 0.0
    m_eff = M_ELECTRON * (1.0 + phi / C2)
    rows = _table(stdout, _one(opts, "format", "csv"),
                  ["state", "E_eV", "nu_Hz", "shift_fractional"])
    expected = {(n, 2 * k + 1) for n in range(lo, hi + 1) for k in range(n)}
    seen = set()
    for row in rows:
        m = _STATE.match(row["state"])
        if not m:
            raise CheckError(f"bad state label {row['state']!r}")
        z, n, two_j, n_prime = (int(g) for g in m.groups())
        if z != Z or n_prime != n - (two_j + 1) // 2:
            raise CheckError(f"inconsistent state label {row['state']!r}")
        seen.add((n, two_j))
        energy = level_energy_j(Z, n, two_j / 2.0, m_eff)
        _close(_num(row["E_eV"], "E_eV"), energy / EV, REL_EXACT * energy / EV,
               f"E of {row['state']}")
        _close(_num(row["nu_Hz"], "nu_Hz"), energy / H, REL_EXACT * energy / H,
               f"nu of {row['state']}")
        _close(_num(row["shift_fractional"], "shift"), phi / C2,
               REL_EXACT * abs(phi) / C2 + 16 * EPS, f"shift of {row['state']}")
    if seen != expected or len(rows) != len(expected):
        raise CheckError(f"{len(rows)} states printed, expected {len(expected)} for n {lo}..{hi}")
    return {}


def _check_experiment(opts, code: int, stdout: str) -> dict:
    if code != 0:
        raise CheckError(f"experiment exit code {code}, expected 0")
    report = _one(opts, "report", "text")
    columns = ["experiment", "model", "predicted_shift", "ratio",
               "ratio_uncertainty", "sigma", "verdict"]
    if report == "json":
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise CheckError(f"bad JSON: {exc}") from None
        if payload.get("double_effect_excluded") is not True \
                or payload.get("single_models_consistent") is not True \
                or payload.get("exit_code") != 0:
            raise CheckError("summary does not exclude the double effect")
        rows = [{k: str(v) for k, v in r.items()} for r in payload["reports"]]
        threshold = float(payload["threshold"])
    else:
        table, sep, summary = stdout.partition("\n\n")
        if not sep:
            raise CheckError("text report has no summary")
        rows = _table(table + "\n", "text", columns)
        if "single-locus models consistent: yes" not in summary \
                or "double effect: EXCLUDED" not in summary:
            raise CheckError("summary does not exclude the double effect")
        threshold = float(_one(opts, "threshold", str(DEFAULT_THRESHOLD)))
    if not rows:
        raise CheckError("no comparison rows")
    predicted = {}
    for row in rows:
        sigma = abs(_num(row["ratio"], "ratio") - 1.0) / _num(row["ratio_uncertainty"], "unc")
        _close(_num(row["sigma"], "sigma"), sigma, 1e-9 * sigma, "sigma")
        want = "excluded" if row["model"] == "double" else "consistent"
        if row["verdict"] != want or (sigma > threshold) != (want == "excluded"):
            raise CheckError(f"{row['experiment']} {row['model']}: verdict {row['verdict']!r}")
        predicted[(row["experiment"], row["model"])] = _num(row["predicted_shift"], "shift")
    for (name, model), value in predicted.items():
        if model == "double":
            single = predicted[(name, "emitter")]
            _close(value, 2.0 * single, 1e-12 * abs(single), f"{name} double prediction")
    return {}


_RAY_KEYS = ["deflection_rad", "deflection_arcsec", "transit_time_s",
             "time_excess_s", "closest_approach_m"]


def _sweep_values(text: str, unit: float) -> list[float]:
    lo_txt, hi_txt, count_txt = text.split(":")
    lo, hi, count = float(lo_txt), float(hi_txt), int(count_txt)
    step = (hi - lo) / (count - 1)
    return [(lo + i * step) * unit for i in range(count)]


def _check_ray(body: str, b: float, factor: float, row: dict[str, str]) -> dict:
    mass, _ = BODIES[body]
    mu = G * mass / C2
    r_term = factor * b
    x = math.sqrt(r_term * r_term - b * b)
    values = {k: _num(row[k], k) for k in _RAY_KEYS}
    deflection = values["deflection_rad"]
    oracle = -deflection_quadrature(mu, b)
    defl_err = abs(deflection - oracle) / abs(oracle)
    _close(deflection, oracle, REL_DEFLECTION * abs(oracle), f"deflection at b={b!r}")
    _close(values["deflection_arcsec"], deflection * RADIANS_TO_ARCSEC,
           REL_EXACT * abs(deflection) * RADIANS_TO_ARCSEC, "deflection in arcsec")
    transit, excess = values["transit_time_s"], values["time_excess_s"]
    _close(transit - excess, 2.0 * x / C, 1e-6 * transit, "straight-line time")
    te_oracle = time_excess_closed_form(mu, b, -x, x)
    _close(excess, te_oracle, REL_TIME_EXCESS * te_oracle + TIME_EXCESS_ULPS * EPS * transit,
           f"time excess at b={b!r}")
    # n r sin(theta) is conserved: r_min (1 + mu/r_min) = n_start * b, with the
    # ray starting on the termination circle, so r_min = b - mu + mu/factor
    # to first order in mu/b.
    _close(values["closest_approach_m"], b - mu + mu / factor, 1e-3 * mu + 8 * EPS * b,
           f"closest approach at b={b!r}")
    return {"defl_rel_err": defl_err,
            "texcess_rel_err": abs(excess - te_oracle) / te_oracle}


def _check_photon(opts, stdout: str) -> dict:
    body = _one(opts, "body")
    radius = BODIES[body][1]
    factor = float(_one(opts, "term-factor", str(DEFAULT_TERM_FACTOR)))
    fmt = _one(opts, "format", "json")
    sweep_m, sweep_radii = _one(opts, "sweep-m"), _one(opts, "sweep-radii")
    if sweep_m or sweep_radii:
        b_values = _sweep_values(sweep_m, 1.0) if sweep_m else _sweep_values(sweep_radii, radius)
        rows = _table(stdout, fmt, ["b_m"] + _RAY_KEYS)
        if len(rows) != len(b_values):
            raise CheckError(f"{len(rows)} rays printed, expected {len(b_values)}")
        for row, b in zip(rows, b_values):
            _close(_num(row["b_m"], "b_m"), b, REL_EXACT * b, "b_m")
    else:
        b_m = _one(opts, "b-m")
        b_values = [float(b_m) if b_m is not None else float(_one(opts, "b-radii")) * radius]
        rows = [_record(stdout, fmt, _RAY_KEYS)]
    stats = [_check_ray(body, b, factor, row) for b, row in zip(b_values, rows)]
    return {"rays": len(stats),
            "defl_rel_err": max(s["defl_rel_err"] for s in stats),
            "texcess_rel_err": max(s["texcess_rel_err"] for s in stats)}


def check(argv: list[str], code: int, stdout: str) -> dict:
    """Check one command's exit code and stdout; raise CheckError if wrong."""
    command, opts = parse_argv(argv)
    if command == "experiment":
        return _check_experiment(opts, code, stdout)
    if code != 0:
        raise CheckError(f"exit code {code}")
    checker = {
        "constants": _check_constants,
        "potential": _check_potential,
        "shift": _check_shift,
        "spectrum": _check_spectrum,
        "photon": _check_photon,
    }.get(command)
    if checker is None:
        raise CheckError(f"no oracle for command {command!r}")
    return checker(opts, stdout)
