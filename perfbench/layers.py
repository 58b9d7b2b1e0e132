"""Per-layer metrics from the spans of traced ops and from `-X importtime`.

A span is [name, parent index, start, end, attrs] as written by tracer.py;
each op has its own span list.  Every function here returns, per metric,
a (value, sample count) pair, or None when the layer did no work in the ops
given (the caller then falls back to a probe op or reports it absent).
"""

from __future__ import annotations

import re
import statistics
from collections import defaultdict

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("import.interpreter_s", "s", "lower"),
    ("import.gravshift_cli_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("cli.main_calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("units.quantity_op_us", "us", "lower"),
    ("gravity.potential_calls", "count", "lower"),
    ("gravity.potential_us", "us", "lower"),
    ("gravity.load_bodies_s", "s", "lower"),
    ("spectra.level_energy_calls", "count", "lower"),
    ("spectra.level_energy_n1-30_us", "us", "lower"),
    ("spectra.states_for_n_s", "s", "lower"),
    ("experiments.load_registry_s", "s", "lower"),
    ("experiments.double_effect_verdict_s", "s", "lower"),
    ("photon.trace_ray_s", "s", "lower"),
    ("photon.trace_ray_calls", "count", "lower"),
    ("photon.solve_calls_per_ray", "count", "lower"),
    ("photon.solve_s", "s", "lower"),
    ("photon.nfev_per_ray", "count", "lower"),
    ("photon.steps_per_ray", "count", "lower"),
    ("photon.rhs_us", "us", "lower"),
    ("photon.useful_nfev_frac", "frac", "higher"),
    ("photon.post_solve_s", "s", "lower"),
    ("photon.minimize_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

# Spans whose count is a metric.  A count of zero is a measurement, so these
# are never absent and never filled from a probe.
CALL_COUNTS = {
    "cli.main_calls": "cli.main",
    "gravity.potential_calls": "gravity.potential",
    "spectra.level_energy_calls": "spectra.level_energy",
    "photon.trace_ray_calls": "photon.trace_ray",
}
# Mean duration per call of a span, scaled to the metric's unit.
MEAN_DURATION = {
    "gravity.potential_us": ("gravity.potential", 1e6),
    "gravity.load_bodies_s": ("gravity.load_bodies", 1.0),
    "spectra.level_energy_n1-30_us": ("spectra.level_energy", 1e6),
    "spectra.states_for_n_s": ("spectra.states_for_n", 1.0),
    "experiments.load_registry_s": ("experiments.load_registry", 1.0),
    "experiments.double_effect_verdict_s": ("experiments.double_effect_verdict", 1.0),
    "photon.trace_ray_s": ("photon.trace_ray", 1.0),
    "photon.solve_s": ("photon.solve_ivp", 1.0),
}

# Per-ray figures from the solver spans below each `trace_ray` span.
RAY_METRICS = ("photon.solve_calls_per_ray", "photon.nfev_per_ray", "photon.steps_per_ray",
               "photon.rhs_us", "photon.useful_nfev_frac", "photon.post_solve_s",
               "photon.minimize_s")


def _duration(span: list) -> float:
    return span[3] - span[2]


def _children(spans: list[list]) -> dict[int, list[int]]:
    children = defaultdict(list)
    for index, span in enumerate(spans):
        children[span[1]].append(index)
    return children


def _descendants(children: dict[int, list[int]], index: int):
    for child in children.get(index, ()):
        yield child
        yield from _descendants(children, child)


def _other_layer_time(spans, children, index: int, layer: str) -> float:
    """Time of the outermost descendants that belong to another layer."""
    total = 0.0
    for child in children.get(index, ()):
        if spans[child][0].split(".", 1)[0] == layer:
            total += _other_layer_time(spans, children, child, layer)
        else:
            total += _duration(spans[child])
    return total


def _rays(ops: list[list[list]]):
    """(trace_ray span, its solve spans, its minimize spans) for every ray."""
    for spans in ops:
        children = _children(spans)
        for index, span in enumerate(spans):
            if span[0] != "photon.trace_ray":
                continue
            below = [spans[i] for i in _descendants(children, index)]
            yield (span,
                   [s for s in below if s[0] == "photon.solve_ivp" and s[4]],
                   [s for s in below if s[0] == "photon.minimize_scalar"])


def span_metrics(ops: list[list[list]]) -> dict[str, tuple[float, int] | None]:
    """Per-layer metrics computed from the span lists of traced ops."""
    by_name = defaultdict(list)
    for spans in ops:
        for span in spans:
            by_name[span[0]].append(span)
    out: dict[str, tuple[float, int] | None] = {}
    for metric, name in CALL_COUNTS.items():
        out[metric] = (float(len(by_name[name])), len(ops))
    for metric, (name, scale) in MEAN_DURATION.items():
        spans = by_name[name]
        out[metric] = (sum(map(_duration, spans)) / len(spans) * scale, len(spans)) \
            if spans else None

    cli_self = []
    for spans in ops:
        children = _children(spans)
        cli_self += [_duration(s) - _other_layer_time(spans, children, i, "cli")
                     for i, s in enumerate(spans) if s[0] == "cli.main"]
    out["cli.self_s"] = (statistics.median(cli_self), len(cli_self)) if cli_self else None

    rays = list(_rays(ops))
    solves = [s for _, ray_solves, _ in rays for s in ray_solves]
    if rays and solves:
        n = len(rays)
        nfev = sum(s[4]["nfev"] for s in solves)
        useful = sum(min(ray_solves, key=lambda s: s[4]["rtol"] or 0.0)[4]["nfev"]
                     for _, ray_solves, _ in rays if ray_solves)
        rhs_calls = sum(s[4]["rhs_calls"] for s in solves)
        out.update({  # keys: RAY_METRICS
            "photon.solve_calls_per_ray": (len(solves) / n, n),
            "photon.nfev_per_ray": (nfev / n, n),
            "photon.steps_per_ray": (sum(s[4]["steps"] for s in solves) / n, n),
            "photon.rhs_us": (sum(s[4]["rhs_s"] for s in solves) / rhs_calls * 1e6, rhs_calls),
            "photon.useful_nfev_frac": (useful / nfev, n),
            "photon.post_solve_s": (sum(_duration(r) - sum(map(_duration, rs))
                                        for r, rs, _ in rays) / n, n),
            "photon.minimize_s": (sum(_duration(m) for _, _, ms in rays for m in ms) / n, n),
        })
    else:
        out.update(dict.fromkeys(RAY_METRICS))
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> list[tuple[int, int, str]]:
    """(depth, cumulative us, module) for each line of `-X importtime` output."""
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, int(m.group(2)), m.group(4)))
    return entries


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def import_seconds(entries: list[tuple[int, int, str]], package: str) -> float | None:
    """Cumulative import time of a package's outermost modules, in seconds.

    The output lists each module after the modules it imported, one level
    deeper, so a module's parent is the next line at a smaller depth.
    """
    total_us = 0
    found = False
    for index, (depth, cumulative, module) in enumerate(entries):
        if not _in_package(module, package):
            continue
        nested = False
        level = depth
        for later_depth, _, later_module in entries[index + 1:]:
            if later_depth < level:
                if _in_package(later_module, package):
                    nested = True
                    break
                level = later_depth
                if level == 0:
                    break
        if not nested:
            total_us += cumulative
            found = True
    return total_us / 1e6 if found else None
