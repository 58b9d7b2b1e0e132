"""gravshift benchmark: seeded CLI workloads with oracle-checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 50 --trace 0

Each op runs `python -m gravshift ...` as a child process against the
sources under src/, one at a time (a closed loop with one client), and its
output is checked by oracle.py.  With --trace 0 the run reports the
end-to-end metrics, with every time scaled by a reference task run between
the ops (reference.py) so that the machine's changing speed cancels; with
--trace 1 it runs the same seeded ops once plain and once under tracer.py and
reports the per-layer metrics.  A human-readable
report, with units and sample counts, comes first; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The full
result, with provenance and (when traced) every span, is written to
.perfbench/ in the repository root.  `--workload all` runs every workload
in turn.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("op_wall_s.p50", "s"),
    ("op_wall_s.tail", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
# A seed no workload was tuned on, for checking a later claim.
HELD_OUT_SEED = 90217
SETUP_SAMPLES = 5
# Every end-to-end time is scaled by REF_NOMINAL_S / (mean wall of the two
# reference tasks (reference.py) run just before and just after it).
# REF_NOMINAL_S is the reference task's usual median on the 2-core x86_64
# machine where this benchmark was defined, so that scaled times read as
# seconds on that machine at its usual speed.
REF_NOMINAL_S = 0.9
CHILD_TIMEOUT_S = 170
TRACE_SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
INTERPRETER_SAMPLES = 5
TAIL_BEYOND = 10
# Rough wall time of one op, used only to size the traced run (which runs a
# fixed number of ops, so that its counts repeat exactly for a seed).
NOMINAL_OP_S = {"cli-mix": 0.8, "ray-tol-ladder": 1.4}
# A fixed op per layer, run traced when the workload never reaches that layer,
# so that each per-layer metric is a measurement on every workload.
PROBES = {
    "gravity.potential": ["potential", "--at", "earth:0",
                          "--at", "sun:r=1.495978707e11+earth:0"],
    "spectra.": ["spectrum", "--n-range", "1:30"],
    "experiments.": ["experiment", "--report", "json"],
    "photon.": ["photon", "--body", "sun", "--b-radii", "3"],
}
SETUP_CODE = "import gravshift.cli as cli; cli.build_parser()"


class Runner:
    """Spawns child processes one at a time and keeps every op's outcome."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.last_cpu = 0.0
        self.last_rss_kib = 0
        self.failures: list[str] = []

    def spawn(self, args: list[str], stdin: str | None = None) -> tuple[float, subprocess.CompletedProcess]:
        """Run one child to its end; its own CPU time and peak RSS go to
        last_cpu and last_rss_kib (from wait4, so no other child mixes in)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=self.env, cwd=ROOT)
        out: dict[str, str] = {}
        readers = [threading.Thread(target=lambda k=k, f=f: out.__setitem__(k, f.read()))
                   for k, f in (("stdout", proc.stdout), ("stderr", proc.stderr))]
        for reader in readers:
            reader.start()
        try:
            if stdin:
                proc.stdin.write(stdin)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        deadline = t0 + CHILD_TIMEOUT_S
        for reader in readers:
            reader.join(max(0.0, deadline - time.perf_counter()))
        if any(reader.is_alive() for reader in readers):
            proc.kill()
            for reader in readers:
                reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.last_cpu = usage.ru_utime + usage.ru_stime
        self.last_rss_kib = usage.ru_maxrss
        return wall, subprocess.CompletedProcess(args, proc.returncode,
                                                 out.get("stdout", ""), out.get("stderr", ""))

    def reference(self) -> float:
        """Wall time of one run of reference.py, after checking its output."""
        wall, proc = self.spawn([str(Path(__file__).with_name("reference.py"))])
        try:
            reply = json.loads(proc.stdout)
            ok = (proc.returncode == 0 and reply["status"] == 0 and reply["steps"] > 0
                  and reply["energy_drift"] < 1e-9)
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            raise RuntimeError(f"reference task failed: {proc.stdout[-500:]} {proc.stderr[-2000:]}")
        return wall

    def judge(self, argv: list[str], code: int, stdout: str, stderr: str) -> dict | None:
        """Check one op's output; count it; return its statistics if correct."""
        self.attempted += 1
        try:
            return oracle.check(argv, code, stdout)
        except oracle.CheckError as exc:
            self.failed += 1
            detail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
            self.failures.append(f"{' '.join(argv)}: {exc} {' '.join(detail)}".strip())
            return None

    def run_op(self, argv: list[str]) -> tuple[float, dict | None]:
        wall, proc = self.spawn(["-m", "gravshift", *argv])
        return wall, self.judge(argv, proc.returncode, proc.stdout, proc.stderr)

    def run_traced(self, ops: list[list[str]], quantity_loop: bool = False) -> tuple[float, dict]:
        request = json.dumps({"ops": ops, "quantity_loop": quantity_loop})
        wall, proc = self.spawn([str(Path(__file__).with_name("tracer.py"))], stdin=request)
        if proc.returncode != 0:
            raise RuntimeError(f"tracer failed: {proc.stderr.strip()[-2000:]}")
        reply = json.loads(proc.stdout)
        for result in reply["results"]:
            result["stats"] = self.judge(result["argv"], result["code"],
                                         result["stdout"], result["stderr"])
        return wall, reply

    def median_wall(self, args: list[str], samples: int) -> tuple[float, int]:
        walls = []
        for _ in range(samples):
            wall, proc = self.spawn(args)
            if proc.returncode != 0:
                raise RuntimeError(f"{' '.join(args)} failed: {proc.stderr.strip()[-2000:]}")
            walls.append(wall)
        return statistics.median(walls), samples


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND
    samples above it; the median when that statistic is not above it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND + 1:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timed_run(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """The untraced run: returns (end-to-end metrics, report-only extras, log
    of every timed child).

    A reference task runs before the first set-up sample and after every
    set-up sample and op, and each of those is scaled by the two reference
    tasks around it (see README.md, "Normalisation").  Set-up samples, ops and
    reference tasks all fit in `seconds`."""
    runner.spawn(["-c", SETUP_CODE])  # fills the bytecode cache; not timed
    runner.reference()  # the same for the reference task
    start = time.perf_counter()
    refs = [runner.reference()]
    setups = []
    for _ in range(SETUP_SAMPLES):
        wall, proc = runner.spawn(["-c", SETUP_CODE])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        setups.append(wall)
        refs.append(runner.reference())
    stream = workloads.Stream(workload, seed)
    walls, correct, rays, defl_err, texcess_err, op_log = [], 0, 0, [], [], []
    rss_kib = 0
    for argv in stream:
        if walls and (time.perf_counter() - start + statistics.median(walls)
                      + statistics.median(refs) > seconds):
            break
        wall, stats = runner.run_op(argv)
        walls.append(wall)
        rss_kib = max(rss_kib, runner.last_rss_kib)
        op_log.append({"argv": argv, "wall_s": wall, "cpu_s": runner.last_cpu,
                       "correct": stats is not None})
        if stats is not None:
            correct += 1
            rays += stats.get("rays", 0)
            if "rays" in stats:
                defl_err.append(stats["defl_rel_err"])
                texcess_err.append(stats["texcess_rel_err"])
        refs.append(runner.reference())
    elapsed = time.perf_counter() - start
    # refs[i] and refs[i + 1] enclose the i-th timed child: set-ups, then ops
    scaled = [wall * 2.0 * REF_NOMINAL_S / (refs[i] + refs[i + 1])
              for i, wall in enumerate(setups + walls)]
    scaled_setups, scaled_walls = scaled[:SETUP_SAMPLES], scaled[SETUP_SAMPLES:]
    for entry, value in zip(op_log, scaled_walls):
        entry["scaled_wall_s"] = value
    n = len(walls)
    tail_value, tail_pct = tail(scaled_walls)
    metrics = {
        "setup_s": (statistics.median(scaled_setups), SETUP_SAMPLES),
        "op_wall_s.p50": (statistics.median(scaled_walls), n),
        "op_wall_s.tail": (tail_value, n),
        "ops_per_s": (correct / sum(scaled_walls), n),
        "peak_rss_mb": (rss_kib / 1024.0, n),
    }
    extras = {
        "op_wall_s.tail percentile": (tail_pct, n),
        "reference wall s (median)": (statistics.median(refs), len(refs)),
        "raw setup_s": (statistics.median(setups), SETUP_SAMPLES),
        "raw op_wall_s.p50": (statistics.median(walls), n),
        "raw ops_per_s": (correct / sum(walls), n),
        "fail_frac": (runner.failed / runner.attempted, runner.attempted),
        "measured_s": (elapsed, n),
        "generator skipped draws": (float(stream.skipped_draws), n),
    }
    if rays:
        extras["rays_per_s"] = (rays / sum(scaled_walls), rays)
        extras["defl_rel_err_max"] = (max(defl_err), rays)
        extras["texcess_rel_err_max"] = (max(texcess_err), rays)
    return metrics, extras, {"setup_s": setups, "reference_s": refs, "ops": op_log}


def traced_run(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """The traced run: returns (per-layer metrics, report-only extras, spans)."""
    metrics: dict = {
        "import.interpreter_s": runner.median_wall(["-c", "pass"], INTERPRETER_SAMPLES)}
    entries = []
    for _ in range(IMPORTTIME_SAMPLES):
        _, proc = runner.spawn(["-X", "importtime", "-c", "import gravshift.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"importing gravshift.cli failed: {proc.stderr[-2000:]}")
        entries.append(layers.parse_importtime(proc.stderr))
    for metric, package in (("import.gravshift_cli_s", "gravshift"),
                            ("import.scipy_s", "scipy"), ("import.numpy_s", "numpy")):
        values = [v for v in (layers.import_seconds(e, package) for e in entries)
                  if v is not None]
        metrics[metric] = (statistics.median(values), len(values)) if values else None
    setup = runner.median_wall(["-c", SETUP_CODE], TRACE_SETUP_SAMPLES)

    count = max(1, int(seconds / (2.0 * NOMINAL_OP_S[workload])))
    ops = workloads.Stream(workload, seed).take(count)
    plain, traced, op_spans = [], [], []
    for i, argv in enumerate(ops):
        # alternate the order so that drift over the run cancels in the ratio
        for traced_first in ((True, False) if i % 2 else (False, True)):
            if traced_first:
                wall, reply = runner.run_traced([argv])
                traced.append(wall)
                op_spans.append(reply["results"][0]["spans"])
            else:
                wall, _ = runner.run_op(argv)
                plain.append(wall)
    metrics.update(layers.span_metrics(op_spans))
    metrics["trace.overhead_frac"] = (
        statistics.median(t / p for t, p in zip(traced, plain)) - 1.0, len(ops))

    missing = [name for name, _, _ in layers.PER_LAYER if metrics.get(name) is None]
    probe_argvs = [argv for prefix, argv in PROBES.items()
                   if any(name.startswith(prefix) for name in missing)]
    _, probe = runner.run_traced(probe_argvs, quantity_loop=True)
    from_probe = layers.span_metrics([r["spans"] for r in probe["results"]])
    sources = {}
    for name in missing:
        if from_probe.get(name) is not None:
            metrics[name] = from_probe[name]
            sources[name] = "probe op"
    if probe.get("quantity_op_us") is not None:
        metrics["units.quantity_op_us"] = (probe["quantity_op_us"], 5)
        sources["units.quantity_op_us"] = "micro-loop"

    plain_p50 = statistics.median(plain)
    extras = {
        "untraced op_wall_s.p50": (plain_p50, len(plain)),
        "untraced setup_s": setup,
        "share: setup_s / untraced op": (setup[0] / plain_p50, len(plain)),
    }
    ray_shares = [sum(s[3] - s[2] for s in spans if s[0] == "photon.trace_ray") / wall
                  for spans, wall in zip(op_spans, traced)]
    if any(ray_shares):
        extras["share: trace_ray / traced op"] = (statistics.median(ray_shares), len(traced))
    spans = {"ops": [{"argv": argv, "spans": s} for argv, s in zip(ops, op_spans)],
             "probe": [{"argv": r["argv"], "spans": r["spans"]} for r in probe["results"]]}
    return metrics, {"extras": extras, "sources": sources}, spans


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "trace": trace, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _line(name: str, value, unit: str, n, note: str = "") -> str:
    shown = "absent" if value is None else f"{value:.6g}"
    return f"  {name:<38} {shown:>14} {unit:<6} n={n}{note}"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    runner = Runner()
    prov = provenance(workload, seed, seconds, trace)
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={trace}")
    print("  " + "  ".join(f"{k}={v}" for k, v in prov.items()
                           if k not in ("workload", "seed", "seconds", "trace")))
    record: dict = {"provenance": prov}
    if trace:
        metrics, info, spans = traced_run(runner, workload, seed, seconds)
        declared = [(name, unit) for name, unit, _ in layers.PER_LAYER]
        sources = info["sources"]
        extras = info["extras"]
        record["spans"] = spans
    else:
        metrics, extras, record["log"] = timed_run(runner, workload, seed, seconds)
        declared = END_TO_END
        sources = {}
    for name, unit in declared:
        value, n = metrics[name] if metrics.get(name) is not None else (None, 0)
        note = f"  ({sources[name]})" if name in sources else ""
        if value is None:
            note = "  (layer not reached, or its wrapped name no longer exists)"
        print(_line(name, value, unit, n, note))
    for name, (value, n) in extras.items():
        print(_line(name, value, "", n, "  (report only)"))
    for failure in runner.failures[:20]:
        print(f"  FAILED {failure}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in declared if metrics.get(name) is not None},
    }
    record.update(result=result,
                  samples={name: metrics[name][1] for name, _ in declared
                           if metrics.get(name) is not None},
                  extras={k: {"value": v, "n": n} for k, (v, n) in extras.items()},
                  failures=runner.failures)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  result written to {out.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gravshift" / "cli.py").is_file():
        print(f"error: no gravshift sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
