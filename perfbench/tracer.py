"""Run `gravshift` CLI commands in this process with every layer wrapped.

Usage: python perfbench/tracer.py < request.json

The request is a JSON object {"ops": [argv, ...], "quantity_loop": bool}.
The reply, one JSON object on stdout, holds each op's exit code, stdout,
stderr and spans, plus the `Quantity` micro-loop result when asked for.

Wrapping is done from outside the program: after `gravshift.cli` is
imported, each public function defined in one of the layer modules is
replaced, in every `gravshift` module that binds it, by a wrapper that
records a span (name, parent, start, end).  The names `solve_ivp` and
`minimize_scalar` bound in `gravshift.photon` are wrapped the same way; the
`solve_ivp` wrapper also reads `nfev`, `len(t)` and `status` from the result
and times every call of the right-hand side it is passed.  Spans stay in
memory and are written once, in the reply.  A name that does not exist is
simply not wrapped, so its layer metrics come out absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import statistics
import sys
import time
import traceback

LAYERS = ("units", "gravity", "spectra", "photon", "experiments", "cli")
FOREIGN = ("solve_ivp", "minimize_scalar")


class Tracer:
    """Span recorder; spans are [name, parent index, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def reset(self) -> list[list]:
        spans, self.spans, self._stack = self.spans, [], []
        return spans

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter(), None, None])
        self._stack.append(index)
        return index

    def _close(self, index: int, attrs: dict | None = None) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[3] = time.perf_counter()
        span[4] = attrs

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    def wrap_solver(self, name: str, solve_ivp):
        @functools.wraps(solve_ivp)
        def traced(fun, *args, **kwargs):
            rhs = [0, 0.0]

            def timed_fun(t, y):
                t0 = time.perf_counter()
                try:
                    return fun(t, y)
                finally:
                    rhs[1] += time.perf_counter() - t0
                    rhs[0] += 1

            index = self._open(name)
            attrs = None
            try:
                sol = solve_ivp(timed_fun, *args, **kwargs)
                attrs = {"nfev": int(sol.nfev), "steps": len(sol.t) - 1,
                         "status": int(sol.status), "rtol": kwargs.get("rtol"),
                         "rhs_calls": rhs[0], "rhs_s": rhs[1]}
                return sol
            finally:
                self._close(index, attrs)
        return traced


def _rebind(modules, old, new) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def install(tracer: Tracer):
    """Import gravshift.cli and wrap each layer's public functions."""
    cli = importlib.import_module("gravshift.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "gravshift" or name.startswith("gravshift.")]
    for layer in LAYERS:
        module = sys.modules.get(f"gravshift.{layer}")
        if module is None:
            continue
        for attr, obj in list(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                _rebind(modules, obj, tracer.wrap(f"{layer}.{attr}", obj))
    photon = sys.modules.get("gravshift.photon")
    for attr in FOREIGN:
        obj = getattr(photon, attr, None)
        if obj is None:
            continue
        wrapper = tracer.wrap_solver if attr == "solve_ivp" else tracer.wrap
        _rebind(modules, obj, wrapper(f"photon.{attr}", obj))
    return cli


def run_op(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an unexpected crash is a failed op, as in a plain run
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def quantity_op_us(batches: int = 5, loops: int = 2000) -> float | None:
    """Median cost of one `Quantity` *, /, + or < in microseconds."""
    try:
        from gravshift.units import Dimension, Quantity
        a = Quantity(2.0, Dimension(mass=1))
        b = Quantity(3.0, Dimension(mass=1))
        d = Quantity(5.0, Dimension(length=1))
    except (ImportError, AttributeError, TypeError):
        return None
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(loops):
            a * d
            a / d
            a + b
            a < b
        samples.append((time.perf_counter() - t0) / (4 * loops) * 1e6)
    return statistics.median(samples)


def main() -> int:
    request = json.load(sys.stdin)
    tracer = Tracer()
    cli = install(tracer)
    tracer.reset()
    results = []
    for argv in request["ops"]:
        code, out, err = run_op(cli, argv)
        results.append({"argv": argv, "code": code, "stdout": out, "stderr": err,
                        "spans": tracer.reset()})
    reply = {"results": results}
    if request.get("quantity_loop"):
        reply["quantity_op_us"] = quantity_op_us()
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
