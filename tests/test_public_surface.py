"""The package's public surface is what the CLI uses, plus stated paper claims.

Every public function of a `gravshift` module must either run on some path
of the fixed CLI invocations below or be one of PAPER_CLAIMS: functions that
state a claim of the paper which no CLI output shows yet.  A public function
that only tests call restates a formula the CLI already computes.  Every
public method and property of a public class must run on one of those paths
too, for the same reason.  In the
same way, every default of a public function or class must be overridden on
some of those paths: a default that no path overrides is a parameter that
only tests set.  The non-ray invocations also pin the CLI's default stdout.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import sys
from pathlib import Path

import pytest

from gravshift import cli

from printed_columns import check_stdout

#: the package's modules, named relative to it: "" is the package itself
MODULES = ("", "units", "gravity", "spectra", "photon", "experiments", "data", "errors", "cli")

PAPER_CLAIMS = {
    "transition_frequency",     # every line shifts by phi/c^2 (linearity theorem)
}

ARGV = [
    ["constants"],
    ["potential", "--at", "earth:0", "--at", "earth:r=7e6+sun:r=1.495978707e11"],
    ["potential", "--at", "sun:0", "--format", "json"],
    ["potential", "--at", "earth:22.5", "--format", "csv"],
    ["spectrum", "--n-range", "1:3"],
    ["spectrum", "--z", "2", "--states", "0:1/2,1:3/2", "--at", "sun:0",
     "--emitter-mass-kg", "1.67262192369e-27", "--format", "json"],
    ["spectrum", "--n-range", "2:2", "--at", "earth:0", "--format", "text"],
    ["shift", "--model", "emitter", "--body", "earth", "--emit-alt", "0", "--obs-alt", "22.5"],
    ["shift", "--model", "photon", "--emit", "sun:0", "--obs", "sun:r=1.495978707e11",
     "--format", "json"],
    ["shift", "--model", "double", "--body", "earth", "--emit-r-m", "6.371e6",
     "--obs-r-m", "6.3710225e6", "--format", "csv"],
    ["shift", "--model", "double", "--emit", "sun:0+earth:r=1.495978707e11",
     "--obs", "sun:r=1.495978707e11+earth:0", "--format", "json"],
    ["photon", "--body", "earth", "--b-radii", "5", "--tol", "1e-6", "--term-factor", "10"],
    ["photon", "--body", "earth", "--sweep-m", "2e7:4e7:2", "--tol", "1e-6",
     "--format", "text"],
    ["experiment"],
    ["experiment", "--report", "json", "--threshold", "3"],
    ["experiment", "--report", "text"],
]


def _module(name):
    return importlib.import_module(f".{name}", "gravshift")


def _public_members():
    for name in MODULES:
        module = _module(name)
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and getattr(obj, "__module__", None) == module.__name__:
                yield attr, obj


def _public_functions():
    return ((attr, obj) for attr, obj in _public_members() if inspect.isfunction(obj))


def _public_methods():
    """(qualified name, function) for every public method and property of a
    public class."""
    for _, obj in _public_members():
        if inspect.isclass(obj):
            for key, member in vars(obj).items():
                fn = member.fget if isinstance(member, property) \
                    else getattr(member, "__func__", member)
                if not key.startswith("_") and inspect.isfunction(fn):
                    yield f"{obj.__module__}.{obj.__qualname__}.{key}", fn


def _public_defaults():
    """(function, parameter name, default) for every default of a public
    function, or of a public method or constructor of a public class."""
    for _, obj in _public_members():
        candidates = [obj]
        if inspect.isclass(obj):
            candidates = [getattr(member, "__func__", member)
                          for key, member in vars(obj).items()
                          if key == "__init__" or not key.startswith("_")]
        for fn in filter(inspect.isfunction, candidates):
            for param in inspect.signature(fn).parameters.values():
                if param.default is not param.empty:
                    yield fn, param.name, param.default


@pytest.fixture(scope="module")
def cli_trace():
    """Run ARGV under a profiler.  Returns the code objects called and the
    (code, parameter) pairs that some call gave a value other than the default."""
    defaults = {}
    for fn, param, default in _public_defaults():
        defaults.setdefault(fn.__code__, []).append((param, default))
    called, overridden = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)
            for param, default in defaults.get(frame.f_code, ()):
                value = frame.f_locals[param]
                if not (value is default or value == default):
                    overridden.add((frame.f_code, param))

    codes = []
    sys.setprofile(profile)
    try:
        for argv in ARGV:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(ARGV)
    return called, overridden


@pytest.mark.parametrize("name", MODULES, ids=lambda name: name or "gravshift")
def test_every_exported_name_exists(name):
    # a name is defined by the module that exports it, so no name has two routes
    module = _module(name)
    imported = {alias.asname or alias.name
                for node in ast.parse(inspect.getsource(module)).body
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{module.__name__}.__all__ names missing {attr!r}"
        assert attr not in imported, f"{module.__name__}.__all__ re-exports {attr!r}"


def test_every_public_function_is_reached_or_a_paper_claim(cli_trace):
    called_code, _ = cli_trace
    unreached = sorted(
        f"{fn.__module__}.{attr}" for attr, fn in _public_functions()
        if fn.__code__ not in called_code and attr not in PAPER_CLAIMS
    )
    assert unreached == []


def test_every_public_method_is_reached(cli_trace):
    called_code, _ = cli_trace
    unreached = sorted(name for name, fn in _public_methods()
                       if fn.__code__ not in called_code)
    assert unreached == []


def test_paper_claims_are_public_and_not_yet_on_a_cli_path(cli_trace):
    called_code, _ = cli_trace
    functions = dict(_public_functions())
    assert PAPER_CLAIMS <= set(functions)
    reached = {attr for attr in PAPER_CLAIMS if functions[attr].__code__ in called_code}
    assert reached == set()


def test_every_public_default_is_overridden_by_some_cli_path(cli_trace):
    _, overridden = cli_trace
    never = sorted(
        f"{fn.__module__}.{fn.__qualname__}({param})"
        for fn, param, _ in _public_defaults()
        if (fn.__code__, param) not in overridden
    )
    assert never == []


# stdout of the non-ray ARGV entries, recorded once by command line; ray
# outputs are left out because their last digits depend on the ODE solver's
# version
GOLDEN_STDOUT = json.loads(
    (Path(__file__).parent / "golden" / "cli_stdout.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", [a for a in ARGV if a[0] != "photon"], ids=" ".join)
def test_default_stdout_matches_golden(argv, capsys):
    # a regenerated golden text passes only if every value in it passes its oracle
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == GOLDEN_STDOUT[" ".join(argv)]
    check_stdout(argv, 0, out)
