"""The package's public surface is what the CLI uses, plus stated paper claims.

Every public function of a `gravshift` module must either run on some path
of the fixed CLI invocations below or be one of PAPER_CLAIMS: functions that
state a claim of the paper which no CLI output shows yet.  A public function
that only tests call restates a formula the CLI already computes.
"""

import contextlib
import importlib
import inspect
import io
import sys

import pytest

from gravshift import cli

MODULES = ("units", "gravity", "spectra", "photon", "experiments", "data", "errors", "cli")

PAPER_CLAIMS = {
    "transition_frequency",     # every line shifts by phi/c^2 (linearity theorem)
    "nuclear_shift_sign",       # sign of nuclear-line shifts under the mass scaling
    "atomic_scale_correction",  # the tidal term over atomic lengths is negligible
    "gradient",                 # d(phi)/dr, behind the tidal term
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
    ["photon", "--body", "earth", "--b-radii", "5", "--tol", "1e-6"],
    ["photon", "--body", "earth", "--sweep-m", "2e7:4e7:2", "--tol", "1e-6",
     "--format", "text"],
    ["experiment"],
    ["experiment", "--report", "json", "--threshold", "3"],
    ["experiment", "--registry", "default", "--report", "text"],
]


def _module(name):
    return importlib.import_module(f"gravshift.{name}")


def _public_functions():
    for name in MODULES:
        module = _module(name)
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                yield attr, obj


@pytest.fixture(scope="module")
def called_code():
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

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
    return called


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = _module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"gravshift.{name}.__all__ names missing {attr!r}"


def test_every_public_function_is_reached_or_a_paper_claim(called_code):
    unreached = sorted(
        f"{fn.__module__}.{attr}" for attr, fn in _public_functions()
        if fn.__code__ not in called_code and attr not in PAPER_CLAIMS
    )
    assert unreached == []


def test_paper_claims_are_public_and_not_yet_on_a_cli_path(called_code):
    functions = dict(_public_functions())
    assert PAPER_CLAIMS <= set(functions)
    reached = {attr for attr in PAPER_CLAIMS if functions[attr].__code__ in called_code}
    assert reached == set()
