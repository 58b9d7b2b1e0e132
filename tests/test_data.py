"""The registry reader: both registry files are read, and refused, alike."""

import json
import math

import pytest

from gravshift.errors import DomainError
from gravshift.experiments import load_registry
from gravshift.gravity import load_bodies

#: the faulty record's name, which no reason and no test path holds
NAME = "probe"

GOOD = {
    "body": {"name": "good", "mass_kg": 1e22, "radius_m": 1e6},
    "record": {"name": "good", "emit": "earth:0", "observe": "earth:10",
               "measured_ratio": 1.0, "ratio_uncertainty": 0.1},
}

#: (entry, the field values that differ from the good record's, None for a
#: field left out, and the refusal) for one fault of each kind
FAULTS = {
    "missing-field": [
        ("body", {"radius_m": None}, "missing field 'radius_m'"),
        ("record", {"observe": None}, "missing field 'observe'"),
    ],
    "wrong-type": [
        ("body", {"mass_kg": "1e22"}, 'mass_kg must be a number, got "1e22"'),
        ("body", {"radius_m": False}, "radius_m must be a number, got false"),
        ("record", {"emit": 0}, "emit must be a string, got 0"),
        ("record", {"measured_ratio": [1]}, "measured_ratio must be a number, got [1]"),
    ],
    "past-the-float-range": [
        ("body", {"mass_kg": 10**400}, "mass_kg is beyond the float range"),
        ("record", {"ratio_uncertainty": -10**400},
         "ratio_uncertainty is beyond the float range"),
    ],
    "out-of-range": [
        ("body", {"mass_kg": math.nan}, "mass_kg must be positive and finite, got nan"),
        ("body", {"radius_m": 0}, "radius_m must be positive and finite, got 0.0"),
        ("record", {"ratio_uncertainty": math.inf},
         "ratio_uncertainty must be positive and finite, got inf"),
        ("record", {"measured_ratio": -1}, "measured_ratio must be positive and finite, got -1.0"),
    ],
    "build": [
        ("record", {"emit": "vulcan:0"}, "unknown body 'vulcan'"),
        ("record", {"observe": "earth:-10"},
         "point 'observe': r = 6.37099e+06 m is inside body 'earth' (radius 6.371e+06 m); "
         "exterior field only"),
        ("record", {"observe": "earth:0"}, "emit and observe are at the same potential"),
    ],
}
CASES = [pytest.param(*case, id=f"{kind}-{case[0]}-{i}")
         for kind, cases in FAULTS.items() for i, case in enumerate(cases)]


def load(entry, path, bodies):
    return load_bodies(path) if entry == "body" else load_registry(path, bodies)


@pytest.mark.parametrize("entry, changes, reason", CASES)
def test_one_location_form_for_both_registries(tmp_path, bodies, entry, changes, reason):
    fields = {**GOOD[entry], "name": NAME, **changes}
    path = tmp_path / "registry.json"
    path.write_text(json.dumps([GOOD[entry],
                                {key: value for key, value in fields.items()
                                 if value is not None}]))
    with pytest.raises(DomainError) as exc:
        load(entry, path, bodies)
    assert str(exc.value) == f"{path}: {entry} #1 ({NAME}): {reason}"
    assert str(exc.value).count(NAME) == 1


@pytest.mark.parametrize("entry, key", [("body", "mass_kg"), ("record", "measured_ratio")])
def test_repeated_key_is_refused(tmp_path, bodies, entry, key):
    # json keeps the last value of a repeated key, so the record silently
    # read the second one
    good = json.dumps(GOOD[entry])
    path = tmp_path / "registry.json"
    path.write_text(f'[{good[:-1]}, "{key}": 2.0}}]')
    with pytest.raises(DomainError) as exc:
        load(entry, path, bodies)
    assert str(exc.value) == f"{path}: invalid JSON: repeated key {key!r}"


@pytest.mark.parametrize("entry", ["body", "record"])
def test_name_is_checked_before_the_fields(tmp_path, bodies, entry):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps([{"name": 7}]))
    with pytest.raises(DomainError) as exc:
        load(entry, path, bodies)
    assert str(exc.value) == f"{path}: {entry} #0: name must be a string, got 7"


@pytest.mark.parametrize("entry", ["body", "record"])
def test_other_keys_are_ignored(tmp_path, bodies, entry):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps([GOOD[entry]]))
    plain = load(entry, path, bodies)
    path.write_text(json.dumps([{**GOOD[entry], "citation": "x", "note": [1, {"a": None}]}]))
    assert load(entry, path, bodies) == plain
