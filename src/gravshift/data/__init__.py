"""Packaged default registries (bodies, experiments) and their reader.

A registry file is a JSON array of objects, each with a string ``name``
unique in the file; its numbers are JSON numbers, in SI units.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..errors import RegistryError

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable


def data_file(name: str) -> Traversable:
    """The packaged registry file ``name``: a ``Path`` when the package sits
    on a plain file system, else a resource that reads the same way."""
    return resources.files(__package__) / name


def read_records(path: str | Path | Traversable, registry: str, entry: str,
                 fields: tuple[str, ...]) -> Iterator[tuple[str, dict]]:
    """Yield (location, object) for each record of a registry file; an empty
    path (which ``Path`` reads as the current directory), a read error, a
    non-array, a record that is no object, lacks ``name`` or one of
    ``fields`` or has a name that is no string or is repeated is refused."""
    if isinstance(path, str):
        if not path:
            raise RegistryError(f"bad {registry} path ''")
        path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise RegistryError(f"{registry} not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise RegistryError(
            f"{path}: invalid JSON at line {exc.lineno} col {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # bad bytes, digits or nesting
        raise RegistryError(f"{path}: invalid JSON: {exc}") from None
    except OSError as exc:
        raise RegistryError(f"{path}: {exc.strerror}") from None
    if not isinstance(raw, list):
        raise RegistryError(f"{path}: expected a JSON array of objects")
    names: set[str] = set()
    for i, obj in enumerate(raw):
        where = f"{path}: {entry} #{i}"
        if not isinstance(obj, dict):
            raise RegistryError(f"{where}: expected an object")
        for field in ("name", *fields):
            if field not in obj:
                raise RegistryError(f"{where}: missing field {field!r}")
        name = obj["name"]
        if not isinstance(name, str):
            raise RegistryError(f"{where}: name must be a string, got {json.dumps(name)}")
        if name in names:
            raise RegistryError(f"{where}: duplicate {entry} name {name!r}")
        names.add(name)
        yield where, obj


def number(value, label: str) -> float:
    """A JSON number as a float; NaN and the infinities pass, for the
    caller's range check."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RegistryError(f"{label} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise RegistryError(f"{label} is beyond the float range") from None
