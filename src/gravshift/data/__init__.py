"""Packaged default registries (bodies, experiments) and their reader.

A registry file is a JSON array of objects, each with a ``name`` unique in
the file that keeps the name rule of `check_name`; its numbers are JSON
numbers, in SI units.  A body is ``{name, mass_kg, radius_m}``.  An
experiment record is ``{name, emit, observe, measured_ratio,
ratio_uncertainty}`` with an optional ``citation``; ``emit`` and
``observe`` are point specs, as for the CLI's ``--at`` (see
`gravshift.gravity`), such as ``"earth:0"`` and ``"earth:22.5"``.
"""

from __future__ import annotations

import json
import re
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..errors import ConfigurationError, RegistryError

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable

#: a name: a letter or '_', then letters, digits, '_' or '-'; so it holds no
#: space, which pads the text tables, and no ':' or '+' of a point spec
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")


def data_file(name: str) -> Traversable:
    """The packaged registry file ``name``: a ``Path`` when the package sits
    on a plain file system, else a resource that reads the same way."""
    return resources.files(__package__) / name


def read_records(path: str | Path | Traversable, registry: str, entry: str,
                 fields: tuple[str, ...]) -> Iterator[tuple[str, dict]]:
    """Yield (location, object) for each record of a registry file; an empty
    path (which ``Path`` reads as the current directory), a read error, a
    non-array, a record that is no object, lacks ``name`` or one of
    ``fields`` or has a name that is no string, breaks the name rule or is
    repeated is refused."""
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
        try:
            check_name(name, entry)
        except ConfigurationError as exc:
            raise RegistryError(f"{where}: {exc}") from None
        if name in names:
            raise RegistryError(f"{where}: duplicate {entry} name {name!r}")
        names.add(name)
        yield where, obj


def check_name(name: str, kind: str) -> None:
    """Refuse a ``kind`` name that breaks the name rule of `_NAME_RE`."""
    if not _NAME_RE.fullmatch(name):
        raise ConfigurationError(f"invalid {kind} name {name!r}")


def number(value, label: str) -> float:
    """A JSON number as a float; NaN and the infinities pass, for the
    caller's range check."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RegistryError(f"{label} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise RegistryError(f"{label} is beyond the float range") from None
