"""Packaged default registries (bodies, experiments) and their reader.

A registry file is a JSON array of objects.  Each has a ``name``, a string
unique in the file that keeps the name rule of `check_name`, and its
registry's fields; other keys (such as ``citation``) are ignored, and a key
repeated in one object is refused.  A body has the JSON numbers ``mass_kg``
and ``radius_m``; an experiment record the strings ``emit`` and ``observe``,
point specs as for the CLI's ``--at`` (see `gravshift.gravity`), and the
JSON numbers ``measured_ratio`` and ``ratio_uncertainty``; numbers are in SI
units.  A record is refused as ``{path}: {entry} #{index} ({name}):
{reason}``, without ``({name})`` while the name itself is at fault.
"""

from __future__ import annotations

import json
import re
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, TypeAlias, TypeVar

from ..errors import DomainError, GravshiftError

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable

#: a registry file: a path, or a packaged file of `data_file`
RegistryPath: TypeAlias = "str | Traversable"
_T = TypeVar("_T")

#: a name: a letter or '_', then letters, digits, '_' or '-'; so it holds no
#: space, which pads the text tables, and no ':' or '+' of a point spec
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")

#: a field's declared type: its JSON name and the types `json` reads it as
_JSON_TYPES = {str: ("a string", str), float: ("a number", (int, float))}


def data_file(name: str) -> Traversable:
    """The packaged registry file ``name``: a ``Path`` when the package sits
    on a plain file system, else a resource that reads the same way."""
    return resources.files(__package__) / name


def read_records(path: RegistryPath, registry: str, entry: str,
                 fields: Mapping[str, type], build: Callable[..., _T]) -> list[_T]:
    """The records of a registry file, each ``build(name=..., **fields)``
    of its name and the values of ``fields``, which maps each other field to
    `str` or to `float` for a JSON number (NaN and the infinities pass, for
    ``build``'s range check).  An empty path (which ``Path`` reads as the
    current directory), a file that is no JSON array of objects, a record
    that breaks the schema and any `GravshiftError` of ``build`` are refused."""
    if isinstance(path, str):
        if not path:
            raise DomainError(f"bad {registry} path ''")
        path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise DomainError(f"{registry} not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON at line {exc.lineno} "
                          f"col {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # bad bytes, digits, keys or nesting
        raise DomainError(f"{path}: invalid JSON: {exc}") from None
    except OSError as exc:
        raise DomainError(f"{path}: {exc.strerror}") from None
    if not isinstance(raw, list):
        raise DomainError(f"{path}: expected a JSON array of objects")
    records: list[_T] = []
    names: set[str] = set()
    for i, obj in enumerate(raw):
        where = f"{path}: {entry} #{i}"
        try:
            if not isinstance(obj, dict):
                raise DomainError("expected an object")
            name = _field(obj, "name", str)
            check_name(name, entry)
            if name in names:
                raise DomainError(f"duplicate {entry} name {name!r}")
            names.add(name)
            where += f" ({name})"
            records.append(build(name=name, **{
                field: _field(obj, field, kind) for field, kind in fields.items()}))
        except GravshiftError as exc:
            raise DomainError(f"{where}: {exc}") from None
    return records


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key that `json` would overwrite."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _field(obj: dict, field: str, kind: type) -> str | float:
    """The value of a record's ``field``, of type ``kind`` (see `_JSON_TYPES`)."""
    if field not in obj:
        raise DomainError(f"missing field {field!r}")
    value = obj[field]
    json_type, accepted = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise DomainError(f"{field} must be {json_type}, got {json.dumps(value)}")
    try:
        return kind(value)
    except OverflowError:
        raise DomainError(f"{field} is beyond the float range") from None


def check_name(name: str, kind: str) -> None:
    """Refuse a ``kind`` name that breaks the name rule of `_NAME_RE`."""
    if not _NAME_RE.fullmatch(name):
        raise DomainError(f"invalid {kind} name {name!r}")
