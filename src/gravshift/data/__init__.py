"""Packaged default registries (bodies, experiments) and their reader."""

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


def read_entries(path: str | Path | Traversable, registry: str, items: str,
                 entry: str) -> Iterator[tuple[str, dict]]:
    """Yield (location, object) for each entry of a JSON-array registry file.

    Read errors, a top level that is not an array and an entry that is not an
    object raise RegistryError, worded with the ``registry``, ``items`` and
    ``entry`` names.
    """
    if isinstance(path, str):
        path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise RegistryError(f"{registry} not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise RegistryError(
            f"{path}: invalid JSON at line {exc.lineno} col {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, list):
        raise RegistryError(f"{path}: expected a JSON array of {items}")
    for i, obj in enumerate(raw):
        where = f"{path}: {entry} #{i}"
        if not isinstance(obj, dict):
            raise RegistryError(f"{where}: expected an object")
        yield where, obj
