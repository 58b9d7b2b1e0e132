"""Packaged default registries (bodies, experiments), their lookup rule and reader."""

from __future__ import annotations

import json
import os
from importlib import resources
from pathlib import Path
from typing import Iterator

from ..errors import RegistryError

ENV_DATA_DIR = "GRAVSHIFT_DATA_DIR"


def data_file(name: str) -> Path:
    """Resolve a registry file: $GRAVSHIFT_DATA_DIR/<name> if set, else packaged."""
    override = os.environ.get(ENV_DATA_DIR)
    if override:
        return Path(override) / name
    with resources.as_file(resources.files(__package__) / name) as p:
        return Path(p)


def read_entries(path: str | Path, registry: str, items: str, entry: str) -> Iterator[tuple[str, dict]]:
    """Yield (location, object) for each entry of a JSON-array registry file.

    Read errors, a top level that is not an array and an entry that is not an
    object raise RegistryError, worded with the ``registry``, ``items`` and
    ``entry`` names.
    """
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
