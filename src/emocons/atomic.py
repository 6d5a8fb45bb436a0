"""Artifact I/O: crash-safe writes and one read path for what is loaded back.

Every artifact is written through ``atomic_write`` and read through
``open_text`` (CSV files) or ``read_json`` (manifests, configs, checkpoints,
reports), always as UTF-8, whatever the locale.  A file that is missing,
unreadable, not UTF-8 or, for ``read_json``, not a JSON object is refused
with a ``StructuralError`` that names it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import StructuralError


@contextmanager
def atomic_write(path, newline: str | None = None):
    """Open ``path`` for writing text; it is replaced only when the block completes.

    The text goes to a temporary file beside ``path`` that ``os.replace``
    renames over it at the end, so a reader never sees a half-written file,
    and a write that fails midway leaves the old file as it was and no
    temporary file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def open_text(path, what: str):
    """Open ``path`` for reading UTF-8 text; ``what`` names what it should hold.

    An ``OSError`` or ``UnicodeDecodeError`` raised while opening the file
    or reading it in the block becomes a ``StructuralError`` naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise StructuralError(f"{path}: cannot read {what} ({reason})") from exc


def read_json(path, what: str) -> dict:
    """The JSON object in ``path``, read through ``open_text``; invalid JSON
    and a top-level value that is not an object are a ``StructuralError``."""
    with open_text(path, what) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"{path}: {what} is not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise StructuralError(
            f"{path}: {what} must be a JSON object, got {type(doc).__name__}"
        )
    return doc
