"""Crash-safe artifact writes."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


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
        with open(tmp, "x", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
