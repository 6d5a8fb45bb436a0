"""Artifact I/O: the one write path and the one read path of every artifact.

Writes go through ``atomic_write`` (``atomic_write_binary`` for dataset
CSVs, ``write_json`` for JSON), reads through ``read_binary`` (dataset CSVs,
whose text ``decode_text`` gives) or ``read_json`` (manifests, configs,
checkpoints, reports); text is always UTF-8.  Writers create the target's
directory.  A file that cannot be written, or is
missing, unreadable, not UTF-8 or, for ``read_json``, not a JSON object, is
a ``StructuralError`` naming it.
``envelope`` and ``open_envelope`` put on and check the ``format``/``version``
header of manifests, checkpoints and reports.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from pathlib import Path

from .errors import StructuralError


@contextmanager
def _replaced(path):
    """The temporary file that ``atomic_write`` and ``atomic_write_binary``
    fill, and its rename over ``path`` or removal, as ``atomic_write`` says."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # e.g. the parent is a file: no temporary file exists
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise StructuralError(f"{path}: cannot write ({exc.strerror or exc})") from exc
        raise


@contextmanager
def atomic_write(path, newline: str | None = None):
    """Open ``path`` for writing text; it is replaced only when the block completes.

    The text goes to a temporary file beside ``path`` that ``os.replace``
    renames over it at the end, so a reader never sees a half-written file,
    and a write that fails midway leaves the old file as it was and no
    temporary file behind.  Any ``OSError`` on the way, from creating the
    directory to the rename, becomes a ``StructuralError`` naming ``path``.
    """
    with _replaced(path) as tmp, open(tmp, "x", encoding="utf-8", newline=newline) as fh:
        yield fh


@contextmanager
def atomic_write_binary(path):
    """``atomic_write`` for bytes: the block writes them to a binary file."""
    with _replaced(path) as tmp, open(tmp, "xb") as fh:
        yield fh


def write_json(path, doc, indent: int | None = 2) -> None:
    """Write ``doc`` as JSON and one newline; it is serialised before the
    file is opened, so a value JSON cannot hold leaves the old file as it was."""
    text = json.dumps(doc, indent=indent) + "\n"
    with atomic_write(path) as fh:
        fh.write(text)


def envelope(fmt: str, version: int, body: dict) -> dict:
    """``body`` behind a ``format``/``version`` header."""
    return {"format": fmt, "version": version, **body}


def open_envelope(doc, fmt: str, version: int, where: str) -> dict:
    """The body of ``doc``, an ``envelope`` from ``where``.  Another format, or a
    version that is not the int ``version`` itself (``true``, ``1.0``), is refused."""
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise StructuralError(f"{where}: not an {fmt} document")
    got = doc.get("version")
    if type(got) is not int or got != version:
        raise StructuralError(f"{where}: unsupported version {got!r}, expected {version}")
    return {k: v for k, v in doc.items() if k not in ("format", "version")}


def read_binary(path, what: str) -> bytes:
    """The bytes of ``path``; ``what`` names what it should hold.  An
    ``OSError`` is a ``StructuralError`` naming the file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise StructuralError(f"{path}: cannot read {what} ({exc.strerror or exc})") from exc


def decode_text(data: bytes, path, what: str) -> str:
    """``data``, read from ``path``, as the text a text-mode ``open`` reads:
    UTF-8, with ``\\r\\n`` and a lone ``\\r`` read as ``\\n``.  Bytes that are
    not UTF-8 are a ``StructuralError`` naming ``path``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StructuralError(f"{path}: cannot read {what} ({exc})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json(path, what: str) -> dict:
    """The JSON object in ``path``, read through ``read_binary`` and
    ``decode_text``; invalid JSON and a top-level value that is not an object
    are a ``StructuralError``."""
    text = decode_text(read_binary(path, what), path, what)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path}: {what} is not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise StructuralError(
            f"{path}: {what} must be a JSON object, got {type(doc).__name__}"
        )
    return doc
