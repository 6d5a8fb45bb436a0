"""Annotation, gold-standard and feature containers plus CSV I/O.

All time series live on a uniform grid described by a sampling rate in Hz.
Annotation values are bounded to [-1, 1]; loaders clamp out-of-range values
and report how many were touched.  Feature values are unbounded.

Two CSV layouts are accepted for annotations:

* wide   -- ``time,<id1>,<id2>,...`` with one column per annotator
* long   -- ``time,annotator,value`` with one row per (frame, annotator)

Columns are reordered by annotator id so that the same data produces the
same matrix regardless of file layout.

A dataset directory groups several recording sources: a ``manifest.json``
plus one subdirectory per source holding ``features.csv`` and, for each
affect dimension, ``gold_<dim>.csv`` and ``annotations_<dim>.csv``.  The
manifest's schema is Manifest: ``sources``, distinct plain directory names
under the root; ``dimensions``, distinct names from DIMENSIONS;
``rate_hz``, every stream's rate, positive and finite; ``feature_dim``, the
width of every ``features.csv``; ``gold_provenance``, every gold track's.
Both lists are non-empty, and the other keys are meta.

Loaders read a file whole and refuse, with the file and line, a ragged row,
a token that is not a number, a non-finite value and a time column off a
uniform grid; inside a dataset directory every stream takes the manifest's
rate.  Files are UTF-8 and go through ``atomic`` as bytes: writers replace a
file atomically, and a file that cannot be read or decoded is refused with
its path.

``window_bounds`` is the one place that cuts a source into fixed-length
windows; training and per-window scoring both slice by its bounds.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NoReturn

import numpy as np

from .atomic import (
    atomic_write_binary,
    decode_text,
    envelope,
    open_envelope,
    read_binary,
    read_json,
    write_json,
)
from .codec import from_dict, to_dict
from .errors import ConfigError, ContractError, ParseError, StructuralError

DIMENSIONS = ("arousal", "valence")

PROVENANCES = ("external_gold", "intended_emotion", "aggregated")

DATASET_FORMAT = "emocons-dataset"
DATASET_VERSION = 1

VALUE_MIN = -1.0
VALUE_MAX = 1.0

# Streams cut into windows together must share one rate to this relative
# tolerance, or their windows would cover different spans of time.
RATE_RTOL = 1e-9


class ClampWarning(UserWarning):
    """Raised (as a warning) when out-of-range annotation values are clamped."""


def _check_dimension(dimension: str) -> None:
    if dimension not in DIMENSIONS:
        raise ContractError(f"unknown dimension {dimension!r}, expected one of {DIMENSIONS}")


def _check_rate(rate_hz: float) -> None:
    if not np.isfinite(rate_hz) or rate_hz <= 0:
        raise ContractError(f"sampling rate must be positive and finite, got {rate_hz}")


def _finite_readonly(a, container: str) -> np.ndarray:
    """A read-only float64 copy of ``a``, refused if any value is not finite."""
    out = np.array(a, dtype=np.float64)
    if not np.isfinite(out).all():
        raise ContractError(f"{container} values must be finite")
    out.flags.writeable = False
    return out


def _finite_trace(values, container: str) -> np.ndarray:
    """``_finite_readonly`` of ``values``, refused unless they are 1-D and non-empty."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ContractError(f"values must be 1-D and nonempty, got shape {v.shape}")
    return _finite_readonly(v, container)


@dataclass(frozen=True, eq=False)
class AnnotationMatrix:
    """Frame-aligned traces from several annotators, one column each."""

    data: np.ndarray
    annotator_ids: tuple[str, ...]
    dimension: str
    rate_hz: float

    def __post_init__(self):
        _check_dimension(self.dimension)
        _check_rate(self.rate_hz)
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 1:
            raise ContractError(f"data must be 2-D (frames x annotators), got shape {d.shape}")
        ids = tuple(self.annotator_ids)
        if len(ids) != d.shape[1]:
            raise ContractError(
                f"{len(ids)} annotator ids for {d.shape[1]} columns"
            )
        if len(set(ids)) != len(ids):
            raise ContractError("annotator ids must be unique")
        object.__setattr__(self, "data", _finite_readonly(d, "AnnotationMatrix"))
        object.__setattr__(self, "annotator_ids", ids)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def annotators(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class GoldStandardTrack:
    """Single reference trace used as the training target."""

    dimension: str
    rate_hz: float
    values: np.ndarray
    provenance: str = "external_gold"

    def __post_init__(self):
        _check_dimension(self.dimension)
        _check_rate(self.rate_hz)
        if self.provenance not in PROVENANCES:
            raise ContractError(
                f"unknown provenance {self.provenance!r}, expected one of {PROVENANCES}"
            )
        object.__setattr__(self, "values", _finite_trace(self.values, "GoldStandardTrack"))

    @property
    def frames(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class FeatureSequence:
    """Frame-level input features, one row per frame."""

    data: np.ndarray
    rate_hz: float

    def __post_init__(self):
        _check_rate(self.rate_hz)
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 2:
            raise ContractError(f"data must be 2-D (frames x dim), got shape {d.shape}")
        object.__setattr__(self, "data", _finite_readonly(d, "FeatureSequence"))

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry in seconds."""

    window_s: float
    shift_s: float

    def __post_init__(self):
        if not (np.isfinite(self.window_s) and self.window_s > 0):
            raise ContractError(f"window_s must be positive, got {self.window_s}")
        if not (np.isfinite(self.shift_s) and self.shift_s > 0):
            raise ContractError(f"shift_s must be positive, got {self.shift_s}")
        if self.shift_s > self.window_s:
            raise ContractError(
                f"shift_s {self.shift_s} must not exceed window_s {self.window_s}"
            )

    def frames(self, rate_hz: float) -> tuple[int, int]:
        """Window and shift lengths in frames at the given rate."""
        _check_rate(rate_hz)
        w = int(round(self.window_s * rate_hz))
        s = int(round(self.shift_s * rate_hz))
        if w < 2:
            raise ContractError(
                f"window of {self.window_s}s at {rate_hz}Hz spans {w} frame(s); need >= 2"
            )
        if s < 1:
            raise ContractError(f"shift of {self.shift_s}s at {rate_hz}Hz rounds to zero frames")
        return w, s


# ---------------------------------------------------------------------------
# CSV reading and writing
#
# A file is read once, as bytes: csv.reader takes the header from its first
# non-blank row, decoded, and the body after it stays bytes.  A body in the
# writer's grammar (every field ``-?D{1,9}.D{6}``, rows of the header's
# width, each ending in ``\n`` or each in ``\r\n``) is parsed by a numpy
# kernel (_fixed6_parse): each field's digits are read as two 8-byte words
# and joined by multiply-shift rounds into its integer count of millionths,
# exact in float64, so dividing by 1e6 gives np.loadtxt's bits.  Any other
# body, and the long layout with its text column, is decoded as UTF-8 with
# universal newlines, the text a text-mode open() reads, and goes to
# np.loadtxt.  Only when that parse, or a check on the parsed array, fails
# is the file scanned row by row to name the offending line (1-based, blank
# lines counted).
#
# A file is written as bytes: csv.writer's header row in UTF-8, then a body
# whose every value reads as ``"%.6f"`` prints it.  The body is built by a
# numpy kernel (_fixed6_rows): each value's digits go into fixed-width slots
# of one byte buffer through 1000-entry three-digit tables, unused slots are
# NUL, and one boolean compaction drops them.  One ``%`` format of the whole
# table (_percent_rows) gives the same bytes and is kept only as the
# fallback for a table the kernel does not cover.


def _read_rows(path: Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Return (header, [(line_number, fields), ...]) skipping blank lines."""
    fh = io.StringIO(decode_text(read_binary(path, "CSV"), path, "CSV"))
    rows = [(i, row) for i, row in enumerate(csv.reader(fh), start=1) if row]
    (_, header), body = rows[0], rows[1:]
    return header, body


def _read_header(path: Path) -> tuple[list[str], bytes, int]:
    """The first non-blank row, its fields stripped, and bytes ending in the body at an offset.

    When the file's first line is not blank and holds no ``"`` and no ``\\r``
    but the one before its ``\\n``, that line is the header, and the body is
    every byte after it in the file's own bytes, which are not copied.  Any
    other file is read as decode_text reads it, and the body is the text
    after csv.reader's first non-blank row, as UTF-8, from offset 0.
    """
    raw = read_binary(path, "CSV")
    end = raw.find(b"\n")
    line = raw[: max(end, 0)].removesuffix(b"\r")
    if line and b'"' not in line and b"\r" not in line:
        header = next(csv.reader([decode_text(line, path, "CSV")]))
        data, start = raw, end + 1
    else:
        fh = io.StringIO(decode_text(raw, path, "CSV"))
        header = next(filter(None, csv.reader(fh)), None)
        if header is None:
            raise StructuralError(f"{path}: empty file")
        data, start = fh.read().encode(), 0
    if not re.compile(rb"[^\r\n]").search(data, start):
        raise StructuralError(f"{path}: no data rows")
    return [c.strip() for c in header], data, start


def _is_number(token: str) -> bool:
    """Whether np.loadtxt reads ``token``: float()'s syntax, in ASCII, without '_'."""
    s = token.strip()
    if not s.isascii() or "_" in s:
        return False
    try:
        float(s)
    except ValueError:
        return False
    return True


def _raise_bad_row(path: Path, width: int, text_cols: tuple, reason: str) -> NoReturn:
    """Raise the error naming the first row that is ragged or holds a non-number."""
    for line, row in _read_rows(path)[1]:
        if len(row) != width:
            raise StructuralError(
                f"{path}: row at line {line} has {len(row)} fields, expected {width}"
            )
        for j, token in enumerate(row):
            if j not in text_cols and not _is_number(token):
                raise ParseError(
                    f"cannot parse {token.strip()!r} as a number", line=line, path=path
                )
    raise ParseError(reason, path=path)


def _parse_body(path: Path, header: list[str], data: bytes, start: int, converters=None) -> np.ndarray:
    """The body ``data[start:]`` as one (rows, len(header)) array of finite floats.

    ``converters`` maps a text column to a function giving a number for each
    of its fields.
    """
    width = len(header)
    table = None if converters else _fixed6_parse(data, start, width)
    bad = None
    if table is None:
        text = decode_text(data[start:], path, "CSV")
        try:
            table = np.loadtxt(
                io.StringIO(text),
                delimiter=",",
                quotechar='"',
                comments=None,
                ndmin=2,
                converters=converters,
            )
            if table.shape[1] != width:
                bad = f"{table.shape[1]} fields under {width} names"
        except ValueError as exc:
            bad = str(exc)
    if bad is not None:
        _raise_bad_row(path, width, tuple(converters or ()), bad)
    finite = np.isfinite(table)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        line, row = _read_rows(path)[1][r]
        raise ParseError(
            f"non-finite value {row[c].strip()!r} in column {header[c]!r}", line=line, path=path
        )
    return table


def _grid_rate(path: Path, times: np.ndarray, rate_hz: float | None, rows=None) -> float:
    """The sampling rate of a time column, once its grid is found uniform.

    Every step must lie within [0.5, 1.5] x the median step.  With
    ``rate_hz`` (a dataset manifest's rate) the k-th time must also lie
    within half a step of ``k / rate_hz``, so the column starts at 0, and
    ``rate_hz`` is the rate; otherwise the rate is the inverse median step.
    ``times[k]`` sits in body row ``rows[k]`` (default ``k``); errors name
    that row's line.
    """
    n = times.shape[0]
    if n < 2:
        raise StructuralError(f"{path}: need at least 2 rows to infer the sampling rate")

    def refuse(k: int, what: str) -> NoReturn:
        line = _read_rows(path)[1][k if rows is None else rows[k]][0]
        raise StructuralError(f"{path}: time {times[k]:.6f} at line {line} {what}")

    steps = np.diff(times)
    if np.any(steps <= 0):
        refuse(int(np.argmax(steps <= 0)) + 1, "breaks the strictly increasing time column")
    median = float(np.median(steps))
    off = (steps < 0.5 * median) | (steps > 1.5 * median)
    if off.any():
        k = int(np.argmax(off)) + 1
        refuse(k, f"is off the uniform grid: step {steps[k - 1]:g} s, median step {median:g} s")
    if rate_hz is None:
        return 1.0 / median
    drift = np.abs(times - np.arange(n) / rate_hz)
    if np.any(drift >= 0.5 / rate_hz):
        k = int(np.argmax(drift >= 0.5 / rate_hz))
        refuse(k, f"is off the manifest's {rate_hz} Hz grid from 0")
    return rate_hz


def _clamp(values: np.ndarray, path: Path) -> np.ndarray:
    outside = int(np.count_nonzero((values < VALUE_MIN) | (values > VALUE_MAX)))
    if outside:
        warnings.warn(
            f"clamped {outside} value(s) outside [{VALUE_MIN}, {VALUE_MAX}] in {path.name}",
            ClampWarning,
            stacklevel=4,
        )
        values = np.clip(values, VALUE_MIN, VALUE_MAX)
    return values


def _load_long(
    path: Path, header: list[str], data: bytes, start: int, rate_hz: float | None
) -> tuple[np.ndarray, list[str], float]:
    """The long layout's values (frames x annotators, as read), annotator ids and rate."""
    codes: dict[str, int] = {}

    def code(token: str) -> int:
        return codes.setdefault(token.strip(), len(codes))

    table = _parse_body(path, header, data, start, converters={1: code})
    ids = sorted(codes)
    rows = {}
    for a in ids:
        mine = np.flatnonzero(table[:, 1] == codes[a])
        rows[a] = mine[np.argsort(table[mine, 0], kind="stable")]
    grid = table[rows[ids[0]], 0]
    for a in ids[1:]:
        if not np.array_equal(table[rows[a], 0], grid):
            raise StructuralError(
                f"{path}: annotator {a!r} is not on the same time grid as {ids[0]!r}"
            )
    rate = _grid_rate(path, grid, rate_hz, rows[ids[0]])
    return np.column_stack([table[rows[a], 2] for a in ids]), ids, rate


def _load_annotations(path: Path, dimension: str, rate_hz: float | None) -> AnnotationMatrix:
    _check_dimension(dimension)
    header, data, start = _read_header(path)
    if header[0] != "time":
        raise StructuralError(f"{path}: first column must be 'time', got {header[0]!r}")
    if [c.lower() for c in header] == ["time", "annotator", "value"]:
        values, ids, rate = _load_long(path, header, data, start, rate_hz)
    else:
        ids = header[1:]
        if not ids:
            raise StructuralError(f"{path}: no annotator columns")
        if len(set(ids)) < len(ids):
            repeated = next(a for a in ids if ids.count(a) > 1)
            raise StructuralError(f"{path}: annotator id {repeated!r} heads more than one column")
        table = _parse_body(path, header, data, start)
        rate = _grid_rate(path, table[:, 0], rate_hz)
        order = sorted(range(len(ids)), key=lambda j: ids[j])
        values = table[:, [1 + j for j in order]]
        ids = [ids[j] for j in order]
    return AnnotationMatrix(_clamp(values, path), tuple(ids), dimension, rate)


def load_annotation_csv(path: str | Path, dimension: str) -> AnnotationMatrix:
    """Load annotations as a frames x annotators matrix, columns sorted by id.

    A single-annotator file gives a one-column matrix.  Values outside
    [-1, 1] are clamped and reported with a ClampWarning.
    """
    return _load_annotations(Path(path), dimension, None)


def _load_gold(
    path: Path, dimension: str, provenance: str, rate_hz: float | None
) -> GoldStandardTrack:
    _check_dimension(dimension)
    header, data, start = _read_header(path)
    if len(header) != 2 or header[0] != "time":
        raise StructuralError(f"{path}: expected columns time,value got {header}")
    table = _parse_body(path, header, data, start)
    rate = _grid_rate(path, table[:, 0], rate_hz)
    return GoldStandardTrack(dimension, rate, _clamp(table[:, 1].copy(), path), provenance)


def load_gold_csv(
    path: str | Path, dimension: str, provenance: str = "external_gold"
) -> GoldStandardTrack:
    """Load a single-column reference trace (header ``time,value``)."""
    return _load_gold(Path(path), dimension, provenance, None)


def _load_features(path: Path, rate_hz: float | None) -> FeatureSequence:
    header, data, start = _read_header(path)
    if header[0] != "time" or len(header) < 2:
        raise StructuralError(f"{path}: expected a time column followed by feature columns")
    table = _parse_body(path, header, data, start)
    rate = _grid_rate(path, table[:, 0], rate_hz)
    return FeatureSequence(np.ascontiguousarray(table[:, 1:]), rate)


def load_features_csv(path: str | Path) -> FeatureSequence:
    """Load frame-level features; all columns after ``time`` are kept as-is."""
    return _load_features(Path(path), None)


# Below this magnitude v * 1e6 rounds to an integer that float64 holds exactly.
_FIXED6_LIMIT = 2.0**52 / 1e6

# Values per kernel call: small enough for its temporaries to stay in cache,
# which formats a default corpus in about 40% less time than one call per
# table does.
_FIXED6_BLOCK = 8192


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Four-byte words for every k in 0..999, as little-endian uint32 tables.

    ``full`` is NUL then k's three digits; ``lead`` is the same with k's
    leading zeros NUL (0 keeps its last digit); ``dot`` is ``.`` then the
    three digits; ``comma`` is the three digits then ``,``.
    """
    k = np.arange(1000)
    digits = (k[:, None] // np.array([100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    full = np.zeros((1000, 4), np.uint8)
    full[:, 1:] = digits
    lead = full * (k[:, None] >= np.array([1000, 100, 10, 0]))
    dot = np.insert(digits, 0, ord("."), axis=1)
    comma = np.insert(digits, 3, ord(","), axis=1)
    words = tuple(np.ascontiguousarray(t).view("<u4").ravel() for t in (full, lead, dot, comma))
    for w in words:
        w.flags.writeable = False  # one copy serves every caller
    return words


def _fixed6_rows(table: np.ndarray) -> bytes | None:
    """A non-empty ``table`` as CSV rows ending in CRLF, each value as ``"%.6f"`` prints it.

    With p = v * 1e6 and q = rint(p), q is the integer ``"%.6f"`` prints
    (as digits with six after the point) when |v| < 2**52 / 1e6 and p lies
    more than |p| * 2**-52, at least one ulp, from a half-integer: there the
    rounding of the product cannot move p across the half-integer that
    decides the digit.  Returns None when any value of the table is outside
    that domain (also a nan or an infinity).

    Each value takes ``groups`` words for its integer part (three digits a
    word, the sign in the first word's spare byte), ``.ddd`` and ``ddd,``;
    each row ends in one more word holding ``\n``, and its last ``,``
    becomes ``\r``.  Leading zeros and spare bytes are NUL and dropped.
    """
    n, width = table.shape
    v = table.ravel()
    if not (-_FIXED6_LIMIT < v.min() and v.max() < _FIXED6_LIMIT):
        return None
    p = v * 1e6
    q = np.rint(p)
    # |p - q| plus a bound on one ulp of p must stay below half
    slack = np.abs(p)
    slack *= 2.0**-52
    off = p - q
    slack += np.abs(off, out=off)
    if not slack.max() < 0.5:
        return None
    micros = np.abs(q).astype(np.int64)
    whole = micros // 1_000_000
    frac = micros - whole * 1_000_000
    groups = -(-len(str(whole.max())) // 3)
    full, lead, dot, comma = _digit_words()
    words = np.empty((n, width * (groups + 2) + 1), "<u4")
    cells = words[:, :-1].reshape(n, width, groups + 2)
    for k in range(groups):
        scale = 1000 ** (groups - 1 - k)
        group = whole // scale
        if k == 0:
            word = lead[group]
        else:
            group %= 1000
            word = np.where(whole >= 1000 * scale, full[group], lead[group])
        if scale > 1:
            word[whole < scale] = 0
        cells[:, :, k] = word.reshape(n, width)
    cells[:, :, 0] |= np.signbit(v).reshape(n, width) * np.uint32(ord("-"))
    high = frac // 1000
    cells[:, :, groups] = dot[high].reshape(n, width)
    cells[:, :, groups + 1] = comma[frac - 1000 * high].reshape(n, width)
    words[:, -1] = ord("\n")
    text = words.view(np.uint8)
    text[:, -5] = ord("\r")
    return text[text != 0].tobytes()


def _percent_rows(table: np.ndarray) -> bytes:
    """The bytes of _fixed6_rows by one ``%`` format of the whole table: the fallback."""
    row = ",".join(["%.6f"] * table.shape[1]) + "\r\n"
    return (row * table.shape[0] % tuple(table.ravel().tolist())).encode("ascii")


# Bytes of text per _fixed6_block call, cut after a row: small enough for
# the call's temporaries to stay in cache, which reads a default corpus in
# about a third less time than one call per file.
_PARSE_BLOCK = 1 << 18


@functools.cache
def _parse_tables() -> tuple[np.ndarray, np.ndarray]:
    """The reader kernel's tables: ``masks``, indexed by 7 + k for a field of
    k integer digits (1..9), keeps a word's top k - 1 bytes, which hold the
    digits before the last; ``scales`` is the divisor of an unsigned and of
    a negative field, so ``-0.000000`` reads -0.0."""
    ones = (1 << 64) - 1
    masks = np.zeros(17, np.uint64)
    masks[8:] = [ones ^ (ones >> 8 * (k - 1)) for k in range(1, 10)]
    scales = np.array([1e6, -1e6])
    for t in (masks, scales):
        t.flags.writeable = False  # one copy serves every caller
    return masks, scales


def _swar8(words: np.ndarray) -> None:
    """In place, each word's eight digit values (the first in the lowest byte) as one number.

    Each round joins neighbouring lanes, high * scale + low, into a lane of
    twice the width: 8 bits, then 16, then 32.
    """
    for keep, scale, bits in (
        (None, 10, 8),
        (0x00FF00FF00FF00FF, 100, 16),
        (0x0000FFFF0000FFFF, 10000, 32),
    ):
        if keep is not None:
            words &= np.uint64(keep)
        words *= np.uint64(scale << bits | 1)
        words >>= np.uint64(bits)


def _fixed6_parse(data: bytes, start: int, width: int) -> np.ndarray | None:
    """The rows of ``data[start:]`` as a (rows, width) float64 array, as np.loadtxt reads them.

    Returns None unless every field is ``-?D{1,9}\\.D{6}`` (what _write_table
    writes of values below 1e9 in magnitude), fields are separated by ``,``
    and each row of exactly ``width`` fields ends in ``\\n``, or each in
    ``\\r\\n`` (as _write_table ends them).  A field is read as its count q
    of micro-units: |q| < 10**15 < 2**53 is exact in float64, so q / 1e6 is
    the correctly rounded decimal, as strtod gives it, and q / -1e6 its
    negation, ``-0.000000`` reading -0.0.  16 or more bytes before ``start``
    stand in for the first fields' padding, which the digit masks drop.
    """
    if not data.endswith(b"\n"):
        return None
    crlf = data.endswith(b"\r\n")
    text = np.frombuffer(data, np.uint8)
    blocks = []
    while start < len(data):
        stop = data.find(b"\n", start + _PARSE_BLOCK) + 1 or len(data)
        if start >= 16:
            block = _fixed6_block(text, start, stop, width, crlf)
        else:  # the first fields' words reach 16 bytes before the text
            padded = np.concatenate((np.zeros(16, np.uint8), text[start:stop]))
            block = _fixed6_block(padded, 16, 16 + stop - start, width, crlf)
        if block is None:
            return None
        blocks.append(block)
        start = stop
    return np.concatenate(blocks).reshape(-1, width)


def _fixed6_block(
    buf: np.ndarray, start: int, stop: int, width: int, crlf: bool
) -> np.ndarray | None:
    """_fixed6_parse of the whole rows in ``buf[start:stop]``, with 16 bytes before them.

    Every byte is checked.  Each field ends at a mark, a byte <= 44 other
    than, with CRLF rows, a byte <= 10, which must be the ``,``, ``\\n`` or
    ``\\r`` its column calls for, and has its ``.`` 7 bytes before that; the
    byte after a ``\\r`` must be ``\\n``.  Counts then show that the only
    other bytes below ``0`` are leading ``-`` signs and that none lies above
    ``9``.  The 16 bytes before a field's end are two words: up to 8
    integer digits, then the last integer digit, ``.`` and the 6 decimals.
    XOR with ``0``s, a mask keeping the integer digits, moving the last one
    into the ``.``'s byte and _swar8 turn them into q // 10**7 and q % 10**7.
    """
    b = buf[start:stop]
    if crlf:  # b - 11 wraps the bytes <= 10, "\n" among them, past 33
        ends = np.flatnonzero(b - np.uint8(11) <= ord(",") - 11)
    else:
        ends = np.flatnonzero(b <= ord(","))
    if not ends.size or ends.size % width or b.max() > ord("9"):
        return None
    row = np.frombuffer(b"," * (width - 1) + (b"\r" if crlf else b"\n"), np.uint8)
    if not (b[ends].reshape(-1, width) == row).all():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    linefeeds = 0  # below 0 but not marks
    if crlf:  # each \r's \n is the next byte, and a row's first field starts after it
        linefeeds = ends.size // width
        if not (b[ends[width - 1 :: width] + 1] == ord("\n")).all():
            return None
        starts[width::width] += 1
    neg = b[starts] == ord("-")
    unsigned = ends - starts
    unsigned -= neg  # 7 + the count of integer digits
    if not (
        unsigned.min() >= 8
        and unsigned.max() <= 16
        and (b[ends - 7] == ord(".")).all()
        and np.count_nonzero(b < ord("0")) == 2 * ends.size + linefeeds + np.count_nonzero(neg)
    ):
        return None
    # element j holds b[j - 16 : j]
    window = np.ndarray((stop - start,), "V16", buf, start - 16, (1,))
    words = window[ends].view("<u8").reshape(-1, 2)
    words ^= np.uint64(0x3030303030303030)  # ASCII digits to digit values
    masks, scales = _parse_tables()
    words[:, 0] &= masks[unsigned]
    low = words[:, 1]
    last = low & np.uint64(0xFF)
    last <<= np.uint64(8)
    low &= np.uint64(0xFFFFFFFFFFFF0000)
    low |= last
    _swar8(words)
    q = words[:, 0]
    q *= np.uint64(10**7)
    q += low
    return np.divide(q.view(np.int64), scales.take(neg.view(np.uint8)))


def _write_table(path: Path, header: list[str], rate_hz: float, columns: np.ndarray) -> None:
    """Write the header, then one CRLF row per frame: its time, then ``columns``.

    csv.writer writes the header, so ids that need it are quoted.  The body
    holds the bytes csv.writer gives for ``f"{v:.6f}"`` fields: the digit
    kernel writes it, or the ``%`` fallback when a value lies outside the
    kernel's domain.  Fewer than 2 rows are refused before a file is made,
    since every loader infers the sampling rate from the first two times.
    """
    n = columns.shape[0]
    _check_rows(path, n)
    table = np.column_stack([np.arange(n) / rate_hz, columns])
    rows = max(1, _FIXED6_BLOCK // table.shape[1])
    blocks = [_fixed6_rows(table[i : i + rows]) for i in range(0, n, rows)]
    if None in blocks:
        blocks = [_percent_rows(table)]
    head = io.StringIO()
    csv.writer(head).writerow(header)
    with atomic_write_binary(path) as fh:
        fh.write(head.getvalue().encode())
        fh.writelines(blocks)


def _check_rows(path: Path, n: int) -> None:
    if n < 2:
        raise ContractError(f"{path}: need at least 2 rows to write, got {n}")


def write_annotation_csv(path: str | Path, ann: AnnotationMatrix) -> None:
    _write_table(Path(path), ["time", *ann.annotator_ids], ann.rate_hz, ann.data)


def write_trace_csv(path: str | Path, values: np.ndarray, rate_hz: float) -> None:
    """Write one trace in the ``time,value`` layout that load_gold_csv reads.

    The values must be 1-D and finite, at least 2 of them (load_gold_csv
    infers the rate from the first two rows), and the rate positive and
    finite, or nothing is written.
    """
    _check_rate(rate_hz)
    _write_table(Path(path), ["time", "value"], rate_hz, _finite_trace(values, "trace")[:, None])


def write_gold_csv(path: str | Path, gold: GoldStandardTrack) -> None:
    write_trace_csv(path, gold.values, gold.rate_hz)


def write_features_csv(path: str | Path, feats: FeatureSequence) -> None:
    names = [f"f{j}" for j in range(feats.dim)]
    _write_table(Path(path), ["time", *names], feats.rate_hz, feats.data)


# ---------------------------------------------------------------------------
# Dataset directories


@dataclass(eq=False)
class SourceData:
    """One recording source: features plus per-dimension gold and annotations."""

    source_id: str
    features: FeatureSequence
    gold: dict[str, GoldStandardTrack]
    annotations: dict[str, AnnotationMatrix]

    def __post_init__(self):
        if not self.source_id:
            raise ContractError("source_id must be non-empty")
        if set(self.gold) != set(self.annotations):
            raise ContractError(
                f"gold dimensions {sorted(self.gold)} do not match "
                f"annotation dimensions {sorted(self.annotations)}"
            )
        t = self.features.frames
        rate = self.features.rate_hz
        for dim in self.gold:
            if self.gold[dim].frames != t or self.annotations[dim].frames != t:
                raise ContractError(f"{self.source_id}/{dim}: streams are not frame-aligned")
            for name, stream in (("gold", self.gold[dim]), ("annotations", self.annotations[dim])):
                if stream.dimension != dim:
                    raise ContractError(f"{self.source_id}/{dim}: {name} is {stream.dimension!r}")
                if not math.isclose(stream.rate_hz, rate, rel_tol=RATE_RTOL):
                    raise ContractError(
                        f"{self.source_id}/{dim}: {name} rate {stream.rate_hz} Hz "
                        f"differs from the feature rate {rate} Hz"
                    )

    @property
    def dimensions(self) -> tuple[str, ...]:
        return tuple(sorted(self.gold))


@dataclass(eq=False)
class Dataset:
    """An ordered collection of sources sharing rate, dimensions and widths."""

    sources: list[SourceData]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.sources:
            raise ContractError("dataset must contain at least one source")
        ids = [s.source_id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise ContractError("duplicate source ids")
        first = self.sources[0]
        for s in self.sources[1:]:
            if s.dimensions != first.dimensions:
                raise ContractError("all sources must cover the same dimensions")
            if s.features.dim != first.features.dim:
                raise ContractError("feature width must be constant across sources")
            if not math.isclose(s.features.rate_hz, first.features.rate_hz, rel_tol=RATE_RTOL):
                raise ContractError(
                    f"source {s.source_id!r} is sampled at {s.features.rate_hz} Hz, "
                    f"source {first.source_id!r} at {first.features.rate_hz} Hz"
                )

    @property
    def source_ids(self) -> tuple[str, ...]:
        return tuple(s.source_id for s in self.sources)

    @property
    def dimensions(self) -> tuple[str, ...]:
        return self.sources[0].dimensions

    @property
    def feature_dim(self) -> int:
        return self.sources[0].features.dim


@dataclass(frozen=True)
class Manifest:
    """The keys of a dataset's ``manifest.json`` that the module docstring
    describes, in the order written; the file's other keys are meta."""

    sources: tuple[str, ...]
    dimensions: tuple[str, ...]
    rate_hz: float
    feature_dim: int
    gold_provenance: str = "external_gold"

    def __post_init__(self):
        if not self.sources:
            raise ContractError("sources must be a list of at least one id, got []")
        for sid in self.sources:
            if not isinstance(sid, str) or sid in ("", ".", "..") or "/" in sid or "\\" in sid:
                raise ContractError(f"source id {sid!r} is not a plain directory name")
        if len(set(self.sources)) != len(self.sources):
            raise ContractError(f"duplicate source ids in {list(self.sources)!r}")
        dims = self.dimensions
        if not (dims and set(dims) <= set(DIMENSIONS) and len(set(dims)) == len(dims)):
            raise ContractError(
                f"dimensions must be a non-empty list of distinct names from {DIMENSIONS}, "
                f"got {list(dims)!r}"
            )
        # float_info.max also bounds a JSON integer too large for a float
        if not 0 < self.rate_hz <= sys.float_info.max:
            raise ContractError(f"rate_hz must be a positive number, got {self.rate_hz!r}")
        object.__setattr__(self, "rate_hz", float(self.rate_hz))
        if self.gold_provenance not in PROVENANCES:
            raise ContractError(
                f"gold_provenance must be one of {PROVENANCES}, got {self.gold_provenance!r}"
            )


def write_dataset(root: str | Path, dataset: Dataset) -> None:
    """Write a dataset directory: per-source CSV files, then manifest.json.

    Each file is written atomically, and the manifest last, so a directory
    whose manifest is new holds every file it names; its ``gold_provenance``
    is the gold tracks'.  A manifest that Manifest or JSON refuses, gold
    tracks of several provenances and streams under 2 frames are refused first.
    """
    provenances = sorted({g.provenance for s in dataset.sources for g in s.gold.values()})
    if len(provenances) != 1:
        raise ContractError(f"gold tracks must share one provenance, got {provenances}")
    manifest = Manifest(
        dataset.source_ids, dataset.dimensions, dataset.sources[0].features.rate_hz,
        dataset.feature_dim, provenances[0],
    )
    root = Path(root)
    doc = envelope(DATASET_FORMAT, DATASET_VERSION, to_dict(manifest))
    # a loaded dataset's meta is its old manifest: it must not rename the sources
    doc.update((k, v) for k, v in dataset.meta.items() if k not in doc)
    for key, value in doc.items():
        try:
            json.dumps({key: value})
        except (TypeError, ValueError) as exc:
            raise ContractError(f"{root / 'manifest.json'}: key {key!r}: {exc}") from None
    tables = []
    for s in dataset.sources:
        d = root / s.source_id
        tables.append((write_features_csv, d / "features.csv", s.features))
        for dim in s.dimensions:
            tables.append((write_gold_csv, d / f"gold_{dim}.csv", s.gold[dim]))
            tables.append((write_annotation_csv, d / f"annotations_{dim}.csv", s.annotations[dim]))
    for _, path, stream in tables:
        _check_rows(path, stream.frames)
    for write, path, stream in tables:
        write(path, stream)
    write_json(root / "manifest.json", doc)


def load_dataset(root: str | Path) -> Dataset:
    """Load a dataset directory written by write_dataset.

    A manifest that Manifest refuses is a StructuralError naming it.  Every
    stream takes its ``rate_hz``, once its time column is found to follow
    that rate from 0.
    """
    root = Path(root)
    manifest_path = root / "manifest.json"
    doc = read_json(manifest_path, "dataset manifest")
    body = open_envelope(doc, DATASET_FORMAT, DATASET_VERSION, str(manifest_path))
    schema = {f.name for f in fields(Manifest)}
    try:
        manifest = from_dict(Manifest, {k: v for k, v in body.items() if k in schema})
    except (ConfigError, ContractError) as exc:
        raise StructuralError(f"{manifest_path}: {exc}") from None
    rate, provenance = manifest.rate_hz, manifest.gold_provenance

    def named(path: Path) -> Path:
        if not path.is_file():
            raise StructuralError(f"{manifest_path}: names {path}, which does not exist")
        return path

    sources = []
    for sid in manifest.sources:
        d = root / sid
        feats = _load_features(named(d / "features.csv"), rate)
        if feats.dim != manifest.feature_dim:
            raise StructuralError(
                f"{manifest_path}: feature_dim is {manifest.feature_dim!r}, "
                f"but {d / 'features.csv'} has {feats.dim} feature columns"
            )
        gold, ann = {}, {}
        for dim in manifest.dimensions:
            gold[dim] = _load_gold(named(d / f"gold_{dim}.csv"), dim, provenance, rate)
            ann[dim] = _load_annotations(named(d / f"annotations_{dim}.csv"), dim, rate)
        sources.append(SourceData(source_id=sid, features=feats, gold=gold, annotations=ann))
    return Dataset(sources=sources, meta=doc)


# ---------------------------------------------------------------------------
# Windowing


def window_count(total_frames: int, window_frames: int, shift_frames: int) -> int:
    """Number of full windows; trailing frames that do not fill one are dropped."""
    if window_frames < 1 or shift_frames < 1:
        raise ContractError("window and shift must be at least one frame")
    if total_frames < window_frames:
        return 0
    return (total_frames - window_frames) // shift_frames + 1


def window_bounds(frames: int, spec: WindowSpec, rate_hz: float) -> list[tuple[int, int]]:
    """(start, stop) frame indices of every full window over ``frames`` frames."""
    w, s = spec.frames(rate_hz)
    return [(a, a + w) for a in range(0, window_count(frames, w, s) * s, s)]
