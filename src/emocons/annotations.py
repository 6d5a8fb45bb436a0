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
affect dimension, ``gold_<dim>.csv`` and ``annotations_<dim>.csv``.

``window_bounds`` is the one place that cuts a source into fixed-length
windows; training and per-window scoring both slice by its bounds.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError, StructuralError

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


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class AnnotationTrack:
    """One annotator's trace for one affect dimension."""

    annotator_id: str
    dimension: str
    rate_hz: float
    values: np.ndarray

    def __post_init__(self):
        _check_dimension(self.dimension)
        _check_rate(self.rate_hz)
        if not self.annotator_id:
            raise ContractError("annotator_id must be non-empty")
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] < 1:
            raise ContractError(f"values must be 1-D and nonempty, got shape {v.shape}")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def frames(self) -> int:
        return self.values.shape[0]


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
        object.__setattr__(self, "data", _readonly(d))
        object.__setattr__(self, "annotator_ids", ids)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def annotators(self) -> int:
        return self.data.shape[1]

    def column(self, annotator_id: str) -> AnnotationTrack:
        try:
            j = self.annotator_ids.index(annotator_id)
        except ValueError:
            raise ContractError(f"no annotator {annotator_id!r} in {self.annotator_ids}") from None
        return AnnotationTrack(annotator_id, self.dimension, self.rate_hz, self.data[:, j])


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
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] < 1:
            raise ContractError(f"values must be 1-D and nonempty, got shape {v.shape}")
        if self.provenance not in PROVENANCES:
            raise ContractError(
                f"unknown provenance {self.provenance!r}, expected one of {PROVENANCES}"
            )
        object.__setattr__(self, "values", _readonly(v))

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
        object.__setattr__(self, "data", _readonly(d))

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
# CSV parsing


def _read_rows(path: Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Return (header, [(line_number, fields), ...]) skipping blank lines."""
    with open(path, newline="") as fh:
        rows = [(i, row) for i, row in enumerate(csv.reader(fh), start=1) if row]
    if not rows:
        raise StructuralError(f"{path}: empty file")
    (_, header), body = rows[0], rows[1:]
    header = [c.strip() for c in header]
    if not body:
        raise StructuralError(f"{path}: no data rows")
    return header, body


def _parse_float(token: str, line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"cannot parse {token.strip()!r} as a number", line=line) from None


def _infer_rate(times: np.ndarray, path: Path) -> float:
    if times.shape[0] < 2:
        raise StructuralError(f"{path}: need at least 2 rows to infer the sampling rate")
    diffs = np.diff(times)
    if np.any(diffs <= 0):
        raise StructuralError(f"{path}: time column must be strictly increasing")
    return 1.0 / float(np.median(diffs))


def _parse_table(path: Path, header: list[str], body) -> tuple[np.ndarray, np.ndarray]:
    """Parse rows with a leading time column into (times, value matrix)."""
    width = len(header)
    times, values = [], []
    for line, row in body:
        if len(row) != width:
            raise StructuralError(
                f"{path}: row at line {line} has {len(row)} fields, expected {width}"
            )
        times.append(_parse_float(row[0], line))
        values.append([_parse_float(tok, line) for tok in row[1:]])
    return np.array(times), np.array(values, dtype=np.float64)


def _clamp(values: np.ndarray, path: Path) -> np.ndarray:
    outside = int(np.count_nonzero((values < VALUE_MIN) | (values > VALUE_MAX)))
    if outside:
        warnings.warn(
            f"clamped {outside} value(s) outside [{VALUE_MIN}, {VALUE_MAX}] in {path.name}",
            ClampWarning,
            stacklevel=3,
        )
        values = np.clip(values, VALUE_MIN, VALUE_MAX)
    return values


def _load_long(path: Path, body, dimension: str) -> AnnotationMatrix:
    per: dict[str, list[tuple[float, float]]] = {}
    for line, row in body:
        if len(row) != 3:
            raise StructuralError(
                f"{path}: row at line {line} has {len(row)} fields, expected 3"
            )
        t = _parse_float(row[0], line)
        v = _parse_float(row[2], line)
        per.setdefault(row[1].strip(), []).append((t, v))
    ids = sorted(per)
    grids = []
    for a in ids:
        per[a].sort(key=lambda tv: tv[0])
        grids.append(np.array([t for t, _ in per[a]]))
    ref = grids[0]
    for a, g in zip(ids, grids):
        if g.shape != ref.shape or not np.array_equal(g, ref):
            raise StructuralError(
                f"{path}: annotator {a!r} is not on the same time grid as {ids[0]!r}"
            )
    data = np.column_stack([[v for _, v in per[a]] for a in ids])
    data = _clamp(data, path)
    return AnnotationMatrix(data, tuple(ids), dimension, _infer_rate(ref, path))


def load_annotation_csv(path: str | Path, dimension: str) -> AnnotationTrack | AnnotationMatrix:
    """Load annotations; a single-annotator file yields an AnnotationTrack.

    Values outside [-1, 1] are clamped and reported with a ClampWarning.
    """
    path = Path(path)
    _check_dimension(dimension)
    header, body = _read_rows(path)
    if header[0] != "time":
        raise StructuralError(f"{path}: first column must be 'time', got {header[0]!r}")
    if [c.lower() for c in header] == ["time", "annotator", "value"]:
        return _load_long(path, body, dimension)
    ids = header[1:]
    if not ids:
        raise StructuralError(f"{path}: no annotator columns")
    times, values = _parse_table(path, header, body)
    rate = _infer_rate(times, path)
    values = _clamp(values, path)
    order = sorted(range(len(ids)), key=lambda j: ids[j])
    values = values[:, order]
    ids = [ids[j] for j in order]
    if len(ids) == 1:
        return AnnotationTrack(ids[0], dimension, rate, values[:, 0])
    return AnnotationMatrix(values, tuple(ids), dimension, rate)


def as_annotation_matrix(ann: AnnotationTrack | AnnotationMatrix) -> AnnotationMatrix:
    """A single annotator's track as a one-column matrix; matrices pass through."""
    if isinstance(ann, AnnotationMatrix):
        return ann
    return AnnotationMatrix(ann.values[:, None], (ann.annotator_id,), ann.dimension, ann.rate_hz)


def load_gold_csv(
    path: str | Path, dimension: str, provenance: str = "external_gold"
) -> GoldStandardTrack:
    """Load a single-column reference trace (header ``time,value``)."""
    path = Path(path)
    _check_dimension(dimension)
    header, body = _read_rows(path)
    if len(header) != 2 or header[0] != "time":
        raise StructuralError(f"{path}: expected columns time,value got {header}")
    times, values = _parse_table(path, header, body)
    rate = _infer_rate(times, path)
    values = _clamp(values, path)
    return GoldStandardTrack(dimension, rate, values[:, 0], provenance)


def load_features_csv(path: str | Path) -> FeatureSequence:
    """Load frame-level features; all columns after ``time`` are kept as-is."""
    path = Path(path)
    header, body = _read_rows(path)
    if header[0] != "time" or len(header) < 2:
        raise StructuralError(f"{path}: expected a time column followed by feature columns")
    times, values = _parse_table(path, header, body)
    return FeatureSequence(values, _infer_rate(times, path))


def _write_table(path: Path, header: list[str], rate_hz: float, columns: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k in range(columns.shape[0]):
            w.writerow([f"{k / rate_hz:.6f}"] + [f"{v:.6f}" for v in columns[k]])


def write_annotation_csv(path: str | Path, ann: AnnotationTrack | AnnotationMatrix) -> None:
    path = Path(path)
    if isinstance(ann, AnnotationTrack):
        _write_table(path, ["time", ann.annotator_id], ann.rate_hz, ann.values[:, None])
    else:
        _write_table(path, ["time", *ann.annotator_ids], ann.rate_hz, ann.data)


def write_trace_csv(path: str | Path, values: np.ndarray, rate_hz: float) -> None:
    """Write one trace in the ``time,value`` layout that load_gold_csv reads."""
    _write_table(Path(path), ["time", "value"], rate_hz, np.asarray(values)[:, None])


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

    def source(self, source_id: str) -> SourceData:
        for s in self.sources:
            if s.source_id == source_id:
                return s
        raise ContractError(f"no source {source_id!r} in {self.source_ids}")


def write_dataset(root: str | Path, dataset: Dataset) -> None:
    """Write a dataset directory: manifest.json plus per-source CSV files."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "sources": list(dataset.source_ids),
        "dimensions": list(dataset.dimensions),
        "rate_hz": dataset.sources[0].features.rate_hz,
        "feature_dim": dataset.feature_dim,
        **dataset.meta,
    }
    with open(root / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    for s in dataset.sources:
        d = root / s.source_id
        d.mkdir(exist_ok=True)
        write_features_csv(d / "features.csv", s.features)
        for dim in s.dimensions:
            write_gold_csv(d / f"gold_{dim}.csv", s.gold[dim])
            write_annotation_csv(d / f"annotations_{dim}.csv", s.annotations[dim])


def load_dataset(root: str | Path) -> Dataset:
    root = Path(root)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise StructuralError(f"{root}: not a dataset directory (no manifest.json)")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"{manifest_path}: not valid JSON: {exc}") from None
    if manifest.get("format") != DATASET_FORMAT:
        raise StructuralError(f"{root}: manifest is not a {DATASET_FORMAT} manifest")
    if manifest.get("version") != DATASET_VERSION:
        raise StructuralError(
            f"{root}: unsupported dataset version {manifest.get('version')!r}"
        )
    try:
        source_ids = manifest["sources"]
        dims = manifest["dimensions"]
    except KeyError as exc:
        raise StructuralError(f"{root}: manifest is missing {exc}") from None
    sources = []
    for sid in source_ids:
        d = root / sid
        feats = load_features_csv(d / "features.csv")
        gold = {}
        ann = {}
        provenance = manifest.get("gold_provenance", "external_gold")
        for dim in dims:
            gold[dim] = load_gold_csv(d / f"gold_{dim}.csv", dim, provenance)
            ann[dim] = as_annotation_matrix(
                load_annotation_csv(d / f"annotations_{dim}.csv", dim)
            )
        sources.append(SourceData(source_id=sid, features=feats, gold=gold, annotations=ann))
    return Dataset(sources=sources, meta=manifest)


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
