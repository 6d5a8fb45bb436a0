"""Training loops for the predictor and the consensus network.

Two modes share one loop skeleton.  Baseline mode fits the predictor
against a fixed gold trace with the CCC loss.  Joint ("acn") mode adds a
consensus network per dimension and optimizes

    total = alpha * L_ccc(gold, consensus) + beta * L_ccc(consensus, prediction)

per window, stepping both networks together.  Gradients reach the
consensus network from both terms unless the detach flag treats the
consensus as a constant target in the second term; the predictor only
ever receives gradients from the second term.

All randomness is drawn from named substreams of the config seed
(init/predictor, init/acn/<dim>, shuffle/<epoch>), so two runs with one
seed are identical and baseline/joint pairs share both their predictor
initialization and their batch order.
"""

from __future__ import annotations

import copy
import json
import math
import time
import csv
import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .annotations import SourceData, WindowSpec, window_count
from .ccc import POOLINGS, ccc_batch_loss, ccc_from_stats, ccc_stats
from .consensus import (
    Acn,
    AcnConfig,
    backward_consensus,
    forward_consensus,
    init_acn,
    orient_acn,
)
from .errors import ConfigError, ContractError, StructuralError
from .nn import (
    Network,
    OptimConfig,
    backward,
    forward,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    zero_grads,
)
from .predictor import (
    DUAL_DIMENSIONS,
    Predictor,
    PredictorConfig,
    build_inputs,
    init_predictor,
    output_index,
)
from .rng import derive_seed, substream

TRAIN_MODES = ("baseline", "acn")
DIMENSION_CHOICES = ("arousal", "valence", "both")

# Window geometries used by the reference protocols.
WINDOW_REGIMES = {
    "5s_3s": WindowSpec(5.0, 3.0),
    "3s_0.4s": WindowSpec(3.0, 0.4),
}

# Windows whose target trace is (numerically) constant carry no CCC
# signal; they are skipped with a counter instead of producing
# epsilon-dominated gradients.
DEGENERATE_VAR = 1e-10

EPOCHS_CSV_COLUMNS = (
    "epoch", "term1", "term2", "total", "val_ccc_arousal", "val_ccc_valence",
)


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "baseline"
    dimensions: str = "both"
    alpha: float = 0.5
    beta: float = 0.5
    epochs: int = 15
    batch_size: int = 32
    window: WindowSpec = WINDOW_REGIMES["5s_3s"]
    optim: OptimConfig = OptimConfig()
    pooling: str = "per_window_mean"
    seed: int = 0
    detach_consensus_in_second_term: bool = False
    predictor: PredictorConfig = PredictorConfig()
    acn: AcnConfig = AcnConfig()

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ContractError(f"mode must be one of {TRAIN_MODES}, got {self.mode!r}")
        if self.dimensions not in DIMENSION_CHOICES:
            raise ContractError(
                f"dimensions must be one of {DIMENSION_CHOICES}, got {self.dimensions!r}"
            )
        if self.alpha < 0 or self.beta < 0:
            raise ContractError(
                f"alpha and beta must be >= 0, got {self.alpha}, {self.beta}"
            )
        if self.alpha + self.beta <= 0:
            raise ContractError("alpha + beta must be positive")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.pooling not in POOLINGS:
            raise ContractError(
                f"pooling must be one of {POOLINGS}, got {self.pooling!r}"
            )


def resolve_dimensions(cfg: TrainConfig) -> tuple[str, ...]:
    return DUAL_DIMENSIONS if cfg.dimensions == "both" else (cfg.dimensions,)


# ---------------------------------------------------------------------------
# Config serialization


_SUB_CONFIGS = {
    "window": (WindowSpec, ()),
    "optim": (OptimConfig, ()),
    "predictor": (PredictorConfig, ("encoder_dims",)),
    "acn": (AcnConfig, ("hidden_dims",)),
}


def train_config_to_dict(cfg: TrainConfig) -> dict:
    """Plain-dict form of a config; JSON round-trips back via from_dict."""
    return dataclasses.asdict(cfg)


def _build_sub(cls, value, tuple_fields):
    if dataclasses.is_dataclass(value):
        return value
    if not isinstance(value, Mapping):
        raise ConfigError(f"{cls.__name__} section must be a mapping, got {value!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(value) - known
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs = dict(value)
    for name in tuple_fields:
        if name in kwargs and kwargs[name] is not None:
            kwargs[name] = tuple(kwargs[name])
    return cls(**kwargs)


def train_config_from_dict(d: Mapping) -> TrainConfig:
    """Rebuild a TrainConfig from its dict form; unknown keys are errors."""
    if not isinstance(d, Mapping):
        raise ConfigError(f"train config must be a mapping, got {type(d).__name__}")
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
    kwargs = dict(d)
    for name, (cls, tuple_fields) in _SUB_CONFIGS.items():
        if name in kwargs:
            kwargs[name] = _build_sub(cls, kwargs[name], tuple_fields)
    return TrainConfig(**kwargs)


def config_hash(cfg: TrainConfig) -> str:
    blob = json.dumps(train_config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Data plumbing


@dataclass(eq=False)
class TrainItem:
    """One training window: a feature slice plus per-dimension targets."""

    source_id: str
    start_frame: int
    features: np.ndarray
    gold: dict[str, np.ndarray]
    annotations: dict[str, np.ndarray]


@dataclass(eq=False)
class Batch:
    segments: tuple[TrainItem, ...]

    def __post_init__(self):
        self.segments = tuple(self.segments)
        if not self.segments:
            raise ContractError("empty batch")
        lengths = {np.shape(s.features)[0] for s in self.segments}
        if len(lengths) > 1:
            raise ContractError(f"mixed window lengths in one batch: {sorted(lengths)}")


@dataclass(eq=False)
class TrainData:
    """Windowed training items plus full validation sources."""

    train: tuple[TrainItem, ...]
    val: tuple[SourceData, ...] = ()

    def __post_init__(self):
        self.train = tuple(self.train)
        self.val = tuple(self.val)

    @property
    def feature_dim(self) -> int:
        if not self.train:
            raise ContractError("no training windows")
        return self.train[0].features.shape[1]


def prepare_data(
    train_sources: Sequence[SourceData],
    val_sources: Sequence[SourceData],
    cfg: TrainConfig,
) -> TrainData:
    """Slice the training sources into windows for the configured dimensions.

    Annotation matrices are only carried along in acn mode; validation
    sources are kept whole (validation scores full traces).
    """
    dims = resolve_dimensions(cfg)
    items = []
    for src in train_sources:
        for dim in dims:
            if dim not in src.gold:
                raise ContractError(
                    f"source {src.source_id!r} has no gold track for {dim!r}"
                )
            if cfg.mode == "acn" and dim not in src.annotations:
                raise ContractError(
                    f"source {src.source_id!r} has no annotations for {dim!r}"
                )
        rate = src.features.rate_hz
        w, s = cfg.window.frames(rate)
        count = window_count(src.features.frames, w, s)
        for k in range(count):
            a, b = k * s, k * s + w
            gold = {dim: src.gold[dim].values[a:b] for dim in dims}
            ann = {}
            if cfg.mode == "acn":
                ann = {dim: src.annotations[dim].data[a:b] for dim in dims}
            items.append(
                TrainItem(
                    source_id=src.source_id,
                    start_frame=a,
                    features=src.features.data[a:b],
                    gold=gold,
                    annotations=ann,
                )
            )
    return TrainData(train=tuple(items), val=tuple(val_sources))


def make_batches(segments, batch_size: int, seed: int, shuffle: bool = True) -> list[Batch]:
    """Split items into batches, keeping the final partial batch."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    items = list(segments)
    if shuffle:
        order = np.random.default_rng(seed).permutation(len(items))
        items = [items[i] for i in order]
    return [
        Batch(segments=tuple(items[i : i + batch_size]))
        for i in range(0, len(items), batch_size)
    ]


# ---------------------------------------------------------------------------
# Models


@dataclass(eq=False)
class JointModel:
    predictor: Predictor
    acns: dict[str, Acn]
    # per dimension: whether orient_acn negated the freshly initialised net
    acn_flipped: dict[str, bool] = field(default_factory=dict)


def init_models(data: TrainData, cfg: TrainConfig) -> JointModel:
    """Build predictor (and per-dimension ACNs in acn mode) from the config.

    Sentinel fields (predictor.feature_dim == 0, acn.annotators == 0) are
    resolved from the data; explicit values must match it.
    """
    dims = resolve_dimensions(cfg)
    if len(dims) > 1 and cfg.predictor.heads != "dual":
        raise ConfigError("training both dimensions requires a dual-head predictor")
    feature_dim = data.feature_dim
    pcfg = cfg.predictor
    if pcfg.feature_dim == 0:
        pcfg = dataclasses.replace(pcfg, feature_dim=feature_dim)
    elif pcfg.feature_dim != feature_dim:
        raise ContractError(
            f"config feature_dim {pcfg.feature_dim} does not match data ({feature_dim})"
        )
    predictor = init_predictor(pcfg, substream(cfg.seed, "init/predictor"))
    acns: dict[str, Acn] = {}
    flipped: dict[str, bool] = {}
    if cfg.mode == "acn":
        for dim in dims:
            widths = {
                item.annotations[dim].shape[1]
                for item in data.train
                if dim in item.annotations
            }
            if len(widths) != 1:
                raise ContractError(
                    f"inconsistent annotator counts for {dim!r}: {sorted(widths)}"
                )
            (annotators,) = widths
            acfg = cfg.acn
            if acfg.annotators == 0:
                acfg = dataclasses.replace(acfg, annotators=annotators)
            elif acfg.annotators != annotators:
                raise ContractError(
                    f"config expects {acfg.annotators} annotators, data has {annotators}"
                )
            acn = init_acn(acfg, substream(cfg.seed, f"init/acn/{dim}"))
            probe = [it.annotations[dim] for it in data.train if dim in it.annotations]
            flipped[dim] = orient_acn(acn, np.vstack(probe[:32]))
            acns[dim] = acn
    return JointModel(predictor=predictor, acns=acns, acn_flipped=flipped)


# ---------------------------------------------------------------------------
# Loss over one batch


@dataclass(frozen=True)
class StepStats:
    term1: float | None
    term2: float | None
    total: float
    degenerate: int


def compute_batch(model: JointModel, batch: Batch, cfg: TrainConfig) -> StepStats:
    """Forward/backward for one batch; gradients accumulate into the nets.

    All windows go through single forward passes and are scored as
    (windows, frames) arrays.  Both modes share one path: the predictor is
    fitted to a target per window, the gold trace in baseline mode and the
    consensus in acn mode, where the consensus is also fitted to the gold
    trace (term 1).  A window whose gold or consensus is constant is masked.
    """
    dims = resolve_dimensions(cfg)
    items = batch.segments
    k = len(items)
    w = items[0].features.shape[0]
    ctx = model.predictor.config.context_frames
    x = np.vstack([build_inputs(np.asarray(it.features, dtype=np.float64), ctx) for it in items])
    preds = forward(model.predictor.net, x)
    grad_pred = np.zeros_like(preds)
    joint = cfg.mode == "acn"
    beta = cfg.beta if joint else 1.0
    learn_cons_from_term2 = not cfg.detach_consensus_in_second_term
    degenerate = 0
    term1_parts, term2_parts = [], []
    for dim in dims:
        col = output_index(model.predictor.config, dim)
        gold = np.array([it.gold[dim] for it in items], dtype=np.float64)
        valid = gold.var(axis=1) >= DEGENERATE_VAR
        target = gold
        if joint:
            m = np.vstack([np.asarray(it.annotations[dim], dtype=np.float64) for it in items])
            target = forward_consensus(model.acns[dim], m).reshape(k, w)
            valid &= target.var(axis=1) >= DEGENERATE_VAR
        degenerate += k - int(np.count_nonzero(valid))
        t2, g2_target, g2_pred = ccc_batch_loss(
            target,
            preds[:, col].reshape(k, w),
            valid,
            cfg.pooling,
            want_grad_x=joint and learn_cons_from_term2,
            want_grad_y=True,
        )
        term2_parts.append(t2)
        grad_pred[:, col] += beta * g2_pred.ravel()
        if joint:
            t1, _, g1_cons = ccc_batch_loss(gold, target, valid, cfg.pooling, want_grad_y=True)
            term1_parts.append(t1)
            grad_cons = cfg.alpha * g1_cons
            if learn_cons_from_term2:
                grad_cons = grad_cons + beta * g2_target
            backward_consensus(model.acns[dim], grad_cons.ravel())
    backward(model.predictor.net, grad_pred)
    term2 = math.fsum(term2_parts)
    if not joint:
        return StepStats(term1=None, term2=None, total=term2, degenerate=degenerate)
    term1 = math.fsum(term1_parts)
    return StepStats(
        term1=term1,
        term2=term2,
        total=cfg.alpha * term1 + beta * term2,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Training loops


@dataclass(frozen=True)
class StepRecord:
    epoch: int
    step: int
    term1: float | None
    term2: float | None
    total: float
    degenerate: int


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    term1: float | None
    term2: float | None
    total: float
    val_ccc_arousal: float | None
    val_ccc_valence: float | None


@dataclass(eq=False)
class TrainRun:
    config_hash: str
    mode: str
    dimensions: tuple[str, ...]
    epochs: tuple[EpochRecord, ...]
    steps: tuple[StepRecord, ...]
    degenerate_windows: int
    wall_clock_s: float
    model: JointModel

    def __post_init__(self):
        if [e.epoch for e in self.epochs] != list(range(1, len(self.epochs) + 1)):
            raise ContractError("epoch records must be numbered 1..n in order")


def _validation_ccc(model: JointModel, sources, dim: str) -> float | None:
    if not sources:
        return None
    col = output_index(model.predictor.config, dim)
    ctx = model.predictor.config.context_frames
    scores = []
    for src in sources:
        pred = forward(model.predictor.net, build_inputs(src.features.data, ctx))[:, col]
        scores.append(ccc_from_stats(ccc_stats(src.gold[dim].values, pred)))
    return math.fsum(scores) / len(scores)


def _check_items(data: TrainData, cfg: TrainConfig, need_annotations: bool) -> None:
    dims = resolve_dimensions(cfg)
    if not data.train:
        raise ContractError("no training windows")
    for item in data.train:
        for dim in dims:
            if dim not in item.gold:
                raise ContractError(
                    f"window of {item.source_id!r} is missing gold for {dim!r}"
                )
            if need_annotations and dim not in item.annotations:
                raise ContractError(
                    f"window of {item.source_id!r} is missing annotations for {dim!r}"
                )


def _train_loop(data: TrainData, cfg: TrainConfig, model: JointModel) -> TrainRun:
    dims = resolve_dimensions(cfg)
    started = time.perf_counter()
    nets: list[Network] = [model.predictor.net] + [model.acns[d].net for d in dims if d in model.acns]
    steps: list[StepRecord] = []
    epochs: list[EpochRecord] = []
    degenerate_total = 0
    global_step = 0
    for epoch in range(1, cfg.epochs + 1):
        batches = make_batches(
            data.train, cfg.batch_size, derive_seed(cfg.seed, f"shuffle/{epoch:03d}")
        )
        t1_acc, t2_acc, total_acc, weight_acc = [], [], [], 0
        for batch in batches:
            stats = compute_batch(model, batch, cfg)
            for net in nets:
                optimizer_step(net, cfg.optim)
            global_step += 1
            degenerate_total += stats.degenerate
            steps.append(
                StepRecord(
                    epoch=epoch,
                    step=global_step,
                    term1=stats.term1,
                    term2=stats.term2,
                    total=stats.total,
                    degenerate=stats.degenerate,
                )
            )
            kb = len(batch.segments)
            weight_acc += kb
            total_acc.append(stats.total * kb)
            if stats.term1 is not None:
                t1_acc.append(stats.term1 * kb)
                t2_acc.append(stats.term2 * kb)
        term1 = math.fsum(t1_acc) / weight_acc if t1_acc else None
        term2 = math.fsum(t2_acc) / weight_acc if t2_acc else None
        epochs.append(
            EpochRecord(
                epoch=epoch,
                term1=term1,
                term2=term2,
                total=math.fsum(total_acc) / weight_acc,
                val_ccc_arousal=(
                    _validation_ccc(model, data.val, "arousal") if "arousal" in dims else None
                ),
                val_ccc_valence=(
                    _validation_ccc(model, data.val, "valence") if "valence" in dims else None
                ),
            )
        )
    return TrainRun(
        config_hash=config_hash(cfg),
        mode=cfg.mode,
        dimensions=dims,
        epochs=tuple(epochs),
        steps=tuple(steps),
        degenerate_windows=degenerate_total,
        wall_clock_s=time.perf_counter() - started,
        model=model,
    )


def train_baseline(data: TrainData, cfg: TrainConfig) -> TrainRun:
    """Fit the predictor against the gold trace; alpha/beta are not used."""
    if cfg.mode != "baseline":
        raise ContractError(f"train_baseline needs mode='baseline', got {cfg.mode!r}")
    _check_items(data, cfg, need_annotations=False)
    model = init_models(data, cfg)
    return _train_loop(data, cfg, model)


def train_joint(
    data: TrainData,
    cfg: TrainConfig,
    *,
    acn_init: Mapping[str, Acn] | None = None,
    freeze_acn: bool = False,
) -> TrainRun:
    """Jointly fit predictor and consensus networks.

    ``acn_init`` substitutes pre-built consensus networks (copied, not
    adopted); ``freeze_acn`` pins their weights so only the predictor
    learns.  Both hooks exist for controlled comparisons against the
    baseline.
    """
    if cfg.mode != "acn":
        raise ContractError(f"train_joint needs mode='acn', got {cfg.mode!r}")
    _check_items(data, cfg, need_annotations=True)
    model = init_models(data, cfg)
    if acn_init:
        for dim, acn in acn_init.items():
            if dim not in model.acns:
                raise ContractError(f"acn_init for unused dimension {dim!r}")
            if acn.annotators != model.acns[dim].annotators:
                raise ContractError(
                    f"acn_init for {dim!r} expects {acn.annotators} annotators, "
                    f"data has {model.acns[dim].annotators}"
                )
            model.acns[dim] = copy.deepcopy(acn)
            model.acn_flipped[dim] = False
    if freeze_acn:
        for acn in model.acns.values():
            for layer in acn.net.layers:
                layer.trainable = False
    return _train_loop(data, cfg, model)


def run_training(data: TrainData, cfg: TrainConfig) -> TrainRun:
    if cfg.mode == "baseline":
        return train_baseline(data, cfg)
    return train_joint(data, cfg)


# ---------------------------------------------------------------------------
# Artifacts


def _cell(v) -> str:
    return "" if v is None else repr(float(v))


def write_epochs_csv(path, records: Sequence[EpochRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EPOCHS_CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.epoch,
                    _cell(r.term1),
                    _cell(r.term2),
                    _cell(r.total),
                    _cell(r.val_ccc_arousal),
                    _cell(r.val_ccc_valence),
                ]
            )


def save_run(run_dir, run: TrainRun, cfg: TrainConfig) -> None:
    """Persist a run directory: config.json, epochs.csv, checkpoint.json."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "config.json", "w") as fh:
        json.dump(train_config_to_dict(cfg), fh, indent=2)
    write_epochs_csv(run_dir / "epochs.csv", run.epochs)
    nets = {"predictor": run.model.predictor.net}
    for dim, acn in run.model.acns.items():
        nets[f"acn/{dim}"] = acn.net
    meta = {
        "mode": run.mode,
        "dimensions": list(run.dimensions),
        "config_hash": run.config_hash,
        "predictor_config": dataclasses.asdict(run.model.predictor.config),
        "degenerate_windows": run.degenerate_windows,
        "acn_flipped": run.model.acn_flipped,
        "wall_clock_s": run.wall_clock_s,
    }
    save_checkpoint(run_dir / "checkpoint.json", nets, meta)


def load_run_model(run_dir) -> tuple[JointModel, dict]:
    """Rebuild the trained networks saved by save_run."""
    run_dir = Path(run_dir)
    nets, meta = load_checkpoint(run_dir / "checkpoint.json")
    if "predictor" not in nets:
        raise StructuralError(f"{run_dir}: checkpoint has no predictor network")
    pcfg = _build_sub(PredictorConfig, meta.get("predictor_config", {}), ("encoder_dims",))
    predictor = Predictor(net=nets["predictor"], config=pcfg)
    acns = {}
    for name, net in nets.items():
        if name.startswith("acn/"):
            acns[name[len("acn/"):]] = Acn(net=net, annotators=net.in_dim)
    flipped = meta.get("acn_flipped", {})
    return JointModel(predictor=predictor, acns=acns, acn_flipped=flipped), meta
