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

A run stacks its windows once, in a ``WindowStack``: features (windows,
frames, F), and per dimension the gold (windows, frames), its validity
(whether the window's gold varies) and, in acn mode, the annotations
(windows, frames, annotators).  A step gathers its batch's rows of these
arrays, one gather each, in the order the epoch's shuffle draws, and
scores every (term, dimension) pair of the objective in one call of the
CCC kernel, whose term axis holds the pairs.

Precision: a step computes in the dtype of its stack's features, which
the training loop sets to float32, the one place that picks it.  Every
network in a step runs its hidden layers in that dtype over float64 master
weights, each layer taking its product in the dtype of its input (see
``nn``): the predictor reads the float32 features, while the consensus
nets read the float64 annotations, so their first product is float64 and a
one-layer net such as ``make_mean_acn`` stays float64 throughout.  The
consensus output is cast to float64 before the DEGENERATE_VAR variance
test, so the mask, the targets and the CCC loss stay float64, as do the
weights, gradient accumulators, Adam state and clipping, validation,
checkpoints and everything ``prepare_data`` returns.
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

from .annotations import DIMENSIONS, RATE_RTOL, SourceData, WindowSpec, window_bounds
from .atomic import atomic_write, read_json, write_json
from .ccc import POOLINGS, ccc_batch_loss
from .codec import from_dict, to_dict
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
)
from .predictor import (
    Predictor,
    PredictorConfig,
    build_inputs,
    evaluate,
    init_predictor,
    output_index,
)
from .rng import derive_seed, substream

TRAIN_MODES = ("baseline", "acn")
DIMENSION_CHOICES = (*DIMENSIONS, "both")

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
    "epoch", "term1", "term2", "total", *(f"val_ccc_{dim}" for dim in DIMENSIONS),
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
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ContractError(f"{name} must be finite and >= 0, got {value}")
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
    return DIMENSIONS if cfg.dimensions == "both" else (cfg.dimensions,)


# ---------------------------------------------------------------------------
# Config hash


def config_hash(cfg: TrainConfig) -> str:
    blob = json.dumps(to_dict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Data plumbing


@dataclass(eq=False)
class TrainItem:
    """One training window: its predictor input rows plus per-dimension targets."""

    source_id: str
    start_frame: int
    features: np.ndarray
    gold: dict[str, np.ndarray]
    annotations: dict[str, np.ndarray]


@dataclass(eq=False)
class WindowStack:
    """Equal-length windows stacked into arrays, one row per window.

    ``features`` is (windows, frames, F), in the dtype a step on these
    windows computes in.  For each dimension of the first window's gold
    and annotations, ``gold`` is (windows, frames) and ``annotations``
    (windows, frames, annotators), both float64, and ``gold_valid`` marks
    the windows whose gold is not constant.
    """

    features: np.ndarray
    gold: dict[str, np.ndarray]
    gold_valid: dict[str, np.ndarray]
    annotations: dict[str, np.ndarray]

    @classmethod
    def of(cls, items: Sequence[TrainItem], feature_dtype=None) -> WindowStack:
        """Stack ``items``, their features in ``feature_dtype``, the step's
        compute dtype (default: the features' own)."""
        if not items:
            raise ContractError("no windows to stack")
        lengths = {np.shape(s.features)[0] for s in items}
        if len(lengths) > 1:
            raise ContractError(f"mixed window lengths in one batch: {sorted(lengths)}")
        gold = {
            dim: np.array([it.gold[dim] for it in items], dtype=np.float64)
            for dim in items[0].gold
        }
        return cls(
            features=np.stack([it.features for it in items], dtype=feature_dtype),
            gold=gold,
            gold_valid={dim: g.var(axis=1) >= DEGENERATE_VAR for dim, g in gold.items()},
            annotations={
                dim: np.array([it.annotations[dim] for it in items], dtype=np.float64)
                for dim in items[0].annotations
            },
        )

    def take(self, rows: np.ndarray) -> WindowStack:
        """The stack of ``rows``, in that order: one gather per array."""
        return WindowStack(
            features=self.features[rows],
            gold={dim: g[rows] for dim, g in self.gold.items()},
            gold_valid={dim: v[rows] for dim, v in self.gold_valid.items()},
            annotations={dim: a[rows] for dim, a in self.annotations.items()},
        )


@dataclass(eq=False)
class Batch:
    """The windows of one step, and the stack that holds their arrays.

    ``rows`` are the windows' rows in ``stack``, or None when the stack is
    theirs alone; ``Batch(segments=items)`` stacks the items.
    """

    segments: tuple[TrainItem, ...]
    stack: WindowStack | None = None
    rows: np.ndarray | None = None

    def __post_init__(self):
        self.segments = tuple(self.segments)
        if not self.segments:
            raise ContractError("empty batch")
        if self.stack is None:
            self.stack = WindowStack.of(self.segments)

    def gather(self) -> WindowStack:
        """The batch's own stack: its rows, gathered when it is scored."""
        return self.stack if self.rows is None else self.stack.take(self.rows)


@dataclass(eq=False)
class TrainData:
    """Windowed training items plus full validation sources.

    ``panels`` holds, in acn mode, each dimension's annotator ids: the
    columns of its windows' annotations, shared by every training source.
    """

    train: tuple[TrainItem, ...]
    val: tuple[SourceData, ...] = ()
    panels: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        self.train = tuple(self.train)
        self.val = tuple(self.val)

    @property
    def feature_dim(self) -> int:
        """Width of the input rows: the raw feature width x (context_frames + 1)."""
        if not self.train:
            raise ContractError("no training windows")
        return self.train[0].features.shape[1]


def prepare_data(
    train_sources: Sequence[SourceData],
    val_sources: Sequence[SourceData],
    cfg: TrainConfig,
) -> TrainData:
    """Slice the training sources into windows for the configured dimensions.

    A window's features are cut from the predictor inputs built over the
    whole source, so its first rows see the frames before the window, as
    in scoring.  Annotation matrices are only carried along in acn mode, where
    the training sources must share each dimension's annotator ids (column j
    of a consensus net's input is one rater); validation sources are kept
    whole (validation scores full traces).  The training sources must share
    one feature rate, so that all their windows have one length.
    """
    dims = resolve_dimensions(cfg)
    head = next(iter(train_sources), None)
    for src in train_sources[1:]:
        if not math.isclose(src.features.rate_hz, head.features.rate_hz, rel_tol=RATE_RTOL):
            raise ContractError(
                f"training sources differ in rate: {head.source_id!r} is sampled at "
                f"{head.features.rate_hz} Hz, {src.source_id!r} at {src.features.rate_hz} Hz"
            )
    items = []
    panels: dict[str, tuple[str, tuple[str, ...]]] = {}  # dim -> first source, its ids
    for src in train_sources:
        for dim in dims:
            if dim not in src.gold:
                raise ContractError(
                    f"source {src.source_id!r} has no gold track for {dim!r}"
                )
            if cfg.mode == "acn":  # SourceData annotates every dimension it has gold for
                ids = src.annotations[dim].annotator_ids
                first, first_ids = panels.setdefault(dim, (src.source_id, ids))
                if ids != first_ids:
                    raise ContractError(
                        f"{dim} annotator panels differ: source {first!r} has {first_ids}, "
                        f"source {src.source_id!r} has {ids}"
                    )
        inputs = build_inputs(src.features.data, cfg.predictor.context_frames)
        for a, b in window_bounds(src.features.frames, cfg.window, src.features.rate_hz):
            gold = {dim: src.gold[dim].values[a:b] for dim in dims}
            ann = {}
            if cfg.mode == "acn":
                ann = {dim: src.annotations[dim].data[a:b] for dim in dims}
            items.append(
                TrainItem(
                    source_id=src.source_id,
                    start_frame=a,
                    features=inputs[a:b],
                    gold=gold,
                    annotations=ann,
                )
            )
    return TrainData(
        train=tuple(items),
        val=tuple(val_sources),
        panels={dim: ids for dim, (_, ids) in panels.items()},
    )


def make_batches(
    segments: Sequence[TrainItem],
    batch_size: int,
    seed: int,
    stack: WindowStack | None = None,
) -> list[Batch]:
    """Shuffle items by ``seed`` and split them into batches, keeping the
    final partial batch.

    ``stack`` holds the items' arrays, row i those of item i (stacked here
    when not given); a batch gathers its rows from it when it is scored.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    items = tuple(segments)
    if stack is None:
        stack = WindowStack.of(items)
    order = np.random.default_rng(seed).permutation(len(items))
    return [
        Batch(segments=tuple(items[i] for i in rows.tolist()), stack=stack, rows=rows)
        for rows in (order[i : i + batch_size] for i in range(0, len(items), batch_size))
    ]


# ---------------------------------------------------------------------------
# Models


@dataclass(eq=False)
class JointModel:
    predictor: Predictor
    acns: dict[str, Acn]
    # per dimension: whether orient_acn negated the freshly initialised net
    acn_flipped: dict[str, bool] = field(default_factory=dict)
    # per dimension: the annotator ids the consensus net reads, column by
    # column, where known (runs saved before they were recorded lack them)
    acn_annotator_ids: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _predictor_config(cfg: TrainConfig, input_width: int) -> PredictorConfig:
    """``cfg.predictor`` for input rows ``input_width`` wide.

    Both dimensions need a dual head.  A feature_dim of 0 is resolved from
    the width; an explicit one must match it.
    """
    if len(resolve_dimensions(cfg)) > 1 and cfg.predictor.heads != "dual":
        raise ConfigError(
            "training both dimensions requires a dual-head predictor: set "
            "--train.predictor.heads dual, or train one --train.dimensions"
        )
    pcfg = cfg.predictor
    feature_dim = input_width // (pcfg.context_frames + 1)
    if pcfg.feature_dim == 0:
        return dataclasses.replace(pcfg, feature_dim=feature_dim)
    if pcfg.feature_dim != feature_dim:
        raise ContractError(
            f"config feature_dim {pcfg.feature_dim} does not match data ({feature_dim})"
        )
    return pcfg


def init_models(data: TrainData, cfg: TrainConfig) -> JointModel:
    """Build predictor (and per-dimension ACNs in acn mode) from the config.

    Sentinel fields (predictor.feature_dim == 0, acn.annotators == 0) are
    resolved from the data; explicit values must match it.  Every window
    must hold gold for each trained dimension and, in acn mode, its
    annotations.
    """
    dims = resolve_dimensions(cfg)
    pcfg = _predictor_config(cfg, data.feature_dim)
    for item in data.train:
        for dim in dims:
            if dim not in item.gold:
                raise ContractError(
                    f"window of {item.source_id!r} is missing gold for {dim!r}"
                )
            if cfg.mode == "acn" and dim not in item.annotations:
                raise ContractError(
                    f"window of {item.source_id!r} is missing annotations for {dim!r}"
                )
    predictor = init_predictor(pcfg, substream(cfg.seed, "init/predictor"))
    acns: dict[str, Acn] = {}
    flipped: dict[str, bool] = {}
    if cfg.mode == "acn":
        for dim in dims:
            widths = {item.annotations[dim].shape[1] for item in data.train}
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
            probe = [it.annotations[dim] for it in data.train[:32]]
            flipped[dim] = orient_acn(acn, np.vstack(probe))
            acns[dim] = acn
    return JointModel(
        predictor=predictor, acns=acns, acn_flipped=flipped, acn_annotator_ids=dict(data.panels)
    )


# ---------------------------------------------------------------------------
# Loss over one batch


@dataclass(frozen=True)
class StepRecord:
    """The loss terms of one optimizer step and its count of masked windows."""

    term1: float | None
    term2: float | None
    total: float
    degenerate: int


def compute_batch(model: JointModel, batch: Batch, cfg: TrainConfig) -> StepRecord:
    """Forward/backward for one batch; gradients accumulate into the nets.

    All windows go through single forward passes and are scored as
    (windows, frames) arrays.  Both modes share one path: the predictor is
    fitted to a target per window, the gold trace in baseline mode and the
    consensus in acn mode, where the consensus is also fitted to the gold
    trace (term 1).  A window whose gold or consensus is constant is masked.
    Every (term, dimension) pair is one term of a single ``ccc_batch_loss``
    call: per dimension (target, prediction), then in acn mode (gold,
    consensus) under the same mask.
    """
    dims = resolve_dimensions(cfg)
    arrays = batch.gather()
    k, w = arrays.features.shape[:2]
    dtype = arrays.features.dtype  # the step's precision (see the module docstring)
    preds = forward(model.predictor.net, arrays.features.reshape(k * w, -1), hidden_dtype=dtype)
    joint = cfg.mode == "acn"
    beta = cfg.beta if joint else 1.0
    learn_cons_from_term2 = not cfg.detach_consensus_in_second_term
    cols = [output_index(model.predictor.config, dim) for dim in dims]
    terms = []  # (x, y, mask) per dimension: term 2, then in acn mode term 1
    for dim, col in zip(dims, cols):
        pred = preds[:, col].reshape(k, w)
        valid = arrays.gold_valid[dim]
        if not joint:
            terms.append((arrays.gold[dim], pred, valid))
            continue
        m = arrays.annotations[dim].reshape(k * w, -1)
        cons = forward_consensus(model.acns[dim], m, hidden_dtype=dtype)
        target = cons.astype(np.float64, copy=False).reshape(k, w)
        valid = valid & (target.var(axis=1) >= DEGENERATE_VAR)
        terms += [(target, pred, valid), (arrays.gold[dim], target, valid)]
    xs, ys, masks = zip(*terms)
    losses, grad_x, grad_y = ccc_batch_loss(
        np.stack(xs),
        np.stack(ys),
        np.stack(masks),
        cfg.pooling,
        want_grad_x=joint and learn_cons_from_term2,
        want_grad_y=True,
    )
    per_dim = 2 if joint else 1
    grad_pred = np.zeros_like(preds)
    for d, (dim, col) in enumerate(zip(dims, cols)):
        t = per_dim * d
        grad_pred[:, col] += beta * grad_y[t].ravel()
        if joint:
            grad_cons = cfg.alpha * grad_y[t + 1]
            if learn_cons_from_term2:
                grad_cons = grad_cons + beta * grad_x[t]
            backward_consensus(model.acns[dim], grad_cons.ravel(), input_grad=False)
    backward(model.predictor.net, grad_pred, input_grad=False)
    degenerate = sum(k - int(np.count_nonzero(valid)) for valid in masks[::per_dim])
    term2 = math.fsum(losses[::per_dim])
    if not joint:
        return StepRecord(term1=None, term2=None, total=term2, degenerate=degenerate)
    term1 = math.fsum(losses[1::per_dim])
    return StepRecord(
        term1=term1,
        term2=term2,
        total=cfg.alpha * term1 + beta * term2,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Training loops


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    term1: float | None
    term2: float | None
    total: float
    # validation CCC per dimension, as ``evaluate`` returns it (empty
    # without validation sources)
    val_ccc: Mapping[str, float]


@dataclass(eq=False)
class TrainRun:
    config: TrainConfig
    epochs: tuple[EpochRecord, ...]
    # compute_batch's records in order: step i is steps[i - 1]
    steps: tuple[StepRecord, ...]
    wall_clock_s: float
    model: JointModel

    @property
    def degenerate_windows(self) -> int:
        return sum(s.degenerate for s in self.steps)


def _train_loop(data: TrainData, cfg: TrainConfig, model: JointModel) -> TrainRun:
    dims = resolve_dimensions(cfg)
    started = time.perf_counter()
    # every step computes in float32 (see the module docstring)
    stack = WindowStack.of(data.train, feature_dtype=np.float32)
    nets: list[Network] = [model.predictor.net] + [model.acns[d].net for d in dims if d in model.acns]
    steps: list[StepRecord] = []
    epochs: list[EpochRecord] = []
    for epoch in range(1, cfg.epochs + 1):
        batches = make_batches(
            data.train, cfg.batch_size, derive_seed(cfg.seed, f"shuffle/{epoch:03d}"), stack
        )
        t1_acc, t2_acc, total_acc, weight_acc = [], [], [], 0
        for batch in batches:
            step = compute_batch(model, batch, cfg)
            for net in nets:
                optimizer_step(net, cfg.optim)
            steps.append(step)
            kb = len(batch.segments)
            weight_acc += kb
            total_acc.append(step.total * kb)
            if step.term1 is not None:
                t1_acc.append(step.term1 * kb)
                t2_acc.append(step.term2 * kb)
        term1 = math.fsum(t1_acc) / weight_acc if t1_acc else None
        term2 = math.fsum(t2_acc) / weight_acc if t2_acc else None
        val = evaluate(model.predictor, data.val, dims) if data.val else {}
        epochs.append(
            EpochRecord(
                epoch=epoch,
                term1=term1,
                term2=term2,
                total=math.fsum(total_acc) / weight_acc,
                val_ccc=val,
            )
        )
    return TrainRun(
        config=cfg,
        epochs=tuple(epochs),
        steps=tuple(steps),
        wall_clock_s=time.perf_counter() - started,
        model=model,
    )


def train_baseline(data: TrainData, cfg: TrainConfig) -> TrainRun:
    """Fit the predictor against the gold trace; alpha/beta are not used."""
    if cfg.mode != "baseline":
        raise ContractError(f"train_baseline needs mode='baseline', got {cfg.mode!r}")
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
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EPOCHS_CSV_COLUMNS)
        for r in records:
            vals = (r.val_ccc.get(dim) for dim in DIMENSIONS)
            writer.writerow([r.epoch, *map(_cell, (r.term1, r.term2, r.total, *vals))])


def save_run(run_dir, run: TrainRun) -> None:
    """Persist a run directory: config.json, epochs.csv, checkpoint.json.

    config.json is ``run.config``; the checkpoint holds the networks and
    what training learned (masked windows, ACN flips, each consensus net's
    annotator ids, wall-clock time).
    """
    run_dir = Path(run_dir)
    write_json(run_dir / "config.json", to_dict(run.config))
    write_epochs_csv(run_dir / "epochs.csv", run.epochs)
    nets = {"predictor": run.model.predictor.net}
    for dim, acn in run.model.acns.items():
        nets[f"acn/{dim}"] = acn.net
    meta = {
        "degenerate_windows": run.degenerate_windows,
        "acn_flipped": run.model.acn_flipped,
        "acn_annotator_ids": {dim: list(ids) for dim, ids in run.model.acn_annotator_ids.items()},
        "wall_clock_s": run.wall_clock_s,
    }
    save_checkpoint(run_dir / "checkpoint.json", nets, meta)


def load_run_model(run_dir) -> tuple[JointModel, TrainConfig]:
    """Rebuild the networks saved by save_run, with the run's config.json.

    A checkpoint without a predictor, or with networks of other widths than
    the config implies, is a StructuralError naming checkpoint.json; a
    config that does not decode or fit the predictor is one naming config.json.
    """
    path = Path(run_dir) / "checkpoint.json"
    nets, meta = load_checkpoint(path)
    if "predictor" not in nets:
        raise StructuralError(f"{path}: checkpoint has no predictor network")
    cfg_path = Path(run_dir) / "config.json"
    try:
        cfg = from_dict(TrainConfig, read_json(cfg_path, "the run's config"))
        pcfg = _predictor_config(cfg, nets["predictor"].in_dim)
    except (ConfigError, ContractError) as exc:
        raise StructuralError(f"{cfg_path}: {exc}") from exc
    predictor = Predictor(net=nets["predictor"], config=pcfg)
    widths = {"predictor": (pcfg.feature_dim * (pcfg.context_frames + 1), pcfg.output_dim)}
    acns = {}
    for name, net in nets.items():
        if name.startswith("acn/"):
            acns[name[len("acn/"):]] = Acn(net=net)
            widths[name] = (net.in_dim, 1)
    for name, (n_in, n_out) in widths.items():
        net = nets[name]
        if (net.in_dim, net.out_dim) != (n_in, n_out):
            raise StructuralError(
                f"{path}: network {name!r} maps {net.in_dim} -> {net.out_dim} columns, "
                f"its config needs {n_in} -> {n_out}"
            )
    # absent from checkpoints saved before the flips were recorded
    flipped = meta.get("acn_flipped", {})
    if "acn_flipped" in meta and not (
        isinstance(flipped, dict)
        and set(flipped) == set(acns)
        and all(isinstance(v, bool) for v in flipped.values())
    ):
        raise StructuralError(
            f"{path}: acn_flipped must map the dimensions {sorted(acns)} to booleans"
        )
    # absent from checkpoints saved before the ids were recorded
    ids = meta.get("acn_annotator_ids", {})
    if not (
        isinstance(ids, dict)
        and all(isinstance(v, list) and all(isinstance(i, str) for i in v) for v in ids.values())
    ):
        raise StructuralError(f"{path}: acn_annotator_ids must map dimensions to lists of ids")
    model = JointModel(
        predictor=predictor,
        acns=acns,
        acn_flipped=flipped,
        acn_annotator_ids={dim: tuple(v) for dim, v in ids.items()},
    )
    return model, cfg
