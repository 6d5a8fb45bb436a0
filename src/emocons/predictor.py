"""Frame-level affect predictor: features in, one value per dimension out.

The network is a dense encoder with a bounded regression head, standing in
for a pretrained speech backbone: the optional fixed random projection
plays the frozen feature extractor, the trainable layers play the
fine-tuned upper stack.  A causal context stack (each frame sees the
previous ``context_frames`` rows) can inject temporal information without
recurrence.

``evaluate`` is the one scoring path: held-out evaluation and the training
loop's per-epoch validation both score a predictor through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .annotations import DIMENSIONS, SourceData, WindowSpec, window_bounds
from . import ccc
from .ccc import POOLINGS
from .errors import ContractError
from .nn import ACTIVATIONS, Network, backward, forward, init_network

FRONTENDS = ("identity", "fixed_random_projection")

HEADS = ("single", "dual")

# fixed output column order in dual mode
DUAL_DIMENSIONS = DIMENSIONS


@dataclass(frozen=True)
class PredictorConfig:
    feature_dim: int = 0  # 0 means: fill in from the dataset before init
    frontend: str = "identity"
    frontend_dim: int = 32
    encoder_dims: tuple[int, ...] = (64, 64)
    activation: str = "tanh"
    heads: str = "single"
    head_activation: str = "tanh"
    context_frames: int = 0

    def __post_init__(self):
        if self.feature_dim < 0:
            raise ContractError(f"feature_dim must be >= 0, got {self.feature_dim}")
        if self.frontend not in FRONTENDS:
            raise ContractError(f"unknown frontend {self.frontend!r}, expected one of {FRONTENDS}")
        if self.frontend_dim < 1:
            raise ContractError(f"frontend_dim must be positive, got {self.frontend_dim}")
        enc = tuple(int(w) for w in self.encoder_dims)
        if not enc or any(w < 1 for w in enc):
            raise ContractError(f"encoder widths must be positive, got {self.encoder_dims}")
        if self.heads not in HEADS:
            raise ContractError(f"heads must be one of {HEADS}, got {self.heads!r}")
        for act in (self.activation, self.head_activation):
            if act not in ACTIVATIONS:
                raise ContractError(f"unknown activation {act!r}")
        if self.head_activation not in ("linear", "tanh"):
            raise ContractError(f"head activation must be linear or tanh, got {self.head_activation!r}")
        if self.context_frames < 0:
            raise ContractError(f"context_frames must be >= 0, got {self.context_frames}")
        object.__setattr__(self, "encoder_dims", enc)

    @property
    def output_dim(self) -> int:
        return 2 if self.heads == "dual" else 1


@dataclass(eq=False)
class Predictor:
    net: Network
    config: PredictorConfig


def build_inputs(features: np.ndarray, context_frames: int) -> np.ndarray:
    """Widen each frame with the preceding frames, oldest first.

    The first frames, which have no full history, repeat frame 0.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ContractError(f"features must be 2-D, got shape {x.shape}")
    if context_frames == 0:
        return x
    m = x.shape[0]
    cols = []
    for back in range(context_frames, -1, -1):
        idx = np.maximum(np.arange(m) - back, 0)
        cols.append(x[idx])
    return np.concatenate(cols, axis=1)


def init_predictor(config: PredictorConfig, rng: np.random.Generator) -> Predictor:
    if config.feature_dim < 1:
        raise ContractError("feature_dim must be set (from the dataset) before building")
    in_dim = config.feature_dim * (config.context_frames + 1)
    if config.frontend == "fixed_random_projection":
        dims = (in_dim, config.frontend_dim, *config.encoder_dims, config.output_dim)
        acts = (config.activation,) * (len(config.encoder_dims) + 1) + (config.head_activation,)
    else:
        dims = (in_dim, *config.encoder_dims, config.output_dim)
        acts = (config.activation,) * len(config.encoder_dims) + (config.head_activation,)
    net = init_network(dims, acts, rng)
    if config.frontend == "fixed_random_projection":
        net.layers[0].trainable = False
    return Predictor(net=net, config=config)


def output_index(config: PredictorConfig, dimension: str) -> int:
    """Column of ``dimension`` in the prediction matrix.

    Single-head predictors emit column 0 for whichever dimension they were
    trained on; dual-head output order is fixed.
    """
    if config.heads == "single":
        return 0
    try:
        return DUAL_DIMENSIONS.index(dimension)
    except ValueError:
        raise ContractError(
            f"dual head emits {DUAL_DIMENSIONS}, no column for {dimension!r}"
        ) from None


def forward_predictor(pred: Predictor, features: np.ndarray) -> np.ndarray:
    """Predict all heads for a window of raw feature rows."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != pred.config.feature_dim:
        raise ContractError(
            f"expected raw features of width {pred.config.feature_dim}, got shape {x.shape}"
        )
    return forward(pred.net, build_inputs(x, pred.config.context_frames))


def backward_predictor(pred: Predictor, grad: np.ndarray) -> np.ndarray:
    """Accumulate gradients from d(loss)/d(output); returns input gradient."""
    return backward(pred.net, grad)


def evaluate(
    predictor: Predictor,
    sources: Sequence[SourceData],
    dimensions: Sequence[str],
    *,
    pooling: str = "pooled",
    window: WindowSpec | None = None,
) -> dict[str, float]:
    """Score a predictor against gold on held-out sources, per dimension.

    "pooled" scores each source's full trace and averages over sources;
    "per_window_mean" scores every window of every source and averages
    over windows (a window spec is required for that).
    """
    if pooling not in POOLINGS:
        raise ContractError(f"unknown pooling {pooling!r}, expected one of {POOLINGS}")
    if pooling == "per_window_mean" and window is None:
        raise ContractError("per_window_mean pooling needs a window spec")
    sources = list(sources)
    if not sources:
        raise ContractError("no sources to evaluate")
    dims = tuple(dimensions)
    if not dims:
        raise ContractError("no dimensions to evaluate")

    outputs = [forward_predictor(predictor, s.features.data) for s in sources]
    scores: dict[str, float] = {}
    for dim in dims:
        col = output_index(predictor.config, dim)
        vals = []
        for src, out in zip(sources, outputs):
            if dim not in src.gold:
                raise ContractError(
                    f"source {src.source_id!r} has no gold track for {dim!r}"
                )
            gold = src.gold[dim].values
            yhat = out[:, col]
            if pooling == "pooled":
                vals.append(ccc.ccc_loss(gold, yhat).ccc)
            else:
                for a, b in window_bounds(gold.size, window, src.features.rate_hz):
                    vals.append(ccc.ccc_loss(gold[a:b], yhat[a:b]).ccc)
        if not vals:
            longest = max(sources, key=lambda src: src.features.frames)
            w, _ = window.frames(longest.features.rate_hz)
            raise ContractError(
                f"no source holds one full {w}-frame window; the longest, "
                f"{longest.source_id!r}, has {longest.features.frames} frames"
            )
        scores[dim] = math.fsum(vals) / len(vals)
    return scores
