"""Consensus over annotators: fixed aggregators and the trainable network.

Fixed aggregation collapses an annotation matrix to one trace per frame
(mean, median, or reliability-weighted mean).  The trainable alternative is
a small dense network applied per frame with shared weights: it reads all
annotator values for a frame and emits one consensus value, learned jointly
with the predictor.  It is deliberately not permutation-invariant over
annotators; column order is fixed upstream at ingestion.

The network reads float64 annotations, so its first product is float64;
``forward_consensus``'s ``hidden_dtype`` sets the dtype of the hidden
layers (see ``nn``).  A one-layer net such as ``make_mean_acn`` therefore
stays float64 from end to end whatever the hidden dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annotations import AnnotationMatrix, GoldStandardTrack
from . import ccc
from .errors import ContractError
from .nn import DenseLayer, Network, backward, forward, init_network

AGGREGATORS = ("mean", "median", "weighted")

# tolerance on the sum-to-one precondition for explicit weight vectors
_WEIGHT_SUM_TOL = 1e-9


def _as_matrix(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ContractError(
            f"annotation values must be a (frames x annotators) matrix, got {m.shape}"
        )
    return m


def aggregate(matrix: np.ndarray, method: str, weights=None) -> np.ndarray:
    """Collapse annotator columns into one value per frame.

    ``weights`` is required for (and only accepted by) the weighted method;
    weights must be non-negative and sum to 1.  The mean is computed as a
    dot product with uniform weights so it is bit-identical to a linear
    layer holding the same coefficients.
    """
    m = _as_matrix(matrix)
    u = m.shape[1]
    if method not in AGGREGATORS:
        raise ContractError(f"unknown aggregator {method!r}, expected one of {AGGREGATORS}")
    if method != "weighted":
        if weights is not None:
            raise ContractError(f"weights are only meaningful for 'weighted', not {method!r}")
        if method == "mean":
            coeff = np.full((1, u), 1.0 / u)
            return (m @ coeff.T + 0.0).ravel()
        return np.median(m, axis=1)
    if weights is None:
        raise ContractError("the weighted aggregator needs a weights vector")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (u,):
        raise ContractError(f"need one weight per annotator column: {w.shape} vs {u} columns")
    if np.any(w < 0):
        raise ContractError("weights must be non-negative")
    total = float(np.sum(w))
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise ContractError(f"weights must sum to 1, got {total!r}")
    return m @ (w / total)


def aggregate_baseline(
    annotations: AnnotationMatrix, method: str, weights=None
) -> GoldStandardTrack:
    """Non-learned consensus over an annotation matrix, as an aggregated reference trace."""
    return GoldStandardTrack(
        dimension=annotations.dimension,
        rate_hz=annotations.rate_hz,
        values=aggregate(annotations.data, method, weights),
        provenance="aggregated",
    )


def compute_reliability_weights(matrix: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-annotator weights from agreement with a reference trace.

    Each weight is proportional to the annotator's concordance with the
    reference floored at zero, normalized to sum 1.  If no annotator agrees
    at all the weights fall back to uniform.
    """
    m = _as_matrix(matrix)
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != (m.shape[0],):
        raise ContractError(f"reference shape {ref.shape} does not match {m.shape[0]} frames")
    w = np.array([max(0.0, ccc.ccc_loss(m[:, j], ref).ccc) for j in range(m.shape[1])])
    total = float(np.sum(w))
    if total <= 0:
        return np.full(m.shape[1], 1.0 / m.shape[1])
    return w / total


@dataclass(frozen=True)
class AcnConfig:
    """Architecture of the trainable consensus network.

    ``hidden_dims`` may be empty, giving a single annotators -> 1 layer; that
    shape with linear output can represent the exact mean.  ``annotators``
    may be left at 0 meaning "resolve from the data at build time".
    """

    annotators: int = 0
    hidden_dims: tuple[int, ...] = (16, 16)
    activation: str = "tanh"
    output_activation: str = "tanh"

    def __post_init__(self):
        if self.annotators != 0 and self.annotators < 2:
            raise ContractError(f"need at least two annotators, got {self.annotators}")
        hidden = tuple(int(h) for h in self.hidden_dims)
        if any(h < 1 for h in hidden):
            raise ContractError(f"hidden widths must be positive, got {self.hidden_dims}")
        if self.output_activation not in ("linear", "tanh"):
            raise ContractError(
                f"output activation must be linear or tanh, got {self.output_activation!r}"
            )
        object.__setattr__(self, "hidden_dims", hidden)


@dataclass(eq=False)
class Acn:
    """Trainable consensus network over a fixed annotator panel."""

    net: Network

    @property
    def annotators(self) -> int:
        return self.net.in_dim


def init_acn(config: AcnConfig, rng: np.random.Generator) -> Acn:
    if config.annotators == 0:
        raise ContractError("annotator count not resolved; set annotators before init")
    dims = (config.annotators, *config.hidden_dims, 1)
    acts = (config.activation,) * len(config.hidden_dims) + (config.output_activation,)
    return Acn(net=init_network(dims, acts, rng))


def make_mean_acn(annotators: int) -> Acn:
    """A single linear layer that computes the exact annotator mean."""
    if annotators < 1:
        raise ContractError(f"need at least one annotator, got {annotators}")
    layer = DenseLayer(
        weights=np.full((1, annotators), 1.0 / annotators),
        bias=np.zeros(1),
        activation="linear",
    )
    return Acn(net=Network(layers=[layer]))


def forward_consensus(acn: Acn, matrix: np.ndarray, *, hidden_dtype=None) -> np.ndarray:
    """Consensus values for a (frames x annotators) matrix, one per row,
    in the dtype of the net's last hidden layer (float64 for a one-layer
    net); caches for ``backward_consensus``.  ``hidden_dtype`` is passed to
    ``nn.forward``."""
    m = _as_matrix(matrix)
    if m.shape[1] != acn.annotators:
        raise ContractError(
            f"matrix has {m.shape[1]} annotator columns, network expects {acn.annotators}"
        )
    return forward(acn.net, m, hidden_dtype=hidden_dtype).ravel()


def backward_consensus(
    acn: Acn, grad: np.ndarray, *, input_grad: bool = True
) -> np.ndarray | None:
    """Accumulate gradients from a per-frame consensus gradient.

    Supports summed upstream gradients when several loss terms touch the
    same consensus output.  Returns the gradient with respect to the input
    annotation matrix, or None without ``input_grad``.
    """
    g = np.asarray(grad, dtype=np.float64)
    if g.ndim != 1:
        raise ContractError(f"consensus gradient must be 1-D, got shape {g.shape}")
    return backward(acn.net, g[:, None], input_grad=input_grad)


# output activations for which negating the last layer negates the output
_ODD_ACTIVATIONS = ("linear", "tanh")


def orient_acn(acn: Acn, matrix: np.ndarray) -> bool:
    """Flip a fresh net's output sign if it anti-correlates with the mean.

    Random initialisation is sign-symmetric, so a fresh consensus can start
    negatively concordant with every annotator; short trainings then have to
    drag the concordance through zero and sometimes stall on the wrong side.
    Negating the output layer removes that basin while changing nothing else
    about the initialisation.  Returns True when the flip was applied; nets
    whose output activation is not odd are left alone.
    """
    out = acn.net.layers[-1]
    if out.activation not in _ODD_ACTIVATIONS:
        return False
    m = _as_matrix(matrix)
    cons = forward_consensus(acn, m)
    if ccc.ccc_loss(m.mean(axis=1), cons).ccc >= 0.0:
        return False
    np.negative(out.weights, out=out.weights)
    np.negative(out.bias, out=out.bias)
    return True
