"""Minimal dense-network stack: forward, backprop, Adam, checkpoints.

Precision: every layer takes its product in the dtype of its own input,
single or double precision, with the parameters cast to it.  A hidden
layer writes its output into a buffer of ``forward``'s ``hidden_dtype``
(by default the dtype of the network's input), adding the bias and
applying the activation there; the last layer's output keeps the dtype of
its input.  So float64 input with float32 hidden layers takes the first
product in float64 and the rest in float32, and a one-layer net stays in
the dtype of its input.  No product mixes dtypes: where a layer's input
and output dtypes differ, ``forward`` takes the product into a work buffer
and casts it, and ``backward`` casts the cached input once before the
weight gradient, since numpy's mixed-dtype products run several times
slower.  ``forward``'s weight operand is a C-contiguous copy of the
layer's transposed weights in the compute dtype, made on every call since
weights are written in place: BLAS takes a slow path for a transposed view
with a narrow output.  ``backward`` computes each layer's gradients in the
dtype of its output and adds them into float64 accumulators, so several
loss terms can contribute to one optimizer step and a single-precision
pass updates double-precision weights.  Caches from the most recent
``forward`` are stored on the layers, so forward/backward pairs must not
be interleaved across inputs, and ``backward`` consumes them (see Work
buffers): each ``backward`` needs a ``forward`` of its own, which a flag
set by ``forward`` and cleared by ``backward`` enforces.

Parameter state: a ``Network`` keeps four flat float64 vectors, one each
for its parameters, gradient accumulators (``grad_*``) and Adam moments
(``m_*``/``v_*``).  On construction it copies its layers' arrays into them
and rebinds each layer's ``weights``, ``bias``, ``grad_*``, ``m_*`` and
``v_*`` to views of those vectors, layer by layer, weights before bias.
``optimizer_step`` then checks, clips, updates and zeroes each span of
trainable layers with one vector operation apiece; the clipping norm is
one dot product of the flat gradient vector.  Never rebind a parameter
field of an adopted layer: write into it (``w[:] = ...``, ``w *= ...``,
``np.negative(w, out=w)``).  A rebound field is detached from the
network's vectors, so the optimizer would update arrays that the passes no
longer read.  A copy of a network, deep or shallow, and an unpickled one
build vectors of their own.

Work buffers: the network keeps arrays that its passes write into, per
dtype, grown to the largest size asked of them and reused from call to
call, so a training step pages in no fresh memory.  Each hidden layer has
its own output buffer, since the outputs are the caches ``backward``
reads; a new ``forward`` overwrites them, which the forward/backward
pairing above already assumes.  A layer whose input and output dtypes
differ takes its product into one more buffer, and ``backward`` casts its
cached input into another.  ``backward`` writes a hidden layer's
activation gradient over that layer's cached activation, which is spent
once the layer above has taken its weight gradient from it, and the output
layer's into a buffer of its own, since the output belongs to the caller.
It writes every gradient passed down into one shared buffer, as each is
dead once the next layer down has used it, so a step touches less memory
than with one buffer per layer; Adam keeps its temporaries in one more.  A
vector of ones, filled when it grows, turns each bias gradient into one
BLAS product (``ones @ dz``): numpy's ``dz.sum(axis=0)`` runs one short
loop per row, several times slower on the thousands of rows a training
step has.  What is handed to a caller is always a fresh array: the output
of ``forward`` and the input gradient of ``backward``.  The buffers are
neither copied, pickled nor saved in checkpoints.

Checkpoints are ``atomic`` envelopes; on load each layer is decoded with
``codec.from_dict``, so a wrong JSON type or an unknown key is refused, and
a network without layers or whose layer widths do not chain is refused too.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import envelope, open_envelope, read_json, write_json
from .codec import from_dict
from .errors import ConfigError, ContractError, StructuralError

CHECKPOINT_FORMAT = "emocons-checkpoint"
CHECKPOINT_VERSION = 2


def _tanh_grad(a: np.ndarray, dy: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.multiply(a, a, out=out)
    np.subtract(1.0, out, out=out)
    out *= dy
    return out


def _relu_grad(a: np.ndarray, dy: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.greater(a, 0.0, out=out)
    return np.multiply(dy, out, out=out)


# activation -> (apply to the pre-activation in place, gradient at the
# pre-activation from the *output* and the gradient at the output, written
# into ``out``; None where that gradient is the output gradient itself)
_ACTIVATIONS = {
    "linear": (lambda z: z, None),
    "tanh": (lambda z: np.tanh(z, out=z), _tanh_grad),
    "relu": (lambda z: np.maximum(z, 0.0, out=z), _relu_grad),
}

ACTIVATIONS = tuple(_ACTIVATIONS)


@dataclass(frozen=True)
class OptimConfig:
    learning_rate: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip_norm: float = 5.0

    def __post_init__(self):
        for name in ("learning_rate", "eps", "grad_clip_norm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ContractError(f"{name} must be positive and finite, got {value}")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ContractError(f"betas must lie in (0, 1), got {self.beta1}, {self.beta2}")


@dataclass(eq=False)
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str
    trainable: bool = True
    grad_w: np.ndarray = field(init=False, repr=False)
    grad_b: np.ndarray = field(init=False, repr=False)
    m_w: np.ndarray = field(init=False, repr=False)
    v_w: np.ndarray = field(init=False, repr=False)
    m_b: np.ndarray = field(init=False, repr=False)
    v_b: np.ndarray = field(init=False, repr=False)
    cache_x: np.ndarray | None = field(default=None, init=False, repr=False)
    cache_a: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ContractError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )
        self.weights = np.array(self.weights, dtype=np.float64)
        self.bias = np.array(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ContractError(
                f"weights {self.weights.shape} and bias {self.bias.shape} are inconsistent"
            )
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ContractError("layer parameters must be finite")
        self.grad_w, self.m_w, self.v_w = (np.zeros_like(self.weights) for _ in range(3))
        self.grad_b, self.m_b, self.v_b = (np.zeros_like(self.bias) for _ in range(3))

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


# each pair of layer fields and the flat network vector they are views of
_STATE = (
    ("weights", "bias", "_param"),
    ("grad_w", "grad_b", "_grad"),
    ("m_w", "m_b", "_m"),
    ("v_w", "v_b", "_v"),
)


@dataclass(eq=False)
class Network:
    layers: list[DenseLayer]
    step: int = 0
    # flat parameter state and each layer's (start, end) in it; see the
    # module docstring
    _param: np.ndarray = field(init=False, repr=False)
    _grad: np.ndarray = field(init=False, repr=False)
    _m: np.ndarray = field(init=False, repr=False)
    _v: np.ndarray = field(init=False, repr=False)
    _extent: list = field(init=False, repr=False)
    # (key, dtype) -> flat work buffer; see the module docstring
    _work: dict = field(default_factory=dict, init=False, repr=False)
    # set by ``forward``, cleared by the ``backward`` that consumes its caches
    _primed: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if not self.layers:
            raise ContractError("a network needs at least one layer")
        for i, (below, above) in enumerate(zip(self.layers, self.layers[1:]), 1):
            if above.in_dim != below.out_dim:
                raise ContractError(
                    f"layer {i} takes {above.in_dim} inputs, layer {i - 1} gives {below.out_dim}"
                )
        self._extent = []
        end = 0
        for layer in self.layers:
            start, end = end, end + layer.weights.size + layer.bias.size
            self._extent.append((start, end))
        for w_name, b_name, vec_name in _STATE:
            vec = np.empty(end)
            for layer, (start, stop) in zip(self.layers, self._extent):
                split = start + layer.weights.size
                for name, lo, hi in ((w_name, start, split), (b_name, split, stop)):
                    view = vec[lo:hi].reshape(getattr(layer, name).shape)
                    view[...] = getattr(layer, name)
                    setattr(layer, name, view)
            setattr(self, vec_name, vec)

    def __reduce__(self):
        # a deep copy or an unpickled net gets copies of the layers, whose
        # fields are copies of the views; adopting them again gives it
        # vectors of its own (work buffers are left behind)
        return Network, (self.layers, self.step)

    def __copy__(self):
        # rebuilding from the same layers would take their fields from self
        return copy.deepcopy(self)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def _buffer(self, key, dtype: np.dtype, rows: int, cols: int, fill=None) -> np.ndarray:
        """A (rows, cols) view of the ``key`` work buffer, grown to the most
        asked of it; ``fill``, if given, is written when the buffer grows."""
        n = rows * cols
        buf = self._work.get((key, dtype))
        if buf is None or buf.size < n:
            buf = self._work[key, dtype] = np.empty(n, dtype)
            if fill is not None:
                buf.fill(fill)
        return buf[:n].reshape(rows, cols)


def init_network(
    dims: tuple[int, ...],
    activations: tuple[str, ...],
    rng: np.random.Generator,
) -> Network:
    """Build a network with uniform Glorot weights and zero biases.

    ``dims`` lists layer widths input-first; ``activations`` has one entry
    per weight layer.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ContractError(f"need at least input and output widths, got {dims}")
    if any(d < 1 for d in dims):
        raise ContractError(f"layer widths must be positive, got {dims}")
    if len(activations) != len(dims) - 1:
        raise ContractError(
            f"{len(dims) - 1} layers need {len(dims) - 1} activations, got {len(activations)}"
        )
    layers = []
    for fan_in, fan_out, act in zip(dims[:-1], dims[1:], activations):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(weights=w, bias=np.zeros(fan_out), activation=act))
    return Network(layers=layers)


def _is_compute_dtype(dtype: np.dtype) -> bool:
    return dtype.kind == "f" and dtype.itemsize in (4, 8)


def forward(net: Network, x: np.ndarray, *, hidden_dtype=None) -> np.ndarray:
    """Run a batch of rows through the network, caching for ``backward``.

    Single- or double-precision input is taken as it is; any other input
    becomes float64.  Hidden layers output ``hidden_dtype`` (default: the
    input's dtype), the last layer the dtype of its own input; see the
    module docstring.
    """
    x = np.asarray(x)
    if not _is_compute_dtype(x.dtype):
        x = x.astype(np.float64)
    hidden = x.dtype if hidden_dtype is None else np.dtype(hidden_dtype)
    if not _is_compute_dtype(hidden):
        raise ContractError(f"hidden layers compute in single or double precision, not {hidden}")
    if x.ndim != 2:
        raise ContractError(f"input must be 2-D (rows x features), got shape {x.shape}")
    if x.shape[1] != net.in_dim:
        raise ContractError(f"input width {x.shape[1]} does not match network input {net.in_dim}")
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        apply, _ = _ACTIVATIONS[layer.activation]
        # a C-contiguous (in, out) operand, built on every call: BLAS takes
        # a slow path for a transposed view with a narrow output
        w = np.array(layer.weights.T, dtype=x.dtype, order="C")
        if i == last:
            a = np.matmul(x, w)
        else:
            a = net._buffer(("a", i), hidden, x.shape[0], w.shape[1])
            if hidden == x.dtype:
                np.matmul(x, w, out=a)
            else:
                z = net._buffer("z", x.dtype, x.shape[0], w.shape[1])
                np.copyto(a, np.matmul(x, w, out=z), casting="same_kind")
        a += layer.bias.astype(a.dtype, copy=False)
        apply(a)
        layer.cache_x = x
        layer.cache_a = a
        x = a
    net._primed = True
    return x


def backward(net: Network, dy: np.ndarray, *, input_grad: bool = True) -> np.ndarray | None:
    """Accumulate parameter gradients for the last forward pass.

    ``dy`` is the loss gradient at the network output; it is cast to the
    output's dtype, each layer's gradients are computed in the dtype of its
    output, and the weight and bias products are added into the float64
    accumulators.  Returns the gradient at the network input, in the first
    layer's output dtype, or None without ``input_grad``, which saves the
    first layer's product for callers that discard it.  Frozen layers
    accumulate nothing but still pass the gradient through.  The pass
    consumes the forward's caches, so each ``backward`` needs a ``forward``
    of its own.
    """
    if not net._primed:
        raise ContractError("backward needs a forward of its own since the last backward")
    out_layer = net.layers[-1]
    dy = np.asarray(dy, dtype=out_layer.cache_a.dtype)
    if dy.shape != out_layer.cache_a.shape:
        raise ContractError(
            f"gradient shape {dy.shape} does not match output {out_layer.cache_a.shape}"
        )
    net._primed = False
    last = len(net.layers) - 1
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        _, grad = _ACTIVATIONS[layer.activation]
        dtype = dy.dtype
        dz = dy
        if grad is not None:
            # a hidden activation is spent once the layer above has taken
            # its weight gradient from it; the output is the caller's
            out = net._buffer("dz", dtype, *dy.shape) if i == last else layer.cache_a
            dz = grad(layer.cache_a, dy, out)
        if layer.trainable:
            x = layer.cache_x
            if x.dtype != dtype:
                # one cast, then a product in one dtype
                x = net._buffer("x", dtype, *x.shape)
                np.copyto(x, layer.cache_x, casting="same_kind")
            # the bias gradient is dz's column sum, taken as a BLAS product
            ones = net._buffer("ones", dtype, 1, len(dz), fill=1.0)[0]
            layer.grad_w += dz.T @ x
            layer.grad_b += ones @ dz
        if i == 0 and not input_grad:
            return None
        # a linear layer's dz is dy, which may sit in the "dx" buffer; numpy
        # then computes through a temporary, as for any overlapping output
        out = None if i == 0 else net._buffer("dx", dtype, dy.shape[0], layer.in_dim)
        w = layer.weights.astype(dtype, copy=False)
        if w.shape[0] == 1:
            # one output: the product is an outer product, one multiply per
            # element as in matmul, without its fixed cost (einsum's outer
            # loop is faster than a broadcast multiply)
            dy = np.einsum("i,j->ij", dz[:, 0], w[0], out=out)
        else:
            dy = np.matmul(dz, w, out=out)
    return dy


def zero_grads(net: Network) -> None:
    net._grad.fill(0.0)


def clip_gradients(net: Network, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the norm before clipping, taken as one dot product of the flat
    gradient vector.  When the squares overflow, the norm is taken of the
    gradients divided by their largest magnitude, so finite gradients are
    clipped, never zeroed.
    """
    if not max_norm > 0:
        raise ContractError(f"max_norm must be positive, got {max_norm}")
    norm = math.sqrt(float(np.dot(net._grad, net._grad)))
    if math.isinf(norm):
        big = float(np.max(np.abs(net._grad)))
        if math.isfinite(big):
            unit = net._grad / big
            norm = big * math.sqrt(float(np.dot(unit, unit)))
    if norm > max_norm:
        net._grad *= max_norm / norm
    return norm


def _trainable_spans(net: Network) -> list[tuple[int, int]]:
    """(start, end) in the flat vectors of each maximal run of trainable layers."""
    spans: list[tuple[int, int]] = []
    for layer, (start, end) in zip(net.layers, net._extent):
        if not layer.trainable:
            continue
        if spans and spans[-1][1] == start:
            spans[-1] = (spans[-1][0], end)
        else:
            spans.append((start, end))
    return spans


def adam_step(
    net: Network,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Apply one Adam update from the accumulated gradients.

    Each span of trainable layers is updated as one vector, element by
    element as in ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v +
    (1-beta2)*g*g``, ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)``, with the
    temporaries in work buffers.  Frozen layers are not touched.
    """
    net.step += 1
    t = net.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for start, end in _trainable_spans(net):
        p, g, m, v = (vec[start:end] for vec in (net._param, net._grad, net._m, net._v))
        tmp, upd = net._buffer("adam", np.float64, 2, end - start)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=tmp)
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(m, c1, out=upd)
        upd *= lr
        upd /= tmp
        p -= upd


def optimizer_step(net: Network, cfg: OptimConfig) -> None:
    """One full update: finiteness check, clip, Adam, grads zeroed."""
    if not np.isfinite(net._grad).all():
        for i, layer in enumerate(net.layers):
            if not (np.all(np.isfinite(layer.grad_w)) and np.all(np.isfinite(layer.grad_b))):
                raise ContractError(f"non-finite gradient in layer {i} ({layer.activation})")
    clip_gradients(net, cfg.grad_clip_norm)
    adam_step(net, lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    zero_grads(net)


# ---------------------------------------------------------------------------
# Checkpoints


def _layer_to_json(layer: DenseLayer) -> dict:
    return {
        "activation": layer.activation,
        "trainable": layer.trainable,
        "weights": layer.weights.tolist(),
        "bias": layer.bias.tolist(),
    }


def save_checkpoint(path: str | Path, nets: dict[str, Network], meta: dict) -> None:
    """Write named networks plus metadata as versioned JSON.

    Only what a forward pass needs is stored: each layer's activation,
    trainable flag, weights and bias.  Optimizer state, gradient
    accumulators and forward caches are not saved.
    """
    body = {
        "meta": meta,
        "networks": {
            name: {"layers": [_layer_to_json(l) for l in net.layers]}
            for name, net in nets.items()
        },
    }
    write_json(path, envelope(CHECKPOINT_FORMAT, CHECKPOINT_VERSION, body), indent=None)


def load_checkpoint(path: str | Path) -> tuple[dict[str, Network], dict]:
    """Read a file written by ``save_checkpoint``; anything else is a StructuralError."""
    doc = read_json(path, "checkpoint")
    body = open_envelope(doc, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, str(path))
    try:
        nets = {}
        for name, entry in body["networks"].items():
            at = f"{path} networks.{name}.layers"
            layers = [from_dict(DenseLayer, l, f"{at}[{i}]") for i, l in enumerate(entry["layers"])]
            nets[name] = Network(layers=layers)
        meta = body["meta"]
        if not isinstance(meta, dict):
            raise TypeError("meta must be an object")
    except (AttributeError, KeyError, TypeError, ConfigError, ContractError) as exc:
        raise StructuralError(f"{path}: malformed checkpoint ({exc!r})") from None
    return nets, meta
