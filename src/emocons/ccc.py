"""Concordance Correlation Coefficient: one kernel for the loss and its analytic gradients.

The agreement between two equal-length series x and y is measured as

    ccc = 2*cov(x, y) / (var(x) + var(y) + (mean(x) - mean(y))**2 + EPSILON)

with population (divide-by-n) moments, and the training loss is ``1 - ccc``.
The covariance form is algebraically identical to the classical
``2*rho*sigma_x*sigma_y`` numerator whenever both standard deviations are
positive, but it stays defined (and goes to 0) when either series is
constant. EPSILON = 1e-8 keeps the ratio finite when all moments vanish.

Gradients of the loss are derived analytically from the covariance form so
the same expression can be differentiated with respect to either argument;
both directions are needed because the joint training objective uses one CCC
term with the consensus as second argument and one with it as first.

One kernel computes the moments, the ratio and the gradients.
``ccc_batch_loss`` runs it on (windows, frames) arrays with a validity
mask, and ``ccc_loss`` runs it on one pair of series as a (1, n) batch, so
training, validation, evaluation and annotator weighting all score with
the same arithmetic.  Moments are centred two-pass with numpy's pairwise
reductions, and each mean gets one correction pass; the tests hold the
kernel to an independent pure-Python reference with exactly rounded sums.

``ccc_batch_loss`` also takes a term axis: a (terms, windows, frames)
stack of such batches, one per loss term, is scored in one kernel run over
the valid windows of every term (under ``pooled``, one run per distinct
count of valid windows), and each term's loss and gradients are bitwise
those of a call on that term alone.  A training step stacks all its terms
there, and new loss terms join the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

EPSILON = 1e-8

#: Pooling modes for batched CCC: one CCC over all concatenated frames, or
#: the mean of per-window losses.
POOLINGS = ("pooled", "per_window_mean")


@dataclass(frozen=True, eq=False)
class CccResult:
    """CCC value, its loss, and optional per-element gradients of the loss."""

    ccc: float
    loss: float
    grad_x: np.ndarray | None = None
    grad_y: np.ndarray | None = None


def _as_series(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _ccc(x, y, axis, norm: int, want_grad_x: bool, want_grad_y: bool):
    """The kernel: CCC of (rows, frames) arrays ``x`` and ``y`` per row
    (``axis=1``) or over the whole block (``axis=None``), kept 2-D, and the
    gradients of ``sum(1 - ccc) / norm`` when asked for, else None."""
    mu_x = x.mean(axis=axis, keepdims=True)
    mu_y = y.mean(axis=axis, keepdims=True)
    # one correction pass recovers the rounding of the one-pass mean, so a
    # constant series has its own value as its mean and zero deviations
    mu_x += (x - mu_x).mean(axis=axis, keepdims=True)
    mu_y += (y - mu_y).mean(axis=axis, keepdims=True)
    # centred two-pass moments: the one-pass sxx/n - mu**2 cancels when the
    # variance is small next to the squared mean
    dx = x - mu_x
    dy = y - mu_y
    dmu = mu_x - mu_y
    denom = (
        (dx * dx).mean(axis=axis, keepdims=True)
        + (dy * dy).mean(axis=axis, keepdims=True)
        + dmu * dmu
        + EPSILON
    )
    ccc = 2.0 * (dx * dy).mean(axis=axis, keepdims=True) / denom
    frames = x.shape[1] if axis == 1 else x.size
    scale = 2.0 / (frames * norm * denom)
    grad_x = scale * (ccc * (dx + dmu) - dy) if want_grad_x else None
    grad_y = scale * (ccc * (dy - dmu) - dx) if want_grad_y else None
    return ccc, grad_x, grad_y


def ccc_loss(x, y, want_grad_x: bool = False, want_grad_y: bool = False) -> CccResult:
    """CCC loss ``1 - ccc(x, y)`` with optional analytic gradients.

    The gradients differentiate the implemented epsilon-regularized ratio,
    so they match finite differences of this exact function. With
    D = var_x + var_y + (mu_x - mu_y)^2 + EPSILON:

        d loss / d x_k = (2 / (n*D)) * (ccc*((x_k - mu_x) + (mu_x - mu_y)) - (y_k - mu_y))

    and symmetrically for y.  Raises ContractError unless x and y are 1-D,
    of equal length and hold at least 2 samples (a single point has no
    defined correlation).
    """
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    if y.size != x.size:
        raise ContractError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ContractError(f"need at least 2 samples, got {x.size}")
    ccc, grad_x, grad_y = _ccc(x[None], y[None], 1, 1, want_grad_x, want_grad_y)
    value = float(ccc[0, 0])
    return CccResult(
        ccc=value,
        loss=1.0 - value,
        grad_x=None if grad_x is None else grad_x[0],
        grad_y=None if grad_y is None else grad_y[0],
    )


def ccc_batch_loss(
    x,
    y,
    valid,
    pooling: str = "per_window_mean",
    want_grad_x: bool = False,
    want_grad_y: bool = False,
) -> tuple[float | tuple[float, ...], np.ndarray | None, np.ndarray | None]:
    """CCC loss over a batch of equal-length windows, with a validity mask.

    ``x`` and ``y`` are (windows, frames) arrays and ``valid`` a boolean
    (windows,) mask.  pooling="pooled" computes one CCC over the frames of
    the valid windows; pooling="per_window_mean" sums the valid windows'
    losses and divides by all windows, so a masked window counts as zero.
    Returns ``(loss, grad_x, grad_y)``: gradients of that loss with the
    shape of the inputs, zero on masked windows, or None when not asked for.
    With every window masked the loss is 0.

    With (terms, windows, frames) arrays and a (terms, windows) mask, each
    term is such a batch: the loss is a tuple of one float per term and the
    gradients keep the term axis.  Every term's loss and gradients equal,
    bit for bit, those of a call on that term alone.
    """
    if pooling not in POOLINGS:
        raise ContractError(f"unknown pooling {pooling!r}, expected one of {POOLINGS}")
    # C order, as the x[valid] copies of the masked path are, so both paths
    # reduce in the same order
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    stacked = x.ndim == 3
    if x.ndim not in (2, 3) or x.shape != y.shape:
        raise ContractError(
            "need two equal (windows, frames) or (terms, windows, frames) arrays, "
            f"got {x.shape} and {y.shape}"
        )
    if not stacked:
        x, y, valid = x[None], y[None], valid[None]
    g, k, w = x.shape
    if k == 0:
        raise ContractError("empty batch")
    if w < 2:
        raise ContractError(f"need at least 2 frames per window, got {w}")
    if valid.shape != (g, k):
        want = (g, k) if stacked else (k,)
        got = valid.shape if stacked else valid.shape[1:]
        raise ContractError(f"valid must have shape {want}, got {got}")

    losses, grad_x, grad_y = _stacked_loss(x, y, valid, pooling, want_grad_x, want_grad_y)
    if stacked:
        return losses, grad_x, grad_y
    return (
        losses[0],
        None if grad_x is None else grad_x[0],
        None if grad_y is None else grad_y[0],
    )


def _stacked_loss(x, y, valid, pooling, want_grad_x, want_grad_y):
    """``ccc_batch_loss`` of (terms, windows, frames) arrays.

    per_window_mean makes each valid window one row of one kernel run over
    all terms, with norm = windows.  pooled makes each term's valid frames
    one row with norm 1; rows of equal length share a run.  A (1, n) row
    reduces bitwise like the (n // frames, frames) block it flattens, and a
    row's reductions do not depend on the rows beside it, so each term gets
    the numbers of a call on its own.
    """
    g, k, w = x.shape
    pooled = pooling == "pooled"
    norm = 1 if pooled else k
    counts = np.count_nonzero(valid, axis=1)
    losses = [0.0] * g
    if valid.all():
        # no copies: every term is whole, and every pooled row has k * w frames
        shape = (g, k * w) if pooled else (g * k, w)
        ccc, gx, gy = _ccc(x.reshape(shape), y.reshape(shape), 1, norm, want_grad_x, want_grad_y)
        rows = ccc.reshape(g, -1)
        for i in range(g):
            losses[i] = float(np.sum(1.0 - rows[i])) / norm
        return (
            tuple(losses),
            None if gx is None else gx.reshape(g, k, w),
            None if gy is None else gy.reshape(g, k, w),
        )

    grad_x = np.zeros_like(x) if want_grad_x else None
    grad_y = np.zeros_like(y) if want_grad_y else None
    runs: dict[int, list[int]] = {}  # terms that share a kernel run
    for i in np.flatnonzero(counts).tolist():
        runs.setdefault(int(counts[i]) if pooled else 0, []).append(i)
    for terms in runs.values():
        in_run = np.zeros_like(valid)
        in_run[terms] = valid[terms]
        # the valid windows of the run's terms, term by term
        xs, ys = x[in_run], y[in_run]
        if pooled:
            xs, ys = xs.reshape(len(terms), -1), ys.reshape(len(terms), -1)
        ccc, gx, gy = _ccc(xs, ys, 1, norm, want_grad_x, want_grad_y)
        loss_rows = 1.0 - ccc
        lo = 0
        for j, i in enumerate(terms):
            n = int(counts[i])
            rows = slice(j, j + 1) if pooled else slice(lo, lo + n)
            losses[i] = float(np.sum(loss_rows[rows])) / norm
            for grad, run_grad in ((grad_x, gx), (grad_y, gy)):
                if grad is not None:
                    grad[i][valid[i]] = run_grad.reshape(-1, w)[lo : lo + n]
            lo += n
    return tuple(losses), grad_x, grad_y
