"""Concordance Correlation Coefficient: statistics, loss, and analytic gradients.

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

Two implementations share these formulas.  ``ccc_stats``/``ccc_loss`` take
one pair of series and accumulate moments with exactly-rounded compensated
summation (``math.fsum``); they are the exact path that validation and
evaluation score full traces with, and the oracle the tests hold the
training kernel to.  ``ccc_batch_loss`` is the training kernel: it works on
(windows, frames) arrays with a validity mask and uses centred two-pass
numpy reductions, which agree with the fsum path to within 1e-12 on the
windows training feeds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

EPSILON = 1e-8

#: Pooling modes for batched CCC: one CCC over all concatenated frames, or
#: the mean of per-window losses.
POOLINGS = ("pooled", "per_window_mean")


@dataclass(frozen=True)
class CccStats:
    """Population moments of a pair of series.

    ``cov`` equals ``rho * sigma_x * sigma_y``; together with the means and
    variances it is everything the CCC needs.
    """

    mu_x: float
    mu_y: float
    var_x: float
    var_y: float
    cov: float
    n: int

    def __post_init__(self):
        if self.var_x < 0 or self.var_y < 0:
            raise ContractError("variances must be nonnegative")
        bound = math.sqrt(self.var_x * self.var_y) + 1e-12
        if abs(self.cov) > bound:
            raise ContractError(
                f"covariance {self.cov} exceeds Cauchy-Schwarz bound {bound}"
            )


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


def ccc_stats(x, y) -> CccStats:
    """Population means, variances, and covariance of two aligned series.

    Raises ContractError if the lengths differ or fewer than 2 samples are
    given (a single point has no defined correlation).
    """
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    n = x.size
    if y.size != n:
        raise ContractError(f"length mismatch: {n} vs {y.size}")
    if n < 2:
        raise ContractError(f"need at least 2 samples, got {n}")

    sx = math.fsum(x.tolist())
    sy = math.fsum(y.tolist())
    sxx = math.fsum((x * x).tolist())
    syy = math.fsum((y * y).tolist())
    sxy = math.fsum((x * y).tolist())

    mu_x = sx / n
    mu_y = sy / n
    # one-pass moment formulas; the fsum totals are exact, so the only
    # rounding happens in these final subtractions
    var_x = max(sxx / n - mu_x * mu_x, 0.0)
    var_y = max(syy / n - mu_y * mu_y, 0.0)
    cov = sxy / n - mu_x * mu_y
    return CccStats(mu_x=mu_x, mu_y=mu_y, var_x=var_x, var_y=var_y, cov=cov, n=n)


def ccc_from_stats(s: CccStats) -> float:
    return 2.0 * s.cov / (s.var_x + s.var_y + (s.mu_x - s.mu_y) ** 2 + EPSILON)


def ccc_loss(x, y, want_grad_x: bool = False, want_grad_y: bool = False) -> CccResult:
    """CCC loss ``1 - ccc(x, y)`` with optional analytic gradients.

    The gradients differentiate the implemented epsilon-regularized ratio,
    so they match finite differences of this exact function. With
    D = var_x + var_y + (mu_x - mu_y)^2 + EPSILON:

        d loss / d x_k = (2 / (n*D)) * (ccc*((x_k - mu_x) + (mu_x - mu_y)) - (y_k - mu_y))

    and symmetrically for y.
    """
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    s = ccc_stats(x, y)
    denom = s.var_x + s.var_y + (s.mu_x - s.mu_y) ** 2 + EPSILON
    ccc = 2.0 * s.cov / denom

    grad_x = grad_y = None
    if want_grad_x or want_grad_y:
        scale = 2.0 / (s.n * denom)
        dmu = s.mu_x - s.mu_y
        if want_grad_x:
            grad_x = scale * (ccc * ((x - s.mu_x) + dmu) - (y - s.mu_y))
        if want_grad_y:
            grad_y = scale * (ccc * ((y - s.mu_y) - dmu) - (x - s.mu_x))
    return CccResult(ccc=ccc, loss=1.0 - ccc, grad_x=grad_x, grad_y=grad_y)


def ccc_batch_loss(
    x,
    y,
    valid,
    pooling: str = "per_window_mean",
    want_grad_x: bool = False,
    want_grad_y: bool = False,
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """CCC loss over a batch of equal-length windows, with a validity mask.

    ``x`` and ``y`` are (windows, frames) arrays and ``valid`` a boolean
    (windows,) mask.  pooling="pooled" computes one CCC over the frames of
    the valid windows; pooling="per_window_mean" sums the valid windows'
    losses and divides by all windows, so a masked window counts as zero.
    Returns ``(loss, grad_x, grad_y)``: gradients of that loss with the
    shape of the inputs, zero on masked windows, or None when not asked for.
    With every window masked the loss is 0.
    """
    if pooling not in POOLINGS:
        raise ContractError(f"unknown pooling {pooling!r}, expected one of {POOLINGS}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if x.ndim != 2 or x.shape != y.shape:
        raise ContractError(
            f"need two equal (windows, frames) arrays, got {x.shape} and {y.shape}"
        )
    k, w = x.shape
    if k == 0:
        raise ContractError("empty batch")
    if w < 2:
        raise ContractError(f"need at least 2 frames per window, got {w}")
    if valid.shape != (k,):
        raise ContractError(f"valid must have shape ({k},), got {valid.shape}")

    grad_x = np.zeros_like(x) if want_grad_x else None
    grad_y = np.zeros_like(y) if want_grad_y else None
    if not valid.any():
        return 0.0, grad_x, grad_y

    xv, yv = x[valid], y[valid]
    # per_window_mean reduces each row; pooled reduces the whole valid block
    axis = 1 if pooling == "per_window_mean" else None
    mu_x = xv.mean(axis=axis, keepdims=True)
    mu_y = yv.mean(axis=axis, keepdims=True)
    dx = xv - mu_x
    dy = yv - mu_y
    dmu = mu_x - mu_y
    denom = (
        (dx * dx).mean(axis=axis, keepdims=True)
        + (dy * dy).mean(axis=axis, keepdims=True)
        + dmu * dmu
        + EPSILON
    )
    ccc = 2.0 * (dx * dy).mean(axis=axis, keepdims=True) / denom
    if axis is None:
        loss = 1.0 - float(ccc[0, 0])
        scale = 2.0 / (xv.size * denom)
    else:
        loss = float(np.sum(1.0 - ccc)) / k
        scale = 2.0 / (w * k * denom)
    if want_grad_x:
        grad_x[valid] = scale * (ccc * (dx + dmu) - dy)
    if want_grad_y:
        grad_y[valid] = scale * (ccc * (dy - dmu) - dx)
    return loss, grad_x, grad_y
