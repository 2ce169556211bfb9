"""Training objectives for the policy head.

The primary signal is a covariance objective: the mean product of the policy
score with batch-normalized likelihood-difference labels, so only the ordinal
structure of the labels matters.  Regularizers keep scores small (L2) and
nondecreasing across pending tokens at fixed audio (hinge).  Variants with
boundary supervision add a binary cross-entropy term against soft targets
derived from per-token boundary times; an MSE-on-raw-labels objective is kept
as an ablation switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BatchError, ShapeError, check_settings, require
from .numerics import sigmoid, sigmoid_from_exp


@dataclass(frozen=True)
class LossWeights:
    lambda_mono: float = 0.1
    lambda_l2: float = 0.01
    lambda_align: float = 1.0
    tau: float = 0.5

    def __post_init__(self):
        check_settings(self)
        for name in ("lambda_mono", "lambda_l2", "lambda_align"):
            require(getattr(self, name) >= 0, name, "must be >= 0")
        require(self.tau > 0, "tau", "must be > 0")


_EPSILON = 1e-5  # added to the label std, so a constant batch normalizes to zeros


def _as_1d(name: str, values, like: np.ndarray | None = None) -> np.ndarray:
    """``values`` as a 1-D float array; with ``like``, it must also have ``like``'s length."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"{name}: expected a 1-D array, got shape {arr.shape}")
    if like is not None and arr.shape != like.shape:
        raise ShapeError(f"{name} has length {arr.shape[0]} but q has length {like.shape[0]}")
    return arr


def _mask(name: str, mask, q: np.ndarray) -> np.ndarray:
    """``mask`` as booleans of ``q``'s length; None means every entry."""
    if mask is None:
        return np.ones(q.shape[0], dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != q.shape:
        raise ShapeError(f"{name} has length {mask.shape[0]} but q has length {q.shape[0]}")
    return mask


def batch_normalize(values) -> np.ndarray:
    """(v - mean) / (population std + 1e-5); constant batches map to zeros."""
    v = _as_1d("values", values)
    if v.shape[0] < 2:
        raise BatchError("batch normalization needs at least 2 values")
    centered = v - v.mean()
    return centered / (np.sqrt(np.mean(centered * centered)) + _EPSILON)


def align_target(t_audio, t_star, tau: float):
    """Soft read-probability target: 1 well before the boundary, 0 well past it."""
    require(tau > 0, "tau", "must be > 0")
    return sigmoid((np.asarray(t_star, dtype=np.float64) - np.asarray(t_audio, dtype=np.float64)) / tau)


def loss_and_grad(q, labels, weights: LossWeights, *,
                  q_next=None, next_valid=None, align_targets=None, align_mask=None,
                  objective: str = "cov") -> tuple[float, dict[str, float], np.ndarray, np.ndarray | None]:
    """Combined objective and its score gradients in one pass.

    Returns (total, breakdown, d(total)/dq, d(total)/dq_next).  The
    normalized labels, the hinge difference and exp(-|q|) are each computed
    once and shared by the loss and the gradient.

    Breakdown values are the weighted contributions, so they sum to the total.
    The L2 term is the mean of ``q**2``.  The monotonicity hinge costs
    ``lambda_mono`` times the mean of ``max(0, q - q_next)`` over the valid
    pairs; ``dq_next`` is None unless it is active (``q_next`` given and
    ``lambda_mono > 0``).  The alignment term is the mean binary
    cross-entropy of ``q`` as logits against ``align_targets`` in [0, 1],
    over the ``align_mask`` entries; it is active when ``align_targets`` is
    given, which the training step does for the alignment-aware variants
    only.  ``align_active`` counts the examples it used, and with none the
    term is 0.

    ``labels`` are always likelihood differences in the partial-minus-full
    direction.  The MSE ablation regresses the score onto the sign-flipped
    labels (the gain of waiting), so large scores keep meaning "read more".
    """
    require(objective in ("cov", "mse"), "objective", f"unknown value {objective!r}")
    q = _as_1d("q", q)
    labels = _as_1d("labels", labels, like=q)
    batch = q.shape[0]
    if objective == "cov":
        normalized = batch_normalize(labels)
        fit = float(np.mean(q * normalized))
        dq = normalized / batch
    else:
        residual = q + labels
        fit = float(np.mean(residual * residual)) if batch else 0.0
        dq = 2.0 * residual / batch
    dq = dq + weights.lambda_l2 * 2.0 * q / batch

    mono = 0.0
    dq_next = None
    if q_next is not None and weights.lambda_mono > 0:
        q_next = _as_1d("q_next", q_next, like=q)
        valid = _mask("next_valid", next_valid, q)
        n_pairs = int(valid.sum())
        dq_next = np.zeros(batch)
        if n_pairs:
            diff = q - q_next
            mono = float(np.maximum(0.0, diff)[valid].sum() / n_pairs)
            active = (diff > 0.0) & valid
            dq = dq + weights.lambda_mono * active / n_pairs
            dq_next = -weights.lambda_mono * active.astype(np.float64) / n_pairs

    align = 0.0
    align_active = 0
    if align_targets is not None:
        y = _as_1d("align_targets", align_targets, like=q)
        if y.size and (y.min() < 0.0 or y.max() > 1.0):
            raise ValueError("targets must lie in [0, 1]")
        mask = _mask("align_mask", align_mask, q)
        align_active = int(mask.sum())
        if align_active:
            e = np.exp(-np.abs(q))
            align = float((np.maximum(q, 0.0) - q * y + np.log1p(e))[mask].mean())
            dq = dq + weights.lambda_align * (sigmoid_from_exp(q, e) - y) * mask / align_active

    breakdown = {
        "cov": fit,
        "mono": weights.lambda_mono * mono,
        "l2": weights.lambda_l2 * (float(np.mean(q * q)) if batch else 0.0),
        "align": weights.lambda_align * align,
        "align_active": float(align_active),
    }
    total = breakdown["cov"] + breakdown["mono"] + breakdown["l2"] + breakdown["align"]
    breakdown["total"] = total
    return total, breakdown, dq, dq_next


def total_loss(q, labels, weights: LossWeights, **terms) -> tuple[float, dict[str, float]]:
    """(total, weighted per-term breakdown) of :func:`loss_and_grad`, same arguments."""
    total, breakdown, _, _ = loss_and_grad(q, labels, weights, **terms)
    return total, breakdown


def total_loss_grad(q, labels, weights: LossWeights, **terms) -> tuple[np.ndarray, np.ndarray | None]:
    """(d(total)/dq, d(total)/dq_next) of :func:`loss_and_grad`, same arguments."""
    _, _, dq, dq_next = loss_and_grad(q, labels, weights, **terms)
    return dq, dq_next


_COV_ONLY = LossWeights(lambda_mono=0.0, lambda_l2=0.0, lambda_align=0.0)
_ALIGN_ONLY = LossWeights(lambda_mono=0.0, lambda_l2=0.0, lambda_align=1.0)


def cov_loss(q, labels) -> float:
    """Mean of q times the batch-normalized labels, the ``cov`` term of :func:`total_loss`.

    A shift of the labels changes nothing; a scale changes it only through
    the 1e-5 added to their std.
    """
    return total_loss(q, labels, _COV_ONLY)[1]["cov"]


def bce_align_loss(q_logits, targets, mask=None) -> float:
    """Mean binary cross-entropy of scores-as-logits against soft targets, the ``align`` term of :func:`total_loss`.

    Masked-out entries contribute nothing; an all-masked batch scores 0.
    The call runs the MSE objective on zero labels because, unlike the
    covariance fit, it takes a batch of one; only the ``align`` entry is read.
    """
    q = _as_1d("q_logits", q_logits)
    return total_loss(q, np.zeros_like(q), _ALIGN_ONLY, align_targets=targets, align_mask=mask,
                      objective="mse")[1]["align"]
