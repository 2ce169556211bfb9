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


def _as_1d(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"{name}: expected a 1-D array, got shape {arr.shape}")
    return arr


def batch_normalize(values, epsilon: float = 1e-5) -> np.ndarray:
    """(v - mean) / (population std + epsilon); constant batches map to zeros."""
    v = _as_1d("values", values)
    if v.shape[0] < 2:
        raise BatchError("batch normalization needs at least 2 values")
    return (v - v.mean()) / (v.std() + epsilon)


def cov_loss(q, labels, epsilon: float = 1e-5) -> float:
    """Mean of q times the batch-normalized labels; scale/shift of labels is irrelevant."""
    q = _as_1d("q", q)
    labels = _as_1d("labels", labels)
    if q.shape != labels.shape:
        raise ShapeError(f"q has length {q.shape[0]} but labels has length {labels.shape[0]}")
    return float(np.mean(q * batch_normalize(labels, epsilon)))


def l2_loss(q) -> float:
    q = _as_1d("q", q)
    if q.shape[0] == 0:
        return 0.0
    return float(np.mean(q * q))


def align_target(t_audio, t_star, tau: float):
    """Soft read-probability target: 1 well before the boundary, 0 well past it."""
    require(tau > 0, "tau", "must be > 0")
    return sigmoid((np.asarray(t_star, dtype=np.float64) - np.asarray(t_audio, dtype=np.float64)) / tau)


def _align_inputs(q: np.ndarray, targets, mask) -> tuple[np.ndarray, np.ndarray]:
    """Validated (targets, mask) of the alignment term; no mask means every entry."""
    y = _as_1d("targets", targets)
    if q.shape != y.shape:
        raise ShapeError(f"q_logits has length {q.shape[0]} but targets has length {y.shape[0]}")
    if y.size and (y.min() < 0.0 or y.max() > 1.0):
        raise ValueError("targets must lie in [0, 1]")
    if mask is None:
        return y, np.ones(q.shape[0], dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != q.shape:
        raise ShapeError(f"mask has length {mask.shape[0]} but q_logits has length {q.shape[0]}")
    return y, mask


def _bce_mean(q: np.ndarray, y: np.ndarray, mask: np.ndarray, e: np.ndarray) -> float:
    """Masked mean BCE of logits ``q`` against ``y``, given ``e = exp(-|q|)``."""
    per = np.maximum(q, 0.0) - q * y + np.log1p(e)
    return float(per[mask].mean())


def bce_align_loss(q_logits, targets, mask=None) -> float:
    """Mean binary cross-entropy of scores-as-logits against soft targets.

    Masked-out entries contribute nothing; an all-masked batch scores 0.
    """
    q = _as_1d("q_logits", q_logits)
    y, mask = _align_inputs(q, targets, mask)
    if not mask.any():
        return 0.0
    return _bce_mean(q, y, mask, np.exp(-np.abs(q)))


def mse_label_loss(q, labels) -> float:
    """Plain mean squared error against the raw, un-normalized labels."""
    q = _as_1d("q", q)
    labels = _as_1d("labels", labels)
    if q.shape != labels.shape:
        raise ShapeError(f"q has length {q.shape[0]} but labels has length {labels.shape[0]}")
    if q.shape[0] == 0:
        return 0.0
    return float(np.mean((q - labels) ** 2))


def _mono_pair_terms(q, q_next, next_valid):
    q_next = _as_1d("q_next", q_next)
    if q_next.shape != q.shape:
        raise ShapeError(f"q_next has length {q_next.shape[0]} but q has length {q.shape[0]}")
    if next_valid is None:
        valid = np.ones(q.shape[0], dtype=bool)
    else:
        valid = np.asarray(next_valid, dtype=bool)
        if valid.shape != q.shape:
            raise ShapeError(f"next_valid has length {valid.shape[0]} but q has length {q.shape[0]}")
    return q_next, valid, int(valid.sum())


def loss_and_grad(q, labels, weights: LossWeights, *,
                  q_next=None, next_valid=None, align_targets=None, align_mask=None,
                  objective: str = "cov") -> tuple[float, dict[str, float], np.ndarray, np.ndarray | None]:
    """Combined objective and its score gradients in one pass.

    Returns (total, breakdown, d(total)/dq, d(total)/dq_next).  The
    normalized labels, the hinge difference and exp(-|q|) are each computed
    once and shared by the loss and the gradient.

    Breakdown values are the weighted contributions, so they sum to the total.
    The monotonicity hinge costs ``lambda_mono`` times the mean of
    ``max(0, q - q_next)`` over the valid pairs; ``dq_next`` is None unless
    it is active (``q_next`` given and ``lambda_mono > 0``).  The alignment
    term is active when ``align_targets`` is given, which the training step
    does for the alignment-aware variants only; ``align_active`` counts the
    examples it used, and with none the term is 0.

    ``labels`` are always likelihood differences in the partial-minus-full
    direction.  The MSE ablation regresses the score onto the sign-flipped
    labels (the gain of waiting), so large scores keep meaning "read more".
    """
    require(objective in ("cov", "mse"), "objective", f"unknown value {objective!r}")
    q = _as_1d("q", q)
    labels = _as_1d("labels", labels)
    if q.shape != labels.shape:
        raise ShapeError(f"q has length {q.shape[0]} but labels has length {labels.shape[0]}")
    batch = q.shape[0]
    if objective == "cov":
        normalized = batch_normalize(labels)
        fit = float(np.mean(q * normalized))
        dq = normalized / batch
    else:
        fit = mse_label_loss(q, -labels)
        dq = 2.0 * (q + labels) / batch
    dq = dq + weights.lambda_l2 * 2.0 * q / batch

    mono = 0.0
    dq_next = None
    if q_next is not None and weights.lambda_mono > 0:
        q_next_arr, valid, n_pairs = _mono_pair_terms(q, q_next, next_valid)
        dq_next = np.zeros(batch)
        if n_pairs:
            diff = q - q_next_arr
            mono = float(np.maximum(0.0, diff)[valid].sum() / n_pairs)
            active = (diff > 0.0) & valid
            dq = dq + weights.lambda_mono * active / n_pairs
            dq_next = -weights.lambda_mono * active.astype(np.float64) / n_pairs

    align = 0.0
    align_active = 0
    if align_targets is not None:
        y, mask = _align_inputs(q, align_targets, align_mask)
        align_active = int(mask.sum())
        if align_active:
            e = np.exp(-np.abs(q))
            align = _bce_mean(q, y, mask, e)
            dq = dq + weights.lambda_align * (sigmoid_from_exp(q, e) - y) * mask / align_active

    breakdown = {
        "cov": fit,
        "mono": weights.lambda_mono * mono,
        "l2": weights.lambda_l2 * l2_loss(q),
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
