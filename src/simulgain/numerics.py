"""Small numerically careful helpers used by several modules."""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Numerically stable logistic function; preserves scalar vs array inputs."""
    arr = np.asarray(x, dtype=np.float64)
    out = sigmoid_from_exp(arr, np.exp(-np.abs(arr)))
    return float(out) if arr.ndim == 0 else out


def sigmoid_from_exp(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(x) given ``e = exp(-|x|)``, for callers that also need ``e``.

    1 / (1 + e) for x >= 0 and e / (1 + e) below; e never exceeds 1, so
    neither branch overflows.
    """
    return np.where(x >= 0, 1.0, e) / (1.0 + e)
