"""Trainable read/write policy head: a small tanh MLP with hand-written backprop.

The network maps a feature vector to a single unbounded score; reading is
taken whenever the score exceeds a threshold.  Variants that are aware of
elapsed time add a sinusoidal encoding of the consumed audio duration to the
input before the first layer.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError, check_settings, require


class PolicyVariant(str, Enum):
    REINA = "REINA"
    REINA_TAN = "REINA_TAN"
    REINA_SAN = "REINA_SAN"
    REINA_ALL = "REINA_ALL"

    @property
    def uses_time_embedding(self) -> bool:
        return self in (PolicyVariant.REINA_TAN, PolicyVariant.REINA_ALL)

    @property
    def uses_alignment_loss(self) -> bool:
        return self in (PolicyVariant.REINA_SAN, PolicyVariant.REINA_ALL)

    def check(self, config: PolicyConfig) -> None:
        """ConfigError unless ``config`` is the head shape this variant trains."""
        if self.uses_time_embedding != config.use_time_embedding:
            raise ConfigError(f"variant {self.value} requires use_time_embedding={self.uses_time_embedding}")


@dataclass(frozen=True)
class PolicyConfig:
    """Shape of the policy head.

    The time embedding, when used, is added to the features, so its width
    is ``input_dim``, which must then be even.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    use_time_embedding: bool = False
    time_base: float = 100.0

    def __post_init__(self):
        check_settings(self)
        require(self.input_dim >= 1, "input_dim", "must be >= 1")
        require(all(h >= 1 for h in self.hidden_dims), "hidden_dims", "all widths must be >= 1")
        require(self.time_base > 1, "time_base", "must be > 1")
        require(not (self.use_time_embedding and self.input_dim % 2), "input_dim",
                "must be even when the time embedding is enabled")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, 1)

    @classmethod
    def for_variant(cls, variant: PolicyVariant, input_dim: int, **fields) -> "PolicyConfig":
        """The config a variant trains; ``fields`` sets the remaining shape fields."""
        return cls(input_dim=input_dim, use_time_embedding=variant.uses_time_embedding, **fields)


@dataclass
class PolicyParams:
    config: PolicyConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.config, [w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_params(config: PolicyConfig, seed=0) -> PolicyParams:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    dims = config.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return PolicyParams(config=config, weights=weights, biases=biases)


def time_embedding(t_audio, d: int, base: float = 100.0) -> np.ndarray:
    """Sinusoidal encoding of a continuous time value (seconds).

    Component 2i is sin(t / base**(2i/d)), component 2i+1 the matching cosine,
    so every entry lies in [-1, 1] and low indices carry the fastest clock.
    """
    if d % 2:
        raise ConfigError("time embedding dimension must be even")
    t = np.asarray(t_audio, dtype=np.float64)
    inv_period = base ** (-2.0 * np.arange(d // 2) / d)
    angles = t[..., None] * inv_period
    out = np.empty(t.shape + (d,))
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


def _net_input(params: PolicyParams, features: np.ndarray, t_audio, embedding=None, out=None) -> np.ndarray:
    cfg = params.config
    if features.ndim < 2 or features.shape[-1] != cfg.input_dim:
        raise ShapeError(f"features shape {features.shape} incompatible with input_dim={cfg.input_dim}")
    if not cfg.use_time_embedding:
        return features
    t = np.asarray(t_audio, dtype=np.float64)
    if t.shape != features.shape[:-1]:
        raise ShapeError(f"t_audio shape {t.shape} does not match batch shape {features.shape[:-1]}")
    if embedding is None:
        embedding = time_embedding(t, cfg.input_dim, cfg.time_base)
    elif embedding.shape != features.shape:
        raise ShapeError(f"embedding shape {embedding.shape} does not match features shape {features.shape}")
    return features + embedding if out is None else np.add(features, embedding, out=out)


def forward_with_cache(params: PolicyParams, features, t_audio, *, embedding: np.ndarray | None = None,
                       out=None):
    """Batched forward pass; returns (scores, per-layer activations for backprop).

    ``features`` is a batch of rows or a stack of batches, scored as if one
    at a time; ``t_audio`` and the scores have ``features.shape[:-1]``.
    ``embedding`` is ``time_embedding(t_audio, ...)`` computed by the caller,
    so two passes at the same audio times can share it.  ``out`` is an
    optional list of arrays shaped like the activations: the net input, when
    a time embedding is added to the features, and each hidden layer are
    written into them (``out[0]`` may be None for a head without one).
    """
    x = _net_input(params, np.asarray(features, dtype=np.float64), t_audio, embedding,
                   None if out is None else out[0])
    activations = [x]
    h = x
    for k, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1]), start=1):
        # `@` and tanh's positional `out` keep small forwards, such as a
        # streaming row, cheap; the keyword forms cost about 0.4 us a call
        h = h @ w if out is None else np.matmul(h, w, out=out[k])
        h += b
        h = np.tanh(h, h)
        activations.append(h)
    scores = (h @ params.weights[-1] + params.biases[-1])[..., 0]
    return scores, activations


def forward_batch(params: PolicyParams, features, t_audio) -> np.ndarray:
    return forward_with_cache(params, features, t_audio)[0]


def forward(params: PolicyParams, features, t_audio: float) -> float:
    """Score for a single state; positive-leaning scores favour reading more audio."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 1:
        raise ShapeError(f"expected a single feature vector, got shape {features.shape}")
    scores, _ = forward_with_cache(params, features[None, :], np.asarray([t_audio], dtype=np.float64))
    return float(scores[0])


def backward_from_cache(params: PolicyParams, activations, upstream,
                        out=None) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradients of sum(upstream * scores) w.r.t. weights and biases.

    ``out`` is an optional (weights, biases) pair of arrays shaped like the
    parameters, e.g. views of one flat vector; the gradients are written
    into them and returned.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (activations[0].shape[0],):
        raise ShapeError(f"upstream shape {upstream.shape} does not match batch size {activations[0].shape[0]}")
    if out is None:
        out = [np.empty_like(w) for w in params.weights], [np.empty_like(b) for b in params.biases]
    grads_w, grads_b = out
    delta = upstream[:, None]
    for i in reversed(range(len(params.weights))):
        np.matmul(activations[i].T, delta, out=grads_w[i])
        np.sum(delta, axis=0, out=grads_b[i])
        if i:
            delta = delta @ params.weights[i].T
            delta *= 1.0 - np.square(activations[i])
    return grads_w, grads_b


# -- flat parameter views (optimizer-agnostic helpers) -----------------------

def params_to_vector(params: PolicyParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in (*params.weights, *params.biases)])


def vector_views(config: PolicyConfig, vector: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weights and biases as reshaped views of a flat float64 vector in :func:`params_to_vector` order.

    Writing to a view writes to ``vector``, so one vector operation updates
    every layer.
    """
    dims = config.layer_dims
    shapes = [(a, b) for a, b in zip(dims[:-1], dims[1:])] + [(b,) for b in dims[1:]]
    arrays, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        arrays.append(vector[offset:offset + size].reshape(shape))
        offset += size
    if offset != vector.shape[0]:
        raise ShapeError(f"vector of length {vector.shape[0]} does not match {offset} parameters")
    n_layers = len(dims) - 1
    return arrays[:n_layers], arrays[n_layers:]


def vector_to_params(config: PolicyConfig, vector: np.ndarray) -> PolicyParams:
    weights, biases = vector_views(config, np.array(vector, dtype=np.float64))
    return PolicyParams(config=config, weights=weights, biases=biases)


# -- checkpoint format --------------------------------------------------------
# Single file: one JSON header line (config + caller extras + array shapes),
# then the raw little-endian float64 arrays in declared order.  Re-saving the
# same parameters yields byte-identical files.

def save_params(params: PolicyParams, path, extra: dict | None = None) -> None:
    arrays = [*params.weights, *params.biases]
    header = {
        "config": asdict(params.config),
        "extra": extra or {},
        "shapes": [list(a.shape) for a in arrays],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
    blob += b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    Path(path).write_bytes(blob)


def load_params(path) -> tuple[PolicyParams, dict]:
    """Read a checkpoint; a malformed or truncated file raises ConfigError naming it."""
    blob = Path(path).read_bytes()
    try:
        newline = blob.index(b"\n")
        header = json.loads(blob[:newline].decode("utf-8"))
        vector = np.frombuffer(blob, dtype="<f8", offset=newline + 1)
        if not isinstance(header["extra"], dict):
            raise TypeError("extra: must be a JSON object")
        return vector_to_params(PolicyConfig(**header["config"]), vector), header["extra"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"checkpoint {path}: malformed or truncated ({exc!r})") from None
