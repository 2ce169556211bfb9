"""Sampling, optimization, and gradient verification for the policy head.

Training draws (utterance, truncation time, token) states from the synthetic
environment, labels them with oracle log-likelihoods at the truncated and
full audio, and optimizes the policy with Adam plus decoupled weight decay.
All randomness flows through seeded generators consumed in a fixed order, so
runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericError, check_settings, require
from .losses import LossWeights, align_target, loss_and_grad
from .losses import total_loss, total_loss_grad  # noqa: F401  (re-exported; perfbench traces them under these names)
from .metrics import write_csv
from .policy import (
    PolicyConfig,
    PolicyParams,
    PolicyVariant,
    backward_from_cache,
    forward_batch,
    forward_with_cache,
    init_params,
    time_embedding,
)
from .synth import DatasetIndex, OracleModel

_INIT_STREAM = 0x51
_SAMPLE_STREAM = 0x52
_CHECK_STREAM = 0x53
_FD_STEP = 1e-5  # central-difference step of grad_check
# The optimizer recipe: REINA and its variants differ in inputs and losses, never in these.
_LR = 1e-3  # reached after a linear warmup over the first _WARMUP steps
_WARMUP = 100
_BETA1, _BETA2 = 0.9, 0.999
_EPS = 1e-8
_WEIGHT_DECAY = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    variant: PolicyVariant = PolicyVariant.REINA
    batch_size: int = 256
    steps: int = 5000
    rng_seed: int = 0
    objective: str = "cov"
    label_noise_std: float = 0.0

    def __post_init__(self):
        check_settings(self)
        require(self.batch_size >= 2, "batch_size", "must be >= 2 (label normalization needs a batch)")
        require(self.steps >= 1, "steps", "must be >= 1")
        require(self.objective in ("cov", "mse"), "objective", f"unknown value {self.objective!r}")
        require(self.rng_seed >= 0, "rng_seed", "must be >= 0")
        require(self.label_noise_std >= 0, "label_noise_std", "must be >= 0")


class StepRecord(NamedTuple):
    """One step's losses and gradient norm; the fields are the columns of ``training.csv``."""

    step: int
    loss_total: float
    loss_cov: float
    loss_mono: float
    loss_l2: float
    loss_align: float
    grad_norm: float


@dataclass
class TrainReport:
    records: list[StepRecord]
    params: PolicyParams


@dataclass
class LabeledBatch:
    """Column-oriented batch of labeled states plus the adjacent-token view."""

    features: np.ndarray
    t_audio: np.ndarray
    label_partial_logp: np.ndarray
    label_full_logp: np.ndarray
    t_star: np.ndarray  # the pending token's boundary, in every row
    aligned: np.ndarray  # whether its utterance's boundaries supervise the alignment term
    features_next: np.ndarray
    next_valid: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def labels(self) -> np.ndarray:
        return self.label_partial_logp - self.label_full_logp


def sample_batch(index: DatasetIndex, config: TrainConfig, rng) -> LabeledBatch:
    """Draw ``batch_size`` labeled states of ``index``'s dataset, each a uniform utterance, token and frame.

    ``label_noise_std`` adds seeded Gaussian noise to the truncated-audio
    log-likelihood label of each draw, standing in for the measurement noise
    a real backbone produces.  The oracle itself stays exact; only training
    labels are perturbed, and the full-audio label keeps its clean value.
    """
    b = config.batch_size
    u = rng.integers(0, len(index.utterances), b)
    n = (rng.random(b) * index.n_tokens[u]).astype(np.int64)
    j = (rng.random(b) * index.n_frames[u]).astype(np.int64)

    # One oracle call for three views of each draw: rows [0, b) hold the
    # pending token n at frame j, rows [b, 2b) the adjacent token at the same
    # frame, for the monotonicity hinge, and rows [2b, 3b) token n at the
    # last frame, the full audio.
    next_valid = (n + 1) < index.n_tokens[u]
    u3 = np.concatenate([u, u, u])
    n3 = np.concatenate([n, np.minimum(n + 1, index.n_tokens[u] - 1), n])
    flat, t3, prob, evidence = index.states(u3, n3, np.concatenate([j, j, index.n_frames[u] - 1]))
    label_partial = np.log(prob[:b])
    if config.label_noise_std > 0.0:
        label_partial = label_partial + config.label_noise_std * rng.standard_normal(b)

    views = slice(0, 2 * b)
    mixed = index.oracle.mix_features(index.flat_tokens[flat[views]], evidence[views],
                                      n3[views] / index.n_tokens[u3[views]])
    return LabeledBatch(
        features=mixed[:b],
        t_audio=t3[:b],
        label_partial_logp=label_partial,
        label_full_logp=np.log(prob[2 * b:]),
        t_star=index.flat_boundaries[flat[:b]],
        aligned=index.aligned[u],
        features_next=mixed[b:],
        next_valid=next_valid,
    )


class AdamW:
    """Adam with decoupled weight decay over one flat parameter vector; deterministic.

    Each step runs the per-element update
    ``theta -= lr * ((m / c1) / (sqrt(v / c2) + eps) + weight_decay * theta)``
    as a few whole-vector operations in that floating-point order, with
    bias corrections c1 = 1 - beta1**t and c2 = 1 - beta2**t.  The betas, eps
    and weight decay are the module's recipe constants; ``step`` takes the
    learning rate, which ``train`` warms up.
    """

    def __init__(self, size: int):
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._tmp = np.empty(size)
        self._update = np.empty(size)

    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - _BETA1**self.t
        c2 = 1.0 - _BETA2**self.t
        m, v, tmp, update = self.m, self.v, self._tmp, self._update
        m *= _BETA1
        m += np.multiply(grad, 1.0 - _BETA1, out=tmp)
        v *= _BETA2
        np.multiply(grad, 1.0 - _BETA2, out=tmp)
        v += np.multiply(tmp, grad, out=tmp)
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += _EPS
        np.divide(m, c1, out=update)
        update /= tmp
        update += np.multiply(theta, _WEIGHT_DECAY, out=tmp)
        update *= lr
        theta -= update


class _FlatHead:
    """One training step of the policy head, built once with the step's settings.

    The step picks its terms: the monotonicity view when ``lambda_mono > 0``,
    and, for the variants that train it, the alignment term against targets
    built from each row's boundary.  The step trains a copy of the head it is
    built with, ``params``, whose vector is ``theta``; its gradient ``grad`` is
    laid out as ``theta`` is, so the optimizer updates every layer at once and
    both backward passes of a step land in one buffer.  Both
    token views' activations live in workspaces allocated once for ``rows``,
    the row count of every step.

    ``times`` are every audio time the steps will see.  A head with a time
    embedding computes their embeddings once, into a table the steps gather
    rows from.
    """

    def __init__(self, params: PolicyParams, times: np.ndarray, rows: int,
                 variant: PolicyVariant, weights: LossWeights, objective: str):
        config = params.config
        variant.check(config)
        self.variant, self.weights, self.objective = variant, weights, objective
        self.params = params.copy()
        self.theta = self.params.theta
        self._grads = PolicyParams(config, np.zeros_like(self.theta))  # the pending-token view's
        self._next_grads = PolicyParams(config, np.zeros_like(self.theta))  # the adjacent-token view's
        self.grad = self._grads.theta
        self._table_times = self._table = None
        if config.use_time_embedding:
            self._table_times = np.unique(times)
            self._table = time_embedding(self._table_times, config.input_dim, config.time_base)

        def activations():
            net_input = np.empty((rows, config.input_dim)) if config.use_time_embedding else None
            return [net_input] + [np.empty((rows, h)) for h in config.hidden_dims]

        self._activations = activations(), activations()

    def embedding(self, t_audio) -> np.ndarray:
        """``time_embedding(t_audio, ...)`` of the head, gathered from its table.

        Every entry of ``t_audio`` must be one of the times the head was built with.
        No workspace: numpy buffers ``take(out=)`` under ``mode='raise'``, an extra copy.
        """
        return np.take(self._table, np.searchsorted(self._table_times, t_audio), axis=0)

    def loss_and_param_grad(self, batch: LabeledBatch) -> dict[str, float]:
        """Loss breakdown of one step on ``batch``; leaves d(total)/d(theta) in ``grad``.

        The time embedding, when the head uses one, is gathered once per
        step from the table and added to both token views.
        """
        params, weights, t_audio = self.params, self.weights, batch.t_audio
        embedding = self.embedding(t_audio) if params.config.use_time_embedding else None
        acts, acts_next = self._activations
        scores, cache = forward_with_cache(params, batch.features, t_audio, embedding=embedding, out=acts)
        scores_next = cache_next = next_valid = targets = mask = None
        if weights.lambda_mono > 0:
            scores_next, cache_next = forward_with_cache(params, batch.features_next, t_audio, embedding=embedding,
                                                         out=acts_next)
            next_valid = batch.next_valid
        if self.variant.uses_alignment_loss:
            mask = batch.aligned
            targets = np.where(mask, align_target(t_audio, batch.t_star, weights.tau), 0.0)
        _, breakdown, dq, dq_next = loss_and_grad(
            scores, batch.labels, weights, q_next=scores_next, next_valid=next_valid,
            align_targets=targets, align_mask=mask, objective=self.objective)
        for term in ("cov", "mono", "l2", "align", "total"):
            if not math.isfinite(breakdown[term]):
                raise NumericError(f"non-finite {term} loss")
        backward_from_cache(params, cache, dq, out=self._grads)
        if dq_next is not None:
            self.grad += backward_from_cache(params, cache_next, dq_next, out=self._next_grads).theta
        return breakdown


def train(oracle: OracleModel, dataset, policy_config: PolicyConfig,
          train_config: TrainConfig, loss_weights: LossWeights) -> TrainReport:
    """Optimize the policy head; deterministic given the config seeds."""
    index = DatasetIndex(dataset, oracle)
    if train_config.variant.uses_alignment_loss and not index.aligned.any():
        warnings.warn("alignment-aware variant trained with zero aligned utterances; alignment term will be 0")

    params = init_params(policy_config, [train_config.rng_seed, _INIT_STREAM])
    try:
        head = _FlatHead(params, index.flat_times, train_config.batch_size, train_config.variant, loss_weights,
                         train_config.objective)
    except ConfigError:  # the head's variant check, not a workspace
        raise
    except (ValueError, MemoryError) as exc:  # numpy refuses or cannot place the step workspaces
        raise ConfigError(f"batch_size: {train_config.batch_size} rows do not fit in memory ({exc})") from None
    rng = np.random.default_rng([train_config.rng_seed, _SAMPLE_STREAM])
    optimizer = AdamW(head.theta.shape[0])
    records: list[StepRecord] = []

    for step in range(train_config.steps):
        batch = sample_batch(index, train_config, rng)
        try:
            breakdown = head.loss_and_param_grad(batch)
        except NumericError as exc:
            raise NumericError(f"{exc} at step {step}") from None
        # a numpy sum, not np.dot or np.linalg.norm, whose BLAS may split the
        # vector across threads and round differently with their number
        grad_norm = float(np.sqrt(np.square(head.grad).sum()))

        optimizer.step(head.theta, head.grad, _LR * min(1.0, (step + 1) / _WARMUP))
        records.append(StepRecord(step=step, loss_total=breakdown["total"], loss_cov=breakdown["cov"],
                                  loss_mono=breakdown["mono"], loss_l2=breakdown["l2"],
                                  loss_align=breakdown["align"], grad_norm=grad_norm))
    return TrainReport(records=records, params=head.params)


def write_training_csv(report: TrainReport, path) -> None:
    write_csv(path, StepRecord._fields, report.records)


def score_info_gain_grid(oracle: OracleModel, params: PolicyParams, dataset):
    """Policy scores and exact gains over the full (frame, token) grid of a dataset, frame-major.

    Each frame's scores are, bit for bit, the row that ``ThresholdPolicy`` fills at that time.
    """
    scores, gains = [], []
    for utt in dataset:
        t, n = np.meshgrid(oracle.frame_grid(utt), np.arange(utt.n_tokens), indexing="ij")
        scores.append(forward_batch(params, oracle.features_many(utt, t, n), t).ravel())
        gains.append(oracle.info_gain_many(utt, t, n).ravel())
    return np.concatenate(scores), np.concatenate(gains)


def grad_check(policy_config: PolicyConfig, loss_weights: LossWeights, variant: PolicyVariant,
               seed: int = 0, *, objective: str = "cov", n_coords: int = 120) -> float:
    """Worst relative disagreement between analytic and central-difference gradients.

    Both differentiate the step that ``train`` runs, on 16 random states: the
    analytic gradient is that step's, and the central differences, with step
    1e-5, take its ``total`` with one coordinate of ``theta`` moved each way.
    The relative error divides by max(|analytic|, |numeric|, 0.01), so tiny
    coordinates are held to a matching absolute tolerance.
    """
    rng = np.random.default_rng([seed, _CHECK_STREAM])
    rows = 16
    features = rng.standard_normal((rows, policy_config.input_dim))
    features_next = rng.standard_normal((rows, policy_config.input_dim))
    t_audio = rng.uniform(0.0, 20.0, rows)
    labels = rng.standard_normal(rows)
    next_valid = rng.random(rows) < 0.8
    t_star = t_audio + rng.uniform(-3.0, 3.0, rows) * loss_weights.tau  # alignment targets in about (0.05, 0.95)
    aligned = rng.random(rows) < 0.7
    batch = LabeledBatch(features=features, t_audio=t_audio, label_partial_logp=labels, label_full_logp=np.zeros(rows),
                         t_star=t_star, aligned=aligned, features_next=features_next, next_valid=next_valid)
    head = _FlatHead(init_params(policy_config, [seed, _CHECK_STREAM + 1]), t_audio, rows, variant, loss_weights,
                     objective)
    head.loss_and_param_grad(batch)
    analytic = head.grad.copy()

    theta = head.theta
    coords = rng.choice(theta.shape[0], size=min(n_coords, theta.shape[0]), replace=False)
    worst = 0.0
    for c in coords:
        saved = theta[c]
        theta[c] = saved + _FD_STEP
        hi = head.loss_and_param_grad(batch)["total"]
        theta[c] = saved - _FD_STEP
        lo = head.loss_and_param_grad(batch)["total"]
        theta[c] = saved
        numeric = (hi - lo) / (2.0 * _FD_STEP)
        err = abs(analytic[c] - numeric) / max(abs(analytic[c]), abs(numeric), 1e-2)
        worst = max(worst, err)
    return worst
