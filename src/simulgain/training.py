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

import numpy as np

from .errors import NumericError, check_settings, require
from .losses import LossWeights, align_target, loss_and_grad, total_loss
from .losses import total_loss_grad  # noqa: F401  (re-exported; perfbench traces it under this name)
from .metrics import write_csv
from .policy import (
    PolicyConfig,
    PolicyParams,
    PolicyVariant,
    backward_from_cache,
    forward_batch,
    forward_with_cache,
    init_params,
    params_to_vector,
    time_embedding,
    vector_to_params,
    vector_views,
)
from .synth import DatasetIndex, OracleModel

_INIT_STREAM = 0x51
_SAMPLE_STREAM = 0x52
_CHECK_STREAM = 0x53
_FD_STEP = 1e-5  # central-difference step of grad_check


@dataclass(frozen=True)
class TrainConfig:
    variant: PolicyVariant = PolicyVariant.REINA
    batch_size: int = 256
    steps: int = 5000
    lr: float = 1e-3
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    weight_decay: float = 1e-4
    warmup_steps: int = 100
    rng_seed: int = 0
    objective: str = "cov"
    label_noise_std: float = 0.0

    def __post_init__(self):
        check_settings(self)
        require(self.batch_size >= 2, "batch_size", "must be >= 2 (label normalization needs a batch)")
        require(self.steps >= 1, "steps", "must be >= 1")
        require(self.lr >= 0, "lr", "must be >= 0")
        require(all(0 <= b < 1 for b in self.adam_betas), "adam_betas", "each must lie in [0, 1)")
        require(self.adam_eps > 0, "adam_eps", "must be > 0")
        require(self.weight_decay >= 0, "weight_decay", "must be >= 0")
        require(self.objective in ("cov", "mse"), "objective", f"unknown value {self.objective!r}")
        require(self.warmup_steps >= 0, "warmup_steps", "must be >= 0")
        require(self.rng_seed >= 0, "rng_seed", "must be >= 0")
        require(self.label_noise_std >= 0, "label_noise_std", "must be >= 0")


@dataclass
class StepRecord:
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
    token_index: np.ndarray
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
        token_index=n,
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
    bias corrections c1 = 1 - beta1**t and c2 = 1 - beta2**t.
    """

    def __init__(self, size: int, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._tmp = np.empty(size)
        self._update = np.empty(size)

    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        m, v, tmp, update = self.m, self.v, self._tmp, self._update
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=tmp)
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=tmp)
        v += np.multiply(tmp, grad, out=tmp)
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, c1, out=update)
        update /= tmp
        update += np.multiply(theta, self.weight_decay, out=tmp)
        update *= lr
        theta -= update


class _FlatHead:
    """Policy parameters and their gradient, each one flat vector with per-layer views.

    ``params`` views ``theta`` and ``grads`` views ``grad``, so the optimizer
    updates every layer at once and both backward passes of a step land in
    one buffer.  The activations of both token views and the backward
    temporaries live in workspaces allocated once for ``rows``, the row
    count of every step.

    ``times`` are every audio time the steps will see.  A head with a time
    embedding computes their embeddings once, into a table the steps gather
    rows from.
    """

    def __init__(self, params: PolicyParams, times: np.ndarray, rows: int):
        config = params.config
        self.theta = params_to_vector(params)
        self.params = PolicyParams(config, *vector_views(config, self.theta))
        self.grad = np.zeros_like(self.theta)
        self.grads = vector_views(config, self.grad)
        self._next_grad = np.zeros_like(self.theta)
        self._next_grads = vector_views(config, self._next_grad)
        self._squares = np.zeros_like(self.theta)
        self._square_views = [a for part in vector_views(config, self._squares) for a in part]
        self._table_times = self._table = self._embedding = None
        if config.use_time_embedding:
            self._table_times = np.unique(times)
            self._table = time_embedding(self._table_times, config.input_dim, config.time_base)
            self._embedding = np.empty((rows, config.input_dim))

        def activations():
            net_input = None if self._embedding is None else np.empty_like(self._embedding)
            return [net_input] + [np.empty((rows, h)) for h in config.hidden_dims]

        self._activations = activations(), activations()
        self._scratch = [(np.empty((rows, h)), np.empty((rows, h))) for h in config.hidden_dims]

    def embedding(self, t_audio, out=None) -> np.ndarray:
        """``time_embedding(t_audio, ...)`` of the head, gathered from its table.

        Every entry of ``t_audio`` must be one of the times the head was built with.
        """
        return np.take(self._table, np.searchsorted(self._table_times, t_audio), axis=0, out=out)

    def loss_and_param_grad(self, weights: LossWeights, objective: str,
                            features, features_next, t_audio, labels, next_valid,
                            align_targets, align_mask) -> dict[str, float]:
        """Loss breakdown of one step; leaves d(total)/d(theta) in ``grad``.

        ``features_next`` is None when the monotonicity term is off, and
        ``align_targets`` when the variant has no alignment term.  The time
        embedding, when the head uses one, is gathered once per step from
        the table and added to both token views.
        """
        params = self.params
        cfg = params.config
        embedding = self.embedding(t_audio, out=self._embedding) if cfg.use_time_embedding else None
        acts, acts_next = self._activations
        scores, cache = forward_with_cache(params, features, t_audio, embedding=embedding, out=acts)
        scores_next = cache_next = None
        if features_next is not None:
            scores_next, cache_next = forward_with_cache(params, features_next, t_audio, embedding=embedding,
                                                         out=acts_next)
        _, breakdown, dq, dq_next = loss_and_grad(
            scores, labels, weights, q_next=scores_next, next_valid=next_valid,
            align_targets=align_targets, align_mask=align_mask, objective=objective)
        for term in ("cov", "mono", "l2", "align", "total"):
            if not math.isfinite(breakdown[term]):
                raise NumericError(f"non-finite {term} loss")
        backward_from_cache(params, cache, dq, out=self.grads, scratch=self._scratch)
        if dq_next is not None:
            backward_from_cache(params, cache_next, dq_next, out=self._next_grads, scratch=self._scratch)
            self.grad += self._next_grad
        return breakdown

    def grad_norm(self) -> float:
        """Euclidean norm of ``grad``.

        The squares are summed layer by layer and the layer sums added in
        order: one sum over the flat vector rounds differently, and the
        training CSV's ``grad_norm`` column keeps its bits.
        """
        np.multiply(self.grad, self.grad, out=self._squares)
        return float(np.sqrt(sum(float(a.sum()) for a in self._square_views)))


def train(oracle: OracleModel, dataset, policy_config: PolicyConfig,
          train_config: TrainConfig, loss_weights: LossWeights) -> TrainReport:
    """Optimize the policy head; deterministic given the config seeds.

    The returned parameters are views of one flat vector.
    """
    variant = train_config.variant
    variant.check(policy_config)
    index = DatasetIndex(dataset, oracle)
    if variant.uses_alignment_loss and not index.aligned.any():
        warnings.warn("alignment-aware variant trained with zero aligned utterances; alignment term will be 0")

    head = _FlatHead(init_params(policy_config, [train_config.rng_seed, _INIT_STREAM]), index.flat_times,
                     train_config.batch_size)
    rng = np.random.default_rng([train_config.rng_seed, _SAMPLE_STREAM])
    optimizer = AdamW(head.theta.shape[0], betas=train_config.adam_betas, eps=train_config.adam_eps,
                      weight_decay=train_config.weight_decay)
    use_mono = loss_weights.lambda_mono > 0
    records: list[StepRecord] = []

    for step in range(train_config.steps):
        batch = sample_batch(index, train_config, rng)
        targets = mask = None
        if variant.uses_alignment_loss:
            mask = batch.aligned
            targets = np.where(mask, align_target(batch.t_audio, batch.t_star, loss_weights.tau), 0.0)
        try:
            breakdown = head.loss_and_param_grad(
                loss_weights, train_config.objective, batch.features,
                batch.features_next if use_mono else None, batch.t_audio, batch.labels,
                batch.next_valid if use_mono else None, targets, mask)
        except NumericError as exc:
            raise NumericError(f"{exc} at step {step}") from None
        grad_norm = head.grad_norm()

        lr = train_config.lr
        if train_config.warmup_steps:
            lr *= min(1.0, (step + 1) / train_config.warmup_steps)
        optimizer.step(head.theta, head.grad, lr)
        records.append(StepRecord(step=step, loss_total=breakdown["total"], loss_cov=breakdown["cov"],
                                  loss_mono=breakdown["mono"], loss_l2=breakdown["l2"],
                                  loss_align=breakdown["align"], grad_norm=grad_norm))
    return TrainReport(records=records, params=head.params)


TRAINING_CSV_COLUMNS = ("step", "loss_total", "loss_cov", "loss_mono", "loss_l2", "loss_align", "grad_norm")


def write_training_csv(report: TrainReport, path) -> None:
    write_csv(path, TRAINING_CSV_COLUMNS, ((r.step, r.loss_total, r.loss_cov, r.loss_mono, r.loss_l2, r.loss_align,
                                            r.grad_norm) for r in report.records))


def score_info_gain_grid(oracle: OracleModel, params: PolicyParams, dataset):
    """Policy scores and exact gains over the full (frame, token) grid of a dataset."""
    scores, gains = [], []
    for utt in dataset:
        grid = oracle.frame_grid(utt)
        tokens = utt.n_tokens
        t_rep = np.repeat(grid, tokens)
        n_rep = np.tile(np.arange(tokens, dtype=np.int64), grid.shape[0])
        feats = oracle.features_many(utt, t_rep, n_rep)
        scores.append(forward_batch(params, feats, t_rep))
        gains.append(oracle.info_gain_many(utt, t_rep, n_rep))
    return np.concatenate(scores), np.concatenate(gains)


def grad_check(policy_config: PolicyConfig, loss_weights: LossWeights, variant: PolicyVariant,
               seed: int = 0, *, objective: str = "cov", n_coords: int = 120) -> float:
    """Worst relative disagreement between analytic and central-difference gradients.

    The analytic gradient comes from the step code that ``train`` runs; the
    central differences, with step 1e-5, evaluate :func:`total_loss` on
    perturbed parameters.
    The relative error divides by max(|analytic|, |numeric|, 0.01), so tiny
    coordinates are held to a matching absolute tolerance.
    """
    variant.check(policy_config)
    rng = np.random.default_rng([seed, _CHECK_STREAM])
    batch = 16
    feats = rng.standard_normal((batch, policy_config.input_dim))
    feats_next = rng.standard_normal((batch, policy_config.input_dim))
    t_audio = rng.uniform(0.0, 20.0, batch)
    labels = rng.standard_normal(batch)
    next_valid = rng.random(batch) < 0.8
    targets = rng.uniform(0.05, 0.95, batch)
    mask = rng.random(batch) < 0.7
    if loss_weights.lambda_mono == 0:
        feats_next = next_valid = None
    if not variant.uses_alignment_loss:
        targets = mask = None
    head = _FlatHead(init_params(policy_config, [seed, _CHECK_STREAM + 1]), t_audio, batch)
    head.loss_and_param_grad(loss_weights, objective, feats, feats_next, t_audio, labels,
                             next_valid, targets, mask)
    analytic = head.grad

    def loss_at(p: PolicyParams) -> float:
        scores = forward_batch(p, feats, t_audio)
        q_next = None if feats_next is None else forward_batch(p, feats_next, t_audio)
        return total_loss(scores, labels, loss_weights, q_next=q_next, next_valid=next_valid,
                          align_targets=targets, align_mask=mask, objective=objective)[0]

    theta = head.theta
    dim = theta.shape[0]
    coords = rng.choice(dim, size=min(n_coords, dim), replace=False)
    worst = 0.0
    for c in coords:
        bumped = theta.copy()
        bumped[c] += _FD_STEP
        hi = loss_at(vector_to_params(policy_config, bumped))
        bumped[c] -= 2.0 * _FD_STEP
        lo = loss_at(vector_to_params(policy_config, bumped))
        numeric = (hi - lo) / (2.0 * _FD_STEP)
        err = abs(analytic[c] - numeric) / max(abs(analytic[c]), abs(numeric), 1e-2)
        worst = max(worst, err)
    return worst
