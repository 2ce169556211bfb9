"""Synthetic streaming-translation environment with analytically known probabilities.

Utterances carry a source timeline, a target token sequence, and per-token
emission boundary times.  An :class:`OracleModel` plays the role of a frozen
translation backbone: it exposes the conditional next-token distribution at
any audio prefix, the exact benefit (in nats) of waiting for the full audio,
and the feature vectors a read/write policy gets to see.  Everything is a
pure function of the configuration seed, so datasets and oracle outputs are
reproducible byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, Threshold, check_settings, parse_lines, require, setting, token_ids
from .numerics import sigmoid

_EMBED_STREAM = 0xE1
_MIXER_STREAM = 0xE2
_DATASET_STREAM = 0xE3

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_LANE_A = _U64(0xA0761D6478BD642F)
_LANE_B = _U64(0xE7037ED1A0B428DB)


def _mix64(x: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer; uint64 arithmetic wraps modulo 2**64 by design.
    z = x + _GOLDEN
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _hash_standard_normal(seed: int, utt_key, frame_index, token_index) -> np.ndarray:
    """Deterministic unit Gaussians keyed by (seed, utterance, frame, token).

    Counter-based (hash -> Box-Muller) so feature noise never depends on the
    order in which states are evaluated.
    """
    with np.errstate(over="ignore"):
        z = _mix64(np.asarray(utt_key, dtype=_U64) ^ _U64(seed))
        z = _mix64(z ^ np.asarray(frame_index, dtype=np.int64).astype(_U64))
        z = _mix64(z ^ np.asarray(token_index, dtype=np.int64).astype(_U64))
        h1 = _mix64(z ^ _LANE_A)
        h2 = _mix64(z ^ _LANE_B)
    u1 = ((h1 >> _U64(11)).astype(np.float64) + 1.0) * 2.0**-53  # (0, 1]
    u2 = (h2 >> _U64(11)).astype(np.float64) * 2.0**-53  # [0, 1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for dataset generation and the analytic oracle."""

    vocab_size: int = 50
    frame_ms: float = 50.0
    tokens_per_utt_range: tuple[int, int] = (6, 12)
    mean_token_gap_s: float = 0.8
    gap_jitter_s: float = 0.2
    p_min: float = 0.005
    p_max: float = 0.9
    ramp_s: float = 0.25
    ambiguity_prob: float = 0.0
    feature_dim: int = 16
    noise_std: float = 0.0
    rng_seed: int = 0
    aligned_prob: float = 1.0

    def __post_init__(self):
        check_settings(self)
        require(self.vocab_size >= 2, "vocab_size", "must be >= 2")
        require(self.frame_ms > 0, "frame_ms", "must be > 0")
        require(1 <= self.tokens_per_utt_range[0] <= self.tokens_per_utt_range[1], "tokens_per_utt_range",
                "need 1 <= min <= max")
        require(self.mean_token_gap_s > 0, "mean_token_gap_s", "must be > 0")
        require(0 <= self.gap_jitter_s < self.mean_token_gap_s, "gap_jitter_s",
                 "must be >= 0 and < mean_token_gap_s (gaps must stay positive)")
        require(0 < self.p_min < self.p_max < 1, "p_min", "need 0 < p_min < p_max < 1")
        require(self.ramp_s > 0, "ramp_s", "must be > 0")
        require(0 <= self.ambiguity_prob <= 1, "ambiguity_prob", "must lie in [0, 1]")
        require(self.feature_dim >= 3, "feature_dim", "must be >= 3 (token embedding needs feature_dim - 2 dims)")
        require(self.noise_std >= 0, "noise_std", "must be >= 0")
        require(self.rng_seed >= 0, "rng_seed", "must be >= 0")
        require(0 <= self.aligned_prob <= 1, "aligned_prob", "must lie in [0, 1]")

    @property
    def frame_s(self) -> float:
        return self.frame_ms / 1000.0


def oracle_states(config: SynthConfig, t_s, t_star, ambiguous=None, utt_key=None, token_index=None):
    """Correct-token probability and evidence channel of flat arrays of oracle states.

    State i: audio time ``t_s[i]``, pending token ``token_index[i]`` with
    boundary ``t_star[i]`` and ambiguous flag ``ambiguous[i]``, in the
    utterance keyed ``utt_key`` (:attr:`Utterance.key`, one or one per state).
    The ramp ``sigmoid((t_s - t_star) / ramp_s)`` gives the probability
    ``p_min + (p_max - p_min) * ramp`` and the evidence: the ramp, 0 for
    ambiguous tokens, plus noise keyed by (rng_seed, utterance, frame
    ``rint(t_s / frame_s)``, token) when ``noise_std > 0``.  Without
    ``ambiguous`` the evidence is skipped and returned as None.  This is the
    only place the oracle's state math is written.
    """
    t_s = np.asarray(t_s, dtype=np.float64)
    ramp = sigmoid((t_s - t_star) / config.ramp_s)
    prob = config.p_min + (config.p_max - config.p_min) * ramp
    if ambiguous is None:
        return prob, None
    evidence = np.where(ambiguous, 0.0, ramp)
    if config.noise_std > 0.0:
        frame_index = np.rint(t_s / config.frame_s).astype(np.int64)
        noise = _hash_standard_normal(config.rng_seed, utt_key, frame_index, token_index)
        evidence = evidence + config.noise_std * noise
    return prob, evidence


@dataclass(eq=False)
class Utterance:
    """One synthetic source/target pair with known emission boundaries; it equals only itself, so it can key a dict."""

    id: str
    duration_s: float
    target_tokens: np.ndarray
    boundaries_s: np.ndarray
    ambiguous_mask: np.ndarray
    aligned: bool = True

    def __post_init__(self):
        check_settings(self)
        self.target_tokens = np.asarray(self.target_tokens, dtype=np.int64)
        self.boundaries_s = np.asarray(self.boundaries_s, dtype=np.float64)
        self.ambiguous_mask = np.asarray(self.ambiguous_mask, dtype=bool)
        n = self.target_tokens.shape[0]
        if n == 0:
            raise ValueError(f"utterance {self.id}: needs at least one token")
        if self.boundaries_s.shape[0] != n or self.ambiguous_mask.shape[0] != n:
            raise ValueError(f"utterance {self.id}: per-token arrays disagree on length")
        if not np.isfinite(self.boundaries_s).all():
            raise ValueError(f"utterance {self.id}: boundaries must be finite")
        if np.any(np.diff(self.boundaries_s) <= 0):
            raise ValueError(f"utterance {self.id}: boundaries must be strictly increasing")
        if self.boundaries_s[0] <= 0 or self.boundaries_s[-1] > self.duration_s:
            raise ValueError(f"utterance {self.id}: boundaries must lie in (0, duration_s]")

    @property
    def n_tokens(self) -> int:
        return int(self.target_tokens.shape[0])

    @functools.cached_property
    def key(self) -> np.uint64:
        """Stable 64-bit key of the id for counter-based noise, computed once."""
        digest = hashlib.blake2s(self.id.encode("utf-8"), digest_size=8).digest()
        return _U64(int.from_bytes(digest, "little"))


class OracleModel:
    """Analytic next-token distribution plus the feature view exposed to policies.

    The probability assigned to the correct next token ramps from ``p_min``
    toward ``p_max`` as the consumed audio passes the token's boundary; the
    residual mass is spread uniformly over the other tokens.  Feature vectors
    are an orthogonal mix of (token embedding, evidence scalar, relative
    position) and deliberately contain no clock: for ambiguous tokens the
    evidence channel is zeroed, so the view is constant in time.
    """

    def __init__(self, config: SynthConfig):
        self.config = config
        d = config.feature_dim
        emb_rng = np.random.default_rng([config.rng_seed, _EMBED_STREAM])
        mix_rng = np.random.default_rng([config.rng_seed, _MIXER_STREAM])
        try:
            self.token_embeddings = emb_rng.standard_normal((config.vocab_size, d - 2))
            raw = mix_rng.standard_normal((d, d))
        except (ValueError, MemoryError) as exc:  # numpy refuses or cannot place the tables
            raise ConfigError(f"vocab_size, feature_dim: the embeddings of {config.vocab_size} tokens in {d} "
                              f"dimensions do not fit in memory ({exc})") from None
        q_mat, r_mat = np.linalg.qr(raw)
        # Fix column signs so the orthogonal mixer is unique given the seed.
        self.mixing_matrix = q_mat * np.sign(np.diag(r_mat))[None, :]

    # -- probabilities ----------------------------------------------------

    def _check_state(self, utt: Utterance, t_s: float, n: int) -> None:
        if not 0 <= n < utt.n_tokens:
            raise IndexError(f"token index {n} out of range for {utt.n_tokens}-token utterance {utt.id}")
        if not 0.0 <= t_s <= utt.duration_s + 1e-9:
            raise ValueError(f"time {t_s} outside [0, {utt.duration_s}] for utterance {utt.id}")

    def _prob(self, utt: Utterance, t_s, n) -> np.ndarray:
        """Kernel probabilities for parallel (t_s, n) arrays of one utterance."""
        return oracle_states(self.config, t_s, utt.boundaries_s[np.asarray(n, dtype=np.int64)])[0]

    def greedy_tokens(self, utt: Utterance, t_s, n) -> list[int]:
        """Greedy decode of the pending tokens ``n`` of one utterance at times ``t_s``.

        ``n`` is an array of token indices and ``t_s`` one time or one per
        index.  The oracle's next-token distribution gives the target the
        probability ``p`` of :func:`oracle_states` and every other token
        ``(1 - p) / (vocab_size - 1)``.  Each token is the argmax of its
        log: the target if ``log p`` beats the log of that residual mass,
        else the lowest id of a maximum, which is 0 on a tie or when the
        target is not 0, and 1 otherwise.  The logs are taken with
        ``math.log`` because a vectorized log may round differently and one
        ulp decides a tie.
        """
        n = np.asarray(n, dtype=np.int64)
        others = self.config.vocab_size - 1
        tokens = []
        for p, target in zip(self._prob(utt, t_s, n).tolist(), utt.target_tokens[n].tolist()):
            log_p, log_other = math.log(p), math.log((1.0 - p) / others)
            tokens.append(target if log_p > log_other else int(target == 0 and log_p < log_other))
        return tokens

    def greedy_token(self, utt: Utterance, t_s: float, n: int) -> int:
        """Greedy decode of the pending token; ties break toward the lowest id."""
        self._check_state(utt, t_s, n)
        return self.greedy_tokens(utt, [t_s], [n])[0]

    def true_info_gain(self, utt: Utterance, t_s: float, n: int) -> float:
        """Exact benefit (nats) of waiting for the full audio before emitting token n."""
        self._check_state(utt, t_s, n)
        return float(self.info_gain_many(utt, [t_s], [n])[0])

    def info_gain_many(self, utt: Utterance, t_s, n) -> np.ndarray:
        """Exact gains (nats) of parallel (t_s, n) arrays: ``log p(T) - log p(t_s)``, from one kernel call."""
        n = np.asarray(n, dtype=np.int64)
        log_p = np.log(self._prob(utt, [t_s, np.full(n.shape, utt.duration_s)], [n, n]))
        return log_p[1] - log_p[0]

    # -- features ----------------------------------------------------------

    def mix_features(self, token_ids, evidence, relpos) -> np.ndarray:
        """Mix part arrays of one shape into features of that shape plus ``(feature_dim,)``."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        parts = np.empty(token_ids.shape + (self.config.feature_dim,))
        parts[..., :-2] = self.token_embeddings[token_ids]
        parts[..., -2] = evidence
        parts[..., -1] = relpos
        return parts @ self.mixing_matrix

    def features_many(self, utt: Utterance, t_s, n) -> np.ndarray:
        """Features of (t_s, n) arrays of one shape, one utterance's states; shaped ``n.shape + (feature_dim,)``."""
        n = np.asarray(n, dtype=np.int64)
        _, evidence = oracle_states(self.config, t_s, utt.boundaries_s[n], utt.ambiguous_mask[n], utt.key, n)
        return self.mix_features(utt.target_tokens[n], evidence, n / utt.n_tokens)

    def features(self, utt: Utterance, t_s: float, n: int) -> np.ndarray:
        """Feature vector the policy sees when token n is pending at time t_s."""
        self._check_state(utt, t_s, n)
        return self.features_many(utt, [t_s], [n])[0]

    # -- grids and boundaries ----------------------------------------------

    def frame_grid(self, utt: Utterance) -> np.ndarray:
        """Frame-aligned time grid over [0, duration]; the last point is exactly T."""
        frame = self.config.frame_s
        try:
            grid = np.arange(int(math.floor(utt.duration_s / frame + 1e-9)) + 1, dtype=np.float64) * frame
        except (ValueError, OverflowError, MemoryError) as exc:  # too many frames for numpy, or for a float
            raise ConfigError(f"frame_ms: {self.config.frame_ms} ms frames of the {utt.duration_s} s utterance "
                              f"{utt.id} do not fit in memory ({exc})") from None
        return np.append(grid[grid < utt.duration_s - 1e-9], utt.duration_s)

    def write_boundary(self, utt: Utterance, n: int, gain_threshold: float) -> float:
        """Earliest grid time at which waiting is worth at most ``gain_threshold``."""
        require(setting(gain_threshold, Threshold, "gain_threshold") >= 0, "gain_threshold", "must be >= 0")
        self._check_state(utt, 0.0, n)
        grid = self.frame_grid(utt)
        gains = self.info_gain_many(utt, grid, np.full(len(grid), n, dtype=np.int64))
        hits = np.nonzero(gains <= gain_threshold)[0]
        return float(grid[hits[0]])  # gain at T is exactly 0, so a hit always exists


class DatasetIndex:
    """Flat per-token and per-frame tables of a dataset, for :func:`oracle_states`.

    Token n of utterance u is row ``offsets[u] + n``; frame j of it is time
    ``oracle.frame_grid(utt)[j]``, so the last, ``n_frames[u] - 1``, is T.
    """

    def __init__(self, dataset, oracle: OracleModel):
        require(bool(dataset), "dataset", "must be non-empty")
        self.oracle = oracle
        self.utterances = list(dataset)
        grids = [oracle.frame_grid(u) for u in self.utterances]
        self.n_tokens = np.array([u.n_tokens for u in self.utterances], dtype=np.int64)
        self.n_frames = np.array([g.shape[0] for g in grids], dtype=np.int64)
        self.offsets = np.cumsum(self.n_tokens) - self.n_tokens
        self.frame_offsets = np.cumsum(self.n_frames) - self.n_frames
        self.flat_times = np.concatenate(grids)
        self.flat_tokens = np.concatenate([u.target_tokens for u in self.utterances])
        self.flat_boundaries = np.concatenate([u.boundaries_s for u in self.utterances])
        self.flat_ambiguous = np.concatenate([u.ambiguous_mask for u in self.utterances])
        self.aligned = np.array([u.aligned for u in self.utterances], dtype=bool)
        self.utt_keys = np.array([u.key for u in self.utterances], dtype=_U64)

    def states(self, u, n, j):
        """Flat token rows, times, probabilities and evidence of states (u, n, j)."""
        flat = self.offsets[u] + n
        t_s = self.flat_times[self.frame_offsets[u] + j]
        prob, evidence = oracle_states(self.oracle.config, t_s, self.flat_boundaries[flat],
                                       self.flat_ambiguous[flat], self.utt_keys[u], n)
        return flat, t_s, prob, evidence


def draw_utterances(config: SynthConfig, count: int) -> Iterator[Utterance]:
    """Draw ``count`` utterances one at a time; the call checks ``count`` before the first draw."""
    require(setting(count, int, "count") >= 1, "count", "must be >= 1")
    rng = np.random.default_rng([config.rng_seed, _DATASET_STREAM])
    frame = config.frame_s
    lo, hi = config.tokens_per_utt_range

    def draw(i: int) -> Utterance:
        n_tok = int(rng.integers(lo, hi + 1))
        try:
            gaps = config.mean_token_gap_s + rng.uniform(-config.gap_jitter_s, config.gap_jitter_s, size=n_tok)
        except (ValueError, MemoryError) as exc:  # numpy refuses or cannot place n_tok floats
            raise ConfigError(f"tokens_per_utt_range: an utterance of {n_tok} tokens does not fit in memory "
                              f"({exc})") from None
        boundaries = np.cumsum(gaps)
        frames = int(math.ceil((boundaries[-1] + config.mean_token_gap_s) / frame - 1e-9))
        tokens = rng.integers(0, config.vocab_size, size=n_tok)
        ambiguous = rng.random(n_tok) < config.ambiguity_prob
        aligned = bool(rng.random() < config.aligned_prob)
        return Utterance(id=f"utt-{i:05d}", duration_s=frames * frame, target_tokens=tokens, boundaries_s=boundaries,
                         ambiguous_mask=ambiguous, aligned=aligned)

    return map(draw, range(count))


def generate_dataset(config: SynthConfig, count: int) -> list[Utterance]:
    """Draw ``count`` utterances; byte-reproducible from ``config.rng_seed``."""
    return list(draw_utterances(config, count))


# -- serialization ----------------------------------------------------------
# One utterance per line; floats keep full round-trip precision (shortest
# repr), which exceeds the nine-significant-digit contract.

def utterance_to_json(utt: Utterance) -> str:
    record = {
        "id": utt.id,
        "duration_s": float(utt.duration_s),
        "tokens": [int(t) for t in utt.target_tokens],
        "boundaries_s": [float(b) for b in utt.boundaries_s],
        "ambiguous": [bool(a) for a in utt.ambiguous_mask],
        "aligned": bool(utt.aligned),
    }
    return json.dumps(record, separators=(",", ":"))


def utterance_from_json(line: str) -> Utterance:
    record = json.loads(line)
    return Utterance(
        id=record["id"],
        duration_s=record["duration_s"],
        target_tokens=token_ids(record["tokens"], "tokens"),
        boundaries_s=setting(record["boundaries_s"], tuple[float, ...], "boundaries_s"),
        ambiguous_mask=setting(record["ambiguous"], tuple[bool, ...], "ambiguous"),
        aligned=record["aligned"],
    )


def save_dataset(utterances, path) -> None:
    """Write one JSON line per utterance, each as it is drawn from ``utterances``."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(utterance_to_json(u) + "\n" for u in utterances)


def load_dataset(path) -> list[Utterance]:
    """Read a dataset; a malformed line raises ConfigError naming the file and line."""
    return parse_lines(path, utterance_from_json, "dataset")
