"""Streaming inference: chunked reads, thresholded writes, emission logging.

The simulator advances audio in fixed chunks.  At each state it either reads
another chunk or greedily emits the pending token, recording how much source
had been consumed.  Once the source is exhausted the policy is bypassed and
every remaining token is force-emitted at the full duration, which is also
what defines a read loop: nothing was emitted before the source ran out.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics  # sweep calls metrics.<name>, so a wrapper set on that module (a trace) sees the call
from .errors import Threshold, check_settings, parse_lines, require, setting, token_ids
from .policy import PolicyParams, forward_batch
from .policy import forward  # noqa: F401  (re-exported; perfbench traces it under this name)
from .synth import OracleModel, Utterance

_END_EPS = 1e-12  # a time within this of T has exhausted the source (for a delay: EmissionLog.n_before_end)


@dataclass(frozen=True)
class StreamConfig:
    chunk_ms: float = 250.0

    def __post_init__(self):
        check_settings(self)
        require(self.chunk_ms > 0, "chunk_ms", "must be > 0")

    @property
    def chunk_s(self) -> float:
        return self.chunk_ms / 1000.0


@dataclass
class EmissionLog:
    """Per-token emission record of one streaming run; building one checks the log contract.

    ``truncated`` is part of the log format; :func:`simulate` emits every
    target token, so its logs never set it.
    """

    utt_id: str
    tokens: list[int]
    delays_s: list[float]
    duration_s: float
    n_forced: int = 0
    truncated: bool = False

    def __post_init__(self):
        delays = self.delays_s
        if len(self.tokens) != len(delays):
            raise ValueError(f"log {self.utt_id}: tokens and delays disagree on length")
        if not (math.isfinite(self.duration_s) and all(map(math.isfinite, delays))):
            raise ValueError(f"log {self.utt_id}: duration_s and delays must be finite")
        if any(a > b for a, b in zip(delays, delays[1:])):
            raise ValueError(f"log {self.utt_id}: delays must be nondecreasing")
        if len(delays) and (delays[0] <= 0 or delays[-1] > self.duration_s + _END_EPS):
            raise ValueError(f"log {self.utt_id}: delays must lie in (0, duration_s]")
        if not 0 <= self.n_forced <= len(self.tokens):
            raise ValueError(f"log {self.utt_id}: n_forced must be from 0 to the number of tokens")

    @property
    def n_before_end(self) -> int:
        """Tokens written before the source ran out: the index of the first delay within 1e-12 of T, else all."""
        return next((i for i, d in enumerate(self.delays_s) if d >= self.duration_s - _END_EPS), len(self.delays_s))

    @property
    def read_loop(self) -> bool:
        """True iff nothing was written before the source ran out."""
        return self.n_before_end == 0


class ThresholdPolicy:
    """Read while the learned score exceeds the threshold alpha.

    A decision at ``(utt, t_s, n)`` looks its score up in a table with one
    row of per-token scores for each audio time of each utterance.  A miss
    fills the whole row with one ``features_many`` and ``forward_batch``
    call, as a backbone decodes a prefix once for every pending token.  The
    params are copied when the policy is built, so training them further in
    place cannot mix stale and fresh scores.  :meth:`with_alpha` gives a
    policy at another threshold that shares the copy and the table.
    """

    def __init__(self, oracle: OracleModel, params: PolicyParams, alpha: float):
        self.oracle = oracle
        self.params = params.copy()
        self.alpha = setting(alpha, Threshold, "alpha")
        self._scores: dict[Utterance, dict[float, list[float]]] = {}  # utt -> {t_s: scores by token}

    def with_alpha(self, alpha: float) -> ThresholdPolicy:
        """This policy at threshold ``alpha``, sharing its params copy and score table."""
        other = copy.copy(self)
        other.alpha = setting(alpha, Threshold, "alpha")
        return other

    def wants_read(self, utt: Utterance, t_s: float, n: int, chunks_read: int) -> bool:
        rows = self._scores.get(utt)
        if rows is None:
            rows = self._scores[utt] = {}
        row = rows.get(t_s)
        if row is None:
            t = np.full(utt.n_tokens, t_s)
            features = self.oracle.features_many(utt, t, np.arange(utt.n_tokens))
            row = rows[t_s] = forward_batch(self.params, features, t).tolist()
        return row[n] > self.alpha


class GainThresholdPolicy:
    """Perfectly calibrated reference policy: read while the exact gain exceeds the threshold."""

    def __init__(self, oracle: OracleModel, gain_threshold: float):
        self.oracle = oracle
        self.gain_threshold = setting(gain_threshold, Threshold, "gain_threshold")
        require(self.gain_threshold >= 0 or self.gain_threshold == -math.inf, "gain_threshold",
                "must be >= 0 (or -inf for always-write)")

    def wants_read(self, utt: Utterance, t_s: float, n: int, chunks_read: int) -> bool:
        return self.oracle.true_info_gain(utt, t_s, n) > self.gain_threshold


class WaitKPolicy:
    """Read k chunks up front, then alternate one write with one read."""

    def __init__(self, k: int):
        self.k = setting(k, int, "k")
        require(self.k >= 0, "k", "must be >= 0")

    def wants_read(self, utt: Utterance, t_s: float, n: int, chunks_read: int) -> bool:
        return n > chunks_read - self.k


def simulate(oracle: OracleModel, utt: Utterance, policy, config: StreamConfig) -> EmissionLog:
    """Run one utterance through the chunked read/write loop.

    While audio remains, ``policy.wants_read(utt, t_s, n, chunks_read)`` is
    asked whether to read another chunk or write pending token ``n`` (the
    count of tokens written so far) at the consumed time ``t_s``.  The first
    decision happens after one chunk has been consumed, so every delay is
    strictly positive.  Audio never rewinds; several tokens may be emitted at
    the same prefix.  The loop records only the write times; the tokens are
    decoded in one :meth:`OracleModel.greedy_tokens` call after it.
    """
    duration = utt.duration_s
    chunk = config.chunk_s
    chunks_read = 1
    t = min(chunk, duration)
    delays: list[float] = []
    n = 0
    while n < utt.n_tokens and t < duration - _END_EPS:
        if policy.wants_read(utt, t, n, chunks_read):
            chunks_read += 1
            t = min(chunks_read * chunk, duration)
        else:
            delays.append(t)
            n += 1
    n_forced = utt.n_tokens - n
    delays += [duration] * n_forced
    tokens = oracle.greedy_tokens(utt, delays, np.arange(utt.n_tokens))
    return EmissionLog(utt_id=utt.id, tokens=tokens, delays_s=delays, duration_s=duration, n_forced=n_forced)


def sweep(oracle: OracleModel, params: PolicyParams | None, dataset, alphas,
          config: StreamConfig, policy_factory=None, collect_logs: bool = False):
    """Simulate the whole dataset at each threshold; one operating point per alpha.

    Each alpha must be a number other than NaN, and is passed on as a float.
    ``policy_factory(alpha)`` overrides the default threshold policy, which
    lets reference policies reuse the same harness.  The default policies of
    all alphas share one score table (:meth:`ThresholdPolicy.with_alpha`),
    so each token row is filled once per sweep.  Output order follows the
    input alphas.
    """
    alphas = [setting(alpha, Threshold, "alpha") for alpha in alphas]
    require(len(alphas) > 0, "alphas", "must be non-empty")
    if policy_factory is None:
        require(params is not None, "params", "required unless a policy_factory is given")
        policy_factory = ThresholdPolicy(oracle, params, alphas[0]).with_alpha
    refs = [list(u.target_tokens) for u in dataset]
    points = []
    logs_by_alpha: dict[float, list[EmissionLog]] = {}
    for alpha in alphas:
        policy = policy_factory(alpha)
        logs = [simulate(oracle, utt, policy, config) for utt in dataset]
        mean_laal = float(np.mean([metrics.laal(log, utt.n_tokens) for log, utt in zip(logs, dataset)]))
        quality = metrics.bleu([log.tokens for log in logs], refs)
        points.append(metrics.ParetoPoint(alpha=alpha, mean_laal_s=mean_laal,
                                          quality=quality, read_loop_pct=metrics.read_loop_pct(logs)))
        if collect_logs:
            logs_by_alpha[alpha] = logs
    if collect_logs:
        return points, logs_by_alpha
    return points


# -- serialization ------------------------------------------------------------
# One emission log per line; this is the contract between the simulator and
# the metrics stage, and what external tooling consumes.

def emission_log_to_json(log: EmissionLog) -> str:
    record = {
        "utt_id": log.utt_id,
        "tokens": [int(t) for t in log.tokens],
        "delays_s": [float(d) for d in log.delays_s],
        "T": float(log.duration_s),
        "forced_tail": int(log.n_forced),
        "read_loop": log.read_loop,
        "truncated": bool(log.truncated),
    }
    return json.dumps(record, separators=(",", ":"))


def emission_log_from_json(line: str) -> EmissionLog:
    record = json.loads(line)
    return EmissionLog(utt_id=setting(record["utt_id"], str, "utt_id"), tokens=token_ids(record["tokens"], "tokens"),
                       delays_s=list(setting(record["delays_s"], tuple[float, ...], "delays_s")),
                       duration_s=setting(record["T"], float, "T"),
                       n_forced=setting(record["forced_tail"], int, "forced_tail"),
                       truncated=setting(record.get("truncated", False), bool, "truncated"))


def save_logs(logs, path) -> None:
    Path(path).write_text("".join(emission_log_to_json(log) + "\n" for log in logs), encoding="utf-8")


def load_logs(path) -> list[EmissionLog]:
    """Read emission logs; a malformed line raises ConfigError naming the file and line."""
    return parse_lines(path, emission_log_from_json, "emission logs")
