"""Streaming inference: chunked reads, thresholded writes, emission logging.

The simulator advances audio in fixed chunks.  At each state it either reads
another chunk or greedily emits the pending token, recording how much source
had been consumed.  Once the source is exhausted the policy is bypassed and
every remaining token is force-emitted at the full duration, which is also
what defines a read loop: nothing was emitted before the source ran out.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics  # sweep calls metrics.<name>, so a wrapper set on that module (a trace) sees the call
from .errors import ConfigError, Threshold, check_settings, parse_lines, require, setting, token_ids
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


class _RowPolicy:
    """A policy :func:`simulate` walks a row at a time.

    ``_row(utt, t_s, chunks_read)`` scores every token of ``utt`` at one
    decision time, and the policy reads while the pending token's score
    exceeds its threshold ``alpha``.  :meth:`wants_read` is the one-decision
    view of that row, for callers that ask decision by decision.
    """

    alpha: float

    def wants_read(self, utt: Utterance, t_s: float, n: int, chunks_read: int) -> bool:
        return self._row(utt, t_s, chunks_read)[n] > self.alpha


class _ScoreTablePolicy(_RowPolicy):
    """Read while the pending token's score, from the subclass's ``_score``, exceeds the threshold alpha.

    Scores live in a table with one row of per-token scores for each audio
    time of each utterance.  A miss fills the whole row with one ``_score``
    call, as a backbone decodes a prefix once for every pending token;
    :func:`sweep` fills every decision row of an utterance in one stacked
    call whose rows equal the miss path's bit for bit.  :meth:`with_alpha`
    gives a policy at another threshold, checked by ``_threshold``, that shares the table.
    """

    def __init__(self, oracle: OracleModel, alpha: float):
        self.oracle = oracle
        self.alpha = self._threshold(alpha)
        self._scores: dict[Utterance, dict[float, list[float]]] = defaultdict(dict)  # utt -> {t_s: scores by token}

    @staticmethod
    def _threshold(alpha: float) -> float:
        return setting(alpha, Threshold, "alpha")

    def with_alpha(self, alpha: float) -> _ScoreTablePolicy:
        """This policy at threshold ``alpha``, sharing its score table."""
        other = copy.copy(self)
        other.alpha = self._threshold(alpha)
        return other

    def _row(self, utt: Utterance, t_s: float, chunks_read: int) -> list[float]:
        rows = self._scores[utt]
        row = rows.get(t_s)
        if row is None:
            row = rows[t_s] = self._score(utt, np.full(utt.n_tokens, t_s), np.arange(utt.n_tokens)).tolist()
        return row

    def _fill(self, utt: Utterance, chunk: float) -> None:
        """Score every decision row of ``utt`` in one stacked call, each row as a miss would."""
        times = list(_decision_times(utt, chunk))
        if times:
            t, n = np.meshgrid(times, np.arange(utt.n_tokens), indexing="ij")
            self._scores[utt] = dict(zip(times, self._score(utt, t, n).tolist()))


class ThresholdPolicy(_ScoreTablePolicy):
    """Read while the learned score exceeds alpha, scored with the params as they were when the policy was built."""

    def __init__(self, oracle: OracleModel, params: PolicyParams, alpha: float):
        self.params = params.copy()
        super().__init__(oracle, alpha)

    def _score(self, utt: Utterance, t_s: np.ndarray, n: np.ndarray) -> np.ndarray:
        return forward_batch(self.params, self.oracle.features_many(utt, t_s, n), t_s)


class GainThresholdPolicy(_ScoreTablePolicy):
    """Perfectly calibrated reference policy: read while the exact gain (``info_gain_many``) exceeds the threshold."""

    def __init__(self, oracle: OracleModel, gain_threshold: float):
        super().__init__(oracle, gain_threshold)

    @staticmethod
    def _threshold(gain_threshold: float) -> float:
        gain = setting(gain_threshold, Threshold, "gain_threshold")
        require(gain >= 0 or gain == -math.inf, "gain_threshold", "must be >= 0 (or -inf for always-write)")
        return gain

    def _score(self, utt: Utterance, t_s: np.ndarray, n: np.ndarray) -> np.ndarray:
        return self.oracle.info_gain_many(utt, t_s, n)


class WaitKPolicy(_RowPolicy):
    """Read k chunks up front, then alternate one write with one read.

    Its row after ``chunks_read`` chunks scores pending token ``n`` as
    ``n - (chunks_read - k)`` against a threshold of 0: it reads while more
    tokens have been written than chunks were read past the first k.
    """

    alpha = 0

    def __init__(self, k: int):
        self.k = setting(k, int, "k")
        require(self.k >= 0, "k", "must be >= 0")

    def _row(self, utt: Utterance, t_s: float, chunks_read: int) -> range:
        return range(self.k - chunks_read, self.k - chunks_read + utt.n_tokens)


class _AskedRow:
    """The row of a policy that only answers ``wants_read``: entry ``n`` asks it once, a read scoring 1 against 0."""

    def __init__(self, policy, utt: Utterance, t_s: float, chunks_read: int):
        self.policy, self.utt, self.t_s, self.chunks_read = policy, utt, t_s, chunks_read

    def __getitem__(self, n: int) -> bool:
        return bool(self.policy.wants_read(self.utt, self.t_s, n, self.chunks_read))


def _decision_times(utt: Utterance, chunk: float):
    """Every time :func:`simulate` decides at, in order: ``k * chunk`` for k = 1, 2, ... while short of the end."""
    k, t = 1, chunk
    while t < utt.duration_s - _END_EPS:
        yield t
        k += 1
        t = k * chunk


def _check_decision_count(utt: Utterance, config: StreamConfig) -> None:
    """ConfigError unless numpy has room for a score row per decision time of ``utt``, counted, not listed."""
    try:
        count = max(0, math.ceil((utt.duration_s - _END_EPS) / config.chunk_s) - 1)
        np.empty((count, utt.n_tokens))
    except (ZeroDivisionError, OverflowError, ValueError, MemoryError) as exc:  # too many decisions for numpy
        raise ConfigError(f"chunk_ms: {config.chunk_ms} ms chunks of the {utt.duration_s} s utterance {utt.id} "
                          f"do not fit in memory ({exc})") from None


def simulate(oracle: OracleModel, utt: Utterance, policy, config: StreamConfig) -> EmissionLog:
    """Run one utterance through the chunked read/write walk.

    At each decision time ``t_s = chunks_read * chunk`` short of the end,
    the first after one chunk, the walk takes the policy's row of per-token
    scores once (wait-k's is ``n - (chunks_read - k)`` against 0).  It writes
    pending token ``n``, the count written so far, at ``t_s`` while
    ``row[n]`` does not exceed the policy's threshold, then reads the next
    chunk.  A policy with only ``wants_read`` is asked
    ``bool(policy.wants_read(utt, t_s, n, chunks_read))`` once per decision.
    Tokens still pending at the end are force-emitted at T.  The walk
    records only the write times; the tokens are decoded in one
    :meth:`OracleModel.greedy_tokens` call after it.
    """
    if isinstance(policy, _RowPolicy):
        row_at, alpha = policy._row, policy.alpha
    else:
        row_at, alpha = functools.partial(_AskedRow, policy), 0
    n_tokens = utt.n_tokens
    delays: list[float] = []
    n = 0
    for chunks_read, t in enumerate(_decision_times(utt, config.chunk_s), 1):
        row = row_at(utt, t, chunks_read)
        while n < n_tokens and not row[n] > alpha:
            delays.append(t)
            n += 1
        if n == n_tokens:
            break
    n_forced = n_tokens - n
    delays += [utt.duration_s] * n_forced
    tokens = oracle.greedy_tokens(utt, delays, np.arange(n_tokens))
    return EmissionLog(utt_id=utt.id, tokens=tokens, delays_s=delays, duration_s=utt.duration_s, n_forced=n_forced)


def sweep(oracle: OracleModel, params: PolicyParams | None, dataset, alphas,
          config: StreamConfig, policy_factory=None, collect_logs: bool = False):
    """Simulate the whole dataset at each threshold; one operating point per alpha.

    Each alpha must be a number other than NaN, and is passed on as a float.
    ``policy_factory(alpha)`` overrides the default threshold policy, which
    lets reference policies reuse the same harness; a bound ``with_alpha``
    shares one table over all alphas.  The default policies do, and their
    table is filled before the first alpha, so every decision of the sweep
    is a table hit.  Output order follows the input alphas.  Before any of
    that, each utterance's decision times are counted: a count for whose
    score rows numpy has no room is a ConfigError naming ``chunk_ms``.
    """
    alphas = [setting(alpha, Threshold, "alpha") for alpha in alphas]
    require(len(alphas) > 0, "alphas", "must be non-empty")
    require(bool(dataset), "dataset", "must be non-empty")
    for utt in dataset:
        _check_decision_count(utt, config)
    if policy_factory is None:
        require(params is not None, "params", "required unless a policy_factory is given")
        policy = ThresholdPolicy(oracle, params, alphas[0])
        for utt in dataset:
            policy._fill(utt, config.chunk_s)
        policy_factory = policy.with_alpha
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
