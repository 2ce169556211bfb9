"""Latency and quality metrics over emission logs.

Normative definitions used throughout this package:

* LAAL: with hypothesis length H, reference length R, and source duration T,
  set gamma = max(H, R) / T and let tau be the first emission index at which
  the source was already exhausted, d_i within 1e-12 of T (or H if none):
  ``EmissionLog.n_before_end`` + 1, capped at H.  LAAL is the mean of
  d_i - (i-1)/gamma over i = 1..tau.  Raw values are reported; no clamping.
* BLEU: corpus-level geometric mean of modified 1..4-gram precisions with
  add-one smoothing on zero counts for n >= 2, times the brevity penalty,
  scaled to [0, 100].  Hypotheses and references are token-id sequences; the
  score is one combine of the sums of per-sentence sufficient statistics.
* NoSE: quality-vs-latency points are reduced to their Pareto frontier and
  linearly interpolated; NoSE is the mean interpolated quality over a latency
  band [x, y] divided by the offline (full-audio) quality.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MetricError, ShapeError, parse_lines

_BAND_SLACK = 1e-9  # how far a NoSE band may reach past the swept latency range


@dataclass(frozen=True)
class LatencyBand:
    x: float
    y: float

    def __post_init__(self):
        if not 0 <= self.x < self.y:
            raise MetricError(f"latency band needs 0 <= x < y, got [{self.x}, {self.y}]")


@dataclass(frozen=True)
class ParetoPoint:
    """One operating point of a threshold sweep."""

    alpha: float
    mean_laal_s: float
    quality: float
    read_loop_pct: float

    def __post_init__(self):
        if self.alpha != self.alpha:
            raise MetricError("alpha is NaN")
        if not (math.isfinite(self.mean_laal_s) and math.isfinite(self.quality)):
            raise MetricError(f"mean LAAL {self.mean_laal_s} and quality {self.quality} must be finite")
        if not 0 <= self.read_loop_pct <= 100:
            raise MetricError(f"read_loop_pct {self.read_loop_pct} outside [0, 100]")


@dataclass(frozen=True)
class BinStat:
    center: float
    mean: float
    ci_low: float
    ci_high: float
    count: int


def laal(log, ref_len: int) -> float:
    """Length-adaptive average lagging of one EmissionLog in seconds; see the module docstring."""
    if ref_len < 1:
        raise MetricError("ref_len must be >= 1")
    if log.duration_s <= 0:
        raise MetricError(f"log {log.utt_id}: nonpositive source duration")
    delays = np.asarray(log.delays_s, dtype=np.float64)
    if delays.size == 0:
        raise MetricError(f"log {log.utt_id}: empty emission log")
    gamma = max(delays.size, ref_len) / log.duration_s
    tau = min(log.n_before_end + 1, delays.size)
    return float(np.mean(delays[:tau] - np.arange(tau) / gamma))


def _sentence_stats(hyp, ref) -> tuple[int, ...]:
    """BLEU's sufficient statistics of one sentence, read once: hypothesis and reference length,
    then per order 1..4 the matched n-grams (clipped to the reference's counts) and the hypothesis's n-grams."""
    hyp, ref = list(hyp), list(ref)
    hyp_counts, ref_counts = (Counter(tuple(seq[i:i + n]) for n in range(1, 5) for i in range(len(seq) - n + 1))
                              for seq in (hyp, ref))  # every order in one Counter; a tuple's length is its order
    matched = [0] * 4
    for gram, count in hyp_counts.items():
        matched[len(gram) - 1] += min(count, ref_counts[gram])
    totals = [max(len(hyp) - n + 1, 0) for n in range(1, 5)]
    return (len(hyp), len(ref), *(x for pair in zip(matched, totals) for x in pair))


def bleu(hyps, refs) -> float:
    """Corpus BLEU-4 over token-id sequences, in [0, 100]: the combine of the summed sentence statistics."""
    if len(hyps) != len(refs):
        raise ShapeError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not refs or all(len(r) == 0 for r in refs):
        raise MetricError("reference corpus is empty")
    hyp_len, ref_len, *counts = (sum(column) for column in zip(*map(_sentence_stats, hyps, refs)))
    if counts[0] == 0:  # no unigram matched, as in a corpus of empty hypotheses
        return 0.0
    log_precision_sum = 0.0
    for matched, total in zip(counts[0::2], counts[1::2]):  # orders 1..4, in that order
        precision = matched / total if matched else 1 / (total + 1)  # add-one smoothing for n >= 2
        log_precision_sum += np.log(precision)
    brevity = 1.0 if hyp_len > ref_len else float(np.exp(1.0 - ref_len / hyp_len))
    return float(100.0 * brevity * np.exp(log_precision_sum / 4.0))


def pareto_envelope(points) -> tuple[np.ndarray, np.ndarray]:
    """Latency-sorted frontier knots after dropping dominated operating points.

    The distinct (LAAL, quality) pairs are scanned by LAAL ascending, ties by
    quality descending; a pair is kept when its quality beats every quality
    before it, since only a pair before it can dominate it.
    """
    pairs = sorted({(float(p.mean_laal_s), float(p.quality)) for p in points}, key=lambda pq: (pq[0], -pq[1]))
    kept = []
    for lat, qual in pairs:
        if not kept or qual > kept[-1][1]:
            kept.append((lat, qual))
    xs = np.array([k[0] for k in kept])
    ys = np.array([k[1] for k in kept])
    return xs, ys


def nose(points, offline_quality: float, band: LatencyBand) -> float:
    """Band-averaged frontier quality over the offline quality."""
    points = list(points)
    if len(points) < 2:
        raise MetricError("nose needs at least 2 operating points")
    if offline_quality <= 0:
        raise MetricError("offline_quality must be > 0")
    lats = np.array([p.mean_laal_s for p in points])
    lo, hi = float(lats.min()), float(lats.max())
    if band.x < lo - _BAND_SLACK or band.y > hi + _BAND_SLACK:
        raise MetricError(
            f"band [{band.x}, {band.y}] outside achievable latency range [{lo}, {hi}]")
    xs, ys = pareto_envelope(points)
    if xs[-1] < hi:
        # Dominated high-latency points vanished; the frontier extends flat,
        # since a larger budget can always fall back to the best cheaper point.
        xs = np.append(xs, hi)
        ys = np.append(ys, ys[-1])
    cuts = np.unique(np.concatenate([[band.x, band.y], xs[(xs > band.x) & (xs < band.y)]]))
    quality = np.interp(cuts, xs, ys)
    integral = float(np.trapezoid(quality, cuts))
    return (integral / (band.y - band.x)) / offline_quality


def read_loop_pct(logs) -> float:
    logs = list(logs)
    if not logs:
        raise MetricError("read_loop_pct needs at least one log")
    return 100.0 * sum(log.read_loop for log in logs) / len(logs)


def latency_vs_position(logs, dataset, bins: int) -> list[BinStat]:
    """Per-bin mean emission lateness (d_i - boundary_i) vs relative token position.

    Tokens emitted beyond the reference length are excluded; empty bins are
    omitted rather than reported as zero.  The 95% CI uses the normal
    approximation (mean +- 1.96 sd / sqrt(n)); singleton bins get a zero-width
    interval.
    """
    if bins < 1:
        raise MetricError("bins must be >= 1")
    by_id = {}
    for u in dataset:
        if u.id in by_id:
            raise MetricError(f"dataset repeats utterance id {u.id}")
        by_id[u.id] = u
    positions, lateness = [], []
    for log in logs:
        utt = by_id.get(log.utt_id)
        if utt is None:
            raise MetricError(f"log references unknown utterance id {log.utt_id}")
        count = min(len(log.delays_s), utt.n_tokens)
        if count == 0:
            continue
        delays = np.asarray(log.delays_s[:count], dtype=np.float64)
        lateness.append(delays - utt.boundaries_s[:count])
        positions.append(np.arange(count) / max(utt.n_tokens - 1, 1))  # a lone token sits at 0
    if not positions:
        raise MetricError("no emitted tokens to bin")
    pos = np.concatenate(positions)
    late = np.concatenate(lateness)
    which = np.minimum(np.floor(pos * bins), bins - 1)  # floats: an int64 cast overflows at bins near 2**63
    out = []
    for k in np.unique(which).tolist():
        values = late[which == k]
        mean = float(values.mean())
        half = float(1.96 * values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
        out.append(BinStat(center=(k + 0.5) / bins, mean=mean,
                           ci_low=mean - half, ci_high=mean + half, count=int(values.size)))
    return out


def _average_ranks(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    avg = starts + (counts + 1) / 2.0
    return avg[inverse]


def spearman(a, b) -> float:
    """Rank correlation with average ranks for ties; undefined, so an error, unless both sides vary."""
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    if ra.shape != rb.shape:
        raise ShapeError(f"length mismatch: {ra.shape[0]} vs {rb.shape[0]}")
    if not (ra.size and np.any(ra != ra[0]) and np.any(rb != rb[0])):
        raise MetricError(f"spearman is undefined on {ra.size} pairs unless both sides take two values")
    return float(np.corrcoef(ra, rb)[0, 1])


# -- report files ---------------------------------------------------------

def write_csv(path, columns, rows) -> None:
    """Write a header of ``columns`` and one line per row, the format of every CSV file here.

    A float cell, numpy's float64 included, is written as ``repr(float(v))``,
    which reads back to the same bits; any other cell, an int or a string,
    as ``str(v)``.  Lines end in ``\\n`` and the file is UTF-8.
    """
    lines = [",".join(columns)]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_pareto_csv(points, path) -> None:
    write_csv(path, ("alpha", "laal_s", "bleu", "read_loop_pct"),
              ((p.alpha, p.mean_laal_s, p.quality, p.read_loop_pct) for p in points))


def _pareto_point(line: str) -> ParetoPoint:
    alpha, laal_s, quality, loop = (float(v) for v in line.split(","))
    return ParetoPoint(alpha=alpha, mean_laal_s=laal_s, quality=quality, read_loop_pct=loop)


def read_pareto_csv(path) -> list[ParetoPoint]:
    """Read a sweep's points; a malformed row raises ConfigError naming the file and line."""
    return parse_lines(path, _pareto_point, "pareto csv", first=2)


def write_nose_csv(rows, path) -> None:
    """Rows are (variant, sweep's 1-based position in --sweeps, LatencyBand, nose_value); nose stays last."""
    write_csv(path, ("variant", "sweep", "band_x", "band_y", "nose"),
              ((variant, sweep, band.x, band.y, value) for variant, sweep, band, value in rows))


def write_latency_bins_csv(rows, path) -> None:
    """Rows are (variant, sweep, [BinStat]), one per sweep, written in order."""
    write_csv(path, ("variant", "sweep", "bin_center", "mean_latency_s", "ci_low", "ci_high", "count"),
              ((variant, sweep, s.center, s.mean, s.ci_low, s.ci_high, s.count)
               for variant, sweep, stats in rows for s in stats))
