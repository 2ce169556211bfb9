"""What the benchmark measures at each simulgain module boundary.

Two kinds of hooks, both installed from the benchmark's own code at run
time; the package source is never edited:

* probes (always on): mark the clocks at every ``streaming.simulate``,
  ``training.train`` and training-step boundary and keep the returned
  emission logs and reports, which the end-to-end metrics need;
* call-site spans (traced runs only): wrap each public function where its
  caller looks it up, e.g. ``streaming.forward`` and
  ``training.forward_with_cache`` in the importing module and the oracle
  methods on the class that instances resolve them through.
"""

from __future__ import annotations

import math
import os
from array import array
from time import perf_counter, process_time
from typing import NamedTuple

import hostspeed
from spans import Patches, Span, SpanRecorder, children, self_times, step_intervals

MODULES = ("synth", "policy", "losses", "training", "streaming", "metrics", "cli")
ROOT_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"


# -- decisions counted from emission logs --------------------------------------

def log_counts(log, chunk_s: float) -> tuple[int, int]:
    """(READ/WRITE decisions, reads) of one simulated utterance, from its log.

    The simulator asks the policy once per read and once per unforced write.
    Reads stop at the last unforced write, or at the end of the audio when a
    token was forced, and the first chunk is consumed without a decision.
    """
    t_last = log.duration_s if log.n_forced else log.delays_s[-1]
    reads = math.ceil(t_last / chunk_s - 1e-9) - 1
    return len(log.tokens) - log.n_forced + reads, reads


def stream_counts(logs, chunk_s: float) -> dict[str, float]:
    decisions = reads = writes = forced = loops = useful = 0
    for log in logs:
        d, r = log_counts(log, chunk_s)
        decisions += d
        reads += r
        writes += len(log.tokens)
        forced += log.n_forced
        if log.delays_s and log.delays_s[0] < log.duration_s - 1e-12:
            useful += r
        else:
            loops += 1
    return {"decisions": decisions, "reads": reads, "writes": writes, "forced_writes": forced,
            "read_loop_utts": loops, "useful_read_ratio": useful / reads if reads else 1.0}


def log_problems(log, n_tokens: int, vocab_size: int) -> list[str]:
    """Violations of the EmissionLog contract for a full, untruncated run."""
    problems = []
    delays = log.delays_s
    if log.truncated or len(log.tokens) != n_tokens:
        problems.append(f"{log.utt_id}: {len(log.tokens)} tokens for a {n_tokens}-token utterance")
    if len(delays) != len(log.tokens):
        problems.append(f"{log.utt_id}: tokens and delays disagree")
    if any(b < a for a, b in zip(delays, delays[1:])):
        problems.append(f"{log.utt_id}: delays decrease")
    if delays and not (0.0 < delays[0] and delays[-1] <= log.duration_s + 1e-12):
        problems.append(f"{log.utt_id}: delays outside (0, T]")
    if log.n_forced and any(abs(d - log.duration_s) > 1e-12 for d in delays[-log.n_forced:]):
        problems.append(f"{log.utt_id}: forced tokens not at T")
    if any(not 0 <= t < vocab_size for t in log.tokens):
        problems.append(f"{log.utt_id}: token outside the vocabulary")
    return problems


# -- probes ----------------------------------------------------------------------

HOST_BIN_S = 0.5  # host speed is taken as constant over bins this long
HOST_CALLS = 6  # kernel calls in a row each time the host is timed; the fastest counts


class Timeline(NamedTuple):
    """The marks of one operation (or set-up) and the calls made between them.

    The pieces of the timeline are the times between successive marks, less
    the time a mark spent timing the host kernel (``pause_*``).
    """

    wall: list[float]  # perf_counter seconds at each mark
    cpu: list[float]  # process_time seconds at each mark
    pause_wall: list[float]  # wall seconds each mark spent on the host kernel
    pause_cpu: list[float]
    kernel: list[tuple[float, float]]  # (perf_counter start, seconds) of each host kernel call
    sims: list[tuple[int, object, int]]  # (entry mark, log, n_tokens) per simulate call
    trains: list[tuple[int, int, int, object]]  # (steps, entry mark, exit mark, report) per train call

    def pieces(self, clock: str) -> list[float]:
        """The time between successive marks on the ``wall`` or ``cpu`` clock."""
        t, pause = getattr(self, clock), getattr(self, f"pause_{clock}")
        return [b - a - p for a, b, p in zip(t, t[1:], pause)]

    def speeds(self) -> list[float]:
        """Host speed over each piece (see ``host_speeds``); 1.0 without kernel calls."""
        if not self.kernel:
            return [1.0] * (len(self.wall) - 1)
        spans = [(a + p, b) for a, b, p in zip(self.wall, self.wall[1:], self.pause_wall)]
        return host_speeds(spans, self.kernel, self.wall[0], hostspeed.NOMINAL_S)

    def scaled(self, clock: str) -> list[float]:
        """Pieces scaled to the reference host: piece time times host speed."""
        return [t * s for t, s in zip(self.pieces(clock), self.speeds())]

    def simulate_cpu(self, pieces: list[float]) -> list[float]:
        """The ``simulate`` calls' entries in ``pieces``: a call's exit is the next mark."""
        return [pieces[i] for i, _, _ in self.sims]

    def train_steps(self, pieces: list[float]) -> list[list[float]]:
        """Per ``train`` call, its pieces: entry to the first step, each step, the last step to exit."""
        return [pieces[lo:hi] for _, lo, hi, _ in self.trains]

    def shape(self) -> tuple:
        return len(self.wall), [i for i, _, _ in self.sims], [(s, lo, hi) for s, lo, hi, _ in self.trains]


def host_speeds(spans: list[tuple[float, float]], kernel: list[tuple[float, float]], t0: float,
                nominal_s: float, bin_s: float = HOST_BIN_S) -> list[float]:
    """Host speed over each (start, end) span: ``nominal_s`` over the kernel's time.

    Time from ``t0`` is cut into ``bin_s`` bins.  A bin's kernel time is its
    fastest kernel call, or the nearest earlier bin's (later, for leading
    bins) when no call started in it.  A span's speed is the time-weighted
    mean speed of the bins it overlaps.
    """
    end = max([t0, *(b for _, b in spans), *(s for s, _ in kernel)])
    best = [math.inf] * (int((end - t0) / bin_s) + 1)
    for start, seconds in kernel:
        k = int((start - t0) / bin_s)
        best[k] = min(best[k], seconds)
    last = next(b for b in best if b < math.inf)
    for k, b in enumerate(best):
        last = best[k] = b if b < math.inf else last
    speed = [nominal_s / b for b in best]
    out = []
    for a, b in spans:
        ka, kb = int((a - t0) / bin_s), int((b - t0) / bin_s)
        if ka == kb or b <= a:
            out.append(speed[ka])
            continue
        weighted = 0.0
        for k in range(ka, kb + 1):
            lo, hi = max(a, t0 + k * bin_s), min(b, t0 + (k + 1) * bin_s)
            weighted += max(0.0, hi - lo) * speed[k]
        out.append(weighted / (b - a))
    return out


class Probes:
    """Marks that stay on in every run.

    A mark records the wall clock and the process CPU clock.  Each
    ``streaming.simulate`` call is marked at entry and exit, each
    ``training.train`` call at entry and exit, and each ``sample_batch`` call
    (the start of a training step) at entry; the worker marks each operation's
    start and end.  The marks cut an operation into pieces of a few
    milliseconds.  Every operation of a run repeats the same calls on the
    same inputs, so piece i of one operation is the same work as piece i of
    the next, which is what ``floor`` relies on.

    While ``host_every_s`` is set, a mark at least that long after the last
    host kernel call times ``hostspeed.kernel`` once more; the pieces leave
    that time out.
    """

    def __init__(self, sg, host_every_s: float | None = None):
        self.host_every_s = host_every_s
        self._next_kernel = 0.0
        self.wall, self.cpu = array("d"), array("d")
        self.pause_wall, self.pause_cpu = array("d"), array("d")
        self.kernel: list[tuple[float, float]] = []
        self.simulate_calls: list[tuple[int, object, int]] = []
        self.train_calls: list[tuple[int, int, int, object]] = []
        patches = Patches()
        patches.replace(sg.streaming, "simulate", self._marked_simulate)
        for owner in (sg.training, sg.cli):
            patches.replace(owner, "train", self._marked_train)
        patches.replace(sg.training, "sample_batch", self._marked_step)

    def mark(self, kernel: bool = False) -> int:
        """Mark the clocks; time the host kernel when due, or when ``kernel``."""
        w, c = perf_counter(), process_time()
        self.wall.append(w)
        self.cpu.append(c)
        if self.host_every_s is not None and (kernel or w >= self._next_kernel):
            k0 = perf_counter()
            self.kernel.append((k0, hostspeed.burst(HOST_CALLS)))
            self._next_kernel = perf_counter() + self.host_every_s
            self.pause_wall.append(perf_counter() - w)
            self.pause_cpu.append(process_time() - c)
        else:
            self.pause_wall.append(0.0)
            self.pause_cpu.append(0.0)
        return len(self.wall) - 1

    def _marked_simulate(self, fn):
        calls, mark = self.simulate_calls, self.mark

        def simulate(oracle, utt, policy, config):
            entry = mark()
            log = fn(oracle, utt, policy, config)
            mark()
            calls.append((entry, log, utt.n_tokens))
            return log
        return simulate

    def _marked_train(self, fn):
        calls, mark = self.train_calls, self.mark

        def train(oracle, dataset, policy_config, train_config, loss_weights):
            entry = mark()
            report = fn(oracle, dataset, policy_config, train_config, loss_weights)
            calls.append((train_config.steps, entry, mark(), report))
            return report
        return train

    def _marked_step(self, fn):
        mark = self.mark

        def sample_batch(*args, **kwargs):
            mark()
            return fn(*args, **kwargs)
        return sample_batch

    def take(self) -> Timeline:
        """Hand over and forget what was recorded since the last call."""
        timeline = Timeline(self.wall.tolist(), self.cpu.tolist(), self.pause_wall.tolist(),
                            self.pause_cpu.tolist(), self.kernel[:], self.simulate_calls[:], self.train_calls[:])
        for marks in (self.wall, self.cpu, self.pause_wall, self.pause_cpu):
            del marks[:]
        self.kernel.clear()
        self.simulate_calls.clear()
        self.train_calls.clear()
        return timeline


def floor(rows: list[list[float]]) -> list[float]:
    """Element-wise minimum of equal-length rows: each piece's fastest repeat.

    On a shared host another tenant's load stretches some pieces of some
    repeats; the fastest repeat of a piece is the one least disturbed.
    """
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"rows of lengths {sorted({len(r) for r in rows})} cannot be floored")
    return [min(column) for column in zip(*rows)]


def train_rate(calls: list[list[list[float]]]) -> float:
    """Steps per second of the floored step times.

    ``calls[r]`` holds repeat r's ``train`` calls, each a list of piece times
    (entry to the first step, each step, the last step to exit); the calls
    of every repeat match one to one.
    """
    steps = seconds = 0.0
    for repeats in zip(*calls):
        steps += len(repeats[0]) - 1
        seconds += sum(floor(list(repeats)))
    return steps / seconds if seconds else 0.0


# -- call-site spans ---------------------------------------------------------------

def _n_alphas(args, kwargs, result):
    alphas = kwargs.get("alphas", args[3] if len(args) > 3 else None)
    return {"n_alphas": len(alphas)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[1]))}


def call_sites(sg):
    """(span name, owner, attribute, info hook) for every traced boundary."""
    # policy functions have no owner of their own here: they are traced in
    # the modules that import them.
    synth, training, streaming, metrics, cli = sg.synth, sg.training, sg.streaming, sg.metrics, sg.cli
    return [
        ("synth.features", synth.OracleModel, "features", None),
        ("synth.greedy_token", synth.OracleModel, "greedy_token", None),
        ("synth.true_info_gain", synth.OracleModel, "true_info_gain", None),
        ("synth.generate_dataset", synth, "generate_dataset", None),
        ("synth.generate_dataset", cli, "generate_dataset", None),
        ("policy.forward", streaming, "forward", None),
        ("policy.forward_with_cache", training, "forward_with_cache", None),
        ("policy.backward_from_cache", training, "backward_from_cache", None),
        ("policy.forward_batch", training, "forward_batch", None),
        ("policy.save_params", cli, "save_params", None),
        ("policy.load_params", cli, "load_params", None),
        ("losses.total_loss", training, "total_loss", None),
        ("losses.total_loss_grad", training, "total_loss_grad", None),
        ("training.train", training, "train", None),
        ("training.train", cli, "train", None),
        ("training.sample_batch", training, "sample_batch", None),
        ("training.AdamW.step", training.AdamW, "step", None),
        ("training.score_info_gain_grid", training, "score_info_gain_grid", None),
        ("streaming.simulate", streaming, "simulate", None),
        ("streaming.sweep", streaming, "sweep", _n_alphas),
        ("streaming.sweep", cli, "sweep", _n_alphas),
        ("streaming.save_logs", cli, "save_logs", _bytes_written),
        ("streaming.load_logs", cli, "load_logs", None),
        ("metrics.laal", metrics, "laal", None),
        ("metrics.bleu", metrics, "bleu", None),
        ("metrics.bleu", cli, "bleu", None),
        ("metrics.nose", metrics, "nose", None),
        ("metrics.nose", cli, "nose", None),
        ("metrics.latency_vs_position", metrics, "latency_vs_position", None),
        ("metrics.latency_vs_position", cli, "latency_vs_position", None),
        ("metrics.spearman", metrics, "spearman", None),
    ]


def install_spans(sg, recorder: SpanRecorder) -> Patches:
    patches = Patches()
    for name, owner, attr, info in call_sites(sg):
        patches.replace(owner, attr, lambda fn, name=name, info=info: recorder.wrap(name, fn, info))
    return patches


# -- per-layer metrics -----------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when the layer was not called."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))])


PER_SPAN = {  # metric suffix -> (span name, kind, scale)
    "synth.features.calls": ("synth.features", "calls", 1),
    "synth.features.self_us_p50": ("synth.features", "self_p50", 1e6),
    "synth.greedy_token.calls": ("synth.greedy_token", "calls", 1),
    "synth.greedy_token.self_us_p50": ("synth.greedy_token", "self_p50", 1e6),
    "synth.true_info_gain.calls": ("synth.true_info_gain", "calls", 1),
    "synth.true_info_gain.self_us_p50": ("synth.true_info_gain", "self_p50", 1e6),
    "synth.generate_dataset.ms": ("synth.generate_dataset", "total", 1e3),
    "policy.forward.calls": ("policy.forward", "calls", 1),
    "policy.forward.self_us_p50": ("policy.forward", "self_p50", 1e6),
    "policy.forward_with_cache.self_us_p50": ("policy.forward_with_cache", "self_p50", 1e6),
    "policy.backward_from_cache.self_us_p50": ("policy.backward_from_cache", "self_p50", 1e6),
    "policy.forward_batch.ms": ("policy.forward_batch", "total", 1e3),
    "policy.save_params.ms": ("policy.save_params", "total", 1e3),
    "policy.load_params.ms": ("policy.load_params", "total", 1e3),
    "losses.total_loss.self_us_p50": ("losses.total_loss", "self_p50", 1e6),
    "losses.total_loss_grad.self_us_p50": ("losses.total_loss_grad", "self_p50", 1e6),
    "training.sample_batch.self_us_p50": ("training.sample_batch", "self_p50", 1e6),
    "training.AdamW.step.self_us_p50": ("training.AdamW.step", "self_p50", 1e6),
    "training.score_info_gain_grid.ms": ("training.score_info_gain_grid", "total", 1e3),
    "streaming.simulate.self_us_p50": ("streaming.simulate", "self_p50", 1e6),
    "streaming.save_logs.ms": ("streaming.save_logs", "total", 1e3),
    "streaming.load_logs.ms": ("streaming.load_logs", "total", 1e3),
    "metrics.laal.self_us_p50": ("metrics.laal", "self_p50", 1e6),
    "metrics.bleu.ms": ("metrics.bleu", "total", 1e3),
    "metrics.nose.us": ("metrics.nose", "total", 1e6),
    "metrics.latency_vs_position.ms": ("metrics.latency_vs_position", "total", 1e3),
    "cli.gen.s": ("cli.gen", "total", 1),
    "cli.train.s": ("cli.train", "total", 1),
    "cli.sweep.s": ("cli.sweep", "total", 1),
    "cli.report.s": ("cli.report", "total", 1),
}
STREAM_COUNTS = ("decisions", "reads", "writes", "forced_writes", "read_loop_utts", "useful_read_ratio")
TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.remainder_s", "trace.spans")
PER_LAYER_NAMES = (
    *PER_SPAN, "training.step_us_p50", "training.step_us_p99", "training.step_other_us_p50",
    *(f"streaming.{c}" for c in STREAM_COUNTS), "streaming.sweep.ms_per_alpha",
    "streaming.save_logs.bytes", "cli.bytes_written", *(f"{m}.self_s" for m in MODULES), *TRACE_METRICS)


def per_layer(spans: list[Span], info: dict[int, dict], op_run: int, op_logs, chunk_s: float,
              untraced_wall_s: float, bytes_written: int) -> tuple[dict[str, float], float]:
    """Per-layer metrics of one traced operation, plus |sum of self times - wall|.

    Counts and totals come from the spans under the ``op_run`` root; a layer
    called only during set-up reports its set-up total.  Self-time
    percentiles pool every call.
    """
    selfs = self_times(spans)
    kids = children(spans)
    roots = [i for i, s in enumerate(spans) if s.name == ROOT_SPAN and s.run == op_run]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN} span in run {op_run}, found {len(roots)}")
    root = roots[0]
    op, stack = [], list(kids.get(root, []))
    while stack:
        i = stack.pop()
        op.append(i)
        stack += kids.get(i, [])
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    in_op: dict[str, list[int]] = {}
    for i in sorted(op):
        in_op.setdefault(spans[i].name, []).append(i)

    def run_of(name):
        return in_op.get(name) or [i for i in by_name.get(name, []) if spans[i].run == 0]

    out: dict[str, float] = {}
    for metric, (name, kind, scale) in PER_SPAN.items():
        if kind == "self_p50":
            out[metric] = percentile([selfs[i] for i in by_name.get(name, [])], 0.5) * scale
        elif kind == "calls":
            out[metric] = float(len(run_of(name)))
        else:
            out[metric] = float(sum(spans[i].duration for i in run_of(name)) * scale)

    steps = []
    for i in by_name.get("training.train", []):
        steps += step_intervals(spans, i, kids.get(i, []), "training.sample_batch")
    out["training.step_us_p50"] = percentile([d for d, _ in steps], 0.5) * 1e6
    out["training.step_us_p99"] = percentile([d for d, _ in steps], 0.99) * 1e6
    out["training.step_other_us_p50"] = percentile([o for _, o in steps], 0.5) * 1e6

    for key, value in stream_counts(op_logs, chunk_s).items():
        out[f"streaming.{key}"] = float(value)
    sweeps = [spans[i].duration * 1e3 / info[i]["n_alphas"] for i in run_of("streaming.sweep")]
    out["streaming.sweep.ms_per_alpha"] = percentile(sweeps, 0.5)
    out["streaming.save_logs.bytes"] = float(sum(info[i]["bytes"] for i in run_of("streaming.save_logs")))
    out["cli.bytes_written"] = float(bytes_written)

    wall = spans[root].duration
    module_self = dict.fromkeys(MODULES, 0.0)
    for i in op:
        module_self[spans[i].name.split(".", 1)[0]] += selfs[i]
    for module, value in module_self.items():
        out[f"{module}.self_s"] = value
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = untraced_wall_s
    out["trace.overhead_s"] = wall - untraced_wall_s
    out["trace.remainder_s"] = selfs[root]
    out["trace.spans"] = float(len(op) + 1)
    residual = abs(sum(module_self.values()) + selfs[root] - wall)
    return out, residual
