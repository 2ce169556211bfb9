"""Self-tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench -q``."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
from spans import Patches, Span, SpanRecorder, read_spans, self_times, step_intervals, write_spans  # noqa: E402

import simulgain as sg  # noqa: E402
from simulgain import streaming  # noqa: E402


class CountingPolicy:
    """Forwards ``wants_read`` and counts the calls and the reads it asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.reads = 0

    def wants_read(self, *args):
        self.calls += 1
        read = self.inner.wants_read(*args)
        self.reads += bool(read)
        return read


def test_decisions_from_logs_match_a_counting_policy():
    cfg = sg.SynthConfig(rng_seed=5, vocab_size=50, ambiguity_prob=0.3, p_min=1e-6)
    dataset = sg.generate_dataset(cfg, 20)
    oracle = sg.OracleModel(cfg)
    params = sg.init_params(sg.PolicyConfig.for_variant(sg.PolicyVariant.REINA, cfg.feature_dim), 3)
    scores, _ = sg.score_info_gain_grid(oracle, params, dataset)
    alphas = [-math.inf, math.inf, *np.quantile(scores, np.linspace(0.05, 0.95, 10))]
    makers = [lambda a=a: streaming.ThresholdPolicy(oracle, params, a) for a in alphas]
    makers += [lambda: streaming.GainThresholdPolicy(oracle, 0.5), lambda: streaming.WaitKPolicy(2),
               lambda: streaming.WaitKPolicy(0)]
    config = sg.StreamConfig()
    runs = 0
    for make in makers:
        for utt in dataset:
            policy = CountingPolicy(make())
            log = streaming.simulate(oracle, utt, policy, config)
            assert layers.log_counts(log, config.chunk_s) == (policy.calls, policy.reads), utt.id
            assert not layers.log_problems(log, utt.n_tokens, cfg.vocab_size)
            runs += 1
    assert runs == 300


def test_log_problems_flags_a_broken_log():
    log = streaming.EmissionLog(utt_id="u", tokens=[1, 99], delays_s=[0.5, 1.0], duration_s=2.0, n_forced=1)
    problems = layers.log_problems(log, 3, 50)
    assert len(problems) == 3  # short, forced token not at T, token outside the vocabulary


def test_stream_counts_split_useful_reads_from_read_loops():
    wrote_early = streaming.EmissionLog(utt_id="a", tokens=[1, 2], delays_s=[0.5, 1.0], duration_s=2.0)
    read_loop = streaming.EmissionLog(utt_id="b", tokens=[1, 2], delays_s=[2.0, 2.0], duration_s=2.0,
                                      n_forced=2)
    counts = layers.stream_counts([wrote_early, read_loop], 0.25)
    assert counts["reads"] == 3 + 7
    assert counts["decisions"] == 2 + 3 + 7
    assert counts["read_loop_utts"] == 1
    assert counts["useful_read_ratio"] == 3 / 10


def test_span_writer_round_trips(tmp_path):
    recorder = SpanRecorder()
    recorder.enabled = True
    inner = recorder.wrap("policy.forward", lambda x: x + 1)
    with recorder.span("bench.op"):
        assert inner(1) == 2
        recorder.run_id = 3
        with recorder.span("cli.gen"):
            inner(2)
    path = tmp_path / "spans.tsv.gz"
    write_spans(path, recorder.spans())
    assert read_spans(path) == recorder.spans()
    assert [(s.name, s.parent, s.run) for s in recorder.spans()] == [
        ("bench.op", -1, 0), ("policy.forward", 0, 0), ("cli.gen", 0, 3), ("policy.forward", 2, 3)]


def test_disabled_recorder_records_no_benchmark_spans():
    recorder = SpanRecorder()
    with recorder.span("bench.op"):
        pass
    assert len(recorder) == 0


def test_self_times_sum_to_the_root():
    spans = [Span("bench.op", 0.0, 10.0, -1, 1), Span("training.train", 1.0, 4.0, 0, 1),
             Span("policy.forward", 2.0, 3.0, 1, 1), Span("streaming.sweep", 5.0, 9.0, 0, 1)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_steps_start_at_each_sample_batch():
    spans = [Span("training.train", 0.0, 10.0, -1, 1),
             Span("training.sample_batch", 0.0, 1.0, 0, 1), Span("policy.forward_with_cache", 1.0, 3.0, 0, 1),
             Span("training.sample_batch", 4.0, 5.0, 0, 1), Span("training.AdamW.step", 5.0, 6.0, 0, 1),
             Span("training.sample_batch", 7.0, 8.0, 0, 1)]
    assert step_intervals(spans, 0, [5, 3, 1, 4, 2], "training.sample_batch") == [
        (4.0, 1.0), (3.0, 1.0), (3.0, 2.0)]


def test_per_layer_self_times_and_remainder_add_up_to_the_wall():
    spans = [Span("bench.setup", 0.0, 1.0, -1, 0), Span("synth.generate_dataset", 0.25, 0.75, 0, 0),
             Span("bench.op", 2.0, 12.0, -1, 1), Span("training.train", 2.5, 6.0, 2, 1),
             Span("training.sample_batch", 2.5, 3.0, 3, 1), Span("losses.total_loss", 3.0, 3.5, 3, 1),
             Span("streaming.sweep", 6.0, 11.0, 2, 1), Span("streaming.simulate", 6.5, 10.0, 6, 1),
             Span("policy.forward", 7.0, 8.0, 7, 1)]
    values, residual = layers.per_layer(spans, {6: {"n_alphas": 5}}, 1, [], 0.25, 9.0, 0)
    assert residual < 1e-12
    assert values["trace.wall_s"] == 10.0
    assert values["trace.overhead_s"] == 1.0
    assert values["trace.remainder_s"] == 1.5
    assert values["synth.generate_dataset.ms"] == 500.0  # called only during set-up
    assert values["training.self_s"] == 2.5 + 0.5
    assert values["losses.self_s"] == 0.5
    assert values["streaming.self_s"] == 1.5 + 2.5
    assert values["streaming.sweep.ms_per_alpha"] == 1000.0
    assert values["training.step_us_p50"] == 3.5e6
    assert values["training.step_other_us_p50"] == 2.5e6
    assert set(values) == set(layers.PER_LAYER_NAMES)


def test_patches_undo_in_reverse_order():
    class Owner:
        def method(self):
            return "original"

    patches = Patches()
    patches.replace(Owner, "method", lambda fn: lambda self: "first " + fn(self))
    patches.replace(Owner, "method", lambda fn: lambda self: "second " + fn(self))
    assert Owner().method() == "second first original"
    patches.undo()
    assert Owner().method() == "original"


def test_floor_takes_each_pieces_fastest_repeat():
    assert layers.floor([[3.0, 1.0, 2.0], [2.0, 4.0, 2.5]]) == [2.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        layers.floor([[1.0], [1.0, 2.0]])


def test_train_rate_counts_steps_over_floored_time():
    # Two repeats of one train call: entry piece, two steps, exit piece.
    calls = [[[0.1, 1.0, 2.0, 0.1]], [[0.2, 2.0, 1.0, 0.1]]]
    assert layers.train_rate(calls) == pytest.approx(3 / (0.1 + 1.0 + 1.0 + 0.1))


def test_host_speeds_take_the_fastest_kernel_call_per_bin_and_weight_spans():
    kernel = [(0.1, 2.0), (0.3, 1.0), (1.2, 4.0)]  # bin 0 -> 1.0 s, bin 1 empty, bin 2 -> 4.0 s
    spans = [(0.0, 0.4), (0.6, 0.9), (1.1, 1.3), (0.25, 1.25)]
    speeds = layers.host_speeds(spans, kernel, 0.0, 2.0, bin_s=0.5)
    # Bin 1 takes bin 0's kernel time; the last span is 0.25 s in bin 0,
    # 0.5 s in bin 1 and 0.25 s in bin 2.
    assert speeds == pytest.approx([2.0, 2.0, 0.5, (0.25 * 2.0 + 0.5 * 2.0 + 0.25 * 0.5) / 1.0])


def test_timeline_pieces_leave_out_the_kernel_pauses():
    timeline = layers.Timeline(wall=[0.0, 1.0, 3.0], cpu=[0.0, 0.5, 2.0], pause_wall=[0.25, 0.0, 0.5],
                               pause_cpu=[0.25, 0.0, 0.5], kernel=[(0.0, 0.2)], sims=[(1, None, 3)],
                               trains=[(1, 0, 2, None)])
    assert timeline.pieces("wall") == [0.75, 2.0]
    assert timeline.pieces("cpu") == [0.25, 1.5]
    assert timeline.simulate_cpu(timeline.pieces("cpu")) == [1.5]
    assert timeline.train_steps(timeline.pieces("wall")) == [[0.75, 2.0]]
    # One kernel call of 0.2 s against a nominal 0.1 s: the host ran at half speed.
    assert layers.host_speeds([(0.25, 1.0)], timeline.kernel, 0.0, 0.1) == [0.5]
