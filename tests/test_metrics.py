import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulgain.errors import MetricError, ShapeError
from simulgain.metrics import (
    BinStat,
    LatencyBand,
    ParetoPoint,
    bleu,
    laal,
    latency_vs_position,
    nose,
    pareto_envelope,
    read_loop_pct,
    read_pareto_csv,
    spearman,
    write_latency_bins_csv,
    write_nose_csv,
    write_pareto_csv,
)
from simulgain.streaming import EmissionLog
from simulgain.synth import Utterance


def make_log(delays, duration, tokens=None, uid="u"):
    tokens = tokens if tokens is not None else list(range(1, len(delays) + 1))
    return EmissionLog(utt_id=uid, tokens=tokens, delays_s=list(delays), duration_s=duration)


def make_point(lat, qual, alpha=0.0, loops=0.0):
    return ParetoPoint(alpha=alpha, mean_laal_s=lat, quality=qual, read_loop_pct=loops)


class TestLaal:
    def test_hand_fixture(self):
        # gamma = 1 token/s, tau = 2 -> ((1 - 0) + (2 - 1)) / 2
        assert laal(make_log([1.0, 2.0], 2.0), 2) == pytest.approx(1.0, abs=1e-12)

    def test_always_read_equals_duration(self):
        log = make_log([5.0, 5.0, 5.0], 5.0)
        assert laal(log, 3) == pytest.approx(5.0, abs=1e-12)

    def test_instant_emission_can_go_negative_and_is_not_clamped(self):
        # 4 tokens at 0.25 s with T = 4 s: gamma = 1, mean(0.25 - (i-1))
        log = make_log([0.25] * 4, 4.0)
        expected = np.mean([0.25 - i for i in range(4)])
        assert laal(log, 4) == pytest.approx(float(expected), abs=1e-12)
        assert laal(log, 4) < 0

    def test_source_is_exhausted_where_the_simulator_says(self):
        # 5e-10 short of T is not exhausted for the simulator's loop guard and
        # read-loop rule, so it is not for tau either: tau = 2, gamma = 2/3
        log = make_log([3.0 - 5e-10, 3.0], 3.0)
        assert not log.read_loop
        assert laal(log, 2) == pytest.approx(((3.0 - 5e-10) + (3.0 - 1.5)) / 2, abs=1e-12)
        assert laal(log, 2) == pytest.approx(2.25, abs=1e-9)

    def test_time_rescaling(self):
        d = [0.5, 1.25, 2.0]
        base = laal(make_log(d, 3.0), 3)
        scaled = laal(make_log([2 * x for x in d], 6.0), 3)
        assert scaled == pytest.approx(2 * base, abs=1e-12)

    def test_zero_duration_rejected(self):
        with pytest.raises(MetricError):
            laal(EmissionLog(utt_id="x", tokens=[], delays_s=[], duration_s=0.0), 1)

    def test_empty_log_rejected(self):
        with pytest.raises(MetricError):
            laal(EmissionLog(utt_id="x", tokens=[], delays_s=[], duration_s=2.0), 1)


def reference_read_loop(log):
    """The read-loop rule as ``streaming.detect_read_loop`` wrote it before ``EmissionLog.read_loop``."""
    if not log.delays_s:
        return True
    return log.delays_s[0] >= log.duration_s - 1e-12


def reference_laal(log, ref_len):
    """LAAL as ``metrics.laal`` computed it before taking tau from ``EmissionLog.n_before_end``."""
    delays = np.asarray(log.delays_s, dtype=np.float64)
    gamma = max(delays.size, ref_len) / log.duration_s
    exhausted = np.nonzero(delays >= log.duration_s - 1e-12)[0]
    tau = int(exhausted[0]) + 1 if exhausted.size else delays.size
    return float(np.mean(delays[:tau] - np.arange(tau) / gamma))


@st.composite
def logs_near_the_end(draw):
    """A log whose late delays sit at T, at T - 1e-12, or one ulp to either side of either."""
    T = draw(st.floats(0.5, 100.0))
    edge = T - 1e-12
    near = [T, edge, *(math.nextafter(x, toward) for x in (T, edge) for toward in (-math.inf, math.inf))]
    delays = sorted(draw(st.lists(st.floats(1e-3, T / 2), max_size=4)))
    delays += sorted(draw(st.lists(st.sampled_from(near), max_size=4)))
    return EmissionLog("u", list(range(len(delays))), delays, T, n_forced=draw(st.integers(0, len(delays))))


class TestEndOfSource:
    @settings(max_examples=400, deadline=None)
    @given(log=logs_near_the_end(), ref_len=st.integers(1, 10))
    def test_matches_the_reference_rules(self, log, ref_len):
        assert log.read_loop == reference_read_loop(log)
        if log.delays_s:
            assert laal(log, ref_len) == reference_laal(log, ref_len)

    def test_the_edge_is_exhausted_and_the_ulp_below_is_not(self):
        T = 3.0
        edge = T - 1e-12
        below = math.nextafter(edge, 0.0)
        assert make_log([edge, T], T).read_loop
        assert make_log([below, T], T).n_before_end == 1
        assert make_log([below, below], T).n_before_end == 2


def reference_bleu(hyps, refs):
    """Corpus BLEU as the nested order x sentence loop, recounting every sentence for each order."""
    def ngram_counts(tokens, order):
        return Counter(tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1))

    if len(hyps) != len(refs):
        raise ShapeError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not refs or all(len(r) == 0 for r in refs):
        raise MetricError("reference corpus is empty")
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    if hyp_len == 0:
        return 0.0
    log_precision_sum = 0.0
    for order in range(1, 5):
        matched = 0
        total = 0
        for hyp, ref in zip(hyps, refs):
            hyp_counts = ngram_counts(list(hyp), order)
            ref_counts = ngram_counts(list(ref), order)
            matched += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            total += max(len(hyp) - order + 1, 0)
        if matched == 0 and order == 1:
            return 0.0
        precision = matched / total if matched else 1 / (total + 1)
        log_precision_sum += np.log(precision)
    brevity = 1.0 if hyp_len > ref_len else float(np.exp(1.0 - ref_len / hyp_len))
    return float(100.0 * brevity * np.exp(log_precision_sum / 4.0))


@st.composite
def corpora(draw):
    """(hyps, refs) over a vocabulary of 1-5 ids, so n-grams repeat; empty hypotheses and
    references occur, at least one reference is not empty, and references may be int64 lists as a sweep passes them."""
    vocab = draw(st.integers(1, 5))
    tokens = st.lists(st.integers(0, vocab - 1), max_size=10)
    size = draw(st.integers(1, 6))
    hyps = draw(st.lists(tokens, min_size=size, max_size=size))
    refs = draw(st.lists(tokens, min_size=size, max_size=size).filter(lambda rs: any(rs)))
    if draw(st.booleans()):
        refs = [list(np.array(r, dtype=np.int64)) for r in refs]
    return hyps, refs


class TestBleu:
    def test_identity_scores_100(self):
        corpus = [[1, 2, 3], [4, 5], [6]]
        assert bleu(corpus, corpus) == pytest.approx(100.0, abs=1e-9)

    def test_disjoint_vocab_scores_zero(self):
        assert bleu([[1, 2, 3]], [[4, 5, 6]]) == 0.0
        assert bleu([[1, 2, 3]], [[4, 5, 6]]) < 1.0

    def test_hand_fixture(self):
        # precisions 4/4, 3/3, 2/2, 1/1 and brevity exp(1 - 5/4)
        got = bleu([[1, 2, 3, 4]], [[1, 2, 3, 4, 5]])
        assert got == pytest.approx(100.0 * math.exp(1.0 - 1.25), abs=1e-9)
        assert got == pytest.approx(77.88, abs=0.01)

    def test_add_one_smoothing_on_higher_orders(self):
        # unigrams match but no bigram does; smoothing keeps the score positive
        got = bleu([[1, 9, 2, 8]], [[1, 2, 3, 4]])
        assert 0.0 < got < 50.0

    def test_empty_hypotheses_score_zero(self):
        assert bleu([[], []], [[1], [2]]) == 0.0

    @given(corpora())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_nested_loop_reference(self, corpus):
        hyps, refs = corpus
        assert repr(bleu(hyps, refs)) == repr(reference_bleu(hyps, refs))

    @given(corpora(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_sentence_order_leaves_the_score_bit_identical(self, corpus, rnd):
        pairs = list(zip(*corpus))
        rnd.shuffle(pairs)
        hyps, refs = (list(side) for side in zip(*pairs))
        assert repr(bleu(hyps, refs)) == repr(bleu(*corpus))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            bleu([[1]], [[1], [2]])

    def test_empty_reference_corpus_rejected(self):
        with pytest.raises(MetricError):
            bleu([[1]], [[]])


class TestNose:
    def test_constant_quality_equals_one(self):
        points = [make_point(1.0, 40.0), make_point(2.0, 40.0), make_point(3.0, 40.0)]
        assert nose(points, 40.0, LatencyBand(1.0, 3.0)) == pytest.approx(1.0, abs=1e-12)

    def test_half_quality(self):
        points = [make_point(1.0, 20.0), make_point(3.0, 20.0)]
        assert nose(points, 40.0, LatencyBand(1.0, 3.0)) == pytest.approx(0.5, abs=1e-12)

    def test_two_point_hand_fixture(self):
        points = [make_point(1.0, 20.0), make_point(3.0, 40.0)]
        assert nose(points, 40.0, LatencyBand(1.0, 3.0)) == 0.75

    def test_band_outside_range_rejected(self):
        points = [make_point(1.0, 20.0), make_point(3.0, 40.0)]
        with pytest.raises(MetricError, match="achievable"):
            nose(points, 40.0, LatencyBand(0.5, 2.0))
        with pytest.raises(MetricError, match="achievable"):
            nose(points, 40.0, LatencyBand(2.0, 3.5))

    def test_offline_quality_must_be_positive(self):
        points = [make_point(1.0, 20.0), make_point(3.0, 40.0)]
        with pytest.raises(MetricError):
            nose(points, 0.0, LatencyBand(1.0, 3.0))

    def test_dominated_points_do_not_lower_the_envelope(self):
        clean = [make_point(1.0, 20.0), make_point(3.0, 40.0)]
        with_dip = clean + [make_point(2.0, 5.0)]
        assert nose(with_dip, 40.0, LatencyBand(1.0, 3.0)) == nose(clean, 40.0, LatencyBand(1.0, 3.0))

    def test_envelope_never_below_raw_interpolation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            lats = np.sort(rng.uniform(0.5, 4.0, 6))
            quals = rng.uniform(10.0, 50.0, 6)
            points = [make_point(float(l), float(q)) for l, q in zip(lats, quals)]
            xs, ys = pareto_envelope(points)
            grid = np.linspace(lats.min(), lats.max(), 100)
            raw = np.interp(grid, lats, quals)
            env = np.interp(grid, np.append(xs, lats.max()), np.append(ys, ys[-1]))
            assert np.all(env >= raw - 1e-9)

    def test_dominated_top_latency_point_extends_flat(self):
        points = [make_point(1.0, 30.0), make_point(2.0, 40.0), make_point(3.0, 35.0)]
        got = nose(points, 40.0, LatencyBand(2.0, 3.0))
        assert got == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0, -0.0, 0.0]),
                              st.sampled_from([10.0, 20.0, 30.0, 0.0, -0.0])), max_size=12))
    def test_envelope_equals_all_pairs_dominance(self, pairs):
        # few distinct values, so ties in latency, quality or both are common
        points = [make_point(lat, qual) for lat, qual in pairs]
        distinct = sorted(set(pairs))
        kept = [(lat, qual) for lat, qual in distinct
                if not any(o_lat <= lat and o_q >= qual and (o_lat < lat or o_q > qual) for o_lat, o_q in distinct)]
        xs, ys = pareto_envelope(points)
        assert xs.tobytes() == np.array([k[0] for k in kept]).tobytes()
        assert ys.tobytes() == np.array([k[1] for k in kept]).tobytes()


class TestReadLoopPct:
    def test_none(self):
        logs = [make_log([0.25], 2.0), make_log([0.5], 2.0)]
        assert read_loop_pct(logs) == 0.0

    def test_all(self):
        logs = [make_log([2.0], 2.0), make_log([3.0, 3.0], 3.0)]
        assert read_loop_pct(logs) == 100.0

    def test_one_in_four(self):
        logs = [make_log([2.0], 2.0)] + [make_log([0.25], 2.0)] * 3
        assert read_loop_pct(logs) == 25.0

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            read_loop_pct([])


class TestLatencyVsPosition:
    @staticmethod
    def fixture_dataset():
        return [Utterance(id="u", duration_s=4.0, target_tokens=[1, 2, 3],
                          boundaries_s=[1.0, 2.0, 3.0], ambiguous_mask=[False] * 3)]

    def test_perfectly_timed_emissions_have_zero_mean(self):
        ds = self.fixture_dataset()
        logs = [make_log([1.0, 2.0, 3.0], 4.0)]
        stats = latency_vs_position(logs, ds, bins=3)
        assert all(s.mean == pytest.approx(0.0, abs=1e-12) for s in stats)

    def test_always_read_lateness_decreases_across_positions(self):
        ds = self.fixture_dataset()
        logs = [make_log([4.0, 4.0, 4.0], 4.0)]
        stats = latency_vs_position(logs, ds, bins=3)
        means = [s.mean for s in stats]
        assert means == sorted(means, reverse=True)
        assert means[0] == pytest.approx(3.0) and means[-1] == pytest.approx(1.0)

    def test_single_token_single_bin(self):
        ds = [Utterance(id="u", duration_s=2.0, target_tokens=[1], boundaries_s=[0.5],
                        ambiguous_mask=[False])]
        stats = latency_vs_position([make_log([1.25], 2.0, tokens=[1])], ds, bins=1)
        assert len(stats) == 1
        assert stats[0].mean == pytest.approx(0.75, abs=1e-12)
        assert stats[0].count == 1
        assert stats[0].ci_low == stats[0].ci_high == stats[0].mean

    def test_empty_bins_are_absent(self):
        ds = self.fixture_dataset()
        logs = [make_log([1.0, 2.0, 3.0], 4.0)]
        stats = latency_vs_position(logs, ds, bins=10)
        assert len(stats) == 3  # positions 0, 0.5, 1.0 only

    @pytest.mark.parametrize("bins", [2**62, 2**63 - 1])
    def test_huge_bin_count_visits_only_occupied_bins(self, bins):
        # one bin per emitted token at most, however many bins a caller asks for
        logs = [make_log([1.0, 2.0, 3.0], 4.0), make_log([1.5, 2.5, 3.5], 4.0)]
        stats = latency_vs_position(logs, self.fixture_dataset(), bins=bins)
        assert len(stats) <= 6
        assert sum(s.count for s in stats) == 6
        assert all(0 < s.center <= 1 for s in stats)  # the last center rounds to 1.0

    def test_unknown_utterance_rejected(self):
        with pytest.raises(MetricError, match="unknown"):
            latency_vs_position([make_log([1.0], 2.0, uid="ghost")], self.fixture_dataset(), bins=2)

    def test_repeated_utterance_id_rejected(self):
        # both logs would be scored against the later utterance's boundaries
        ds = self.fixture_dataset()
        twin = Utterance(id="u", duration_s=4.0, target_tokens=[1, 2, 3], boundaries_s=[0.5, 1.5, 2.5],
                         ambiguous_mask=[False] * 3)
        with pytest.raises(MetricError, match="repeats utterance id u"):
            latency_vs_position([make_log([1.0, 2.0, 3.0], 4.0)], ds + [twin], bins=3)

    def test_ci_shrinks_with_count(self):
        ds = self.fixture_dataset()
        rng = np.random.default_rng(0)
        logs = [make_log(list(np.sort(rng.uniform(0.9, 3.9, 3))), 4.0) for _ in range(40)]
        stats = latency_vs_position(logs, ds, bins=1)
        assert stats[0].count == 120
        assert stats[0].ci_high - stats[0].ci_low < 1.0


class TestSpearman:
    def test_monotone_is_one(self):
        x = np.array([1.0, 2.0, 4.0, 9.0])
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        x = np.array([1.0, 2.0, 4.0, 9.0])
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_ties_use_average_ranks(self):
        # hand computation: ranks of [1,2,2,4] are [1, 2.5, 2.5, 4]
        got = spearman([1.0, 2.0, 2.0, 4.0], [10.0, 20.0, 30.0, 40.0])
        ra = np.array([1.0, 2.5, 2.5, 4.0])
        rb = np.array([1.0, 2.0, 3.0, 4.0])
        want = float(np.corrcoef(ra, rb)[0, 1])
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("a, b", [([], []), ([1.0], [2.0]), ([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]),
                                      ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])])
    def test_undefined_correlation_rejected(self, a, b):
        # no pairs, one pair, or a constant side: the rank variance is 0, so rho is undefined
        with pytest.raises(MetricError, match="spearman is undefined"):
            spearman(a, b)

    def test_length_mismatch_is_shape_error(self):
        with pytest.raises(ShapeError, match="length mismatch"):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])


class TestCsvFiles:
    def test_pareto_round_trip_and_header(self, tmp_path):
        points = [make_point(1.5, 80.0, alpha=-0.5, loops=12.5), make_point(0.7, 35.0, alpha=0.5)]
        path = tmp_path / "pareto.csv"
        write_pareto_csv(points, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,laal_s,bleu,read_loop_pct"
        assert read_pareto_csv(path) == points

    def test_write_is_deterministic(self, tmp_path):
        points = [make_point(1.0, 50.0), make_point(2.0, 60.0)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_pareto_csv(points, p1)
        write_pareto_csv(points, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nose_and_bins_headers(self, tmp_path):
        nose_path = tmp_path / "nose.csv"
        write_nose_csv([("REINA", 1, LatencyBand(1.0, 2.0), 0.9)], nose_path)
        assert nose_path.read_text().splitlines() == ["variant,sweep,band_x,band_y,nose", "REINA,1,1.0,2.0,0.9"]
        bins_path = tmp_path / "bins.csv"
        write_latency_bins_csv([("REINA", 1, [BinStat(0.5, 1.0, 0.9, 1.1, 4)])], bins_path)
        assert bins_path.read_text().splitlines() == \
            ["variant,sweep,bin_center,mean_latency_s,ci_low,ci_high,count", "REINA,1,0.5,1.0,0.9,1.1,4"]
