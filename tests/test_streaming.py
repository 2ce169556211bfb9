import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulgain import streaming
from simulgain.errors import ConfigError
from simulgain.metrics import ParetoPoint
from simulgain.policy import PolicyConfig, PolicyVariant, forward, forward_batch, init_params
from simulgain.streaming import (
    EmissionLog,
    GainThresholdPolicy,
    StreamConfig,
    ThresholdPolicy,
    WaitKPolicy,
    emission_log_to_json,
    load_logs,
    save_logs,
    simulate,
    sweep,
)
from simulgain.synth import OracleModel, SynthConfig, Utterance, generate_dataset
from simulgain.training import score_info_gain_grid

from oracle_reference import argmax_token


@pytest.fixture(scope="module")
def env():
    cfg = SynthConfig(rng_seed=17, tokens_per_utt_range=(3, 6))
    return cfg, OracleModel(cfg), generate_dataset(cfg, 6)


@pytest.fixture
def stream():
    return StreamConfig(chunk_ms=250.0)


def three_token_fixture():
    return Utterance(id="fix3", duration_s=4.0, target_tokens=[5, 6, 7],
                     boundaries_s=[1.0, 2.0, 3.0], ambiguous_mask=[False] * 3)


class FixedScorePolicy:
    """Reads while a constant score exceeds the threshold."""

    def __init__(self, score, alpha):
        self.score = score
        self.alpha = alpha

    def wants_read(self, utt, t_s, n, chunks_read):
        return self.score > self.alpha


class TestSimulate:
    def test_always_write_emits_at_first_grid_point(self, env, stream):
        cfg, oracle, dataset = env
        utt = dataset[0]
        log = simulate(oracle, utt, FixedScorePolicy(0.0, math.inf), stream)
        assert log.delays_s == [stream.chunk_s] * utt.n_tokens
        assert log.n_forced == 0

    def test_always_read_forces_everything_at_duration(self, env, stream):
        cfg, oracle, dataset = env
        utt = dataset[0]
        log = simulate(oracle, utt, FixedScorePolicy(0.0, -math.inf), stream)
        assert log.delays_s == [utt.duration_s] * utt.n_tokens
        assert log.n_forced == utt.n_tokens
        assert log.read_loop

    def test_delays_nondecreasing_and_bounded(self, env, stream):
        cfg, oracle, dataset = env
        pconf = PolicyConfig.for_variant(PolicyVariant.REINA, cfg.feature_dim)
        params = init_params(pconf, 3)
        for utt in dataset:
            for alpha in (-0.5, 0.0, 0.5):
                log = simulate(oracle, utt, ThresholdPolicy(oracle, params, alpha), stream)
                d = np.asarray(log.delays_s)
                assert len(log.tokens) == utt.n_tokens
                assert np.all(np.diff(d) >= 0)
                assert d[0] > 0 and d[-1] <= utt.duration_s

    def test_deterministic(self, env, stream):
        cfg, oracle, dataset = env
        policy = GainThresholdPolicy(oracle, 0.1)
        a = simulate(oracle, dataset[1], policy, stream)
        b = simulate(oracle, dataset[1], policy, stream)
        assert a.delays_s == b.delays_s and a.tokens == b.tokens

    def test_gain_policy_at_zero_threshold_always_reads(self, env, stream):
        cfg, oracle, dataset = env
        utt = dataset[2]
        log = simulate(oracle, utt, GainThresholdPolicy(oracle, 0.0), stream)
        assert log.delays_s == [utt.duration_s] * utt.n_tokens

    def test_calibrated_policy_tracks_write_boundary(self, env, stream):
        cfg, oracle, dataset = env
        threshold = 0.05
        policy = GainThresholdPolicy(oracle, threshold)
        for utt in dataset:
            log = simulate(oracle, utt, policy, stream)
            for n, d in enumerate(log.delays_s):
                boundary = oracle.write_boundary(utt, n, threshold)
                assert boundary - 1e-9 <= d <= boundary + stream.chunk_s + 1e-9

    def test_short_source_is_all_forced(self, env):
        cfg, oracle, _ = env
        utt = Utterance(id="tiny", duration_s=0.1, target_tokens=[1], boundaries_s=[0.05],
                        ambiguous_mask=[False])
        log = simulate(oracle, utt, FixedScorePolicy(0.0, math.inf), StreamConfig(chunk_ms=250.0))
        assert log.delays_s == [0.1]
        assert log.n_forced == 1

    def test_any_truthy_answer_reads(self, env, stream):
        # a policy that only answers wants_read is taken at bool() of each answer
        _, oracle, dataset = env
        for answer, alpha in [("read", -math.inf), (np.float64(0.5), -math.inf), ([], math.inf), (0, math.inf)]:
            policy = FixedScorePolicy(0.0, 0.0)
            policy.wants_read = lambda *args, answer=answer: answer
            for utt in dataset:
                got = simulate(oracle, utt, policy, stream)
                assert got == simulate(oracle, utt, FixedScorePolicy(0.0, alpha), stream), (answer, utt.id)

    def test_time_within_the_end_margin_forces_the_tail(self, env):
        # three chunks reach 0.75 s, within 1e-12 of T: the source has run out,
        # so both tokens are forced at T instead of offered to the policy
        _, oracle, _ = env
        utt = Utterance("edge", 0.75 + 5e-13, [3, 7], [0.3, 0.6], [False, False])
        log = simulate(oracle, utt, WaitKPolicy(3), StreamConfig(chunk_ms=250.0))
        assert log.delays_s == [utt.duration_s, utt.duration_s]
        assert log.n_forced == 2


class TestWaitK:
    def test_hand_simulated_schedule(self, env, stream):
        cfg, oracle, _ = env
        log = simulate(oracle, three_token_fixture(), WaitKPolicy(4), stream)
        assert log.delays_s == [1.0, 1.25, 1.5]

    def test_k_zero_emits_first_token_at_first_grid_point(self, env, stream):
        cfg, oracle, _ = env
        log = simulate(oracle, three_token_fixture(), WaitKPolicy(0), stream)
        assert log.delays_s[0] == stream.chunk_s

    def test_k_total_chunks_equals_always_read(self, env, stream):
        cfg, oracle, _ = env
        utt = three_token_fixture()
        total_chunks = int(math.ceil(utt.duration_s / stream.chunk_s))
        log = simulate(oracle, utt, WaitKPolicy(total_chunks), stream)
        assert log.delays_s == [utt.duration_s] * utt.n_tokens

    def test_negative_k_rejected(self):
        # NaN would write every token at the first chunk: n > chunks_read - nan is always False
        for k in (-1, math.nan, 2.5):
            with pytest.raises(ConfigError, match="^k: "):
                WaitKPolicy(k)


class TestThresholds:
    """NaN compares false both ways, so a NaN threshold would act as a silent always-write."""

    def test_nan_threshold_rejected(self, env):
        cfg, oracle, _ = env
        params = init_params(PolicyConfig(input_dim=cfg.feature_dim, hidden_dims=(4,)))
        for build in (lambda: ThresholdPolicy(oracle, params, math.nan),
                      lambda: ThresholdPolicy(oracle, params, 0.0).with_alpha(math.nan),
                      lambda: GainThresholdPolicy(oracle, math.nan),
                      lambda: GainThresholdPolicy(oracle, 0.5).with_alpha(math.nan)):
            with pytest.raises(ConfigError, match="NaN|gain_threshold"):
                build()

    def test_infinite_thresholds_accepted(self, env):
        cfg, oracle, _ = env
        params = init_params(PolicyConfig(input_dim=cfg.feature_dim, hidden_dims=(4,)))
        for alpha in (-math.inf, math.inf):
            ThresholdPolicy(oracle, params, 0.0).with_alpha(alpha)
        GainThresholdPolicy(oracle, -math.inf)
        GainThresholdPolicy(oracle, math.inf)
        for gain in (-math.inf, math.inf):
            GainThresholdPolicy(oracle, 0.5).with_alpha(gain)
        # with_alpha applies the constructor's rule, so a negative finite threshold is refused either way
        for build in (lambda: GainThresholdPolicy(oracle, -1.0),
                      lambda: GainThresholdPolicy(oracle, 0.5).with_alpha(-1.0)):
            with pytest.raises(ConfigError, match="^gain_threshold: must be >= 0"):
                build()


class TestReadLoop:
    def test_always_read_is_a_loop(self):
        log = EmissionLog(utt_id="x", tokens=[1, 2], delays_s=[3.0, 3.0], duration_s=3.0)
        assert log.read_loop

    def test_never_read_is_not(self):
        log = EmissionLog(utt_id="x", tokens=[1, 2], delays_s=[0.25, 0.25], duration_s=3.0)
        assert not log.read_loop

    def test_one_chunk_before_end_is_not(self):
        log = EmissionLog(utt_id="x", tokens=[1], delays_s=[2.75], duration_s=3.0)
        assert not log.read_loop

    def test_empty_log_counts_as_loop(self):
        log = EmissionLog(utt_id="x", tokens=[], delays_s=[], duration_s=3.0)
        assert log.read_loop

    def test_delays_may_be_an_array(self):
        log = EmissionLog(utt_id="x", tokens=[1, 2], delays_s=np.array([0.5, 3.0]), duration_s=3.0, n_forced=1)
        assert log.n_before_end == 1 and not log.read_loop
        assert EmissionLog(utt_id="x", tokens=[], delays_s=np.array([]), duration_s=3.0).read_loop


class TestSweep:
    def test_single_alpha_matches_direct_simulation(self, env, stream):
        cfg, oracle, dataset = env
        from simulgain.metrics import bleu, laal, read_loop_pct

        points = sweep(oracle, None, dataset, [0.05], stream,
                       policy_factory=lambda a: GainThresholdPolicy(oracle, a))
        logs = [simulate(oracle, u, GainThresholdPolicy(oracle, 0.05), stream) for u in dataset]
        want_laal = float(np.mean([laal(log, u.n_tokens) for log, u in zip(logs, dataset)]))
        want_bleu = bleu([log.tokens for log in logs], [list(u.target_tokens) for u in dataset])
        assert points[0].mean_laal_s == pytest.approx(want_laal, abs=1e-12)
        assert points[0].quality == pytest.approx(want_bleu, abs=1e-12)
        assert points[0].read_loop_pct == read_loop_pct(logs)

    def test_permutation_invariant(self, env, stream):
        cfg, oracle, dataset = env
        pconf = PolicyConfig.for_variant(PolicyVariant.REINA, cfg.feature_dim)
        params = init_params(pconf, 5)
        alphas = [-0.2, 0.0, 0.3]
        forward_points = sweep(oracle, params, dataset, alphas, stream)
        reverse_points = sweep(oracle, params, dataset, alphas[::-1], stream)
        by_alpha = {p.alpha: p for p in reverse_points}
        for p in forward_points:
            assert by_alpha[p.alpha] == p

    def test_oracle_policy_quality_never_drops_with_more_reading(self, env, stream):
        # lower gain thresholds mean more reading; quality must be nondecreasing
        cfg, oracle, dataset = env
        thresholds = [2.0, 1.0, 0.5, 0.2, 0.05, 0.0]
        points = sweep(oracle, None, dataset, thresholds, stream,
                       policy_factory=lambda a: GainThresholdPolicy(oracle, a))
        qualities = [p.quality for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(qualities, qualities[1:]))

    def test_empty_alphas_rejected(self, env, stream):
        cfg, oracle, dataset = env
        with pytest.raises(ConfigError):
            sweep(oracle, None, dataset, [], stream, policy_factory=lambda a: None)

    def test_empty_dataset_rejected(self, env, stream):
        # refused before the mean LAAL of no utterances, over which numpy warns
        cfg, oracle, _ = env
        params = init_params(PolicyConfig.for_variant(PolicyVariant.REINA, cfg.feature_dim), 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for factory in (None, lambda g: GainThresholdPolicy(oracle, g)):
                with pytest.raises(ConfigError, match="^dataset: must be non-empty$"):
                    sweep(oracle, params, [], [0.5], stream, policy_factory=factory)


class TestLogSerialization:
    def test_round_trip(self, env, stream, tmp_path):
        cfg, oracle, dataset = env
        policy = GainThresholdPolicy(oracle, 0.1)
        logs = [simulate(oracle, u, policy, stream) for u in dataset]
        path = tmp_path / "logs.jsonl"
        save_logs(logs, path)
        loaded = load_logs(path)
        for a, b in zip(logs, loaded):
            assert a.utt_id == b.utt_id and a.tokens == b.tokens
            assert a.delays_s == b.delays_s and a.duration_s == b.duration_s
            assert a.n_forced == b.n_forced

    def test_wire_fields(self, env, stream):
        import json

        cfg, oracle, dataset = env
        log = simulate(oracle, dataset[0], GainThresholdPolicy(oracle, 0.0), stream)
        record = json.loads(emission_log_to_json(log))
        assert set(record) == {"utt_id", "tokens", "delays_s", "T", "forced_tail", "read_loop", "truncated"}
        assert record["read_loop"] is True

    def test_truncated_flag_round_trips(self, tmp_path):
        logs = [EmissionLog(utt_id=f"u{i}", tokens=[1, 2], delays_s=[0.5, 1.0], duration_s=2.0, truncated=flag)
                for i, flag in enumerate((False, True))]
        path = tmp_path / "logs.jsonl"
        save_logs(logs, path)
        assert [log.truncated for log in load_logs(path)] == [False, True]

    def test_invalid_log_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            EmissionLog(utt_id="bad", tokens=[1, 2], delays_s=[2.0, 1.0], duration_s=3.0)
        with pytest.raises(ValueError, match="delays"):
            EmissionLog(utt_id="bad", tokens=[1], delays_s=[4.0], duration_s=3.0)
        for n_forced in (-1, 3):  # the forced tail lies within the two tokens, however the log is built
            with pytest.raises(ValueError, match="n_forced must be from 0 to the number of tokens"):
                EmissionLog(utt_id="bad", tokens=[1, 2], delays_s=[0.5, 2.0], duration_s=2.0, n_forced=n_forced)
        for delays, message in [([2.0, 0.5], "nondecreasing"), ([0.5, math.nan], "finite"), ([0.0, 1.0], "lie in")]:
            with pytest.raises(ValueError, match=message):
                EmissionLog(utt_id="bad", tokens=[1, 2], delays_s=np.array(delays), duration_s=2.0)


class RecordingPolicy:
    """Forwards ``wants_read`` and records the arguments of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def wants_read(self, *args):
        read = self.inner.wants_read(*args)
        self.calls.append((*args, read))
        return read


@st.composite
def stream_cases(draw):
    """An oracle, an utterance, a chunk size, and a policy of one of the three kinds."""
    cfg = SynthConfig(rng_seed=draw(st.integers(0, 2**31)), noise_std=draw(st.sampled_from([0.0, 0.3])))
    oracle = OracleModel(cfg)
    n_tok = draw(st.integers(1, 6))
    boundaries = np.cumsum(draw(st.lists(st.floats(0.05, 1.5), min_size=n_tok, max_size=n_tok)))
    utt = Utterance(id="prop", duration_s=float(boundaries[-1]) + draw(st.floats(0.0, 1.0)),
                    target_tokens=draw(st.lists(st.integers(0, cfg.vocab_size - 1), min_size=n_tok, max_size=n_tok)),
                    boundaries_s=boundaries,
                    ambiguous_mask=draw(st.lists(st.booleans(), min_size=n_tok, max_size=n_tok)))
    config = StreamConfig(chunk_ms=draw(st.floats(20.0, 2000.0)))
    alpha = draw(st.one_of(st.floats(-1.0, 1.0), st.just(math.inf), st.just(-math.inf)))
    kind = draw(st.sampled_from(["threshold", "gain", "wait_k"]))
    if kind == "threshold":
        variant = draw(st.sampled_from([PolicyVariant.REINA, PolicyVariant.REINA_TAN]))
        params = init_params(PolicyConfig.for_variant(variant, cfg.feature_dim, hidden_dims=(8,)),
                             draw(st.integers(0, 100)))
        policy = ThresholdPolicy(oracle, params, alpha)
    elif kind == "gain":
        alpha = abs(alpha)
        policy = GainThresholdPolicy(oracle, alpha)
    else:
        alpha = None
        policy = WaitKPolicy(draw(st.integers(0, 40)))
    return oracle, utt, config, policy, alpha


class TestSimulatorProperties:
    @settings(max_examples=150, deadline=None)
    @given(case=stream_cases())
    def test_invariants(self, case):
        oracle, utt, config, policy, alpha = case
        walked = simulate(oracle, utt, policy, config)  # the policy's rows, with its misses
        recorder = RecordingPolicy(policy)
        log = simulate(oracle, utt, recorder, config)  # one wants_read per decision
        assert dataclasses.asdict(walked) == dataclasses.asdict(log)
        T = utt.duration_s
        d = np.asarray(log.delays_s)
        assert len(log.tokens) == utt.n_tokens and not log.truncated
        assert np.all(np.diff(d) >= 0) and d[0] > 0 and d[-1] <= T
        assert log.read_loop == (d[0] == T)
        assert log.n_forced == int(np.sum(d == T))
        if alpha == math.inf:
            assert log.delays_s == [min(config.chunk_s, T)] * utt.n_tokens
        # the protocol: (utterance, consumed time, pending token, chunks read), asked only while
        # audio remains; a write emits the pending token at the consumed time
        written = 0
        for _, t_s, n, chunks_read, read in recorder.calls:
            assert t_s == min(chunks_read * config.chunk_s, T) < T
            assert n == written
            if not read:
                assert log.delays_s[n] == t_s
                written += 1
        assert written == utt.n_tokens - log.n_forced


class RowThresholdPolicy:
    """``ThresholdPolicy`` without its table: every decision scores the token row at its time afresh."""

    def __init__(self, oracle, params, alpha):
        self.oracle, self.params, self.alpha = oracle, params, alpha

    def wants_read(self, utt, t_s, n, chunks_read):
        return row_scores(self.oracle, self.params, utt, t_s)[n] > self.alpha


class GainRowPolicy:
    """``GainThresholdPolicy`` without its table: every decision asks the oracle for the one exact gain."""

    def __init__(self, oracle, gain_threshold):
        self.oracle, self.gain_threshold = oracle, gain_threshold

    def wants_read(self, utt, t_s, n, chunks_read):
        return self.oracle.true_info_gain(utt, t_s, n) > self.gain_threshold


def row_scores(oracle, params, utt, t_s):
    t = np.full(utt.n_tokens, t_s)
    return forward_batch(params, oracle.features_many(utt, t, np.arange(utt.n_tokens)), t)


def reference_simulate(oracle, utt, policy, config):
    """The loop ``simulate`` replaced: each token is decoded as it is written, by its log-probabilities' argmax."""
    duration, chunk = utt.duration_s, config.chunk_s
    chunks_read, t, n = 1, min(chunk, duration), 0
    tokens, delays = [], []
    while n < utt.n_tokens and t < duration - 1e-12:
        if policy.wants_read(utt, t, n, chunks_read):
            chunks_read += 1
            t = min(chunks_read * chunk, duration)
        else:
            tokens.append(argmax_token(oracle, utt, t, n))
            delays.append(t)
            n += 1
    n_forced = utt.n_tokens - n
    for n in range(n, utt.n_tokens):
        tokens.append(argmax_token(oracle, utt, duration, n))
        delays.append(duration)
    return EmissionLog(utt_id=utt.id, tokens=tokens, delays_s=delays, duration_s=duration, n_forced=n_forced)


class TestDecodeAfterScan:
    """``simulate`` decodes once after its scan and scores a token row per time, byte-equal to the per-token loop."""

    @pytest.fixture(scope="class", params=[0.0, 0.3], ids=["clean", "noisy"])
    def world(self, request):
        # the target wins the decode only past its boundary (p > 0.25 = the residual), so a token
        # decoded at the wrong time shows
        cfg = SynthConfig(vocab_size=4, p_min=0.1, p_max=0.4, rng_seed=23, noise_std=request.param,
                          ambiguity_prob=0.3, tokens_per_utt_range=(2, 6))
        dataset = generate_dataset(cfg, 8)
        dataset.append(Utterance(id="off-grid", duration_s=2.03, target_tokens=[0, 3, 2, 0],
                                 boundaries_s=[0.4, 1.1, 1.9, 2.02], ambiguous_mask=[False, True, False, False]))
        return cfg, OracleModel(cfg), dataset

    @staticmethod
    def heads(cfg, oracle, dataset):
        """(variant, params, alphas) per head, the alphas spanning its scores."""
        for variant in (PolicyVariant.REINA, PolicyVariant.REINA_TAN, PolicyVariant.REINA_ALL):
            params = init_params(PolicyConfig.for_variant(variant, cfg.feature_dim, hidden_dims=(16,)), 2)
            scores, _ = score_info_gain_grid(oracle, params, dataset)
            yield variant, params, [-math.inf, math.inf, *np.quantile(scores, [0.1, 0.3, 0.5, 0.7, 0.9])]

    @pytest.mark.parametrize("chunk_ms", [130.0, 250.0])
    def test_logs_equal_the_per_token_loop(self, world, chunk_ms):
        cfg, oracle, dataset = world
        config = StreamConfig(chunk_ms=chunk_ms)
        pairs = [(lambda k=k: WaitKPolicy(k),) * 2 for k in (0, 2, 5)]
        pairs += [(lambda g=g: GainThresholdPolicy(oracle, g), lambda g=g: GainRowPolicy(oracle, g))
                  for g in (0.0, 0.05, 0.5, -math.inf, math.inf)]
        for _, params, alphas in self.heads(cfg, oracle, dataset):
            pairs += [(lambda p=params, a=a: ThresholdPolicy(oracle, p, a),
                       lambda p=params, a=a: RowThresholdPolicy(oracle, p, a)) for a in alphas]
        for make, make_reference in pairs:
            policy, reference = make(), make_reference()  # one policy object per utterance set, as in a sweep
            for utt in dataset:
                got = emission_log_to_json(simulate(oracle, utt, policy, config))
                assert got == emission_log_to_json(reference_simulate(oracle, utt, reference, config)), utt.id

    @pytest.mark.parametrize("chunk_ms", [130.0, 250.0])
    def test_library_policies_are_never_asked_per_decision(self, world, chunk_ms, monkeypatch):
        # simulate and sweep walk the library policies' rows: a wants_read call would raise
        cfg, oracle, dataset = world
        config = StreamConfig(chunk_ms=chunk_ms)
        _, params, alphas = next(self.heads(cfg, oracle, dataset))
        gains, ks = [0.0, 0.05, 0.5, -math.inf, math.inf], [0, 2, 5]

        def reference_logs(make, thresholds):
            return {float(a): [emission_log_to_json(reference_simulate(oracle, u, make(a), config)) for u in dataset]
                    for a in thresholds}

        def asked(*args):
            raise AssertionError("asked wants_read")

        cases = [(lambda a: ThresholdPolicy(oracle, params, a), alphas,
                  reference_logs(lambda a: RowThresholdPolicy(oracle, params, a), alphas)),
                 (GainThresholdPolicy(oracle, 0.5).with_alpha, gains,
                  reference_logs(lambda g: GainRowPolicy(oracle, g), gains)),
                 (lambda k: WaitKPolicy(int(k)), ks, reference_logs(WaitKPolicy, ks))]
        for cls in (ThresholdPolicy, GainThresholdPolicy, WaitKPolicy):
            monkeypatch.setattr(cls, "wants_read", asked)
        for make, thresholds, want in cases:
            for a in thresholds:
                policy = make(a)
                assert [emission_log_to_json(simulate(oracle, u, policy, config)) for u in dataset] == want[a], a
            _, logs = sweep(oracle, None, dataset, thresholds, config, policy_factory=make, collect_logs=True)
            assert {a: [emission_log_to_json(log) for log in got] for a, got in logs.items()} == want
        _, logs = sweep(oracle, params, dataset, alphas, config, collect_logs=True)
        assert {a: [emission_log_to_json(log) for log in got] for a, got in logs.items()} == cases[0][2]

    def test_row_score_equals_one_row_forward(self, world):
        # a decision flips only where |score - alpha| is within this gap: the row and one-row
        # passes sum the same products in another order
        cfg, oracle, dataset = world
        for _, params, _ in self.heads(cfg, oracle, dataset):
            for utt in dataset:
                times = {*oracle.frame_grid(utt)}
                for chunk_s in (0.13, 0.25):
                    chunks = range(1, math.ceil(utt.duration_s / chunk_s) + 1)
                    times |= {min(k * chunk_s, utt.duration_s) for k in chunks}
                for t_s in times:
                    row = row_scores(oracle, params, utt, t_s)
                    one = [forward(params, oracle.features(utt, t_s, n), t_s) for n in range(utt.n_tokens)]
                    np.testing.assert_allclose(row, one, rtol=0, atol=1e-12, err_msg=f"{utt.id} t={t_s}")

    @staticmethod
    def record_sweep(patch, oracle):
        """Patch the module so a sweep records, per ``forward_batch`` call, the utterance it scores,
        whether the alpha loop had started, and the times; and the policies ``simulate`` got."""
        filled, policies, current = [], [], []
        features_many = oracle.features_many

        def recording_features_many(utt, t_s, n):
            current.append(utt.id)
            return features_many(utt, t_s, n)

        def recording_forward_batch(params, features, t_audio):
            filled.append((current[-1], bool(policies), np.array(t_audio)))
            return forward_batch(params, features, t_audio)

        def recording_simulate(oracle, utt, policy, config):
            policies.append(policy)
            return simulate(oracle, utt, policy, config)

        patch.setattr(oracle, "features_many", recording_features_many)
        patch.setattr(streaming, "forward_batch", recording_forward_batch)
        patch.setattr(streaming, "simulate", recording_simulate)
        return filled, policies

    @pytest.mark.parametrize("chunk_ms", [130.0, 250.0])
    def test_sweep_scores_each_state_once(self, world, chunk_ms, monkeypatch):
        cfg, oracle, dataset = world
        config = StreamConfig(chunk_ms=chunk_ms)
        for variant, params, alphas in self.heads(cfg, oracle, dataset):
            assert -math.inf in alphas  # always reading asks every decision row of every utterance
            want, asked = {}, []
            for alpha in alphas:
                reference = RecordingPolicy(RowThresholdPolicy(oracle, params, alpha))
                want[alpha] = [emission_log_to_json(simulate(oracle, u, reference, config)) for u in dataset]
                asked += [(utt.id, t_s, n) for utt, t_s, n, _, _ in reference.calls]
            with monkeypatch.context() as patch:
                filled, _ = self.record_sweep(patch, oracle)
                _, logs = sweep(oracle, params, dataset, alphas, config, collect_logs=True)
            for alpha in alphas:
                assert [emission_log_to_json(log) for log in logs[float(alpha)]] == want[alpha], variant
            # one stacked call per utterance, all before the first alpha, each row a whole token row at one time
            assert sorted(utt_id for utt_id, _, _ in filled) == sorted(u.id for u in dataset), variant
            assert not any(in_loop for _, in_loop, _ in filled), variant
            n_tokens = {u.id: u.n_tokens for u in dataset}
            assert all(t.shape == (len(t), n_tokens[utt_id]) and (t == t[:, :1]).all()
                       for utt_id, _, t in filled), variant
            # its rows are the distinct rows the table-free reference asks, none filled twice
            rows = [(utt_id, t_s) for utt_id, _, t in filled for t_s in t[:, 0].tolist()]
            assert len(rows) == len(set(rows)), variant
            assert set(rows) == {(utt_id, t_s) for utt_id, t_s, _ in asked}, variant
            assert len(rows) < len(set(asked)), variant  # a row serves every token pending at its time

    @pytest.mark.parametrize("chunk_ms", [130.0, 250.0])
    def test_sweep_rows_equal_the_miss_path(self, world, chunk_ms, monkeypatch):
        # a stacked row must be the row a fresh policy fills at that time through wants_read, float for float
        cfg, oracle, dataset = world
        config = StreamConfig(chunk_ms=chunk_ms)
        for variant, params, alphas in self.heads(cfg, oracle, dataset):
            with monkeypatch.context() as patch:
                _, policies = self.record_sweep(patch, oracle)
                sweep(oracle, params, dataset, alphas[:2], config)
            table = policies[0]._scores
            assert all(policy._scores is table for policy in policies)
            assert set(table) == set(dataset), variant
            for utt, rows in table.items():
                for t_s, row in rows.items():
                    fresh = ThresholdPolicy(oracle, params, 0.0)
                    fresh.wants_read(utt, t_s, 0, 1)
                    assert row == fresh._scores[utt][t_s], (variant, utt.id, t_s)

    @pytest.mark.parametrize("chunk_ms", [130.0, 250.0])
    def test_gain_sweep_shares_one_table(self, world, chunk_ms):
        # a bound with_alpha gives every threshold the same gain rows; -inf reads through every decision row
        cfg, oracle, dataset = world
        config = StreamConfig(chunk_ms=chunk_ms)
        thresholds = [0.0, *np.geomspace(0.01, 10, 10), -math.inf, math.inf]
        shared = GainThresholdPolicy(oracle, 0.5)
        got = sweep(oracle, None, dataset, thresholds, config, policy_factory=shared.with_alpha, collect_logs=True)
        want = sweep(oracle, None, dataset, thresholds, config,
                     policy_factory=lambda g: GainThresholdPolicy(oracle, g), collect_logs=True)
        assert [repr(p) for p in got[0]] == [repr(p) for p in want[0]]
        for g in thresholds:
            assert ([emission_log_to_json(log) for log in got[1][float(g)]]
                    == [emission_log_to_json(log) for log in want[1][float(g)]]), g
        assert shared.with_alpha(1.0)._scores is shared._scores
        assert set(shared._scores) == set(dataset)
        for utt, rows in shared._scores.items():
            assert set(rows) == set(streaming._decision_times(utt, config.chunk_s)), utt.id
            for t_s, row in rows.items():
                exact = [oracle.true_info_gain(utt, t_s, n) for n in range(utt.n_tokens)]
                assert np.array(row).tobytes() == np.array(exact).tobytes(), (utt.id, t_s)

    def test_sweep_with_a_factory_scores_nothing_up_front(self, world, monkeypatch):
        cfg, oracle, dataset = world
        _, params, alphas = next(self.heads(cfg, oracle, dataset))
        with monkeypatch.context() as patch:
            filled, _ = self.record_sweep(patch, oracle)
            got = sweep(oracle, None, dataset, alphas, StreamConfig(),
                        policy_factory=lambda a: ThresholdPolicy(oracle, params, a), collect_logs=True)
        assert filled and all(in_loop for _, in_loop, _ in filled)  # only misses inside the alpha loop
        assert got == sweep(oracle, params, dataset, alphas, StreamConfig(), collect_logs=True)

    def test_utterance_without_decisions_makes_no_fill(self, world, monkeypatch):
        # shorter than one chunk, or exactly one chunk long: the source runs out before any decision
        cfg, oracle, dataset = world
        _, params, alphas = next(self.heads(cfg, oracle, dataset))
        short = [Utterance(id=f"short{i}", duration_s=d, target_tokens=[1, 2], boundaries_s=[0.05, 0.1],
                           ambiguous_mask=[False, False]) for i, d in enumerate((0.1, 0.25))]
        with monkeypatch.context() as patch:
            filled, _ = self.record_sweep(patch, oracle)
            _, logs = sweep(oracle, params, short, alphas, StreamConfig(chunk_ms=250.0), collect_logs=True)
        assert filled == []
        assert all(log.delays_s == [utt.duration_s] * 2 for alpha_logs in logs.values()
                   for log, utt in zip(alpha_logs, short))

    def test_table_keys_on_the_utterance_and_its_time(self, world):
        # one policy streams two utterances of one id and both chunk sizes; each log must be
        # what a fresh policy gives
        cfg, oracle, dataset = world
        twins = [dataclasses.replace(u, target_tokens=(u.target_tokens + 1) % cfg.vocab_size,
                                     boundaries_s=u.boundaries_s * 0.5) for u in dataset]
        for _, params, alphas in self.heads(cfg, oracle, dataset):
            for alpha in alphas[2:]:
                policy = ThresholdPolicy(oracle, params, alpha)
                for config in (StreamConfig(chunk_ms=130.0), StreamConfig(chunk_ms=250.0)):
                    for utt in (*dataset, *twins):
                        fresh = ThresholdPolicy(oracle, params, alpha)
                        assert (emission_log_to_json(simulate(oracle, utt, policy, config))
                                == emission_log_to_json(simulate(oracle, utt, fresh, config))), utt.id


def test_pathology_sweep_decodes_by_decode_time(monkeypatch):
    # the greedy decode takes the log rule only within 1e-6 ramps of a token's decode time: on the
    # pathology config's sweep no write lands there, so a decode that took the logs for every state shows
    cfg = SynthConfig(rng_seed=41, vocab_size=50, ambiguity_prob=0.3, p_min=1e-6)
    oracle, dataset = OracleModel(cfg), generate_dataset(cfg, 100)
    params = init_params(PolicyConfig.for_variant(PolicyVariant.REINA_TAN, cfg.feature_dim, hidden_dims=(16,)), 41)
    scores, _ = score_info_gain_grid(oracle, params, dataset)
    alphas = [1e3, *np.quantile(scores, np.linspace(0.1, 0.9, 8)), -1e3]
    decoded, by_logs = [], []
    greedy_tokens, log_rule = OracleModel.greedy_tokens, OracleModel._log_rule

    def counting_greedy_tokens(self, utt, t_s, n):
        decoded.append(len(n))
        return greedy_tokens(self, utt, t_s, n)

    def counting_log_rule(self, utt, t_s, n):
        by_logs.append(len(n))
        return log_rule(self, utt, t_s, n)

    monkeypatch.setattr(OracleModel, "greedy_tokens", counting_greedy_tokens)
    monkeypatch.setattr(OracleModel, "_log_rule", counting_log_rule)
    sweep(oracle, params, dataset, alphas, StreamConfig())
    assert sum(decoded) == len(alphas) * sum(u.n_tokens for u in dataset)
    assert sum(by_logs) == 0


class TestParamsSnapshot:
    """A threshold policy scores with the params as they were when it was built."""

    @staticmethod
    def perturb(params):
        # in place, as the optimizer updates the views of its flat vector
        params.weights[-1] *= -1.0
        params.biases[-1] += 0.5

    @pytest.fixture
    def trained(self, env):
        from simulgain.losses import LossWeights
        from simulgain.training import TrainConfig, train

        cfg, oracle, dataset = env
        variant = PolicyVariant.REINA_TAN
        report = train(oracle, dataset, PolicyConfig.for_variant(variant, cfg.feature_dim, hidden_dims=(16,)),
                       TrainConfig(variant=variant, steps=20, batch_size=32, rng_seed=4), LossWeights())
        scores, _ = score_info_gain_grid(oracle, report.params, dataset)
        return oracle, dataset, report.params, [float(a) for a in np.quantile(scores, [0.2, 0.5, 0.8])]

    def test_policy_keeps_its_decisions(self, trained, stream):
        oracle, dataset, params, alphas = trained
        pristine = params.copy()
        policies = [ThresholdPolicy(oracle, params, a) for a in alphas]
        self.perturb(params)
        changed = False
        for alpha, policy in zip(alphas, policies):
            for utt in dataset:
                got = emission_log_to_json(simulate(oracle, utt, policy, stream))
                assert got == emission_log_to_json(simulate(oracle, utt, ThresholdPolicy(oracle, pristine, alpha),
                                                             stream)), utt.id
                changed |= got != emission_log_to_json(
                    simulate(oracle, utt, ThresholdPolicy(oracle, params, alpha), stream))
        assert changed  # the update moves decisions, so a policy that followed it would show

    def test_sweep_in_progress_keeps_its_decisions(self, trained, stream, monkeypatch):
        oracle, dataset, params, alphas = trained
        want = sweep(oracle, params.copy(), dataset, alphas, stream, collect_logs=True)
        calls = []

        def simulate_then_update(*args):
            log = simulate(*args)
            calls.append(log)
            if len(calls) == len(dataset):  # the first alpha is done
                self.perturb(params)
            return log

        monkeypatch.setattr(streaming, "simulate", simulate_then_update)
        got = sweep(oracle, params, dataset, alphas, stream, collect_logs=True)
        assert len(calls) == len(dataset) * len(alphas)
        assert got == want
