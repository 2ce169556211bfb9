import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulgain.errors import ConfigError
from simulgain.policy import PolicyConfig, PolicyVariant, init_params
from simulgain.synth import (
    DatasetIndex,
    OracleModel,
    SynthConfig,
    Utterance,
    _hash_standard_normal,
    generate_dataset,
    load_dataset,
    oracle_states,
    save_dataset,
    utterance_to_json,
)
from simulgain.training import TrainConfig, sample_batch, score_info_gain_grid


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


@pytest.fixture
def config():
    return SynthConfig(rng_seed=7)


@pytest.fixture
def oracle(config):
    return OracleModel(config)


@pytest.fixture
def dataset(config):
    return generate_dataset(config, 10)


def make_utterance(boundaries, duration, ambiguous=None, tokens=None, uid="fix"):
    n = len(boundaries)
    return Utterance(
        id=uid,
        duration_s=duration,
        target_tokens=tokens if tokens is not None else list(range(1, n + 1)),
        boundaries_s=boundaries,
        ambiguous_mask=ambiguous if ambiguous is not None else [False] * n,
    )


class TestConfigValidation:
    def test_bad_probability_order(self):
        with pytest.raises(ConfigError, match="p_min"):
            SynthConfig(p_min=0.9, p_max=0.1)

    def test_bad_token_range(self):
        with pytest.raises(ConfigError, match="tokens_per_utt_range"):
            SynthConfig(tokens_per_utt_range=(0, 4))

    def test_bad_ramp(self):
        with pytest.raises(ConfigError, match="ramp_s"):
            SynthConfig(ramp_s=0.0)

    def test_bad_jitter(self):
        with pytest.raises(ConfigError, match="gap_jitter_s"):
            SynthConfig(mean_token_gap_s=0.5, gap_jitter_s=0.6)

    def test_count_must_be_positive(self, config):
        with pytest.raises(ConfigError, match="count"):
            generate_dataset(config, 0)


class TestGeneration:
    def test_deterministic_given_seed(self, config):
        first = generate_dataset(config, 10)
        second = generate_dataset(config, 10)
        assert [utterance_to_json(u) for u in first] == [utterance_to_json(u) for u in second]

    def test_degenerate_token_range(self):
        cfg = SynthConfig(tokens_per_utt_range=(1, 1), rng_seed=3)
        assert all(u.n_tokens == 1 for u in generate_dataset(cfg, 20))

    def test_zero_jitter_boundaries(self):
        cfg = SynthConfig(mean_token_gap_s=1.0, gap_jitter_s=0.0,
                          tokens_per_utt_range=(3, 3), rng_seed=0)
        utt = generate_dataset(cfg, 1)[0]
        np.testing.assert_allclose(utt.boundaries_s, [1.0, 2.0, 3.0], atol=1e-12)
        assert utt.duration_s >= 3.0

    def test_invariants_hold(self, dataset):
        for u in dataset:
            assert np.all(np.diff(u.boundaries_s) > 0)
            assert 0 < u.boundaries_s[0] and u.boundaries_s[-1] <= u.duration_s
            assert u.n_tokens == len(u.boundaries_s) == len(u.ambiguous_mask)

    def test_ambiguity_recorded_at_generation(self):
        cfg = SynthConfig(ambiguity_prob=0.5, rng_seed=11)
        ds = generate_dataset(cfg, 30)
        flags = np.concatenate([u.ambiguous_mask for u in ds])
        assert 0.2 < flags.mean() < 0.8


# -- the next-token distribution written out from the kernel ------------------

def correct_token_prob(oracle, utt, t_s, n):
    """Probability the oracle puts on the correct pending token n at time t_s."""
    return float(oracle_states(oracle.config, [t_s], utt.boundaries_s[[n]])[0][0])


def logprob(oracle, utt, t_s, n):
    """Full next-token log-probability vector: log p on the target, log((1 - p) / (V - 1)) elsewhere."""
    p = correct_token_prob(oracle, utt, t_s, n)
    vocab = oracle.config.vocab_size
    out = np.full(vocab, math.log((1.0 - p) / (vocab - 1)))
    out[int(utt.target_tokens[n])] = math.log(p)
    return out


class TestCorrectTokenProb:
    def test_at_boundary_is_midpoint(self, oracle, dataset):
        utt = dataset[0]
        cfg = oracle.config
        got = correct_token_prob(oracle, utt, float(utt.boundaries_s[0]), 0)
        assert got == pytest.approx(cfg.p_min + (cfg.p_max - cfg.p_min) * 0.5, abs=1e-12)

    def test_saturates_toward_p_max(self):
        cfg = SynthConfig(ramp_s=0.05, rng_seed=0)
        oracle = OracleModel(cfg)
        utt = make_utterance([1.0], 10.0)
        t = 1.0 + 20 * cfg.ramp_s
        assert correct_token_prob(oracle, utt, t, 0) == pytest.approx(cfg.p_max, abs=1e-6)

    def test_derived_value(self):
        # p_min + (p_max - p_min) * sigmoid(1) computed directly
        cfg = SynthConfig(p_min=0.1, p_max=0.9, ramp_s=0.5, rng_seed=0)
        oracle = OracleModel(cfg)
        utt = make_utterance([2.0], 10.0)
        expected = 0.1 + 0.8 * sigmoid(1.0)
        assert expected == pytest.approx(0.6848, abs=1e-4)
        assert correct_token_prob(oracle, utt, 2.5, 0) == pytest.approx(expected, abs=1e-12)

    def test_increasing_until_float_saturation(self, oracle, dataset):
        utt = dataset[1]
        grid = oracle.frame_grid(utt)
        probs = np.array([correct_token_prob(oracle, utt, float(t), 0) for t in grid])
        diffs = np.diff(probs)
        assert np.all(diffs >= 0)
        # strict increase wherever the ramp is still resolvable in float64
        unsaturated = probs[:-1] < oracle.config.p_max - 1e-9
        assert np.all(diffs[unsaturated] > 0)

    def test_index_error(self, oracle, dataset):
        for view in (oracle.features, oracle.greedy_token, oracle.true_info_gain):
            with pytest.raises(IndexError):
                view(dataset[0], 1.0, dataset[0].n_tokens)


class TestLogprob:
    def test_normalizes(self, oracle, dataset):
        rng = np.random.default_rng(0)
        for _ in range(20):
            utt = dataset[int(rng.integers(len(dataset)))]
            t = float(rng.uniform(0, utt.duration_s))
            n = int(rng.integers(utt.n_tokens))
            assert np.exp(logprob(oracle, utt, t, n)).sum() == pytest.approx(1.0, abs=1e-9)

    def test_full_audio_entry_matches_prob(self, oracle, dataset):
        utt = dataset[2]
        lp = logprob(oracle, utt, utt.duration_s, 1)
        expected = math.log(correct_token_prob(oracle, utt, utt.duration_s, 1))
        assert lp[int(utt.target_tokens[1])] == pytest.approx(expected, abs=1e-12)

    def test_binary_vocab_vector(self):
        cfg = SynthConfig(vocab_size=2, p_min=0.1, p_max=0.9, ramp_s=0.5, rng_seed=0)
        oracle = OracleModel(cfg)
        utt = make_utterance([2.0], 10.0, tokens=[1])
        lp = logprob(oracle, utt, 2.5, 0)
        p = 0.1 + 0.8 * sigmoid(1.0)
        np.testing.assert_allclose(lp, [math.log(1 - p), math.log(p)], atol=1e-12)

    def test_argmax_is_correct_token_when_prob_beats_uniform(self, oracle, dataset):
        utt = dataset[3]
        for n in range(utt.n_tokens):
            t = utt.duration_s
            assert correct_token_prob(oracle, utt, t, n) > 1 / oracle.config.vocab_size
            assert oracle.greedy_token(utt, t, n) == int(utt.target_tokens[n])


def argmax_token(oracle, utt, t_s, n):
    """The greedy decode as first written: argmax of the full log-probability vector."""
    return int(np.argmax(logprob(oracle, utt, t_s, n)))


@st.composite
def decode_cases(draw):
    """An oracle, an utterance and (time, token) states, ties included."""
    if draw(st.booleans()):  # the tie config: at t = t*, p = 0.25 = (1 - p) / 3
        cfg = SynthConfig(vocab_size=4, p_min=0.1, p_max=0.4, noise_std=draw(st.sampled_from([0.0, 0.3])))
    else:
        p_min = draw(st.floats(1e-4, 0.5))
        cfg = SynthConfig(vocab_size=draw(st.sampled_from([2, 3, 4, 50])), p_min=p_min,
                          p_max=draw(st.floats(p_min + 1e-3, 0.999)), ramp_s=draw(st.floats(0.05, 1.0)),
                          noise_std=draw(st.sampled_from([0.0, 0.3])), rng_seed=draw(st.integers(0, 2**31)))
    n_tok = draw(st.integers(1, 6))
    boundaries = np.cumsum(draw(st.lists(st.floats(0.05, 1.5), min_size=n_tok, max_size=n_tok)))
    duration = float(boundaries[-1]) + draw(st.floats(0.0, 1.0))
    token = st.one_of(st.just(0), st.integers(0, cfg.vocab_size - 1))
    utt = make_utterance(boundaries, duration, tokens=draw(st.lists(token, min_size=n_tok, max_size=n_tok)))
    time = st.one_of(st.floats(0.0, duration), st.sampled_from([float(b) for b in boundaries]), st.just(duration))
    states = draw(st.lists(st.tuples(time, st.integers(0, n_tok - 1)), min_size=1, max_size=12))
    return OracleModel(cfg), utt, [t for t, _ in states], [n for _, n in states]


class TestGreedyTokens:
    @settings(max_examples=300, deadline=None)
    @given(case=decode_cases())
    def test_matches_argmax_of_logprob(self, case):
        oracle, utt, times, tokens = case
        want = [argmax_token(oracle, utt, t, n) for t, n in zip(times, tokens)]
        assert oracle.greedy_tokens(utt, times, tokens) == want
        assert [oracle.greedy_token(utt, t, n) for t, n in zip(times, tokens)] == want
        every = np.arange(utt.n_tokens)
        assert oracle.greedy_tokens(utt, utt.duration_s, every) == [
            argmax_token(oracle, utt, utt.duration_s, n) for n in every]

    @pytest.mark.parametrize("target", [0, 1, 3])
    def test_exact_tie_decodes_token_zero(self, target):
        oracle = OracleModel(SynthConfig(vocab_size=4, p_min=0.1, p_max=0.4))
        utt = make_utterance([1.0], 2.0, tokens=[target])
        p = correct_token_prob(oracle, utt, 1.0, 0)
        assert p == 0.25 and math.log(p) == math.log((1.0 - p) / 3)
        assert oracle.greedy_tokens(utt, [1.0], [0]) == [0] == [argmax_token(oracle, utt, 1.0, 0)]

    def test_losing_target_decodes_lowest_other_id(self):
        oracle = OracleModel(SynthConfig(vocab_size=4, p_min=0.1, p_max=0.4))
        utt = make_utterance([1.0, 1.5], 2.0, tokens=[0, 2])
        assert oracle.greedy_tokens(utt, [0.0, 0.0], [0, 1]) == [1, 0]
        assert oracle.greedy_tokens(utt, [2.0, 2.0], [0, 1]) == [0, 2]

    def test_greedy_token_checks_its_state(self, oracle, dataset):
        utt = dataset[0]
        with pytest.raises(IndexError):
            oracle.greedy_token(utt, 1.0, utt.n_tokens)
        with pytest.raises(ValueError):
            oracle.greedy_token(utt, utt.duration_s + 1.0, 0)


class TestInfoGain:
    def test_zero_at_full_audio(self, oracle, dataset):
        for utt in dataset[:3]:
            for n in range(utt.n_tokens):
                assert oracle.true_info_gain(utt, utt.duration_s, n) == 0.0

    def test_nonnegative_and_nonincreasing(self, oracle, dataset):
        utt = dataset[4]
        grid = oracle.frame_grid(utt)
        for n in range(utt.n_tokens):
            gains = [oracle.true_info_gain(utt, float(t), n) for t in grid]
            assert min(gains) >= 0.0
            assert np.all(np.diff(gains) <= 1e-15)

    def test_derived_regression_value(self):
        cfg = SynthConfig(p_min=0.1, p_max=0.9, ramp_s=0.5, rng_seed=0)
        oracle = OracleModel(cfg)
        utt = make_utterance([2.0], 10.0)
        p_full = 0.1 + 0.8 * sigmoid((10.0 - 2.0) / 0.5)
        p_now = 0.1 + 0.8 * sigmoid(-1.0)
        expected = math.log(p_full) - math.log(p_now)
        assert oracle.true_info_gain(utt, 1.5, 0) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(case=decode_cases())
def test_views_equal_one_element_batches(case):
    # features, greedy_token and true_info_gain check their state, then call
    # their batched kernel on one element: nothing may differ, not even a bit
    oracle, utt, times, tokens = case
    for t, n in zip(times, tokens):
        np.testing.assert_array_equal(oracle.features(utt, t, n), oracle.features_many(utt, [t], [n])[0])
        assert oracle.greedy_token(utt, t, n) == oracle.greedy_tokens(utt, [t], [n])[0]
        gain = oracle.true_info_gain(utt, t, n)
        assert type(gain) is float and gain == oracle.info_gain_many(utt, [t], [n])[0]
    np.testing.assert_array_equal(oracle.info_gain_many(utt, times, tokens),
                                  [oracle.true_info_gain(utt, t, n) for t, n in zip(times, tokens)])


class TestFeatures:
    def test_deterministic(self):
        cfg = SynthConfig(noise_std=0.3, rng_seed=9)
        oracle = OracleModel(cfg)
        utt = generate_dataset(cfg, 1)[0]
        a = oracle.features(utt, 1.0, 0)
        b = oracle.features(utt, 1.0, 0)
        np.testing.assert_array_equal(a, b)

    def test_ambiguous_token_has_zero_evidence(self, config):
        oracle = OracleModel(config)
        utt = make_utterance([1.0, 2.0], 4.0, ambiguous=[False, True])
        for t in (0.5, 1.5, 3.0, 4.0):
            feats = oracle.features(utt, t, 1)
            parts = feats @ oracle.mixing_matrix.T  # orthogonal mixer inverts exactly
            assert parts[-2] == pytest.approx(0.0, abs=1e-12)

    def test_evidence_half_at_boundary(self, config):
        oracle = OracleModel(config)
        utt = make_utterance([1.0, 2.0], 4.0)
        parts = oracle.features(utt, 2.0, 1) @ oracle.mixing_matrix.T
        assert parts[-2] == pytest.approx(0.5, abs=1e-12)
        assert parts[-1] == pytest.approx(0.5, abs=1e-12)  # relative position 1/2

    def test_noise_changes_with_state_but_not_call(self):
        cfg = SynthConfig(noise_std=0.5, rng_seed=9)
        oracle = OracleModel(cfg)
        utt = generate_dataset(cfg, 1)[0]
        e1, e2, e3 = (oracle.features(utt, t, 0) @ oracle.mixing_matrix.T for t in (1.0, 1.05, 1.0))
        assert e1[-2] == e3[-2]
        assert e1[-2] != e2[-2]

    def test_batched_matches_single(self, oracle, dataset):
        utt = dataset[6]
        ts = np.array([0.5, 1.0, utt.duration_s])
        ns = np.array([0, 1, utt.n_tokens - 1])
        many = oracle.features_many(utt, ts, ns)
        for row, (t, n) in zip(many, zip(ts, ns)):
            np.testing.assert_allclose(row, oracle.features(utt, float(t), int(n)), atol=1e-15)


class TestWriteBoundary:
    def test_infinite_threshold_writes_immediately(self, oracle, dataset):
        assert oracle.write_boundary(dataset[0], 0, float("inf")) == 0.0

    def test_zero_threshold_waits_for_full_audio(self, oracle, dataset):
        utt = dataset[0]
        assert oracle.write_boundary(utt, 0, 0.0) == pytest.approx(utt.duration_s, abs=oracle.config.frame_s)

    def test_linear_scan_matches_bisection(self, oracle, dataset):
        # independent search: gain is nonincreasing, so bisect the grid
        utt = dataset[7]
        grid = oracle.frame_grid(utt)
        for n in range(utt.n_tokens):
            for threshold in (0.01, 0.05, 0.2, 1.0):
                lo, hi = 0, len(grid) - 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    if oracle.true_info_gain(utt, float(grid[mid]), n) <= threshold:
                        hi = mid
                    else:
                        lo = mid + 1
                assert oracle.write_boundary(utt, n, threshold) == float(grid[lo])

    def test_negative_threshold_rejected(self, oracle, dataset):
        for threshold in (-0.1, math.nan):
            with pytest.raises(ConfigError):
                oracle.write_boundary(dataset[0], 0, threshold)


class TestSerialization:
    def test_round_trip(self, dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(dataset)
        for a, b in zip(dataset, loaded):
            assert a.id == b.id and a.aligned == b.aligned
            assert a.duration_s == b.duration_s
            np.testing.assert_array_equal(a.target_tokens, b.target_tokens)
            np.testing.assert_array_equal(a.boundaries_s, b.boundaries_s)
            np.testing.assert_array_equal(a.ambiguous_mask, b.ambiguous_mask)

    def test_byte_determinism(self, config, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate_dataset(config, 5), p1)
        save_dataset(generate_dataset(config, 5), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_field_names(self, dataset):
        import json

        record = json.loads(utterance_to_json(dataset[0]))
        assert set(record) == {"id", "duration_s", "tokens", "boundaries_s", "ambiguous", "aligned"}


def test_frame_grid_ends_exactly_at_duration(oracle, dataset):
    for utt in dataset:
        grid = oracle.frame_grid(utt)
        assert grid[-1] == utt.duration_s
        assert grid[0] == 0.0


# -- the oracle written out by hand --------------------------------------------
# Sampling, grid scoring and the per-state views all call one kernel, so
# comparing them with each other checks only indexing.  These tests compare
# each of them with the closed form instead.

def closed_form(cfg, utt, t, n):
    """(probability, evidence) of token n at time t, from the formulas."""
    ramp = sigmoid((t - float(utt.boundaries_s[n])) / cfg.ramp_s)
    prob = cfg.p_min + (cfg.p_max - cfg.p_min) * ramp
    evidence = 0.0 if utt.ambiguous_mask[n] else ramp
    if cfg.noise_std > 0:
        key = int.from_bytes(hashlib.blake2s(utt.id.encode("utf-8"), digest_size=8).digest(), "little")
        frame = round(t / cfg.frame_s)
        evidence += cfg.noise_std * float(_hash_standard_normal(cfg.rng_seed, key, frame, n))
    return prob, evidence


@st.composite
def oracle_cases(draw):
    """A config (noise on or off) and an utterance whose duration need not be whole frames."""
    cfg = SynthConfig(noise_std=draw(st.sampled_from([0.0, 0.4])), ramp_s=draw(st.floats(0.05, 1.0)),
                      rng_seed=draw(st.integers(0, 2**31)))
    n_tok = draw(st.integers(1, 5))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n_tok, max_size=n_tok))
    boundaries = np.cumsum(gaps)
    utt = Utterance(id=draw(st.text(min_size=1, max_size=8)),
                    duration_s=float(boundaries[-1]) + draw(st.floats(0.0, 1.0)),
                    target_tokens=draw(st.lists(st.integers(0, cfg.vocab_size - 1), min_size=n_tok, max_size=n_tok)),
                    boundaries_s=boundaries,
                    ambiguous_mask=draw(st.lists(st.booleans(), min_size=n_tok, max_size=n_tok)))
    return cfg, utt


def evidence_of(oracle, features):
    return (features @ oracle.mixing_matrix.T)[..., -2]  # the mixer is orthogonal


class TestKernelAgainstClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(case=oracle_cases(), data=st.data())
    def test_per_state_views(self, case, data):
        cfg, utt = case
        oracle = OracleModel(cfg)
        t = data.draw(st.floats(0.0, utt.duration_s))
        n = data.draw(st.integers(0, utt.n_tokens - 1))
        prob, evidence = closed_form(cfg, utt, t, n)
        full, _ = closed_form(cfg, utt, utt.duration_s, n)
        assert correct_token_prob(oracle, utt, t, n) == pytest.approx(prob, rel=1e-12, abs=1e-15)
        assert oracle.true_info_gain(utt, t, n) == pytest.approx(math.log(full) - math.log(prob), abs=1e-12)
        assert evidence_of(oracle, oracle.features(utt, t, n)) == pytest.approx(evidence, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(case=oracle_cases())
    def test_exhaustive_batch_and_grid(self, case):
        cfg, utt = case
        oracle = OracleModel(cfg)
        batch = sample_batch(DatasetIndex([utt], oracle), TrainConfig(batch_size=64), np.random.default_rng(0))
        params = init_params(PolicyConfig.for_variant(PolicyVariant.REINA, cfg.feature_dim, hidden_dims=(8,)), 0)
        _, gains = score_info_gain_grid(oracle, params, [utt])  # frame-major, one row of tokens per frame
        frames = np.searchsorted(oracle.frame_grid(utt), batch.t_audio)
        for i, (t, n) in enumerate(zip(batch.t_audio.tolist(), batch.token_index.tolist())):
            prob, evidence = closed_form(cfg, utt, t, n)
            full, _ = closed_form(cfg, utt, utt.duration_s, n)
            n_next = min(n + 1, utt.n_tokens - 1)
            assert math.exp(batch.label_partial_logp[i]) == pytest.approx(prob, rel=1e-12)
            assert math.exp(batch.label_full_logp[i]) == pytest.approx(full, rel=1e-12)
            assert evidence_of(oracle, batch.features[i]) == pytest.approx(evidence, abs=1e-12)
            assert evidence_of(oracle, batch.features_next[i]) == pytest.approx(
                closed_form(cfg, utt, t, n_next)[1], abs=1e-12)
            assert gains[frames[i] * utt.n_tokens + n] == pytest.approx(math.log(full) - math.log(prob), abs=1e-12)
