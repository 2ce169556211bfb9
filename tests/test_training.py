import math

import numpy as np
import pytest

from simulgain import streaming, training
from simulgain.errors import ConfigError, NumericError
from simulgain.losses import LossWeights, align_target, total_loss, total_loss_grad
from simulgain.policy import (
    PolicyConfig,
    PolicyVariant,
    backward_from_cache,
    forward,
    forward_batch,
    forward_with_cache,
    init_params,
    time_embedding,
)
from simulgain.streaming import ThresholdPolicy
from simulgain.synth import DatasetIndex, OracleModel, SynthConfig, Utterance, generate_dataset, oracle_states
from simulgain.training import (
    TrainConfig,
    grad_check,
    sample_batch,
    score_info_gain_grid,
    train,
    write_training_csv,
)


@pytest.fixture(scope="module")
def env():
    cfg = SynthConfig(rng_seed=21, tokens_per_utt_range=(3, 6))
    return cfg, OracleModel(cfg), generate_dataset(cfg, 8)


GRID_SYNTH = SynthConfig(rng_seed=3, tokens_per_utt_range=(2, 2), mean_token_gap_s=0.4, gap_jitter_s=0.0)


def drawn_states(dataset, batch):
    """The (utterance, token) of each batch row: the one pending token whose boundary is the row's ``t_star``."""
    states = []
    for t_star in batch.t_star.tolist():
        matches = [(utt, n) for utt in dataset for n in range(utt.n_tokens) if utt.boundaries_s[n] == t_star]
        assert len(matches) == 1, f"boundary {t_star} names {len(matches)} tokens"
        states.append(matches[0])
    return states


def policy_config(variant, cfg):
    return PolicyConfig.for_variant(variant, input_dim=cfg.feature_dim, hidden_dims=(16, 16))


class TestSampleBatch:
    def test_deterministic_given_seed(self, env):
        cfg, oracle, dataset = env
        tc = TrainConfig(batch_size=32, rng_seed=4)
        index = DatasetIndex(dataset, oracle)
        a = sample_batch(index, tc, np.random.default_rng(9))
        b = sample_batch(index, tc, np.random.default_rng(9))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.t_audio, b.t_audio)
        np.testing.assert_array_equal(a.label_partial_logp, b.label_partial_logp)

    def test_draws_are_pinned(self, env):
        # the utterance, token and frame draws, in that order, that every training run depends on
        cfg, oracle, dataset = env
        batch = sample_batch(DatasetIndex(dataset, oracle), TrainConfig(batch_size=8), np.random.default_rng(3))
        assert [n for _, n in drawn_states(dataset, batch)] == [0, 1, 1, 0, 2, 0, 2, 2]
        assert np.rint(batch.t_audio / cfg.frame_s).astype(int).tolist() == [47, 41, 53, 69, 20, 71, 77, 26]

    def test_full_audio_never_beats_partial(self, env):
        cfg, oracle, dataset = env
        tc = TrainConfig(batch_size=512)
        batch = sample_batch(DatasetIndex(dataset, oracle), tc, np.random.default_rng(1))
        assert np.all(batch.label_full_logp >= batch.label_partial_logp)

    def test_label_noise_perturbs_only_partial_labels(self, env):
        cfg, oracle, dataset = env
        index = DatasetIndex(dataset, oracle)
        clean = sample_batch(index, TrainConfig(batch_size=64, rng_seed=3), np.random.default_rng(3))
        noisy = sample_batch(index, TrainConfig(batch_size=64, rng_seed=3, label_noise_std=0.5),
                             np.random.default_rng(3))
        np.testing.assert_array_equal(clean.label_full_logp, noisy.label_full_logp)
        np.testing.assert_array_equal(clean.features, noisy.features)
        assert np.all(clean.label_partial_logp != noisy.label_partial_logp)
        # seeded: same config and rng seed reproduce the same noise
        again = sample_batch(index, TrainConfig(batch_size=64, rng_seed=3, label_noise_std=0.5),
                             np.random.default_rng(3))
        np.testing.assert_array_equal(noisy.label_partial_logp, again.label_partial_logp)

    @pytest.mark.parametrize("utt", [
        generate_dataset(GRID_SYNTH, 1)[0],
        # 2.03 s is not a whole number of 50 ms frames: the grid ends at T itself
        Utterance("partial_last_frame", 2.03, [1, 2], [0.5, 1.4], [False, False]),
    ], ids=lambda utt: utt.id)
    def test_uniform_draws_cover_frame_grid(self, utt):
        batch = sample_batch(DatasetIndex([utt], OracleModel(GRID_SYNTH)), TrainConfig(batch_size=4096),
                             np.random.default_rng(0))
        assert len(batch) == 4096
        frame = GRID_SYNTH.frame_s
        grid = [j * frame for j in range(math.ceil(utt.duration_s / frame - 1e-9))] + [utt.duration_s]
        seen = {(round(float(t), 6), n) for t, (_, n) in zip(batch.t_audio, drawn_states([utt], batch))}
        assert seen == {(round(t, 6), n) for t in grid for n in range(utt.n_tokens)}
        assert utt.duration_s in batch.t_audio

    def test_labels_match_oracle_pointwise(self, env):
        cfg, oracle, dataset = env
        tc = TrainConfig(batch_size=16)
        index = DatasetIndex(dataset, oracle)
        batch = sample_batch(index, tc, np.random.default_rng(5))
        assert batch.features.shape == batch.features_next.shape == (len(batch), cfg.feature_dim)
        assert batch.aligned.dtype == bool and batch.aligned.all()
        for i, (utt, n) in enumerate(drawn_states(dataset, batch)):
            t = float(batch.t_audio[i])
            p_now, p_full = oracle_states(cfg, [t, utt.duration_s], utt.boundaries_s[[n, n]])[0]
            assert np.exp(batch.label_partial_logp[i]) == pytest.approx(p_now, abs=1e-12)
            assert np.exp(batch.label_full_logp[i]) == pytest.approx(p_full, abs=1e-12)
            np.testing.assert_allclose(batch.features[i], oracle.features(utt, t, n), rtol=0, atol=1e-12)
            n_next = min(n + 1, utt.n_tokens - 1)
            np.testing.assert_allclose(batch.features_next[i], oracle.features(utt, t, n_next), rtol=0, atol=1e-12)
            assert batch.next_valid[i] == (n + 1 < utt.n_tokens)

    @pytest.mark.parametrize("rows", [2, 3, 16, 37, 256])
    def test_stacked_mixing_matches_separate_products(self, env, rows):
        # sample_batch mixes both token views in one product of 2 * rows rows
        cfg, oracle, _ = env
        rng = np.random.default_rng(rows)
        parts = (rng.integers(0, cfg.vocab_size, 2 * rows), rng.random(2 * rows), rng.random(2 * rows))
        stacked = oracle.mix_features(*parts)
        for half in (slice(0, rows), slice(rows, 2 * rows)):
            separate = oracle.mix_features(*(p[half] for p in parts))
            assert separate.tobytes() == stacked[half].tobytes()


class TestTrain:
    def test_smoke_progress_on_tiny_dataset(self, env):
        cfg, oracle, _ = env
        dataset = generate_dataset(cfg, 2)
        pc = policy_config(PolicyVariant.REINA, cfg)
        tc = TrainConfig(steps=500, batch_size=64, rng_seed=0)
        report = train(oracle, dataset, pc, tc, LossWeights())
        first = np.mean([r.loss_cov for r in report.records[:20]])
        last = np.mean([r.loss_cov for r in report.records[-20:]])
        assert last < first

    def test_deterministic(self, env):
        cfg, oracle, dataset = env
        pc = policy_config(PolicyVariant.REINA_TAN, cfg)
        tc = TrainConfig(variant=PolicyVariant.REINA_TAN, steps=30, batch_size=16, rng_seed=7)
        a = train(oracle, dataset, pc, tc, LossWeights())
        b = train(oracle, dataset, pc, tc, LossWeights())
        np.testing.assert_array_equal(a.params.theta, b.params.theta)
        assert [r.loss_total for r in a.records] == [r.loss_total for r in b.records]

    def test_record_count_matches_steps(self, env):
        cfg, oracle, dataset = env
        pc = policy_config(PolicyVariant.REINA, cfg)
        tc = TrainConfig(steps=13, batch_size=8, rng_seed=1)
        report = train(oracle, dataset, pc, tc, LossWeights())
        assert len(report.records) == 13
        assert all(np.isfinite(r.loss_total) for r in report.records)

    def test_san_with_unaligned_data_has_zero_align_term(self, env):
        cfg, oracle, dataset = env
        unaligned = [type(u)(id=u.id, duration_s=u.duration_s, target_tokens=u.target_tokens,
                             boundaries_s=u.boundaries_s, ambiguous_mask=u.ambiguous_mask,
                             aligned=False) for u in dataset]
        pc = policy_config(PolicyVariant.REINA_SAN, cfg)
        tc = TrainConfig(variant=PolicyVariant.REINA_SAN, steps=20, batch_size=16, rng_seed=3)
        with pytest.warns(UserWarning, match="zero aligned"):
            report = train(oracle, unaligned, pc, tc, LossWeights())
        assert all(r.loss_align == 0.0 for r in report.records)

    def test_reina_ignores_alignment_arguments(self, env):
        # lambda_align > 0 and aligned data: the variants without alignment supervision train no alignment term
        cfg, oracle, dataset = env
        assert all(u.aligned for u in dataset)
        for variant in (PolicyVariant.REINA, PolicyVariant.REINA_TAN):
            pc = policy_config(variant, cfg)
            tc = TrainConfig(variant=variant, steps=10, batch_size=16, rng_seed=3)
            report = train(oracle, dataset, pc, tc, LossWeights(lambda_align=5.0))
            assert all(r.loss_align == 0.0 for r in report.records)

    def test_variant_config_mismatch_rejected(self, env):
        cfg, oracle, dataset = env
        pc = policy_config(PolicyVariant.REINA, cfg)
        tc = TrainConfig(variant=PolicyVariant.REINA_TAN, steps=1)
        with pytest.raises(ConfigError):
            train(oracle, dataset, pc, tc, LossWeights())

    def test_nonfinite_loss_aborts_with_diagnostic(self, env):
        cfg, oracle, dataset = env
        pc = policy_config(PolicyVariant.REINA, cfg)
        tc = TrainConfig(steps=5, batch_size=16, rng_seed=0)
        with pytest.raises(ConfigError, match="lambda_l2: must be finite"):
            LossWeights(lambda_l2=math.inf)
        weights = LossWeights()
        object.__setattr__(weights, "lambda_l2", math.inf)  # past the setting check, to reach train's own
        with pytest.raises(NumericError, match="l2 loss at step 0"):
            train(oracle, dataset, pc, tc, weights)

    def test_csv_round_trip(self, env, tmp_path):
        cfg, oracle, dataset = env
        pc = policy_config(PolicyVariant.REINA, cfg)
        tc = TrainConfig(steps=3, batch_size=8, rng_seed=1)
        report = train(oracle, dataset, pc, tc, LossWeights())
        path = tmp_path / "training.csv"
        write_training_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss_total,loss_cov,loss_mono,loss_l2,loss_align,grad_norm"
        assert len(lines) == 4


def reference_train(oracle, dataset, pc, tc, weights):
    """The training loop assembled from public pieces, one parameter array at a time.

    The optimizer is the recipe's AdamW written out: learning rate 1e-3 after
    a 100-step linear warmup, betas (0.9, 0.999), eps 1e-8, weight decay 1e-4.
    Returns the CSV values of every step and the final parameter vector.
    """
    index = DatasetIndex(dataset, oracle)
    params = init_params(pc, [tc.rng_seed, 0x51])
    rng = np.random.default_rng([tc.rng_seed, 0x52])
    arrays = [*params.weights, *params.biases]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    beta1, beta2 = 0.9, 0.999
    use_mono = weights.lambda_mono > 0
    rows = []
    for step in range(tc.steps):
        batch = sample_batch(index, tc, rng)
        scores, cache = forward_with_cache(params, batch.features, batch.t_audio)
        scores_next = cache_next = None
        if use_mono:
            scores_next, cache_next = forward_with_cache(params, batch.features_next, batch.t_audio)
        targets = mask = None
        if tc.variant.uses_alignment_loss:
            mask = batch.aligned & np.isfinite(batch.t_star)
            star = np.where(mask, batch.t_star, 0.0)
            targets = np.where(mask, align_target(batch.t_audio, star, weights.tau), 0.0)
        args = dict(q_next=scores_next, next_valid=batch.next_valid if use_mono else None,
                    align_targets=targets, align_mask=mask, objective=tc.objective)
        _, bd = total_loss(scores, batch.labels, weights, **args)
        dq, dq_next = total_loss_grad(scores, batch.labels, weights, **args)
        pending = backward_from_cache(params, cache, dq)
        grads = [*pending.weights, *pending.biases]
        if dq_next is not None:
            adjacent = backward_from_cache(params, cache_next, dq_next)
            grads = [g + e for g, e in zip(grads, [*adjacent.weights, *adjacent.biases])]
        grad_norm = float(np.sqrt(np.square(np.concatenate([g.ravel() for g in grads])).sum()))
        lr = 1e-3 * min(1.0, (step + 1) / 100)
        c1 = 1.0 - beta1 ** (step + 1)
        c2 = 1.0 - beta2 ** (step + 1)
        for target, grad, m_i, v_i in zip(arrays, grads, m, v):
            m_i *= beta1
            m_i += (1.0 - beta1) * grad
            v_i *= beta2
            v_i += (1.0 - beta2) * grad * grad
            target -= lr * ((m_i / c1) / (np.sqrt(v_i / c2) + 1e-8) + 1e-4 * target)
        rows.append((step, bd["total"], bd["cov"], bd["mono"], bd["l2"], bd["align"], grad_norm))
    return rows, params.theta


class TestFusedStep:
    @pytest.fixture(scope="class")
    def noisy_env(self):
        # the last utterance's 2.03 s is not a whole number of 50 ms frames,
        # so its last frame time T is off the grid every other frame lies on
        cfg = SynthConfig(rng_seed=23, tokens_per_utt_range=(3, 6), noise_std=0.3, ambiguity_prob=0.3,
                          aligned_prob=0.7)
        odd = Utterance("odd", 2.03, [4, 9, 2], [0.5, 1.4, 1.95], [False, True, False])
        return OracleModel(cfg), generate_dataset(cfg, 7) + [odd]

    @pytest.mark.parametrize("batch_size", [None, 24, 5, 2])
    @pytest.mark.parametrize("lambda_mono", [0.0, 0.1])
    @pytest.mark.parametrize("objective", ["cov", "mse"])
    @pytest.mark.parametrize("variant", list(PolicyVariant))
    def test_train_matches_reference_byte_for_byte(self, noisy_env, variant, objective, lambda_mono, batch_size):
        # None is TrainConfig's default batch size; 2 is the smallest legal batch
        sizing = {} if batch_size is None else {"batch_size": batch_size}
        self.check_against_reference(noisy_env, TrainConfig(variant=variant, steps=30, rng_seed=4, objective=objective,
                                                            label_noise_std=0.2, **sizing), lambda_mono)

    def test_train_matches_reference_past_warmup(self, noisy_env):
        # the learning rate reaches its plateau at step 99 and holds it to step 119
        self.check_against_reference(noisy_env, TrainConfig(variant=PolicyVariant.REINA_ALL, steps=120, batch_size=24,
                                                            rng_seed=4, label_noise_std=0.2), 0.1)

    @staticmethod
    def check_against_reference(noisy_env, tc, lambda_mono):
        oracle, dataset = noisy_env
        pc = PolicyConfig.for_variant(tc.variant, oracle.config.feature_dim, hidden_dims=(16, 12))
        weights = LossWeights(lambda_mono=lambda_mono)
        report = train(oracle, dataset, pc, tc, weights)
        rows, theta = reference_train(oracle, dataset, pc, tc, weights)
        got = [(r.step, r.loss_total, r.loss_cov, r.loss_mono, r.loss_l2, r.loss_align, r.grad_norm)
               for r in report.records]
        assert repr(got) == repr(rows)
        assert report.params.theta.tobytes() == theta.tobytes()


    def test_time_table_rows_equal_direct_embedding(self, noisy_env):
        oracle, dataset = noisy_env
        index = DatasetIndex(dataset, oracle)
        pc = PolicyConfig.for_variant(PolicyVariant.REINA_TAN, oracle.config.feature_dim)
        head = training._FlatHead(init_params(pc, 0), index.flat_times, 2, PolicyVariant.REINA_TAN, LossWeights(),
                                  "cov")
        times = np.unique(index.flat_times)
        assert 2.03 in times and times.shape[0] < index.flat_times.shape[0]
        for t in times:
            direct = time_embedding(np.array([t]), pc.input_dim, pc.time_base)
            assert head.embedding(np.array([t])).tobytes() == direct.tobytes()
        shuffled = np.random.default_rng(0).permutation(index.flat_times)
        direct = time_embedding(shuffled, pc.input_dim, pc.time_base)
        assert head.embedding(shuffled).tobytes() == direct.tobytes()

    @pytest.mark.parametrize("hidden", [(64, 64), (16, 12)])
    @pytest.mark.parametrize("use_time", [False, True])
    def test_buffered_passes_match_allocating_passes(self, hidden, use_time):
        pc = PolicyConfig(input_dim=16, hidden_dims=hidden, use_time_embedding=use_time)
        params = init_params(pc, 3)
        rng = np.random.default_rng(7)
        layer_shapes = [pc.input_dim if use_time else None, *hidden]
        for rows in range(2, 301):
            feats = rng.standard_normal((rows, 16))
            times = rng.uniform(0.0, 20.0, rows)
            upstream = rng.standard_normal(rows)
            scores, cache = forward_with_cache(params, feats, times)
            grads = backward_from_cache(params, cache, upstream)
            # stale buffers: every entry must be overwritten
            acts = [None if w is None else np.full((rows, w), np.nan) for w in layer_shapes]
            b_scores, b_cache = forward_with_cache(params, feats, times, out=acts)
            b_grads = backward_from_cache(params, b_cache, upstream)
            assert b_scores.tobytes() == scores.tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(cache, b_cache))
            assert all(b is a for a, b in zip(acts[1:], b_cache[1:]))
            assert b_grads.theta.tobytes() == grads.theta.tobytes()


class TestGradCheck:
    @pytest.mark.parametrize("variant", list(PolicyVariant))
    def test_all_variants_within_tolerance(self, variant):
        pc = PolicyConfig.for_variant(variant, input_dim=16, hidden_dims=(12, 12))
        assert grad_check(pc, LossWeights(), variant, seed=11) <= 1e-4

    def test_mse_objective(self):
        pc = PolicyConfig.for_variant(PolicyVariant.REINA, input_dim=16, hidden_dims=(12, 12))
        assert grad_check(pc, LossWeights(), PolicyVariant.REINA, seed=11, objective="mse") <= 1e-4

    @pytest.mark.parametrize("variant", list(PolicyVariant))
    def test_checks_the_training_gradient(self, env, variant, monkeypatch):
        # a 1% error in the fused loss gradient must show in grad_check and in
        # train, with the monotonicity view on and off
        cfg, oracle, dataset = env
        pc = PolicyConfig.for_variant(variant, input_dim=16, hidden_dims=(12, 12))
        tc = TrainConfig(variant=variant, steps=2, batch_size=16, rng_seed=1)
        fused = training.loss_and_grad

        def skewed(*args, **kwargs):
            total, breakdown, dq, dq_next = fused(*args, **kwargs)
            return total, breakdown, 1.01 * dq, dq_next

        for weights in (LossWeights(), LossWeights(lambda_mono=0.0)):
            clean = train(oracle, dataset, pc, tc, weights).params.theta
            with monkeypatch.context() as patch:
                patch.setattr(training, "loss_and_grad", skewed)
                assert grad_check(pc, weights, variant, seed=11) > 1e-4
                skewed_params = train(oracle, dataset, pc, tc, weights).params.theta
            assert skewed_params.tobytes() != clean.tobytes()

    @pytest.mark.parametrize("variant", list(PolicyVariant))
    def test_trains_and_checks_the_same_terms(self, env, variant, monkeypatch):
        # train and grad_check run one step, so both build alignment targets
        # exactly for the variants that train the alignment term
        cfg, oracle, dataset = env
        pc = PolicyConfig.for_variant(variant, input_dim=16, hidden_dims=(12, 12))
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return align_target(*args, **kwargs)

        monkeypatch.setattr(training, "align_target", recording)
        train(oracle, dataset, pc, TrainConfig(variant=variant, steps=3, batch_size=16, rng_seed=1), LossWeights())
        trained, calls[:] = len(calls), []
        assert grad_check(pc, LossWeights(), variant, seed=11, n_coords=5) <= 1e-4
        expected = variant in (PolicyVariant.REINA_SAN, PolicyVariant.REINA_ALL)
        assert trained == (3 if expected else 0)
        assert (len(calls) > 0) == expected

    def test_seed_stable(self):
        pc = PolicyConfig.for_variant(PolicyVariant.REINA_ALL, input_dim=16)
        a = grad_check(pc, LossWeights(), PolicyVariant.REINA_ALL, seed=5)
        b = grad_check(pc, LossWeights(), PolicyVariant.REINA_ALL, seed=5)
        assert a == b

    def test_zero_network_l2_gradient_vanishes(self):
        # with all-zero weights the scores are identically 0, so the L2 term
        # contributes a zero upstream and the chained gradient is exactly zero
        pc = PolicyConfig.for_variant(PolicyVariant.REINA, input_dim=16)
        params = init_params(pc, 0)
        for w in params.weights:
            w[:] = 0.0
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((8, 16))
        times = rng.uniform(0, 5, 8)
        scores = np.zeros(8)
        upstream = 2.0 * scores / 8
        _, cache = forward_with_cache(params, feats, times)
        assert np.all(backward_from_cache(params, cache, upstream).theta == 0)


def test_score_grid_matches_pointwise(monkeypatch):
    # each frame's grid scores are, bit for bit, the row a ThresholdPolicy fills at that time
    # (a loop over the variants rather than a parameter keeps the test's id)
    cfg = SynthConfig(rng_seed=21, tokens_per_utt_range=(1, 5), noise_std=0.3, ambiguity_prob=0.3)
    oracle, dataset = OracleModel(cfg), generate_dataset(cfg, 8)
    assert min(u.n_tokens for u in dataset) == 1
    filled = []

    def recording_forward_batch(params, features, t_audio):
        filled.append(forward_batch(params, features, t_audio))
        return filled[-1]

    monkeypatch.setattr(streaming, "forward_batch", recording_forward_batch)
    for variant in PolicyVariant:
        params = init_params(PolicyConfig.for_variant(variant, cfg.feature_dim, hidden_dims=(16,)), 1)
        scores, gains = score_info_gain_grid(oracle, params, dataset)
        filled.clear()
        policy = ThresholdPolicy(oracle, params, 0.0)
        for utt in dataset:
            for t_s in oracle.frame_grid(utt).tolist():
                policy.wants_read(utt, t_s, 0, 1)
        np.testing.assert_array_equal(scores, np.concatenate(filled), err_msg=variant.value)
        assert gains.min() >= 0.0

        utt = dataset[0]
        got = forward(params, oracle.features(utt, 0.0, 0), 0.0)
        assert scores[0] == pytest.approx(got, abs=1e-12)
