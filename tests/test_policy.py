import math

import numpy as np
import pytest

from simulgain.errors import ConfigError, ShapeError
from simulgain.policy import (
    PolicyConfig,
    PolicyParams,
    PolicyVariant,
    backward_from_cache,
    forward,
    forward_batch,
    forward_with_cache,
    init_params,
    load_params,
    save_params,
    time_embedding,
)

DIM = 16


def zeroed(params: PolicyParams) -> PolicyParams:
    out = params.copy()
    out.theta[:] = 0.0
    return out


@pytest.fixture(params=list(PolicyVariant))
def variant(request):
    return request.param


@pytest.fixture
def params(variant):
    config = PolicyConfig.for_variant(variant, input_dim=DIM, hidden_dims=(8, 8))
    return init_params(config, seed=5)


class TestTimeEmbedding:
    def test_zero_time_alternates(self):
        np.testing.assert_array_equal(time_embedding(0.0, 8), [0, 1, 0, 1, 0, 1, 0, 1])

    def test_two_dim_quarter_period(self):
        # exponent 2i/d is 0 for the only pair, so the divisor is 1
        emb = time_embedding(math.pi / 2, 2, base=100.0)
        assert emb[0] == pytest.approx(1.0, abs=1e-6)
        assert emb[1] == pytest.approx(0.0, abs=1e-6)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        emb = time_embedding(rng.uniform(0, 1000.0, 50), 12)
        assert np.all(np.abs(emb) <= 1.0)

    def test_base_changes_slow_components(self):
        small = time_embedding(5.0, 8, base=100.0)
        large = time_embedding(5.0, 8, base=10000.0)
        np.testing.assert_allclose(small[:2], large[:2], atol=1e-12)  # i = 0 has no base
        assert np.max(np.abs(small[2:] - large[2:])) > 1e-3

    def test_componentwise_periodicity(self):
        d, base = 8, 100.0
        t = 3.7
        a = time_embedding(t, d, base)
        for i in range(d // 2):
            period = 2 * math.pi * base ** (2 * i / d)
            b = time_embedding(t + period, d, base)
            assert b[2 * i] == pytest.approx(a[2 * i], abs=1e-9)
            assert b[2 * i + 1] == pytest.approx(a[2 * i + 1], abs=1e-9)

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            time_embedding(1.0, 7)


class TestConfig:
    def test_tan_requires_matching_embed_dim(self):
        # the encoding is input_dim wide and added to the features before the first layer
        tan = init_params(PolicyConfig(input_dim=DIM, hidden_dims=(8,), use_time_embedding=True, time_base=50.0), 4)
        plain = PolicyParams(PolicyConfig(input_dim=DIM, hidden_dims=(8,)), tan.theta)
        feats = np.random.default_rng(9).standard_normal((3, DIM))
        times = np.array([0.0, 1.5, 9.0])
        np.testing.assert_array_equal(forward_batch(tan, feats, times),
                                      forward_batch(plain, feats + time_embedding(times, DIM, 50.0), times))

    def test_tan_requires_even_input(self):
        with pytest.raises(ConfigError, match="even"):
            PolicyConfig(input_dim=15, use_time_embedding=True)

    def test_base_must_exceed_one(self):
        with pytest.raises(ConfigError, match="time_base"):
            PolicyConfig(input_dim=16, time_base=1.0)

    def test_variant_wiring(self):
        assert PolicyConfig.for_variant(PolicyVariant.REINA_TAN, 16).use_time_embedding
        assert not PolicyConfig.for_variant(PolicyVariant.REINA_SAN, 16).use_time_embedding
        assert PolicyVariant.REINA_SAN.uses_alignment_loss
        assert PolicyVariant.REINA_ALL.uses_alignment_loss and PolicyVariant.REINA_ALL.uses_time_embedding


class TestForward:
    def test_zero_weights_give_zero(self, params):
        z = zeroed(params)
        rng = np.random.default_rng(1)
        assert forward(z, rng.standard_normal(DIM), 3.0) == 0.0

    def test_reina_ignores_time_exactly(self):
        config = PolicyConfig.for_variant(PolicyVariant.REINA, DIM)
        p = init_params(config, 2)
        feats = np.random.default_rng(3).standard_normal(DIM)
        assert forward(p, feats, 0.5) == forward(p, feats, 17.0)

    def test_tan_depends_on_time(self):
        config = PolicyConfig.for_variant(PolicyVariant.REINA_TAN, DIM)
        p = init_params(config, 2)
        feats = np.random.default_rng(3).standard_normal(DIM)
        assert forward(p, feats, 0.5) != forward(p, feats, 17.0)

    def test_batch_of_one_matches_forward(self, params):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal(DIM)
        got = forward_batch(params, feats[None, :], np.array([2.5]))
        assert got.shape == (1,)
        assert got[0] == forward(params, feats, 2.5)

    def test_batch_is_order_preserving(self, params):
        # BLAS kernels may differ in the last ulp across row orders
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((6, DIM))
        times = rng.uniform(0, 10, 6)
        base = forward_batch(params, feats, times)
        perm = rng.permutation(6)
        np.testing.assert_allclose(forward_batch(params, feats[perm], times[perm]), base[perm],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [1, 5])
    def test_stack_scores_each_batch_as_alone(self, params, rows):
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((4, rows, DIM))
        times = rng.uniform(0, 10, (4, rows))
        stacked = forward_batch(params, feats, times)
        assert stacked.shape == (4, rows)
        for f in range(4):
            np.testing.assert_array_equal(stacked[f], forward_batch(params, feats[f], times[f]))

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 3, 1), ()])
    def test_time_shape_must_be_the_batch_shape(self, shape):
        p = init_params(PolicyConfig.for_variant(PolicyVariant.REINA_TAN, DIM), 0)
        with pytest.raises(ShapeError, match="t_audio"):
            forward_batch(p, np.zeros((2, 3, DIM)), np.zeros(shape))

    def test_empty_batch(self, params):
        assert forward_batch(params, np.empty((0, DIM)), np.empty(0)).shape == (0,)

    def test_dimension_mismatch(self, params):
        with pytest.raises(ShapeError):
            forward_batch(params, np.zeros((2, DIM + 1)), np.zeros(2))

    def test_seeded_batch_regression(self, params, variant):
        rng = np.random.default_rng(100)
        feats = rng.standard_normal((64, DIM))
        times = rng.uniform(0, 12, 64)
        first = forward_batch(params, feats, times)
        second = forward_batch(params, feats, times)
        np.testing.assert_array_equal(first, second)
        assert np.all(np.isfinite(first))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, params):
        rng = np.random.default_rng(6)
        _, cache = forward_with_cache(params, rng.standard_normal((4, DIM)), rng.uniform(0, 5, 4))
        grad = backward_from_cache(params, cache, np.zeros(4))
        assert grad.config == params.config
        assert np.all(grad.theta == 0)

    def test_matches_finite_differences(self, params, variant):
        # independent oracle: central differences of sum(c * scores) over theta
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((5, DIM))
        times = rng.uniform(0, 10, 5)
        contract = rng.standard_normal(5)
        _, cache = forward_with_cache(params, feats, times)
        analytic = backward_from_cache(params, cache, contract).theta
        theta = params.theta
        h = 1e-5
        coords = rng.choice(theta.shape[0], size=100, replace=False)
        for c in coords:
            bumped = theta.copy()
            bumped[c] += h
            hi = float(contract @ forward_batch(PolicyParams(params.config, bumped), feats, times))
            bumped[c] -= 2 * h
            lo = float(contract @ forward_batch(PolicyParams(params.config, bumped), feats, times))
            numeric = (hi - lo) / (2 * h)
            assert abs(analytic[c] - numeric) <= max(1e-6, 1e-4 * max(abs(analytic[c]), abs(numeric)))

    def test_upstream_shape_checked(self, params):
        _, cache = forward_with_cache(params, np.zeros((3, DIM)), np.zeros(3))
        with pytest.raises(ShapeError):
            backward_from_cache(params, cache, np.zeros(4))


class TestSerialization:
    def test_round_trip_outputs_identical(self, params, tmp_path, variant):
        path = tmp_path / "p.ckpt"
        save_params(params, path, extra={"variant": variant.value})
        loaded, extra = load_params(path)
        assert extra == {"variant": variant.value}
        assert loaded.config == params.config
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((10, DIM))
        times = rng.uniform(0, 8, 10)
        np.testing.assert_array_equal(forward_batch(loaded, feats, times),
                                      forward_batch(params, feats, times))

    def test_resave_is_byte_identical(self, params, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_params(params, p1)
        loaded, _ = load_params(p1)
        save_params(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_vector_round_trip(params):
    back = PolicyParams(params.config, params.theta.copy())
    assert back.theta.tobytes() == params.theta.tobytes()
    for a, b in zip(back.weights + back.biases, params.weights + params.biases):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert params.theta.shape[0] == sum(w.size for w in params.weights) + sum(b.size for b in params.biases)


class TestOneVector:
    def test_views_write_through_to_theta(self, params):
        n_weights = sum(w.size for w in params.weights)
        params.weights[0][0, 1] = 7.0
        assert params.theta[1] == 7.0
        params.biases[0][2] = -3.0
        assert params.theta[n_weights + 2] == -3.0
        params.theta[-1] = 0.25
        assert params.biases[-1][0] == 0.25

    def test_copy_shares_nothing(self, params):
        before = params.theta.tobytes()
        twin = params.copy()
        assert twin.theta.tobytes() == before
        assert not any(np.shares_memory(a, b) for a in (params.theta, *params.weights, *params.biases)
                       for b in (twin.theta, *twin.weights, *twin.biases))
        twin.theta += 1.0
        for w in twin.weights:
            w[...] = 5.0
        assert params.theta.tobytes() == before

    @pytest.mark.parametrize("shape", [(216,), (218,), (1, 217)], ids=["short", "long", "matrix"])
    def test_vector_of_another_shape_is_shape_error(self, shape):
        config = PolicyConfig(input_dim=DIM, hidden_dims=(8, 8))  # 16*8 + 8*8 + 8*1 weights, 8 + 8 + 1 biases
        PolicyParams(config, np.zeros(217))
        with pytest.raises(ShapeError, match="theta"):
            PolicyParams(config, np.zeros(shape))

    @pytest.mark.parametrize("hidden", [(8, 8), (64, 64), (5,)])
    @pytest.mark.parametrize("seed", [5, [7, 0x51]])
    def test_init_is_a_per_layer_uniform_draw(self, variant, hidden, seed):
        # the reference draws each layer's weights as its own array, as a head held them before it was one vector
        config = PolicyConfig.for_variant(variant, input_dim=DIM, hidden_dims=hidden)
        rng = np.random.default_rng(seed)
        dims = config.layer_dims
        weights = [rng.uniform(-1.0 / math.sqrt(a), 1.0 / math.sqrt(a), size=(a, b))
                   for a, b in zip(dims[:-1], dims[1:])]
        params = init_params(config, seed)
        assert [w.tobytes() for w in params.weights] == [w.tobytes() for w in weights]
        assert all(b.shape == (width,) and not b.any() for b, width in zip(params.biases, dims[1:]))
        flat = np.concatenate([*(w.ravel() for w in weights), np.zeros(sum(dims[1:]))])
        assert params.theta.tobytes() == flat.tobytes()

    def test_backward_writes_into_out(self, params):
        rng = np.random.default_rng(12)
        _, cache = forward_with_cache(params, rng.standard_normal((4, DIM)), rng.uniform(0, 5, 4))
        upstream = rng.standard_normal(4)
        out = PolicyParams(params.config, np.full_like(params.theta, np.nan))
        assert backward_from_cache(params, cache, upstream, out=out) is out
        assert out.theta.tobytes() == backward_from_cache(params, cache, upstream).theta.tobytes()
