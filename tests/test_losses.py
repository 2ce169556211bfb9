import math

import numpy as np
import pytest

from simulgain.errors import BatchError, ShapeError
from simulgain.losses import (
    LossWeights,
    align_target,
    batch_normalize,
    bce_align_loss,
    cov_loss,
    l2_loss,
    mse_label_loss,
    total_loss,
    total_loss_grad,
)


class TestBatchNormalize:
    def test_hand_fixture(self):
        # population std of [1, 2, 3] is sqrt(2/3)
        got = batch_normalize([1.0, 2.0, 3.0])
        np.testing.assert_allclose(got, [-1.22474, 0.0, 1.22474], atol=1e-4)

    def test_constant_batch_maps_to_zeros(self):
        np.testing.assert_array_equal(batch_normalize([5.0, 5.0, 5.0]), [0.0, 0.0, 0.0])

    def test_unit_std_output(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(500) * 3.0 + 7.0
        out = batch_normalize(v, epsilon=1e-12)
        assert out.mean() == pytest.approx(0.0, abs=1e-9)
        assert out.std() == pytest.approx(1.0, abs=1e-6)

    def test_needs_two_values(self):
        with pytest.raises(BatchError):
            batch_normalize([1.0])


class TestCovLoss:
    def test_zero_scores(self):
        assert cov_loss(np.zeros(4), [1.0, 2.0, 3.0, 4.0]) == 0.0

    def test_hand_fixture(self):
        # BN([2, 0]) = [1, -1], so the mean product with [1, -1] is 1
        assert cov_loss([1.0, -1.0], [2.0, 0.0]) == pytest.approx(1.0, abs=1e-4)

    def test_affine_invariance_of_labels(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal(32)
        labels = rng.standard_normal(32)
        base = cov_loss(q, labels, epsilon=1e-9)
        for a, b in ((2.0, 0.0), (0.5, 3.0), (10.0, -7.0)):
            assert cov_loss(q, a * labels + b, epsilon=1e-9) == pytest.approx(base, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cov_loss([1.0, 2.0], [1.0, 2.0, 3.0])


def mono_term(q, q_next, next_valid=None, lambda_mono=0.1):
    """The weighted monotonicity hinge of the combined objective, alone."""
    weights = LossWeights(lambda_mono=lambda_mono, lambda_l2=0.0, lambda_align=0.0)
    q = np.asarray(q, dtype=np.float64)
    return total_loss(q, np.arange(q.shape[0], dtype=np.float64), weights,
                      q_next=q_next, next_valid=next_valid)[1]["mono"]


class TestMonoLoss:
    """The pairwise hinge: score q of a pending token against q_next of the next one."""

    def test_nondecreasing_is_free(self):
        assert mono_term([0.1, 0.2, 0.2], [0.2, 0.2, 0.9]) == 0.0

    def test_hand_fixture(self):
        assert mono_term([0.5, 0.0], [0.2, 1.0], [True, False], lambda_mono=0.1) == pytest.approx(0.1 * 0.3)

    def test_single_element(self):
        # the last token of an utterance has no next token to compare with
        assert mono_term([4.2, 0.0], [-1.0, 0.0], [False, False]) == 0.0

    def test_zero_iff_nondecreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q, q_next = rng.standard_normal(6), rng.standard_normal(6)
            valid = rng.random(6) < 0.7
            assert (mono_term(q, q_next, valid) == 0.0) == bool(np.all((q <= q_next)[valid]))


class TestL2Loss:
    def test_zeros(self):
        assert l2_loss(np.zeros(5)) == 0.0

    def test_hand_fixture(self):
        assert l2_loss([3.0, 4.0]) == pytest.approx(12.5)

    def test_quadratic_scaling(self):
        q = np.array([0.3, -1.2, 2.0])
        assert l2_loss(3.0 * q) == pytest.approx(9.0 * l2_loss(q))


class TestAlignTarget:
    def test_half_at_boundary(self):
        assert align_target(2.0, 2.0, 0.5) == pytest.approx(0.5)

    def test_saturates_past_boundary(self):
        assert align_target(7.0, 2.0, 0.5) < 1e-4

    def test_derived_sigma_one(self):
        assert align_target(1.5, 2.0, 0.5) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
        assert align_target(1.5, 2.0, 0.5) == pytest.approx(0.7311, abs=1e-4)

    def test_monotone_in_both_arguments(self):
        times = np.linspace(0, 5, 40)
        vals = align_target(times, 2.5, 0.5)
        assert np.all(np.diff(vals) < 0)
        stars = np.linspace(0, 5, 40)
        vals = align_target(2.5, stars, 0.5)
        assert np.all(np.diff(vals) > 0)


class TestBceAlignLoss:
    def test_log_two_fixture(self):
        assert bce_align_loss([0.0], [0.5]) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_saturated_correct(self):
        assert bce_align_loss([20.0], [1.0]) < 1e-8

    def test_mask_drops_entries(self):
        full = bce_align_loss([1.3], [0.2])
        masked = bce_align_loss([1.3, -50.0], [0.2, 1.0], mask=[True, False])
        assert masked == pytest.approx(full, abs=1e-12)

    def test_all_masked_returns_zero(self):
        assert bce_align_loss([1.0, 2.0], [0.5, 0.5], mask=[False, False]) == 0.0

    @pytest.mark.parametrize("target", [0.1, 0.5, 0.9])
    def test_minimized_at_logit_of_target(self, target):
        grid = np.linspace(-6, 6, 2401)
        losses = [bce_align_loss([float(g)], [target]) for g in grid]
        best = grid[int(np.argmin(losses))]
        assert best == pytest.approx(math.log(target / (1 - target)), abs=0.01)


class TestMseLabelLoss:
    def test_perfect_fit(self):
        q = np.array([0.1, -2.0, 3.0])
        assert mse_label_loss(q, q) == 0.0

    def test_hand_fixture(self):
        assert mse_label_loss([0.0, 0.0], [1.0, -1.0]) == pytest.approx(1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert mse_label_loss(rng.standard_normal(8), rng.standard_normal(8)) >= 0.0


class TestTotalLoss:
    def test_zero_weights_reduce_to_cov(self):
        weights = LossWeights(lambda_mono=0.0, lambda_l2=0.0, lambda_align=0.0)
        rng = np.random.default_rng(4)
        q = rng.standard_normal(8)
        labels = rng.standard_normal(8)
        total, _ = total_loss(q, labels, weights)
        assert total == pytest.approx(cov_loss(q, labels, weights.bn_epsilon), abs=1e-15)

    def test_zero_network_san_reduces_to_bce(self):
        weights = LossWeights(lambda_mono=0.1, lambda_l2=0.01, lambda_align=1.0)
        q = np.zeros(4)
        labels = np.array([1.0, 2.0, 0.5, 0.2])
        targets = np.array([0.5, 0.5, 0.5, 0.5])
        total, breakdown = total_loss(q, labels, weights, align_targets=targets)
        assert breakdown["cov"] == 0.0 and breakdown["l2"] == 0.0
        assert total == pytest.approx(math.log(2.0), abs=1e-9)

    def test_breakdown_sums_to_total(self):
        weights = LossWeights()
        rng = np.random.default_rng(5)
        q = rng.standard_normal(12)
        total, bd = total_loss(
            q, rng.standard_normal(12), weights,
            q_next=rng.standard_normal(12), next_valid=rng.random(12) < 0.8,
            align_targets=rng.uniform(0, 1, 12), align_mask=rng.random(12) < 0.5)
        assert bd["cov"] + bd["mono"] + bd["l2"] + bd["align"] == pytest.approx(total, abs=1e-12)

    def test_san_with_nothing_aligned_flags_empty_term(self):
        weights = LossWeights()
        rng = np.random.default_rng(6)
        q = rng.standard_normal(6)
        total, bd = total_loss(q, rng.standard_normal(6), weights,
                               align_targets=np.full(6, 0.5), align_mask=np.zeros(6, dtype=bool))
        assert bd["align"] == 0.0
        assert bd["align_active"] == 0.0

    def test_mse_objective_regresses_onto_the_gain(self):
        # labels are partial-minus-full; a score equal to the gain is a perfect fit
        weights = LossWeights(lambda_mono=0.0, lambda_l2=0.0)
        labels = np.array([-2.0, -0.5, 0.0, -1.0])
        total, bd = total_loss(-labels, labels, weights, objective="mse")
        assert bd["cov"] == 0.0
        worse, _ = total_loss(labels, labels, weights, objective="mse")
        assert worse > 0.0

    def test_grad_matches_finite_differences_on_q(self):
        # independent oracle: central differences of total_loss w.r.t. each q_i
        weights = LossWeights()
        rng = np.random.default_rng(8)
        n = 10
        q = rng.standard_normal(n)
        q_next = rng.standard_normal(n)
        labels = rng.standard_normal(n)
        valid = rng.random(n) < 0.7
        targets = rng.uniform(0.1, 0.9, n)
        mask = rng.random(n) < 0.6
        for align_targets in (None, targets):
            for objective in ("cov", "mse"):
                kwargs = dict(q_next=q_next, next_valid=valid, align_targets=align_targets,
                              align_mask=mask, objective=objective)
                dq, dqn = total_loss_grad(q, labels, weights, **kwargs)
                h = 1e-6
                for i in range(n):
                    qp, qm = q.copy(), q.copy()
                    qp[i] += h
                    qm[i] -= h
                    hi, _ = total_loss(qp, labels, weights, **kwargs)
                    lo, _ = total_loss(qm, labels, weights, **kwargs)
                    assert dq[i] == pytest.approx((hi - lo) / (2 * h), abs=1e-6)
                    np_, nm = q_next.copy(), q_next.copy()
                    np_[i] += h
                    nm[i] -= h
                    hi, _ = total_loss(q, labels, weights, **{**kwargs, "q_next": np_})
                    lo, _ = total_loss(q, labels, weights, **{**kwargs, "q_next": nm})
                    assert dqn[i] == pytest.approx((hi - lo) / (2 * h), abs=1e-6)
