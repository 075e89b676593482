"""Partition agreement, Gram deviation and the benchmark pipeline."""

import math

import numpy as np
import pytest

from edrep.errors import DimensionError, ValidationError
from edrep.evaluate import community_pipeline, deviation_ct, nmi
from edrep.graphs import DcsbmParams, dcsbm_sample
from edrep.mixture import LabelVector
from edrep.optimizer import OptimizerConfig


class TestNmi:
    def test_identical_partitions_score_one(self):
        labels = np.array([1, 2, 3, 1, 2, 3, 3])
        assert nmi(labels, labels) == 1.0

    def test_constant_partition_scores_zero(self):
        assert nmi(np.array([1, 1, 2, 2]), np.ones(4)) == 0.0

    def test_six_point_hand_computed_value(self):
        """Oracle: the contingency table [[2, 1], [1, 2]] worked out by
        hand gives MI = (2/3)ln(4/3) + (1/3)ln(2/3) over entropy ln 2."""
        a = np.array([1, 1, 1, 2, 2, 2])
        b = np.array([1, 1, 2, 2, 2, 1])
        expected = ((2 / 3) * math.log(4 / 3) + (1 / 3) * math.log(2 / 3)) / math.log(2)
        assert nmi(a, b) == pytest.approx(expected, abs=1e-10)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(0)
        a = rng.integers(1, 5, 200)
        b = rng.integers(1, 4, 200)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-14)

    def test_invariant_under_label_permutations(self):
        rng = np.random.default_rng(1)
        a = rng.integers(1, 5, 300)
        b = rng.integers(1, 5, 300)
        perm = np.array([3, 4, 1, 2])
        assert nmi(a, b) == pytest.approx(nmi(perm[a - 1], b), abs=1e-12)

    def test_invariant_under_consistent_index_permutation(self):
        rng = np.random.default_rng(8)
        a = rng.integers(1, 4, 250)
        b = rng.integers(1, 6, 250)
        order = rng.permutation(250)
        assert nmi(a[order], b[order]) == pytest.approx(nmi(a, b), abs=1e-13)

    def test_accepts_label_vectors(self):
        lv = LabelVector(np.array([1, 2, 1, 2]), 2)
        assert nmi(lv, lv) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            nmi(np.ones(3), np.ones(4))

    def test_empty_partitions_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            nmi(np.array([]), np.array([]))

    def test_two_single_class_partitions_score_one(self):
        assert nmi(np.ones(5), np.full(5, 3)) == 1.0


class TestDeviationCt:
    def test_identical_trajectories_are_exactly_zero(self):
        rng = np.random.default_rng(2)
        traj = [rng.standard_normal((20, 4)) for _ in range(5)]
        np.testing.assert_array_equal(deviation_ct(traj, traj), np.zeros(5))

    def test_orthogonal_rotations_are_invisible(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((25, 6))
        R, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        ct = deviation_ct([X], [X @ R])
        assert ct[0] <= 1e-10

    def test_matches_direct_gram_computation(self):
        """Oracle: materialize both 30 x 30 Gram matrices and take the
        Frobenius norm of their difference."""
        rng = np.random.default_rng(4)
        for _ in range(5):
            X = rng.standard_normal((30, 5))
            Y = rng.standard_normal((30, 5))
            direct = np.linalg.norm(X @ X.T - Y @ Y.T, "fro") / 30
            np.testing.assert_allclose(deviation_ct([X], [Y])[0], direct, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            deviation_ct([np.zeros((3, 2))], [np.zeros((4, 2))])
        with pytest.raises(DimensionError):
            deviation_ct([np.zeros((3, 2))], [])

    @pytest.mark.parametrize(
        "X, match",
        [
            (np.array([[1.0, np.nan], [0.0, 1.0]]), "epoch 1 iterate of X_traj contains non-finite"),
            (np.zeros((0, 2)), "epoch 1: iterates have no rows"),
        ],
        ids=["nan", "no-rows"],
    )
    def test_unusable_iterates_rejected(self, X, match):
        """Not a silent 0.0 from max(0.0, nan), nor a NaN with a warning."""
        ok = np.eye(2)
        with pytest.raises(ValidationError, match=match):
            deviation_ct([ok, X], [ok, np.zeros_like(X)])


class TestCommunityPipeline:
    CFG = OptimizerConfig(d=16, eta0=0.7, n_epochs=15, kappa=1, seed=0)

    def test_easy_homogeneous_instance_is_recovered(self):
        inst = dcsbm_sample(
            DcsbmParams(n=600, q=3, c=12.0, alpha=3.0, theta_recipe="unit", seed=5)
        )
        score, wall = community_pipeline(inst, 3, self.CFG)
        assert score > 0.8
        assert wall > 0.0

    def test_deterministic_given_seed(self):
        inst = dcsbm_sample(
            DcsbmParams(n=400, q=2, c=10.0, alpha=2.5, theta_recipe="unit", seed=6)
        )
        a, _ = community_pipeline(inst, 3, self.CFG)
        b, _ = community_pipeline(inst, 3, self.CFG)
        assert a == b
