"""Clustering labels and per-class moment estimation."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrep import mixture
from edrep.errors import ValidationError
from edrep.mixture import (
    LabelVector,
    MixtureParams,
    _block_cuts,
    _class_means,
    class_moments,
    estimate_mixture,
    kmeans_label,
    singleton_mixture,
)


# Reference k-means: the per-class masked-mean Lloyd iteration that
# ``kmeans_label`` must reproduce label for label.  An empty class steals
# the point farthest from its centroid among classes with two or more
# members, so no repair empties another class.


def reference_kmeans(Y, kappa, seed, max_iter=100, restarts=1):
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(max(1, restarts)):
        labels, _, inertia = _reference_lloyd(Y, kappa, rng, max_iter)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels + 1


def _reference_sq_dists(Y, centers):
    d2 = (
        np.sum(Y * Y, axis=1)[:, None]
        - 2.0 * (Y @ centers.T)
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _reference_plus_plus_centers(Y, k, rng):
    n = Y.shape[0]
    centers = np.empty((k, Y.shape[1]))
    centers[0] = Y[rng.integers(n)]
    d2 = _reference_sq_dists(Y, centers[:1]).ravel()
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[c] = Y[idx]
        d2 = np.minimum(d2, _reference_sq_dists(Y, centers[c : c + 1]).ravel())
    return centers


def _reference_lloyd(Y, k, rng, max_iter):
    n = Y.shape[0]
    centers = _reference_plus_plus_centers(Y, k, rng)
    labels = None
    for _ in range(max_iter):
        dists = _reference_sq_dists(Y, centers)
        new = np.argmin(dists, axis=1)
        counts = np.bincount(new, minlength=k)
        if np.any(counts == 0):
            own = dists[np.arange(n), new].copy()
            for j in np.flatnonzero(counts == 0):
                movable = np.flatnonzero(counts[new] >= 2)
                far = int(movable[np.argmax(own[movable])])
                counts[new[far]] -= 1
                counts[j] += 1
                new[far] = j
        if labels is not None and np.array_equal(labels, new):
            labels = new
            break
        labels = new
        for j in range(k):
            centers[j] = Y[labels == j].mean(axis=0)
    centers = np.vstack([Y[labels == j].mean(axis=0) for j in range(k)])
    inertia = float(np.sum((Y - centers[labels]) ** 2))
    return labels, centers, inertia


class TestLabelVector:
    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValidationError):
            LabelVector(np.array([0, 1, 2]), 2)
        with pytest.raises(ValidationError):
            LabelVector(np.array([1, 3]), 2)

    def test_rejects_empty_classes(self):
        with pytest.raises(ValidationError, match="empty"):
            LabelVector(np.array([1, 1, 3]), 3)

    @pytest.mark.parametrize(
        "labels, kappa, match",
        [
            (np.array([], dtype=np.int64), 1, "nonempty vector"),
            (np.array([1, 1]), 0, "kappa=0 must lie between 1 and the 2 rows"),
        ],
        ids=["empty", "kappa-zero"],
    )
    def test_rejects_malformed_vectors(self, labels, kappa, match):
        with pytest.raises(ValidationError, match=match):
            LabelVector(labels, kappa)

    @pytest.mark.parametrize(
        "labels, match",
        [
            (np.array([1.5, 2.7, 1.0]), "whole numbers"),
            (np.array([1.0, np.nan]), "whole numbers"),
            (np.array([1.0, np.inf]), "whole numbers"),
            (np.array([1 + 1j, 2]), "real numbers"),
            (np.array([True, True]), "real numbers"),
        ],
        ids=["fractions", "nan", "inf", "complex", "bool"],
    )
    def test_rejects_labels_that_are_not_whole_real_numbers(self, labels, match):
        """The int64 cast would truncate 1.5 to 1 and turn NaN into a number."""
        with pytest.raises(ValidationError, match=match):
            LabelVector(labels, 2)

    def test_whole_float_labels_become_integers(self):
        lv = LabelVector(np.array([2.0, 1.0, 2.0]), 2)
        assert lv.labels.dtype == np.int64
        np.testing.assert_array_equal(lv.labels, [2, 1, 2])

    def test_counts(self):
        lv = LabelVector(np.array([1, 2, 2, 3]), 3)
        np.testing.assert_array_equal(lv.counts(), [1, 2, 1])


class TestKmeansLabel:
    def test_single_class_labels_everything_one(self):
        Y = np.random.default_rng(0).standard_normal((11, 3))
        lv = kmeans_label(Y, 1, seed=0)
        np.testing.assert_array_equal(lv.labels, np.ones(11))

    def test_separates_two_far_clouds(self):
        rng = np.random.default_rng(1)
        a = np.array([10.0, 0.0, 0.0]) + 0.1 * rng.standard_normal((20, 3))
        b = np.array([-10.0, 0.0, 0.0]) + 0.1 * rng.standard_normal((20, 3))
        lv = kmeans_label(np.vstack([a, b]), 2, seed=3)
        first, second = lv.labels[:20], lv.labels[20:]
        assert len(set(first)) == 1 and len(set(second)) == 1
        assert first[0] != second[0]

    def test_near_optimal_against_exhaustive_assignments(self):
        """Oracle: enumerate all 2^8 two-cluster assignments of 8 points
        and compare within-cluster sums of squares."""
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((8, 2))

        def wcss(assign):
            total = 0.0
            for c in (0, 1):
                block = Y[np.array(assign) == c]
                if block.size:
                    total += np.sum((block - block.mean(axis=0)) ** 2)
            return total

        best = min(
            wcss(assign)
            for assign in itertools.product((0, 1), repeat=8)
            if 0 < sum(assign) < 8
        )
        lv = kmeans_label(Y, 2, seed=2, restarts=10)
        achieved = wcss(lv.labels - 1)
        assert achieved <= best * 1.05

    def test_deterministic_given_seed(self):
        Y = np.random.default_rng(7).standard_normal((40, 4))
        a = kmeans_label(Y, 3, seed=9)
        b = kmeans_label(Y, 3, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_duplicate_points_still_fill_every_class(self):
        # Only two distinct locations but three requested clusters: the
        # empty-cluster repair must keep all classes populated.
        Y = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        lv = kmeans_label(Y, 3, seed=0)
        assert lv.counts().min() >= 1

    def test_kappa_bounds(self):
        Y = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            kmeans_label(Y, 5, seed=0)
        with pytest.raises(ValidationError):
            kmeans_label(Y, 0, seed=0)

    def test_one_restart_holds_less_than_one_y_sized_array(self):
        """The squared row norms are summed per 4096-row block, and a single
        restart computes no within-cluster sum of squares: before both,
        this took 2.08 Y-sized arrays."""
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((5, 100)) * 3
        Y = centers[rng.integers(5, size=20000)] + rng.standard_normal((20000, 100))
        tracemalloc.start()
        try:
            kmeans_label(Y, 5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < Y.nbytes

    def test_one_restart_holds_no_n_by_kappa_distances(self):
        """Each Lloyd iteration takes its distances one block of at most
        4095 rows at a time, in one buffer.  Beyond that block a restart
        holds at most five n-vectors: the row norms, and either the labels
        of this and the last iteration, the labels and the class means'
        two index vectors, or k-means++'s distances, draw probabilities
        and their cumulative sum, plus one passing vector.
        The n x kappa distances and their temporaries took 18.  d = kappa,
        so the row norms' 4095 x d block of squares fits the same bound."""
        n, kappa = 50000, 8
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((kappa, kappa)) * 3
        Y = centers[rng.integers(kappa, size=n)] + rng.standard_normal((n, kappa))
        kmeans_label(Y[:5000], kappa, seed=1)  # warms up outside the trace
        tracemalloc.start()
        try:
            kmeans_label(Y, kappa, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n * 8 + 4095 * kappa * 8

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_must_be_positive(self, restarts):
        Y = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValidationError, match="restarts"):
            kmeans_label(Y, 2, seed=0, restarts=restarts)


def clustered_rows(n, d, distinct, seed):
    """``n`` rows drawn, with repeats, from ``distinct`` random points plus noise
    on half of them, so duplicate rows and ties are common."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((distinct, d)) * 3.0
    Y = points[rng.integers(0, distinct, n)]
    noisy = rng.random(n) < 0.5
    Y[noisy] += 0.1 * rng.standard_normal((int(noisy.sum()), d))
    return Y


class TestKmeansOracle:
    """``kmeans_label`` against the masked-mean reference above."""

    @settings(max_examples=60)
    @given(
        n=st.integers(2, 60),
        d=st.integers(2, 6),
        distinct=st.integers(1, 12),
        kappa_gap=st.integers(0, 5),
        restarts=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_labels_identical_to_reference(self, n, d, distinct, kappa_gap, restarts, seed):
        # kappa ranges up to n itself; few distinct rows force empty-cluster repair.
        kappa = max(2, n - kappa_gap) if seed % 2 else min(n, 2 + kappa_gap)
        Y = clustered_rows(n, d, distinct, seed)
        expected = reference_kmeans(Y, kappa, seed, restarts=restarts)
        got = kmeans_label(Y, kappa, seed=seed, restarts=restarts)
        np.testing.assert_array_equal(got.labels, expected)

    def test_empty_cluster_repair_matches_reference(self):
        # One location repeated 12 times and one other point: every k-means++
        # center is a duplicate, so the first iteration empties classes.
        Y = np.vstack([np.ones((12, 3)), np.zeros((1, 3))])
        for seed in range(5):
            got = kmeans_label(Y, 4, seed=seed, restarts=3)
            np.testing.assert_array_equal(got.labels, reference_kmeans(Y, 4, seed, restarts=3))

    def test_repair_never_empties_a_class(self, monkeypatch):
        # A repair that steals the only member of a class empties it: its
        # center becomes 0/0 = NaN, and on these rows the labels then
        # alternate between two states for every Lloyd iteration.
        from edrep import mixture

        centers = []
        original = mixture._class_means

        def recording(*args):
            centers.append(original(*args))
            return centers[-1]

        monkeypatch.setattr(mixture, "_class_means", recording)
        Y = clustered_rows(16, 3, 4, 1)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = kmeans_label(Y, 16, seed=1)
        assert len(centers) < 100  # a converged iteration computes no centers
        assert all(np.isfinite(c).all() for c in centers)
        np.testing.assert_array_equal(got.counts(), np.ones(16, dtype=np.int64))

    def test_larger_instance_with_restarts(self):
        Y = clustered_rows(3000, 8, 20, 4)
        for kappa, restarts in ((5, 1), (8, 3)):
            np.testing.assert_array_equal(
                kmeans_label(Y, kappa, seed=kappa, restarts=restarts).labels,
                reference_kmeans(Y, kappa, kappa, restarts=restarts),
            )

    def test_row_norms_past_one_block(self):
        """At n = 9000 the squared row norms span three 4096-row blocks."""
        Y = clustered_rows(9000, 8, 20, 5)
        for kappa, restarts in ((5, 1), (8, 3)):
            np.testing.assert_array_equal(
                kmeans_label(Y, kappa, seed=kappa, restarts=restarts).labels,
                reference_kmeans(Y, kappa, kappa, restarts=restarts),
            )

    @pytest.mark.parametrize("n", [2047, 2048, 4095, 4096, 4097, 6143, 6144, 8191, 8193])
    def test_blocked_pass_keeps_the_bits_at_block_edges(self, n):
        """Row counts on either side of the block edges: every block's
        distances have the bits of one product over all rows, so labels
        and centers equal the whole-matrix reference bit for bit."""
        for d, kappa in itertools.product((2, 32, 100), (2, 5, 8)):
            rng = np.random.default_rng(n + d + kappa)
            blobs = 2.0 * rng.standard_normal((kappa + 3, d))
            Y = blobs[rng.integers(kappa + 3, size=n)] + rng.standard_normal((n, d))
            labels, centers = mixture._lloyd(
                Y, np.sum(Y * Y, axis=1), kappa, np.random.default_rng(kappa),
                _block_cuts(n, mixture._LLOYD_BLOCK),
            )
            expected, expected_centers, _ = _reference_lloyd(
                Y, kappa, np.random.default_rng(kappa), 100
            )
            assert labels.tobytes() == expected.tobytes(), (d, kappa)
            assert centers.tobytes() == expected_centers.tobytes(), (d, kappa)

    def test_blocked_pass_repairs_like_the_reference(self):
        """Three distinct rows for eight classes across three blocks: an
        argmin over the blocks labels at most three classes, so every
        pass empties classes and the repair, which reads each row's own
        distance from the blocks, moves rows."""
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((3, 4))[rng.integers(3, size=6145)]
        for seed in range(3):
            labels, centers = mixture._lloyd(
                Y, np.sum(Y * Y, axis=1), 8, np.random.default_rng(seed),
                _block_cuts(6145, mixture._LLOYD_BLOCK),
            )
            expected, expected_centers, _ = _reference_lloyd(
                Y, 8, np.random.default_rng(seed), 100
            )
            assert labels.tobytes() == expected.tobytes()
            assert centers.tobytes() == expected_centers.tobytes()

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 300),
        d=st.integers(2, 8),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_class_means_bitwise_equal_masked_means(self, n, d, k, seed):
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((n, d))
        k = min(k, n)
        labels = rng.permutation(np.arange(n) % k)
        expected = np.vstack([Y[labels == j].mean(axis=0) for j in range(k)])
        assert _class_means(Y, labels, k).tobytes() == expected.tobytes()

    @settings(max_examples=40)
    @given(n=st.integers(1, 300), k=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_class_means_in_one_dimension(self, n, k, seed):
        # With d = 1 the masked mean reduces one contiguous column, which
        # numpy sums pairwise; the indicator product adds the rows in order.
        # The two sums differ in the last bits only: for nonnegative rows
        # each is within (m - 1) ulp-sized relative errors of the exact sum
        # of m terms, so they agree to 2 (m - 1) eps relative.
        rng = np.random.default_rng(seed)
        Y = rng.random((n, 1))
        k = min(k, n)
        labels = rng.permutation(np.arange(n) % k)
        got = _class_means(Y, labels, k)
        for j in range(k):
            members = Y[labels == j]
            expected = members.mean(axis=0)
            bound = 2 * max(members.shape[0] - 1, 1) * np.finfo(float).eps
            np.testing.assert_allclose(got[j], expected, rtol=bound, atol=0)


class TestEstimateMixture:
    def test_two_point_closed_form(self):
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        params = estimate_mixture(Y, LabelVector(np.array([1, 1]), 1))
        np.testing.assert_allclose(params.pi, [1.0])
        np.testing.assert_allclose(params.mu, [[0.5, 0.5]])
        np.testing.assert_allclose(
            params.omega[0], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
        )

    def test_identical_rows_give_zero_covariance(self):
        Y = np.tile([1.0, 2.0, 3.0], (6, 1))
        params = estimate_mixture(Y, LabelVector(np.ones(6, dtype=int), 1))
        np.testing.assert_array_equal(params.omega[0], np.zeros((3, 3)))

    def test_singleton_class_gets_zero_covariance(self):
        Y = np.random.default_rng(3).standard_normal((5, 3))
        labels = LabelVector(np.array([1, 1, 1, 1, 2]), 2)
        params = estimate_mixture(Y, labels)
        np.testing.assert_array_equal(params.omega[1], np.zeros((3, 3)))
        np.testing.assert_allclose(params.mu[1], Y[4])

    def test_matches_two_pass_recomputation(self):
        """Oracle: naive per-class mean then centered covariance loops."""
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((200, 5))
        raw = rng.integers(1, 4, 200)
        raw[:3] = [1, 2, 3]
        labels = LabelVector(raw, 3)
        params = estimate_mixture(Y, labels)
        for a in range(3):
            block = Y[raw == a + 1]
            mean = sum(row for row in block) / len(block)
            cov = np.zeros((5, 5))
            for row in block:
                cov += np.outer(row - mean, row - mean)
            cov /= len(block) - 1
            np.testing.assert_allclose(params.mu[a], mean, atol=1e-10)
            np.testing.assert_allclose(params.omega[a], cov, atol=1e-10)
            assert params.pi[a] == len(block) / 200

    def test_single_class_reproduces_global_moments(self):
        rng = np.random.default_rng(13)
        Y = rng.standard_normal((60, 4))
        params = estimate_mixture(Y, LabelVector(np.ones(60, dtype=int), 1))
        np.testing.assert_allclose(params.mu[0], Y.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(params.omega[0], np.cov(Y.T), atol=1e-12)

    def test_class_of_every_row_bitwise_equal_to_gathered_rows(self):
        """Oracle: the moments of the gathered copy ``Y[idx]``, which a class
        of every row no longer makes."""
        rng = np.random.default_rng(14)
        Y = rng.standard_normal((501, 7))
        mu, omega = class_moments(Y, LabelVector(np.ones(501, dtype=int), 1))
        block = Y[np.flatnonzero(np.ones(501, dtype=bool))]
        mean = block.mean(axis=0)
        centered = block - mean
        cov = centered.T @ centered / 500
        assert mu[0].tobytes() == mean.tobytes()
        assert omega[0].tobytes() == (0.5 * (cov + cov.T)).tobytes()

    def test_relabeling_permutes_parameters(self):
        rng = np.random.default_rng(17)
        Y = rng.standard_normal((50, 3))
        raw = rng.integers(1, 4, 50)
        raw[:3] = [1, 2, 3]
        perm = np.array([3, 1, 2])  # class a -> perm[a-1]
        params = estimate_mixture(Y, LabelVector(raw, 3))
        permuted = estimate_mixture(Y, LabelVector(perm[raw - 1], 3))
        for a in range(3):
            target = perm[a] - 1
            assert permuted.pi[target] == params.pi[a]
            np.testing.assert_array_equal(permuted.mu[target], params.mu[a])
            np.testing.assert_array_equal(permuted.omega[target], params.omega[a])

    def test_centered_covariance_matches_raw_second_moments(self):
        rng = np.random.default_rng(19)
        Y = rng.standard_normal((80, 4))
        raw = rng.integers(1, 3, 80)
        raw[:2] = [1, 2]
        labels = LabelVector(raw, 2)
        params = estimate_mixture(Y, labels)
        for a in range(2):
            block = Y[raw == a + 1]
            nc = len(block)
            second = block.T @ block
            recon = (second - nc * np.outer(params.mu[a], params.mu[a])) / (nc - 1)
            np.testing.assert_allclose(params.omega[a], recon, atol=1e-9)

    def test_label_count_must_match_rows(self):
        with pytest.raises(ValidationError):
            estimate_mixture(np.zeros((4, 2)), LabelVector(np.ones(3, dtype=int), 1))


class TestSingletonMixture:
    def test_one_component_per_row(self):
        Y = np.random.default_rng(23).standard_normal((9, 4))
        params = singleton_mixture(Y)
        assert params.kappa == 9
        np.testing.assert_allclose(params.pi, np.full(9, 1 / 9))
        np.testing.assert_array_equal(params.mu, Y)
        assert not params.omega.any()


class TestMixtureParamsChecks:
    @staticmethod
    def params(omega):
        k, d = omega.shape[:2]
        return MixtureParams(pi=np.full(k, 1 / k), mu=np.zeros((k, d)), omega=omega, m=k)

    def test_non_psd_class_among_zero_covariances_is_named(self):
        omega = np.zeros((4, 2, 2))
        omega[1] = np.eye(2)
        omega[2] = np.diag([1.0, -0.5])
        with pytest.raises(ValidationError, match="class 3 has eigenvalue -5.000e-01"):
            self.params(omega)

    def test_asymmetric_covariance_rejected(self):
        omega = np.zeros((3, 2, 2))
        omega[2] = [[1.0, 0.5], [0.0, 1.0]]
        with pytest.raises(ValidationError, match="asymmetric"):
            self.params(omega)

    @pytest.mark.parametrize(
        "pi, mu, omega, m, match",
        [
            (np.ones((1, 1)), np.zeros((1, 2)), np.zeros((1, 2, 2)), 1, "wrong ranks"),
            (np.full(2, 0.5), np.zeros((1, 2)), np.zeros((1, 2, 2)), 1, "disagree"),
            (np.ones(1), np.zeros((1, 2)), np.zeros((1, 3, 3)), 1, "disagree"),
            (np.ones(1), np.zeros((1, 2)), np.zeros((1, 2, 2)), 0, "m must be positive"),
            (np.full(2, 0.4), np.zeros((2, 2)), np.zeros((2, 2, 2)), 2, "sum to 1"),
            (np.ones(1, dtype=bool), np.zeros((1, 2)), np.zeros((1, 2, 2)), 1,
             "pi must hold real numbers, got dtype bool"),
            (np.ones(1), np.array([[1j, 0.0]]), np.zeros((1, 2, 2)), 1,
             "mu must hold real numbers, got dtype complex128"),
            (np.ones(1), np.zeros((1, 2)), np.eye(2)[None] * (1 + 1j), 1,
             "omega must hold real numbers, got dtype complex128"),
        ],
        ids=["ranks", "pi-length", "omega-shape", "m-zero", "pi-sum", "pi-bool", "mu-complex",
             "omega-complex"],
    )
    def test_malformed_parameters_rejected(self, pi, mu, omega, m, match):
        with pytest.raises(ValidationError, match=match):
            MixtureParams(pi=pi, mu=mu, omega=omega, m=m)

    @pytest.mark.parametrize(
        "field, value",
        [("pi", np.nan), ("mu", np.nan), ("mu", -np.inf), ("omega", np.nan), ("omega", np.inf)],
    )
    def test_non_finite_parameters_rejected(self, field, value):
        """A NaN fraction passes the sum check and a NaN or infinite moment
        passes the others, so each is named here, not later in approx_z."""
        arrays = {"pi": np.ones(1), "mu": np.zeros((1, 2)), "omega": np.eye(2)[None]}
        arrays[field].flat[0] = value
        with pytest.raises(ValidationError, match=f"parameter {field} contains non-finite"):
            MixtureParams(**arrays, m=1)

    def test_zero_and_psd_covariances_pass(self):
        omega = np.zeros((3, 2, 2))
        omega[0] = [[2.0, 1.0], [1.0, 2.0]]
        assert self.params(omega).kappa == 3
        assert self.params(np.zeros((5, 0, 0))).d == 0
