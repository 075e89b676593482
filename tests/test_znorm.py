"""Exact, mixture and kernel-feature normalization constants."""

import math

import numpy as np
import pytest

from edrep.errors import DimensionError, NumericError, ValidationError
from edrep.matstore import rescale_embedding
from edrep.mixture import LabelVector, estimate_mixture, singleton_mixture
from edrep.znorm import (
    KernelFeatureMap,
    ZEstimate,
    approx_z,
    concentration_probe,
    error_cdf,
    exact_z,
    kernel_z,
)


class TestExactZ:
    def test_two_term_closed_form(self):
        x = np.array([[1.0, 0.0]])
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = exact_z(x, Y)
        np.testing.assert_allclose(z.values, [math.e + 1.0], rtol=1e-15)

    def test_zero_query_counts_keys(self):
        Y = np.random.default_rng(0).standard_normal((37, 5))
        z = exact_z(np.zeros((1, 5)), Y)
        np.testing.assert_allclose(z.values, [37.0], rtol=1e-14)

    def test_matches_extended_precision_sum(self):
        """Oracle: math.fsum of the exponentials, row by row."""
        rng = np.random.default_rng(1)
        X = rng.standard_normal((100, 8)) * 0.5
        Y = rng.standard_normal((100, 8)) * 0.5
        z = exact_z(X, Y, block_rows=17)  # uneven blocks on purpose
        for i in range(100):
            oracle = math.fsum(math.exp(v) for v in (X[i] @ Y.T))
            assert abs(z.values[i] - oracle) / oracle < 1e-12

    def test_invariant_under_key_permutation(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 4))
        Y = rng.standard_normal((30, 4))
        perm = rng.permutation(30)
        a = exact_z(X, Y)
        b = exact_z(X, Y[perm])
        np.testing.assert_allclose(a.values, b.values, rtol=1e-13)

    def test_self_term_contributes_its_own_exponential(self):
        rng = np.random.default_rng(3)
        X = rescale_embedding(rng.standard_normal((50, 6)), "unit-rows")
        with_self = exact_z(X)
        without = exact_z(X, include_self=False)
        assert with_self.includes_self and not without.includes_self
        diff = with_self.values - without.values
        np.testing.assert_allclose(
            diff, np.exp(np.sum(X * X, axis=1)), rtol=1e-11
        )

    def test_overflow_guard_advises_rescaling(self):
        X = np.full((1, 1), 30.0)
        Y = np.full((1, 1), 30.0)
        with pytest.raises(NumericError, match="rescale"):
            exact_z(X, Y)

    def test_inner_dimension_checked(self):
        with pytest.raises(DimensionError):
            exact_z(np.zeros((2, 3)), np.zeros((2, 4)))


class TestApproxZ:
    def test_point_mass_mixture_is_exact(self):
        v = np.array([0.3, -0.2, 0.5])
        Y = np.tile(v, (25, 1))
        params = estimate_mixture(Y, LabelVector(np.ones(25, dtype=int), 1))
        x = np.array([[0.1, 0.4, -0.3]])
        z = approx_z(x, params)
        np.testing.assert_allclose(z.values, [25.0 * math.exp(x[0] @ v)], rtol=1e-14)

    def test_zero_query_is_exact(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((40, 6))
        labels = LabelVector(rng.integers(1, 4, 40) * 0 + np.tile([1, 2, 3, 1], 10), 3)
        params = estimate_mixture(Y, labels)
        z = approx_z(np.zeros((2, 6)), params)
        np.testing.assert_allclose(z.values, [40.0, 40.0], rtol=1e-12)

    def test_two_component_instance_has_small_median_error(self):
        """Oracle: exact_z on a 20000-key two-component instance; the
        regression bound 0.02 sits far above the first measured error."""
        rng = np.random.default_rng(77)
        d, m = 50, 20000
        means = rng.standard_normal((2, d))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        comp = rng.integers(0, 2, m)
        mixing = np.eye(d) + 0.5 * rng.standard_normal((d, d)) / np.sqrt(d)
        Y = means[comp] + 0.3 * rng.standard_normal((m, d)) / np.sqrt(d) @ mixing
        X = rescale_embedding(rng.standard_normal((1000, d)), "unit-rows")
        params = estimate_mixture(Y, LabelVector(comp + 1, 2))
        ze = exact_z(X, Y)
        za = approx_z(X, params)
        median = np.median(np.abs(za.values - ze.values) / ze.values)
        assert median < 0.02

    def test_singleton_mixture_reproduces_exact(self):
        rng = np.random.default_rng(6)
        Y = rescale_embedding(rng.standard_normal((80, 7)), "unit-rows")
        z_mix = approx_z(Y, singleton_mixture(Y))
        z_ex = exact_z(Y)
        np.testing.assert_allclose(z_mix.values, z_ex.values, rtol=1e-9)

    def test_zeta_row_sums_match_estimate(self):
        from edrep.znorm import zeta_matrix

        rng = np.random.default_rng(7)
        Y = rng.standard_normal((30, 4)) * 0.4
        labels = LabelVector(np.tile([1, 2, 3], 10), 3)
        params = estimate_mixture(Y, labels)
        X = rng.standard_normal((12, 4)) * 0.4
        zeta = zeta_matrix(X, params)
        z = approx_z(X, params)
        np.testing.assert_allclose(
            zeta.sum(axis=1), z.values / params.m, rtol=0, atol=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        Y = np.zeros((5, 3))
        params = estimate_mixture(Y, LabelVector(np.ones(5, dtype=int), 1))
        with pytest.raises(DimensionError):
            approx_z(np.zeros((2, 4)), params)


class TestKernelZ:
    def test_rfa_on_zero_vectors_is_exact(self):
        X = np.zeros((3, 4))
        fmap = KernelFeatureMap.from_seed(4, 50, 0)
        z = kernel_z(X, X, fmap, "rfa")
        np.testing.assert_allclose(z.values, [3.0, 3.0, 3.0], rtol=1e-12)

    def test_performer_error_shrinks_with_feature_count(self):
        """Oracle: exact_z; Monte-Carlo error must drop when the feature
        count is multiplied by 100."""
        rng = np.random.default_rng(8)
        X = rescale_embedding(rng.standard_normal((50, 8)), "unit-rows")
        ze = exact_z(X, X)

        def median_err(D, seed):
            fmap = KernelFeatureMap.from_seed(8, D, seed)
            zk = kernel_z(X, X, fmap, "performer")
            return np.median(np.abs(zk.values - ze.values) / ze.values)

        small = median_err(1000, 21)
        large = median_err(100000, 21)
        assert large < small

    def test_baseline_feature_count_runs(self):
        rng = np.random.default_rng(9)
        X = rescale_embedding(rng.standard_normal((20, 6)), "unit-rows")
        fmap = KernelFeatureMap.from_seed(6, 1000, 1)
        for variant in ("performer", "rfa"):
            z = kernel_z(X, X, fmap, variant)
            assert z.method == f"{variant}(1000)"
            assert np.all(z.values > 0)

    def test_rfa_clamps_nonpositive_sums_and_reports_rows(self):
        # Seed 0 with two features on these wide vectors drives the signed
        # trigonometric sums negative for some rows.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3)) * 3.0
        Y = rng.standard_normal((4, 3)) * 3.0
        z = kernel_z(X, Y, KernelFeatureMap.from_seed(3, 2, 0), "rfa")
        assert z.clamped is not None
        np.testing.assert_array_equal(z.clamped, [2, 4, 5])
        assert np.all(z.values > 0)

    def test_map_reproducible_from_seed(self):
        a = KernelFeatureMap.from_seed(5, 64, 42)
        b = KernelFeatureMap.from_seed(5, 64, 42)
        np.testing.assert_array_equal(a.W, b.W)

    def test_unknown_variant_rejected(self):
        fmap = KernelFeatureMap.from_seed(3, 8, 0)
        with pytest.raises(ValidationError):
            kernel_z(np.zeros((2, 3)), np.zeros((2, 3)), fmap, "nystrom")


class TestErrorCdf:
    def test_identical_estimates_give_zero_errors(self):
        ref = exact_z(np.zeros((5, 2)), np.ones((3, 2)))
        table = error_cdf(ref, ref)
        np.testing.assert_array_equal(table[:, 0], np.zeros(5))
        np.testing.assert_allclose(table[:, 1], np.arange(1, 6) / 5)

    def test_single_row_half_error(self):
        ref = ZEstimate(np.array([2.0]), "exact")
        cand = ZEstimate(np.array([3.0]), "mixture(1)")
        table = error_cdf(ref, cand)
        np.testing.assert_allclose(table, [[0.5, 1.0]])

    def test_matches_naive_sort_oracle_and_is_monotone(self):
        """Oracle: sorted(|raw errors|) compared entry by entry."""
        rng = np.random.default_rng(10)
        exact_vals = rng.uniform(1.0, 5.0, 1000)
        est_vals = exact_vals * (1.0 + 0.1 * rng.standard_normal(1000))
        ref = ZEstimate(exact_vals, "exact")
        cand = ZEstimate(np.abs(est_vals) + 1e-12, "mixture(2)")
        table = error_cdf(ref, cand)
        oracle = sorted(abs(c - e) / e for c, e in zip(cand.values, ref.values))
        np.testing.assert_allclose(table[:, 0], oracle, rtol=1e-15)
        assert np.all(np.diff(table[:, 0]) >= 0)
        assert np.all(np.diff(table[:, 1]) > 0)

    def test_reference_must_be_exact(self):
        est = ZEstimate(np.ones(3), "mixture(1)")
        with pytest.raises(ValidationError):
            error_cdf(est, est)


class TestConcentrationProbe:
    def test_constant_keys_have_zero_spread(self):
        v = np.array([0.2, 0.1])

        def sampler(m, rng):
            return np.tile(v, (m, 1))

        table = concentration_probe(sampler, np.array([1.0, 0.0]), [10, 40], 20)
        # identical draws; only mean-rounding residue may survive
        np.testing.assert_allclose(table[:, 2], 0.0, atol=1e-14)

    def test_spread_halves_when_keys_quadruple(self):
        """Quadrupling the key count should halve the spread of Z/m
        (inverse square-root decay), within sampling slack 1.5."""
        d = 20
        rng = np.random.default_rng(11)
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)

        def sampler(m, gen):
            Y = gen.standard_normal((m, d))
            return Y / np.linalg.norm(Y, axis=1)[:, None]

        table = concentration_probe(sampler, x, [500, 2000], repeats=200, seed=12)
        ratio = table[0, 2] / table[1, 2]
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5

    def test_tail_bound_anchor_is_vacuous_at_matched_scale(self):
        # At deviation threshold 4*e*h/sqrt(m) the tail bound evaluates to
        # 4/e, which exceeds 1 and therefore always holds.
        h, m = 1.0, 100
        t = 4 * math.e * h / math.sqrt(m)
        bound = 4 * math.exp(-((math.sqrt(m) * t / (4 * math.e * h)) ** 2))
        assert bound == pytest.approx(4 / math.e)
        assert bound > 1.0
