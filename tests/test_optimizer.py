"""Losses, gradients, sphere updates and the training loops."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from edrep.errors import ValidationError
from edrep.matstore import ProductChain, rescale_embedding, row_normalize, uniform_weights
from edrep.mixture import LabelVector, estimate_mixture, kmeans_label, singleton_mixture
from edrep.optimizer import (
    TANGENT_FLOOR,
    OptimizerConfig,
    approx_gradient,
    exact_loss,
    fit,
    fit_asymmetric,
    fit_exact,
    mixture_loss,
    softmax_weighted_term,
    sphere_step,
    unit_tangential,
)
from edrep.znorm import zeta_matrix


def random_operator(n, seed, density=0.25):
    base = sp.random(n, n, density=density, random_state=seed, format="csr")
    return row_normalize(base + sp.eye(n))


def unit_rows(rng, n, d):
    return rescale_embedding(rng.standard_normal((n, d)), "unit-rows")


def raw_objective(X, P, p0):
    """Oracle: the objective written as the plain double sum, one
    cross-entropy term per operator entry plus the weighted quadratic
    regularizer, with softmax rows normalized by explicit sums."""
    P = P.toarray() if sp.issparse(P) else np.asarray(P)
    n = X.shape[0]
    scores = X @ X.T
    Z = np.exp(scores).sum(axis=1)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if P[i, j] != 0.0:
                total -= P[i, j] * np.log(np.exp(scores[i, j]) / Z[i])
        total += X[i] @ sum(p0[j] * X[j] for j in range(n))
    return total


class TestExactLoss:
    def test_single_node_closed_form(self):
        X = np.array([[0.6, 0.8]])
        P = sp.csr_matrix(np.array([[1.0]]))
        value = exact_loss(X, P, np.array([1.0]))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_trace_form_equals_raw_double_sum(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            n = int(rng.integers(10, 31))
            P = random_operator(n, seed)
            X = unit_rows(rng, n, 4)
            p0 = rng.random(n)
            p0 /= p0.sum()
            assert exact_loss(X, P, p0) == pytest.approx(
                raw_objective(X, P, p0), abs=1e-9
            )

    def test_invariant_under_consistent_relabeling(self):
        rng = np.random.default_rng(2)
        n = 25
        P = random_operator(n, 3)
        X = unit_rows(rng, n, 5)
        p0 = rng.random(n)
        p0 /= p0.sum()
        perm = rng.permutation(n)
        Pp = P[perm][:, perm]
        assert exact_loss(X[perm], Pp, p0[perm]) == pytest.approx(
            exact_loss(X, P, p0), abs=1e-10
        )


class TestApproxGradient:
    def test_matches_central_finite_differences(self):
        """Oracle: central differences of the mixture objective with the
        class moments frozen, step 1e-5."""
        rng = np.random.default_rng(42)
        n, d = 40, 6
        P = random_operator(n, 7)
        X = unit_rows(rng, n, d)
        p0 = rng.random(n)
        p0 /= p0.sum()
        params = estimate_mixture(X, kmeans_label(X, 3, seed=1))
        g = approx_gradient(X, P, p0, params)
        h = 1e-5
        fd = np.zeros_like(X)
        for i in range(n):
            for q in range(d):
                up, down = X.copy(), X.copy()
                up[i, q] += h
                down[i, q] -= h
                fd[i, q] = (
                    mixture_loss(up, P, p0, params)
                    - mixture_loss(down, P, p0, params)
                ) / (2 * h)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-7)
        assert rel.max() < 1e-4

    def test_identity_operator_contributes_minus_two_x(self):
        rng = np.random.default_rng(3)
        n, d = 12, 3
        X = unit_rows(rng, n, d)
        chain = ProductChain([sp.eye(n, format="csr")])
        # The operator part alone: applying the identity chain forward and
        # transposed returns X bit for bit.
        np.testing.assert_array_equal(chain.apply(X), X)
        np.testing.assert_array_equal(chain.apply_transpose(X), X)
        # With centered zero-covariance moments the log-Z term vanishes, so
        # the full gradient reduces to -2X plus the uniform regularizer.
        params = estimate_mixture(
            np.zeros((n, d)), LabelVector(np.ones(n, dtype=int), 1)
        )
        p0 = np.full(n, 1.0 / n)
        g = approx_gradient(X, chain, p0, params)
        expected = -2.0 * X + 2.0 * np.outer(np.ones(n), X.mean(axis=0))
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_transposed_chain_matches_dense_transpose(self):
        """Oracle: densify the factors, transpose the product."""
        rng = np.random.default_rng(4)
        factors = [random_operator(20, s) for s in (11, 12)]
        chain = ProductChain(factors)
        X = rng.standard_normal((20, 5))
        dense = (factors[1].toarray() @ factors[0].toarray()).T
        np.testing.assert_allclose(chain.apply_transpose(X), dense @ X, atol=1e-10)

    def test_singleton_mixture_term_equals_exact_softmax_term(self):
        rng = np.random.default_rng(5)
        n, d = 100, 5
        X = unit_rows(rng, n, d)
        params = singleton_mixture(X)
        zeta = zeta_matrix(X, params)
        mixture_term = (zeta @ params.mu) / zeta.sum(axis=1)[:, None]
        np.testing.assert_allclose(
            mixture_term, softmax_weighted_term(X), rtol=1e-9, atol=1e-12
        )


class TestSphereStep:
    def test_zero_rate_returns_input_unchanged(self):
        rng = np.random.default_rng(6)
        X = unit_rows(rng, 10, 4)
        g = rng.standard_normal((10, 4))
        np.testing.assert_array_equal(sphere_step(X, g, 0.0), X)

    def test_full_rate_jumps_to_negative_unit_tangent(self):
        rng = np.random.default_rng(7)
        X = unit_rows(rng, 8, 3)
        g = rng.standard_normal((8, 3))
        gpp, mask = unit_tangential(g, X)
        out = sphere_step(X, g, 1.0)
        assert mask.all()
        np.testing.assert_allclose(out, -gpp, atol=1e-14)

    def test_output_rows_unit_norm(self):
        rng = np.random.default_rng(8)
        X = unit_rows(rng, 50, 6)
        out = sphere_step(X, rng.standard_normal((50, 6)) * 100.0, 0.3)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_radial_gradient_rows_stay_put(self):
        rng = np.random.default_rng(9)
        X = unit_rows(rng, 6, 4)
        g = 3.0 * X  # purely radial: tangential part vanishes
        np.testing.assert_array_equal(sphere_step(X, g, 0.5), X)

    def test_unit_tangent_orthogonal_to_rows(self):
        rng = np.random.default_rng(10)
        X = unit_rows(rng, 30, 5)
        gpp, mask = unit_tangential(rng.standard_normal((30, 5)), X)
        assert np.abs(np.einsum("ij,ij->i", gpp[mask], X[mask])).max() < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 40),
        d=st.integers(1, 6),
        eta=st.sampled_from([1e-3, 0.3, 0.7, 1.0]),
        frozen_share=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_masked_reference_bitwise(self, n, d, eta, frozen_share, seed):
        """Oracle: the update written with boolean-mask copies of the moving rows."""
        rng = np.random.default_rng(seed)
        X = unit_rows(rng, n, d)
        g = rng.standard_normal((n, d))
        frozen = rng.random(n) < frozen_share
        g[frozen] = 2.0 * X[frozen]  # radial rows have no tangential part

        gp = g - np.einsum("ij,ij->i", g, X)[:, None] * X
        norms = np.linalg.norm(gp, axis=1)
        mask = norms > TANGENT_FLOOR * np.maximum(np.linalg.norm(g, axis=1), 1.0)
        gpp = np.zeros_like(gp)
        gpp[mask] = gp[mask] / norms[mask, None]
        expected = X.copy()
        moved = np.sqrt(1.0 - eta * eta) * X[mask] - eta * gpp[mask]
        expected[mask] = moved / np.linalg.norm(moved, axis=1)[:, None]

        got_gpp, got_mask = unit_tangential(g, X)
        np.testing.assert_array_equal(got_mask, mask)
        assert got_gpp.tobytes() == gpp.tobytes()
        with np.errstate(all="raise"):
            assert sphere_step(X, g, eta).tobytes() == expected.tobytes()

    def test_rate_outside_unit_interval_rejected(self):
        X = np.array([[1.0, 0.0]])
        with pytest.raises(ValidationError):
            sphere_step(X, X, 1.5)


class TestFit:
    def test_rows_stay_unit_norm_through_training(self):
        P = random_operator(60, 21)
        cfg = OptimizerConfig(d=8, eta0=0.7, n_epochs=10, seed=0)
        result = fit(P, cfg, record_trajectory=True)
        for X in result.trajectory:
            assert np.abs(np.linalg.norm(X, axis=1) - 1.0).max() <= 1e-10

    def test_exact_loss_decreases_over_training(self):
        """Oracle: the quadratic-cost loss evaluated along the run."""
        P = random_operator(200, 22, density=0.1)
        cfg = OptimizerConfig(d=16, eta0=0.7, n_epochs=25, seed=3)
        result = fit(P, cfg, log_exact_loss=True)
        losses = result.log[:, 3]
        assert losses[1] > losses[-1]

    def test_deterministic_given_seed(self):
        P = random_operator(40, 23)
        cfg = OptimizerConfig(d=6, eta0=0.5, n_epochs=8, seed=11)
        a = fit(P, cfg)
        b = fit(P, cfg)
        np.testing.assert_array_equal(a.X, b.X)

    def test_learning_rate_schedule_is_linear(self):
        cfg = OptimizerConfig(d=4, eta0=0.7, n_epochs=25, seed=1)
        result = fit(random_operator(30, 24), cfg)
        for t in range(cfg.n_epochs):
            expected = cfg.eta0 * (1.0 - t / cfg.n_epochs)
            assert abs(result.log[t, 1] - expected) <= 1e-15
        assert result.log[-1, 1] == 0.0

    def test_two_pass_workflow_produces_requested_classes(self):
        P = random_operator(50, 25)
        cfg = OptimizerConfig(d=6, eta0=0.7, n_epochs=6, kappa=4, seed=2)
        result = fit(P, cfg)
        assert result.labels.kappa == 4
        assert result.labels.counts().min() >= 1

    def test_two_pass_equals_explicit_warm_run_then_labels(self):
        """Oracle: the two-pass workflow spelled out with public calls."""
        P = random_operator(80, 28)
        cfg = OptimizerConfig(d=6, eta0=0.7, n_epochs=5, kappa=3, seed=4)
        warm = fit(P, replace(cfg, kappa=1)).X
        expected = fit(P, cfg, labels=kmeans_label(warm, 3, seed=cfg.seed))
        result = fit(P, cfg)
        np.testing.assert_array_equal(result.labels.labels, expected.labels.labels)
        assert result.X.tobytes() == expected.X.tobytes()
        assert result.log.tobytes() == expected.log.tobytes()

    def test_two_pass_validates_the_operator_once(self, validation_calls):
        fit(random_operator(40, 29), OptimizerConfig(d=4, n_epochs=2, kappa=2, seed=1))
        assert len(validation_calls) == 1

    def test_final_log_row_equals_the_losses_of_the_result(self):
        P = random_operator(50, 30)
        cfg = OptimizerConfig(d=5, eta0=0.7, n_epochs=4, kappa=3, seed=6)
        result = fit(P, cfg, log_exact_loss=True)
        p0 = uniform_weights(50)
        params = estimate_mixture(result.X, result.labels)
        assert result.log[-1, 2] == mixture_loss(result.X, P, p0, params)
        assert result.log[-1, 3] == exact_loss(result.X, P, p0)
        assert result.Y is None

    def test_provided_labels_are_respected(self):
        P = random_operator(30, 26)
        labels = LabelVector(np.tile([1, 2, 3], 10), 3)
        cfg = OptimizerConfig(d=5, eta0=0.6, n_epochs=4, kappa=3, seed=5)
        result = fit(P, cfg, labels=labels)
        assert result.labels is labels

    def test_label_vector_must_match_config_kappa(self):
        P = random_operator(30, 26)
        labels = LabelVector(np.tile([1, 2, 3], 10), 3)
        cfg = OptimizerConfig(d=5, eta0=0.6, n_epochs=4, kappa=2, seed=5)
        with pytest.raises(ValidationError, match="kappa"):
            fit(P, cfg, labels=labels)

    def test_zeta_row_sums_consistent_with_estimate(self):
        from edrep.znorm import approx_z

        rng = np.random.default_rng(12)
        P = random_operator(40, 27)
        cfg = OptimizerConfig(d=6, eta0=0.7, n_epochs=5, seed=7)
        result = fit(P, cfg)
        params = estimate_mixture(result.X, result.labels)
        zeta = zeta_matrix(result.X, params)
        z = approx_z(result.X, params)
        np.testing.assert_allclose(
            zeta.sum(axis=1) * params.m, z.values, rtol=0, atol=1e-12
        )

    def test_non_stochastic_operator_rejected(self):
        bad = sp.csr_matrix(np.array([[0.5, 0.5], [0.7, 0.7]]))
        with pytest.raises(ValidationError, match="row-stochastic"):
            fit(bad, OptimizerConfig(d=2, seed=0))

    def test_invalid_rate_rejected_at_config(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(d=4, eta0=1.5)


class TestFitExact:
    def test_log_z_gradient_matches_finite_differences(self):
        """Oracle: central differences of the exact objective with the
        key rows frozen at the current iterate."""
        rng = np.random.default_rng(13)
        n, d = 50, 4
        X = unit_rows(rng, n, d)
        Y = X.copy()
        term = softmax_weighted_term(X, Y)

        def logz_total(M):
            return float(np.log(np.exp(M @ Y.T).sum(axis=1)).sum())

        h = 1e-5
        fd = np.zeros_like(X)
        for i in range(n):
            for q in range(d):
                up, down = X.copy(), X.copy()
                up[i, q] += h
                down[i, q] -= h
                fd[i, q] = (logz_total(up) - logz_total(down)) / (2 * h)
        rel = np.abs(term - fd) / np.maximum(np.abs(fd), 1e-7)
        assert rel.max() < 1e-4

    def test_shares_initializer_with_fit(self):
        P = random_operator(35, 28)
        cfg = OptimizerConfig(d=5, eta0=0.7, n_epochs=3, seed=9)
        a = fit(P, cfg, record_trajectory=True)
        b = fit_exact(P, cfg, record_trajectory=True)
        np.testing.assert_array_equal(a.trajectory[0], b.trajectory[0])

    def test_deviation_from_mixture_run_is_finite_each_epoch(self):
        from edrep.evaluate import deviation_ct

        P = random_operator(45, 29)
        cfg = OptimizerConfig(d=6, eta0=0.7, n_epochs=8, seed=4)
        a = fit(P, cfg, record_trajectory=True)
        b = fit_exact(P, cfg, record_trajectory=True)
        ct = deviation_ct(a.trajectory, b.trajectory)
        assert ct[0] == 0.0
        assert np.all(np.isfinite(ct))

    def test_final_log_row_equals_exact_loss(self):
        P = random_operator(40, 31)
        result = fit_exact(P, OptimizerConfig(d=4, eta0=0.7, n_epochs=3, seed=2))
        assert result.log[-1, 3] == exact_loss(result.X, P, uniform_weights(40))
        assert np.isnan(result.log[:, 2]).all()

    def test_size_guard(self):
        P = random_operator(10, 30)
        cfg = OptimizerConfig(d=2, seed=0)
        with pytest.raises(ValidationError, match="n="):
            fit_exact(
                ProductChain([sp.eye(20001, format="csr")]), cfg
            )
        fit_exact(P, replace(cfg, n_epochs=1))  # small sizes pass


class TestFitAsymmetric:
    def rect_operator(self, n, m, seed):
        eye = sp.csr_matrix(
            (np.ones(min(n, m)), (range(min(n, m)), range(min(n, m)))), shape=(n, m)
        )
        return row_normalize(
            sp.random(n, m, density=0.4, random_state=seed, format="csr") + eye
        )

    def test_objective_specializes_to_symmetric_loss(self):
        rng = np.random.default_rng(14)
        n = 20
        P = random_operator(n, 31)
        X = unit_rows(rng, n, 4)
        p0 = rng.random(n)
        p0 /= p0.sum()
        assert exact_loss(X, P, p0, Y=X) == exact_loss(X, P, p0)
        params = estimate_mixture(X, kmeans_label(X, 2, seed=0))
        assert mixture_loss(X, P, p0, params, Y=X) == mixture_loss(X, P, p0, params)

    def test_both_outputs_unit_rows(self):
        P = self.rect_operator(60, 40, 32)
        cfg = OptimizerConfig(d=6, eta0=0.7, n_epochs=6, seed=8)
        result = fit_asymmetric(P, cfg)
        np.testing.assert_allclose(np.linalg.norm(result.X, axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(result.Y, axis=1), 1.0, atol=1e-10)

    def test_gradients_match_finite_differences_on_both_blocks(self):
        """Oracle: central differences of the asymmetric mixture objective
        in the query block and in the key block (moments frozen)."""
        rng = np.random.default_rng(15)
        n, m, d = 25, 18, 5
        P = self.rect_operator(n, m, 33)
        X = unit_rows(rng, n, d)
        Y = unit_rows(rng, m, d)
        p0 = rng.random(m)
        p0 /= p0.sum()
        params = estimate_mixture(Y, kmeans_label(Y, 2, seed=0))

        from edrep.matstore import as_chain
        from edrep.optimizer import _mixture_term

        chain = as_chain(P)
        zeta = zeta_matrix(X, params)
        gX = (
            -chain.apply(Y)
            + np.broadcast_to(p0 @ Y, X.shape)
            + _mixture_term(X, zeta, params)
        )
        gY = -chain.apply_transpose(X) + np.outer(p0, X.sum(axis=0))

        h = 1e-5
        fdX = np.zeros_like(X)
        for i in range(n):
            for q in range(d):
                up, down = X.copy(), X.copy()
                up[i, q] += h
                down[i, q] -= h
                fdX[i, q] = (
                    mixture_loss(up, P, p0, params, Y=Y)
                    - mixture_loss(down, P, p0, params, Y=Y)
                ) / (2 * h)
        fdY = np.zeros_like(Y)
        for a in range(m):
            for q in range(d):
                up, down = Y.copy(), Y.copy()
                up[a, q] += h
                down[a, q] -= h
                fdY[a, q] = (
                    mixture_loss(X, P, p0, params, Y=up)
                    - mixture_loss(X, P, p0, params, Y=down)
                ) / (2 * h)
        assert (np.abs(gX - fdX) / np.maximum(np.abs(fdX), 1e-7)).max() < 1e-4
        assert (np.abs(gY - fdY) / np.maximum(np.abs(fdY), 1e-7)).max() < 1e-4

    def test_two_pass_validates_the_operator_once(self, validation_calls):
        P = self.rect_operator(30, 20, 35)
        fit_asymmetric(P, OptimizerConfig(d=4, n_epochs=2, kappa=2, seed=1))
        assert len(validation_calls) == 1

    def test_two_pass_equals_explicit_warm_run_then_labels(self):
        """Oracle: the two-pass workflow spelled out with public calls."""
        P = self.rect_operator(50, 35, 36)
        cfg = OptimizerConfig(d=5, eta0=0.7, n_epochs=5, kappa=3, seed=4)
        warm = fit_asymmetric(P, replace(cfg, kappa=1)).Y
        expected = fit_asymmetric(P, cfg, labels=kmeans_label(warm, 3, seed=cfg.seed))
        result = fit_asymmetric(P, cfg)
        np.testing.assert_array_equal(result.labels.labels, expected.labels.labels)
        assert result.X.tobytes() == expected.X.tobytes()
        assert result.Y.tobytes() == expected.Y.tobytes()
        assert result.log.tobytes() == expected.log.tobytes()

    def test_final_log_row_equals_mixture_loss(self):
        P = self.rect_operator(40, 25, 37)
        result = fit_asymmetric(P, OptimizerConfig(d=4, n_epochs=3, kappa=2, seed=3))
        params = estimate_mixture(result.Y, result.labels)
        p0 = uniform_weights(25)
        assert result.log[-1, 2] == mixture_loss(result.X, P, p0, params, Y=result.Y)
