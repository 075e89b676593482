"""Losses, gradients, sphere updates and the training loops."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import edrep
from edrep.errors import DimensionError, NumericError, ValidationError
from edrep.matstore import (
    ProductChain,
    as_chain,
    row_normalize,
    uniform_weights,
    unit_rows as normalize_rows,
)
from edrep.mixture import LabelVector, estimate_mixture, kmeans_label, singleton_mixture
from edrep.optimizer import (
    _BLOCK_ROWS,
    TANGENT_FLOOR,
    OptimizerConfig,
    _assert_unit_rows,
    _blocked_step,
    _exact_normalizer,
    _mixture_normalizer,
    _normalized,
    approx_gradient,
    exact_loss,
    fit,
    fit_exact,
    mixture_loss,
    softmax_weighted_term,
    sphere_step,
    unit_tangential,
)
from edrep.znorm import _compensated_rowsum, approx_z, exact_z, zeta_matrix


def random_operator(n, seed, density=0.25):
    base = sp.random(n, n, density=density, random_state=seed, format="csr")
    return row_normalize(base + sp.eye(n))


def directed_graph(n, degree, seed):
    """A random directed graph of about ``degree`` edges per row, every
    third row empty, built without dense-size temporaries."""
    i, j = np.random.default_rng(seed).integers(0, n, (2, degree * n))
    keep = i % 3 != 0
    return sp.csr_matrix((np.ones(keep.sum()), (i[keep], j[keep])), shape=(n, n))


def unit_rows(rng, n, d):
    return normalize_rows(rng.standard_normal((n, d)))


def reference_zeta(X, params):
    """Oracle: the per-class terms pi_a exp(x.mu_a + x.Omega_a.x / 2) in the
    linear domain, one product of X per class covariance."""
    expo = X @ params.mu.T
    for a in range(params.kappa):
        expo[:, a] += 0.5 * np.einsum("ij,ij->i", X @ params.omega[a], X)
    zeta = params.pi * np.exp(expo)
    if not np.all(np.isfinite(zeta)):
        raise NumericError("mixture terms overflowed")
    return zeta


def reference_mixture_term(X, zeta, params):
    """Oracle: the unfused mixture gradient term, from the whole zeta matrix
    and a second product of X with every class covariance."""
    term = zeta @ params.mu
    for a in range(params.kappa):
        term += zeta[:, a, None] * (X @ params.omega[a])
    return term / zeta.sum(axis=1)[:, None]


def reference_mixture_pieces(X, params):
    """Oracle: the unfused mixture normalizer, log Z per row and the term."""
    zeta = reference_zeta(X, params)
    logz = np.log(params.m) + np.log(zeta.sum(axis=1))
    return logz, reference_mixture_term(X, zeta, params)


def reference_attention_term(X, Y):
    """Oracle: the exact softmax-weighted key sums over the whole X."""
    term = np.empty_like(X)
    for start in range(0, X.shape[0], 1024):
        E = np.exp(X[start : start + 1024] @ Y.T)
        z = _compensated_rowsum(E, (np.zeros(E.shape[0]), np.zeros(E.shape[0])))
        term[start : start + 1024] = (E / z[:, None]) @ Y
    return term


def reference_fit(P, cfg, labels=None, exact=False):
    """Oracle: the unfused epoch loop, every stage on whole matrices, with
    uniform p0.  Returns the trajectory of X."""
    chain = as_chain(P)
    n = chain.shape[0]
    p0 = uniform_weights(n)
    labels = labels or LabelVector(np.ones(n, dtype=np.int64), 1)
    rng = np.random.default_rng(cfg.seed)
    X = rng.standard_normal((n, cfg.d))
    X /= np.linalg.norm(X, axis=1)[:, None]
    xs = [X]
    for t in range(cfg.n_epochs):
        eta = cfg.eta0 * (1.0 - t / cfg.n_epochs)
        if exact:
            g = reference_attention_term(X, X)
        else:
            params = estimate_mixture(X, labels)
            g = reference_mixture_term(X, reference_zeta(X, params), params)
        reg = np.broadcast_to(p0 @ X, X.shape) + np.outer(p0, X.sum(axis=0))
        g += -(chain.apply(X) + chain.apply_transpose(X)) + reg
        X = sphere_step(X, g, eta)
        xs.append(X)
    return xs


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
        zeta = reference_zeta(X, params)
        mixture_term = (zeta @ params.mu) / zeta.sum(axis=1)[:, None]
        np.testing.assert_allclose(
            mixture_term, softmax_weighted_term(X), rtol=1e-9, atol=1e-12
        )

    def test_singleton_class_beside_larger_classes_matches_per_class_oracle(self):
        """Oracle, class by class: log pi_a + x.mu_a + x.Omega_a.x / 2, with
        class 1 a single row (zero covariance) and classes 2-4 of 13 rows."""
        rng = np.random.default_rng(9)
        n, d, kappa = 40, 4, 4
        labels = LabelVector(np.r_[1, np.tile([2, 3, 4], 13)], kappa)
        params = estimate_mixture(unit_rows(rng, n, d), labels)
        assert not params.omega[0].any() and params.omega[1:].any(axis=(1, 2)).all()
        X = unit_rows(rng, 30, d)
        expo = np.column_stack([
            np.log(params.pi[a]) + X @ params.mu[a]
            + 0.5 * np.einsum("ij,ij->i", X @ params.omega[a], X)
            for a in range(kappa)
        ])
        np.testing.assert_allclose(zeta_matrix(X, params)[0], expo, rtol=1e-13)
        zeta = np.exp(expo)
        np.testing.assert_allclose(approx_z(X, params).values, n * zeta.sum(axis=1), rtol=1e-13)
        r = zeta / zeta.sum(axis=1)[:, None]
        term = sum(r[:, a, None] * (params.mu[a] + X @ params.omega[a]) for a in range(kappa))
        np.testing.assert_allclose(_mixture_normalizer(params)(X)[1], term, rtol=1e-13)


class TestSphereStep:
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

    @settings(max_examples=50)
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

    def test_zero_rate_rejected(self):
        """The rate lies in (0, 1]: the schedule never reaches 0, so a zero
        rate is rejected rather than copied through."""
        X = np.array([[1.0, 0.0]])
        with pytest.raises(ValidationError, match="eta must lie in"):
            sphere_step(X, X, 0.0)

    def test_rate_outside_unit_interval_rejected(self):
        X = np.array([[1.0, 0.0]])
        for eta in (-0.1, 1.5, np.nan):
            with pytest.raises(ValidationError, match="eta must lie in"):
                sphere_step(X, X, eta)

    def test_gradient_shape_must_match(self):
        X = np.array([[1.0, 0.0]])
        with pytest.raises(DimensionError, match="gradient shape"):
            sphere_step(X, np.zeros((2, 2)), 0.5)


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
        result = fit(P, cfg, record_trajectory=True)
        p0 = uniform_weights(200)
        losses = [exact_loss(X, P, p0) for X in result.trajectory]
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
        result = fit(P, cfg)
        p0 = uniform_weights(50)
        params = estimate_mixture(result.X, result.labels)
        assert result.log[-1, 2] == mixture_loss(result.X, P, p0, params)
        assert np.isnan(result.log[:, 3]).all()

    def test_every_log_row_equals_mixture_loss_of_its_iterate(self):
        """The loop logs the same objective that ``mixture_loss`` computes:
        row t is the loss at the iterate that epoch t starts from."""
        for seed, n in enumerate((30, 45, 60)):
            P = random_operator(n, 40 + seed)
            labels = LabelVector(np.arange(n) % 3 + 1, 3)
            cfg = OptimizerConfig(d=5, eta0=0.7, n_epochs=8, kappa=3, seed=seed)
            result = fit(P, cfg, labels=labels, record_trajectory=True)
            p0 = uniform_weights(n)
            for row, X in zip(result.log, result.trajectory, strict=True):
                params = estimate_mixture(X, labels)
                assert row[2] == mixture_loss(X, P, p0, params)

    @pytest.mark.parametrize("n", [50, _BLOCK_ROWS - 1, _BLOCK_ROWS + 1, 4500])
    def test_first_epoch_steps_along_approx_gradient(self, n):
        """Training and ``approx_gradient`` (the gradient that the
        finite-difference checks cover) give the same step, bit for bit."""
        P = random_operator(n, 50, density=min(0.25, 8.0 / n))
        labels = LabelVector(np.arange(n) % 3 + 1, 3)
        cfg = OptimizerConfig(d=6, eta0=0.7, n_epochs=1, kappa=3, seed=5)
        X0, X1 = fit(P, cfg, labels=labels, record_trajectory=True).trajectory
        params = estimate_mixture(X0, labels)
        g = approx_gradient(X0, P, uniform_weights(n), params)
        assert X1.tobytes() == sphere_step(X0, g, cfg.eta0).tobytes()

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

    def test_kappa_above_key_rows_fails_before_the_warm_pass(self, monkeypatch):
        steps = []
        monkeypatch.setattr(edrep.optimizer, "sphere_step", lambda *a: steps.append(a))
        cfg = OptimizerConfig(d=3, n_epochs=2, kappa=31)
        match = "kappa=31 must lie between 1 and the 30 rows of the key embedding"
        with pytest.raises(ValidationError, match=match):
            fit(random_operator(30, 26), cfg)
        assert steps == []

    def test_zeta_row_sums_consistent_with_estimate(self):
        from edrep.znorm import approx_z

        rng = np.random.default_rng(12)
        P = random_operator(40, 27)
        cfg = OptimizerConfig(d=6, eta0=0.7, n_epochs=5, seed=7)
        result = fit(P, cfg)
        params = estimate_mixture(result.X, result.labels)
        zeta = np.exp(zeta_matrix(result.X, params)[0])
        z = approx_z(result.X, params)
        np.testing.assert_allclose(
            zeta.sum(axis=1) * params.m, z.values, rtol=0, atol=1e-12
        )

    def test_non_stochastic_operator_rejected(self):
        bad = sp.csr_matrix(np.array([[0.5, 0.5], [0.7, 0.7]]))
        with pytest.raises(ValidationError, match="row-stochastic"):
            fit(bad, OptimizerConfig(d=2, seed=0))

    def test_rectangular_operator_rejected(self):
        P = row_normalize(sp.csr_matrix(np.ones((6, 4))))
        for run in (fit, fit_exact):
            with pytest.raises(ValidationError, match=f"{run.__name__} needs a square operator"):
                run(P, OptimizerConfig(d=2))

    @pytest.mark.parametrize("rows", [1, 2])
    def test_losses_reject_queries_that_do_not_match_the_operator(self, rows):
        rng = np.random.default_rng(18)
        P = random_operator(6, 38)
        X = unit_rows(rng, 6, 3)
        p0 = uniform_weights(6)
        params = estimate_mixture(X, LabelVector(np.ones(6, dtype=np.int64), 1))
        X = X[:rows]
        with pytest.raises(DimensionError, match="operator shape"):
            exact_loss(X, P, p0)
        with pytest.raises(DimensionError, match="operator shape"):
            mixture_loss(X, P, p0, params)
        with pytest.raises(DimensionError, match="operator shape"):
            approx_gradient(X, P, p0, params)

    def test_label_count_must_match_key_rows(self):
        labels = LabelVector(np.tile([1, 2], 10), 2)
        with pytest.raises(DimensionError, match="20 labels for 30 rows"):
            fit(random_operator(30, 26), OptimizerConfig(d=3, n_epochs=2, kappa=2), labels=labels)

    def test_invalid_rate_rejected_at_config(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(d=4, eta0=1.5)

    @pytest.mark.parametrize("kappa", [1, 3])
    def test_streamed_transpose_equals_the_whole_product(self, kappa):
        """Oracle: a weighted one-factor chain of weight 1 is the same
        operator, and its fit takes P'X as one whole product; a plain
        one-factor chain streams it a block at a time.  The graph's empty
        rows become self-loops; its empty columns leave rows of P' empty."""
        n = 5000
        P = row_normalize(directed_graph(n, 3, 60))
        cfg = OptimizerConfig(d=16, n_epochs=4, kappa=kappa, seed=3)
        streamed = fit(P, cfg)
        whole = fit(ProductChain([P], weights=[1.0]), cfg)
        assert streamed.X.tobytes() == whole.X.tobytes()
        assert streamed.log.tobytes() == whole.log.tobytes()
        assert streamed.labels.labels.tobytes() == whole.labels.labels.tobytes()

    def test_one_factor_fit_holds_fewer_than_three_arrays(self):
        """The normalizer is built before P X exists, and P'X is served a
        block at a time, so a fit holds X and P X.  Peak of a second fit
        on a warmed one-factor chain, n = 20000, d = 16, 2 epochs: the
        loop that held X, P X and the whole P'X, and made the moments'
        centred copy while P X was live, peaked at 9,175,846 bytes
        (3.58 n x d arrays; numpy 2.4.6, scipy 1.17.1, Python 3.11);
        now about 2.7 arrays."""
        n, d = 20000, 16
        chain = ProductChain([row_normalize(directed_graph(n, 5, 12))])
        cfg = OptimizerConfig(d=d, n_epochs=2, seed=0)
        fit(chain, cfg)  # validates the chain, caches its transpose
        tracemalloc.start()
        try:
            fit(chain, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * d * 8

    def test_epoch_loop_skips_the_public_operand_checks(self, monkeypatch):
        """The loop's products take the unchecked path; the public ones,
        called here only by the one-time stochastic check, keep it."""
        calls = []
        for name in ("apply", "apply_transpose"):
            method = getattr(ProductChain, name)
            monkeypatch.setattr(
                ProductChain, name,
                lambda self, X, _m=method, _n=name: calls.append(_n) or _m(self, X),
            )
        fit(random_operator(40, 23), OptimizerConfig(d=4, n_epochs=5, kappa=2, seed=1))
        assert calls == ["apply"]
        chain = as_chain(random_operator(5, 24))
        bad = np.ones((5, 2))
        bad[3, 1] = np.nan
        for name in ("apply", "apply_transpose"):
            with pytest.raises(ValidationError, match="non-finite"):
                getattr(chain, name)(bad)


# A 25-epoch fit in a fresh process, printing the median number of minor
# page faults per epoch after the first.  The graph is built without large
# temporaries, which would leave malloc's thresholds raised.
_FAULT_PROBE = """
import resource
import numpy as np
import scipy.sparse as sp
from edrep.graphs import walk_operator
from edrep.optimizer import OptimizerConfig, fit
n = 5000
i, j = np.random.default_rng(1).integers(0, n, (2, 5 * n))
A = sp.coo_matrix((np.ones(i.size), (i, j)), shape=(n, n)).tocsr()
faults = []
fit(walk_operator(A + A.T, 3), OptimizerConfig(d=32, n_epochs=25, seed=0),
    on_epoch=lambda t, X: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print(np.median(np.diff(faults)))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor page faults")
def test_epochs_do_not_fault_their_pages_in_again():
    """An epoch's products and step reuse the memory of the last epoch.
    With a new array for every product and a new array for the stepped
    rows, malloc returned about 11 MiB to the system every epoch and
    faulted it back in: 2,815 minor faults per epoch at n = 5000,
    d = 32 (1 or 2 threads); now 0."""
    src = str(Path(edrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    assert float(probe.stdout) <= 600


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

    @pytest.mark.parametrize("n", [40, 300, _BLOCK_ROWS, 2500])
    def test_every_log_row_equals_exact_loss_of_its_iterate(self, n):
        """The loop and ``exact_loss`` take log Z from the same score
        blocks and add it up per row block of the loop, in the same
        order: bitwise equal, within one row block and beyond it."""
        P = random_operator(n, 60, density=min(0.25, 8.0 / n))
        cfg = OptimizerConfig(d=4, eta0=0.7, n_epochs=3, seed=5)
        result = fit_exact(P, cfg, record_trajectory=True)
        p0 = uniform_weights(n)
        for row, X in zip(result.log, result.trajectory, strict=True):
            assert row[3] == exact_loss(X, P, p0)

    @pytest.mark.parametrize(
        "n, m", [(1, 5), (300, 300), (_BLOCK_ROWS, 4097), (700, 100), (300, 6145), (17, 8193)]
    )
    def test_normalizer_logz_is_log_of_exact_z(self, n, m):
        """Blocks that end inside a score block, more queries than keys, and
        keys scored in two or three chunks: the normalizer and ``exact_z``
        run the same score loop, so log Z keeps its bits."""
        rng = np.random.default_rng(n + m)
        X, Y = unit_rows(rng, n, 6), unit_rows(rng, m, 6)
        logz, _ = _exact_normalizer(Y)(X)
        assert logz.tobytes() == np.log(exact_z(X, Y).values).tobytes()

    @pytest.mark.parametrize(
        "n, m, d", [(777, 1333, 7), (300, 300, 16), (513, 257, 5), (2049, 2049, 32)]
    )
    def test_term_matches_reference_within_last_bits(self, n, m, d):
        """The term adds each key chunk's exp-scores times its keys and
        divides by Z once, after the last chunk; the oracle divides whole
        1024-row blocks of scores by Z before one product with the keys, so
        the last bits differ.  The largest difference was 1.46e-15 x
        max|term| at 1 and at 2 BLAS threads (777 x 1333 x 7; 1.45e-15 at
        300 x 300 x 16 and 513 x 257 x 5, whose keys are one chunk); the
        oracle itself differs between 1 and 2 threads by up to 2.4e-16 x
        max|term|."""
        rng = np.random.default_rng(n + m + d)
        X, Y = unit_rows(rng, n, d), unit_rows(rng, m, d)
        want = reference_attention_term(X, Y)
        got = softmax_weighted_term(X, Y)
        assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()

    @pytest.mark.parametrize("m", [8192, 20000])
    def test_normalizer_peak_memory_is_one_score_block(self, m):
        """One buffer of 256 score rows by one key chunk per epoch, each
        chunk's product with its keys added into the term rows.  2048
        queries, d = 32: beyond the term and log Z, whole 256-row blocks of
        scores peaked at 16,793,217 bytes at 8192 keys and 40,975,664 at
        20,000; one key chunk peaks at 4,267,113 and 7,478,296."""
        rng = np.random.default_rng(41)
        Y = unit_rows(rng, m, 32)
        X = Y[:2048].copy()
        tracemalloc.start()
        try:
            logz, term = _exact_normalizer(Y)(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 4095 * 8 + term.nbytes + logz.nbytes + 64 * 1024

    @pytest.mark.parametrize(
        "Y, error, match",
        [
            (np.zeros((5, 4)), DimensionError, "inner dimensions differ"),
            (np.zeros((0, 3)), ValidationError, "no rows"),
        ],
        ids=["other-d", "no-keys"],
    )
    def test_softmax_weighted_term_checks_its_keys(self, Y, error, match):
        """The entry step of ``exact_z``; without it, keys of another width
        raise numpy's own ValueError and keys with no rows give a NaN term."""
        with pytest.raises(error, match=match):
            softmax_weighted_term(np.zeros((2, 3)), Y)

    def test_size_guard(self):
        P = random_operator(10, 30)
        cfg = OptimizerConfig(d=2, seed=0)
        with pytest.raises(ValidationError, match="n="):
            fit_exact(
                ProductChain([sp.eye(20001, format="csr")]), cfg
            )
        fit_exact(P, replace(cfg, n_epochs=1))  # small sizes pass


def labels_with_singletons(n, kappa, singletons, rng):
    """Labels in 1..kappa, shuffled, where classes 1..singletons hold one
    row each (zero covariance) and every class is nonempty."""
    labels = np.empty(n, dtype=np.int64)
    labels[:singletons] = np.arange(1, singletons + 1)
    labels[singletons:] = rng.integers(singletons + 1, kappa + 1, n - singletons)
    labels[singletons:kappa] = np.arange(singletons + 1, kappa + 1)
    return LabelVector(labels[rng.permutation(n)], kappa)


class TestBlockNormalizer:
    @settings(max_examples=30)
    @given(
        n=st.sampled_from(
            [1, 2, 37, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 5]
        ),
        d=st.integers(1, 6),
        kappa=st.integers(1, 8),
        frozen_share=st.sampled_from([0.0, 0.3, 1.0]),
        eta=st.floats(0.0, 1.0, exclude_min=True),
        seed=st.integers(0, 2**16),
    )
    def test_matches_unfused_formula_step_included(
        self, n, d, kappa, frozen_share, eta, seed
    ):
        """Oracle: the unfused normalizer (zeta matrix, then the term with a
        second product per class) followed by a whole-matrix sphere step."""
        rng = np.random.default_rng(seed)
        kappa = min(kappa, n)
        X = unit_rows(rng, n, d)
        labels = labels_with_singletons(n, kappa, int(rng.integers(0, kappa)), rng)
        params = estimate_mixture(X, labels)
        normalize = _mixture_normalizer(params)
        ref_logz, ref_term = reference_mixture_pieces(X, params)

        logz, term = normalize(X)
        np.testing.assert_array_less(
            np.abs(logz - ref_logz), 1e-13 * np.maximum(np.abs(ref_logz), 1.0)
        )
        assert np.abs(term - ref_term).max() <= 1e-13 * np.abs(ref_term).max()
        term = _normalized(normalize, X)
        assert np.abs(term - ref_term).max() <= 1e-13 * np.abs(ref_term).max()

        # The gradient is made v, whose tangential part is a unit vector
        # (so the step is well conditioned) or, on frozen rows, zero.
        v = rng.standard_normal((n, d))
        v -= np.einsum("ij,ij->i", v, X)[:, None] * X
        norms = np.linalg.norm(v, axis=1)[:, None]
        v = np.divide(v, norms, out=np.zeros_like(v), where=norms > 1e-3)
        v += rng.standard_normal((n, 1)) * X
        frozen = rng.random(n) < frozen_share
        v[frozen] = 2.0 * X[frozen]
        rest = v - ref_term
        stepped, total = _blocked_step(
            X, normalize, lambda lo, hi: rest[lo:hi], eta, "in the test", np.empty_like(X)
        )
        assert total == pytest.approx(ref_logz.sum(), rel=1e-13)
        np.testing.assert_array_equal(stepped[frozen], X[frozen])
        np.testing.assert_allclose(
            stepped, sphere_step(X, ref_term + rest, eta), rtol=0, atol=1e-12
        )

    def test_finite_log_z_where_the_linear_terms_overflow(self):
        """Oracle: the max-shifted log-sum-exp of the class exponents."""
        rng = np.random.default_rng(16)
        n, d, kappa = 60, 4, 3
        Y = 30.0 * unit_rows(rng, n, d)
        params = estimate_mixture(Y, LabelVector(np.arange(n) % kappa + 1, kappa))
        X = Y[:12]
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="overflowed"):
            reference_zeta(X, params)

        logz, term = _mixture_normalizer(params)(X)
        expo = X @ params.mu.T + np.log(params.pi)
        for a in range(kappa):
            expo[:, a] += 0.5 * np.einsum("ij,ij->i", X @ params.omega[a], X)
        top = expo.max(axis=1)
        shifted = np.exp(expo - top[:, None])
        ref_logz = np.log(params.m) + top + np.log(shifted.sum(axis=1))
        resp = shifted / shifted.sum(axis=1)[:, None]
        ref_term = resp @ params.mu
        for a in range(kappa):
            ref_term += resp[:, a, None] * (X @ params.omega[a])
        assert np.all(np.isfinite(logz)) and np.all(np.isfinite(term))
        assert expo.max() > 709.0  # exp() of it overflows
        np.testing.assert_allclose(logz, ref_logz, rtol=1e-13)
        np.testing.assert_allclose(term, ref_term, rtol=0, atol=1e-12 * np.abs(ref_term).max())

    def test_non_finite_gradient_block_rejected(self):
        X = unit_rows(np.random.default_rng(17), 10, 3)

        def broken(Xb):
            return np.zeros(Xb.shape[0]), np.full_like(Xb, np.nan)

        with pytest.raises(ValidationError, match="non-finite"):
            _blocked_step(X, broken, lambda lo, hi: 0.0, 0.5, "in the test", np.empty_like(X))


class TestUnitRowCheck:
    def test_unit_rows_pass(self):
        _assert_unit_rows(np.eye(3), "in the test")

    def test_one_nan_row_fails(self):
        X = np.eye(3)
        X[1] = np.nan
        with pytest.raises(NumericError, match="drifted"):
            _assert_unit_rows(X, "in the test")


class TestIteratesMatchUnfusedLoop:
    """Oracle: ``reference_fit``, the unfused loop, on the criterion-8 seeds;
    every epoch's iterate must agree within 1e-12."""

    @staticmethod
    def cases():
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(20, 40))
            yield n, random_operator(n, seed), OptimizerConfig(d=5, eta0=0.7, n_epochs=3, seed=seed)

    @staticmethod
    def worst(got, want):
        assert len(got) == len(want)
        return max(float(np.abs(a - b).max()) for a, b in zip(got, want))

    def test_fit(self):
        worst = 0.0
        for n, P, cfg in self.cases():
            got = fit(P, cfg, record_trajectory=True).trajectory
            worst = max(worst, self.worst(got, reference_fit(P, cfg)))
            labels = LabelVector(np.arange(n) % 3 + 1, 3)
            got = fit(P, replace(cfg, kappa=3), labels=labels, record_trajectory=True)
            worst = max(worst, self.worst(got.trajectory, reference_fit(P, cfg, labels)))
        assert worst <= 1e-12

    def test_fit_exact(self):
        worst = 0.0
        for _, P, cfg in self.cases():
            got = fit_exact(P, cfg, record_trajectory=True).trajectory
            worst = max(worst, self.worst(got, reference_fit(P, cfg, exact=True)))
        assert worst <= 1e-12
