"""Acceptance suite: one test per release criterion, each printing a
measurement line (run with -s to stream them).

Criterion 7's hard-hardness arm is asserted exactly as specified even
though the declared generator family cannot reach the threshold: at
c = 10 the heavy-tailed propensity recipe (the only recipe for which
hardness 4 is admissible) isolates ~29% of all nodes, capping the best
achievable agreement score near 0.45 regardless of sample size or
algorithm.  The measured score sits at that ceiling; the assertion is
kept faithful and is expected to fail.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import stats

from edrep.evaluate import dcsbm_benchmark, deviation_ct
from edrep.graphs import (
    TemporalEdgeList,
    negative_binomial_graph,
    supra_adjacency,
    walk_operator,
)
from edrep.matstore import row_normalize, unit_rows
from edrep.mixture import estimate_mixture, kmeans_label, singleton_mixture
from edrep.optimizer import (
    OptimizerConfig,
    approx_gradient,
    exact_loss,
    fit,
    fit_exact,
    mixture_loss,
    softmax_weighted_term,
    unit_tangential,
)
from edrep.znorm import (
    KernelFeatureMap,
    approx_z,
    concentration_probe,
    exact_z,
    kernel_z,
    zeta_matrix,
)


def random_operator(n, seed, density=0.25):
    base = sp.random(n, n, density=density, random_state=seed, format="csr")
    return row_normalize(base + sp.eye(n))


def report(criterion, message):
    print(f"[criterion {criterion}] {message}")


@pytest.fixture(scope="module")
def estimator_race():
    """Shared instance for criteria 1 and 2: 20000 unit-norm vectors from a
    three-component mixture in dimension 100, 1000 sampled query rows,
    median relative errors per method against the exact constants."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n, d, k_true = 20000, 100, 3
    means = rng.standard_normal((k_true, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    comp = rng.integers(0, k_true, n)
    Y = np.empty((n, d))
    for c in range(k_true):
        idx = comp == c
        mixing = rng.standard_normal((d, d)) / np.sqrt(d)
        Y[idx] = means[c] + 0.5 * rng.standard_normal((idx.sum(), d)) @ mixing
    Y = unit_rows(Y)
    sample = rng.choice(n, size=1000, replace=False)
    X = Y[sample]
    z_exact = exact_z(X, Y)

    def median_err(estimate):
        return float(
            np.median(np.abs(estimate.values - z_exact.values) / z_exact.values)
        )

    medians = {}
    for kappa in (1, 5, 10):
        labels = kmeans_label(Y, kappa, seed=7)
        medians[f"mixture{kappa}"] = median_err(approx_z(X, estimate_mixture(Y, labels)))
    fmap = KernelFeatureMap.from_seed(d, 1000, 7)
    medians["performer"] = median_err(kernel_z(X, Y, fmap, "performer"))
    medians["rfa"] = median_err(kernel_z(X, Y, fmap, "rfa"))
    medians["elapsed"] = time.perf_counter() - t0
    return medians


def test_criterion_1_mixture_beats_kernel_baselines(estimator_race):
    m = estimator_race
    report(
        1,
        f"median rel err: mixture(5)={m['mixture5']:.2e} "
        f"performer={m['performer']:.2e} rfa={m['rfa']:.2e} "
        f"elapsed={m['elapsed']:.0f}s",
    )
    assert m["mixture5"] < m["performer"]
    assert m["mixture5"] < m["rfa"]
    assert m["mixture5"] <= 0.1 * m["performer"]
    assert m["mixture5"] <= 0.1 * m["rfa"]
    assert m["elapsed"] < 120.0


def test_criterion_2_error_decreases_with_mixture_order(estimator_race):
    m = estimator_race
    report(2, f"median rel err: kappa=1 {m['mixture1']:.2e} kappa=10 {m['mixture10']:.2e}")
    assert m["mixture10"] <= 1.05 * m["mixture1"]


def test_criterion_3_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    n, d, h = 40, 6, 1e-5
    P = random_operator(n, 7)
    X = unit_rows(rng.standard_normal((n, d)))
    p0 = rng.random(n)
    p0 /= p0.sum()
    params = estimate_mixture(X, kmeans_label(X, 3, seed=1))
    g = approx_gradient(X, P, p0, params)
    fd = np.zeros_like(X)
    for i in range(n):
        for q in range(d):
            up, down = X.copy(), X.copy()
            up[i, q] += h
            down[i, q] -= h
            fd[i, q] = (
                mixture_loss(up, P, p0, params) - mixture_loss(down, P, p0, params)
            ) / (2 * h)
    approx_err = float((np.abs(g - fd) / np.maximum(np.abs(fd), 1e-7)).max())

    n2 = 50
    X2 = unit_rows(rng.standard_normal((n2, d)))
    Y2 = X2.copy()
    term = softmax_weighted_term(X2, Y2)

    def frozen_logz(M):
        return float(np.log(np.exp(M @ Y2.T).sum(axis=1)).sum())

    fd2 = np.zeros_like(X2)
    for i in range(n2):
        for q in range(d):
            up, down = X2.copy(), X2.copy()
            up[i, q] += h
            down[i, q] -= h
            fd2[i, q] = (frozen_logz(up) - frozen_logz(down)) / (2 * h)
    exact_err = float((np.abs(term - fd2) / np.maximum(np.abs(fd2), 1e-7)).max())

    report(3, f"max rel err: mixture gradient {approx_err:.2e}, exact log-Z term {exact_err:.2e}")
    assert approx_err < 1e-4
    assert exact_err < 1e-4


def test_criterion_4_cross_entropy_form_equals_trace_form():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(5, 51))
        P = random_operator(n, 100 + trial)
        X = unit_rows(rng.standard_normal((n, 5)))
        p0 = rng.random(n)
        p0 /= p0.sum()
        dense = P.toarray()
        scores = X @ X.T
        Z = np.exp(scores).sum(axis=1)
        raw = 0.0
        for i in range(n):
            for j in range(n):
                if dense[i, j] != 0.0:
                    raw -= dense[i, j] * math.log(math.exp(scores[i, j]) / Z[i])
            raw += X[i] @ (p0 @ X)
        worst = max(worst, abs(raw - exact_loss(X, P, p0)))
    report(4, f"max |cross-entropy form - trace form| = {worst:.2e} over 20 instances")
    assert worst <= 1e-9


def test_criterion_5_deviation_shrinks_with_mixture_order():
    n = 3000 if os.environ.get("EDREP_FULL_DEVIATION") else 500
    operator = row_normalize(negative_binomial_graph(n, r=3, p=0.3, seed=11))
    cfg = OptimizerConfig(d=32, eta0=0.7, n_epochs=25, seed=11)
    reference = fit_exact(operator, cfg, record_trajectory=True)
    finals = {}
    for kappa in (1, 8):
        run = fit(operator, replace(cfg, kappa=kappa), record_trajectory=True)
        ct = deviation_ct(run.trajectory, reference.trajectory)
        assert ct[0] == 0.0
        assert np.all(np.isfinite(ct))
        finals[kappa] = float(ct[-1])
    report(
        5,
        f"n={n}: final deviation kappa=1 {finals[1]:.4e}, kappa=8 {finals[8]:.4e}",
    )
    assert finals[8] <= finals[1]


def test_criterion_6_spread_decays_with_key_count():
    d = 20
    rng = np.random.default_rng(3)
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)

    def sampler(m, gen):
        Y = gen.standard_normal((m, d))
        return Y / np.linalg.norm(Y, axis=1)[:, None]

    table = concentration_probe(sampler, x, m_grid=[500, 2000], repeats=200, seed=5)
    ratio = float(table[0, 2] / table[1, 2])
    report(6, f"std(Z/m) ratio for m 500 -> 2000: {ratio:.2f} (ideal 2)")
    assert ratio >= 1.6


@pytest.fixture(scope="module")
def community_grid():
    cfg = OptimizerConfig(d=32, eta0=0.7, n_epochs=25, kappa=1, seed=0)
    rows = dcsbm_benchmark(
        n=5000,
        q=4,
        c=10.0,
        alphas=[0.5, 1.5, 2.5, 4.0],
        seeds=range(10),
        w=3,
        cfg=cfg,
        theta_recipe="powerlaw",
    )
    return np.array(rows)


def test_criterion_7a_detection_at_hard_end_of_grid(community_grid):
    scores = community_grid[community_grid[:, 0] == 4.0][:, 2]
    report(
        "7a",
        f"mean agreement at hardness 4.0: {scores.mean():.3f} over 10 seeds "
        "(structural ceiling with this generator is ~0.45; see ledger)",
    )
    assert scores.mean() > 0.8


def test_criterion_7b_no_detection_below_threshold(community_grid):
    scores = community_grid[community_grid[:, 0] == 0.5][:, 2]
    report("7b", f"mean agreement at hardness 0.5: {scores.mean():.4f} over 10 seeds")
    assert scores.mean() < 0.05


def test_criterion_7c_agreement_monotone_in_hardness(community_grid):
    rho = stats.spearmanr(community_grid[:, 0], community_grid[:, 2]).statistic
    total_wall = community_grid[:, 3].sum()
    report("7c", f"spearman(hardness, agreement) = {rho:.3f}; grid wall time {total_wall:.0f}s")
    assert rho > 0.8
    assert total_wall < 600.0


def test_criterion_8_invariant_suite_across_seeds():
    worst = {"norm": 0.0, "orth": 0.0, "zeta": 0.0, "walk": 0.0}
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(20, 40))
        P = random_operator(n, seed)
        cfg = OptimizerConfig(d=5, eta0=0.7, n_epochs=3, seed=seed)
        result = fit(P, cfg, record_trajectory=True)
        for X in result.trajectory:
            worst["norm"] = max(
                worst["norm"], float(np.abs(np.linalg.norm(X, axis=1) - 1.0).max())
            )
        X = result.trajectory[-2]
        params = estimate_mixture(X, result.labels)
        g = approx_gradient(X, P, np.full(n, 1.0 / n), params)
        gpp, mask = unit_tangential(g, X)
        worst["orth"] = max(
            worst["orth"],
            float(np.abs(np.einsum("ij,ij->i", gpp[mask], X[mask])).max()),
        )
        zeta = np.exp(zeta_matrix(X, params)[0])
        z = approx_z(X, params)
        worst["zeta"] = max(
            worst["zeta"],
            float(np.abs(zeta.sum(axis=1) * params.m - z.values).max()),
        )

        n_rec = int(rng.integers(5, 25))
        i = rng.integers(0, 10, n_rec)
        j = (i + rng.integers(1, 10, n_rec)) % 11
        edges = TemporalEdgeList(
            i=i, j=j, t=rng.integers(1, 8, n_rec), w=rng.random(n_rec) + 0.1
        )
        assert supra_adjacency(edges).is_time_respecting()

        adjacency = (P > 0.01).astype(float)
        op = walk_operator(adjacency, int(rng.integers(1, 4)))
        ones = np.ones((n, 1))
        worst["walk"] = max(worst["walk"], float(np.abs(op.apply(ones) - 1.0).max()))
    report(
        8,
        "worst over 50 seeds: row-norm drift {norm:.1e}, tangent overlap {orth:.1e}, "
        "zeta mismatch {zeta:.1e}, walk row-sum drift {walk:.1e}".format(**worst),
    )
    assert worst["norm"] <= 1e-10
    assert worst["orth"] <= 1e-9
    assert worst["zeta"] <= 1e-12
    assert worst["walk"] <= 1e-10


def test_criterion_9_singleton_mixture_closes_the_loop():
    rng = np.random.default_rng(9)
    worst = 0.0
    for n in (10, 50, 100):
        Y = unit_rows(rng.standard_normal((n, 8)))
        z_mix = approx_z(Y, singleton_mixture(Y))
        z_ex = exact_z(Y)
        worst = max(
            worst, float(np.abs(z_mix.values - z_ex.values).max() / z_ex.values.min())
        )
    report(9, f"point-mass mixture vs exact, worst relative gap {worst:.1e}")
    assert worst <= 1e-9
