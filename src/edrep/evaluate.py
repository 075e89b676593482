"""Metrics and experiment drivers: partition agreement, trajectory
deviation, and the community-detection benchmark pipeline."""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from .errors import DimensionError, ValidationError, check_whole
from .graphs import DcsbmInstance, DcsbmParams, dcsbm_sample, walk_operator
from .matstore import as_dense
from .mixture import check_kappa, kmeans_label
from .optimizer import OptimizerConfig, fit


def nmi(labels_a, labels_b) -> float:
    """Mutual information between two partitions, normalized by the
    arithmetic mean of their entropies; 0 for independent assignments,
    1 for identical partitions (up to relabeling)."""
    a = np.asarray(getattr(labels_a, "labels", labels_a)).ravel()
    b = np.asarray(getattr(labels_b, "labels", labels_b)).ravel()
    if a.size != b.size:
        raise DimensionError(f"partitions have lengths {a.size} and {b.size}")
    if a.size == 0:
        raise ValidationError("cannot compare empty partitions")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    cont = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(cont, (ai, bi), 1.0)
    n = a.size
    # Every class that np.unique returns has a member, so no marginal is 0.
    rows, cols = cont.sum(axis=1), cont.sum(axis=0)
    mi = 0.0
    for r, c in zip(*np.nonzero(cont)):
        nij = cont[r, c]
        mi += (nij / n) * math.log(nij * n / (rows[r] * cols[c]))
    pa, pb = rows / n, cols / n
    ha = -np.sum(pa * np.log(pa))
    hb = -np.sum(pb * np.log(pb))
    mean_h = 0.5 * (ha + hb)
    if mean_h == 0.0:
        # Both partitions are trivial single-class assignments.
        return 1.0
    return float(max(0.0, min(1.0, mi / mean_h)))


def deviation_ct(X_traj, Y_traj) -> np.ndarray:
    """Per-epoch Frobenius deviation between the Gram matrices of two
    embedding trajectories, (1/n) ||X X' - Y Y'||_F.

    Uses the trace expansion over d x d blocks, so the n x n Gram
    matrices are never materialized.  Invariant under column-orthogonal
    transforms of either trajectory; exactly zero where the iterates
    coincide.
    """
    if len(X_traj) != len(Y_traj):
        raise DimensionError(
            f"trajectories have lengths {len(X_traj)} and {len(Y_traj)}"
        )
    out = np.empty(len(X_traj))
    for t, (X, Y) in enumerate(zip(X_traj, Y_traj)):
        X = as_dense(X, name=f"epoch {t} iterate of X_traj")
        Y = as_dense(Y, name=f"epoch {t} iterate of Y_traj")
        if X.shape != Y.shape:
            raise DimensionError(
                f"epoch {t}: shapes {X.shape} and {Y.shape} differ"
            )
        if X.shape[0] == 0:
            raise ValidationError(f"epoch {t}: iterates have no rows")
        gxx = np.sum((X.T @ X) ** 2)
        gyy = np.sum((Y.T @ Y) ** 2)
        gxy = np.sum((Y.T @ X) ** 2)
        out[t] = np.sqrt(max(0.0, gxx - 2.0 * gxy + gyy)) / X.shape[0]
    return out


def community_pipeline(
    instance: DcsbmInstance, w: int, cfg: OptimizerConfig
) -> tuple[float, float]:
    """Embed a sampled graph and score the recovered communities.

    Builds the averaged walk operator, fits the embedding, clusters it
    into the ground-truth class count (10 restarts, best inertia) and
    returns the partition agreement plus the wall time of those three
    stages (graph generation excluded).
    """
    t0 = time.perf_counter()
    chain = walk_operator(instance.adjacency, w)
    result = fit(chain, cfg)
    predicted = kmeans_label(
        result.X, instance.labels.kappa, seed=cfg.seed, restarts=10
    )
    wall = time.perf_counter() - t0
    return nmi(predicted, instance.labels), wall


def dcsbm_benchmark(
    n: int,
    q: int,
    c: float,
    alphas,
    seeds,
    w: int,
    cfg: OptimizerConfig,
    theta_recipe: str = "powerlaw",
):
    """Run the community pipeline over a hardness grid.

    Returns tidy rows (alpha, seed, nmi, wall_time), one per
    alpha/seed combination.  Every grid cell's block model, the walk
    window and the mixture order are checked before the first graph is sampled.
    """
    grid = [
        DcsbmParams(n=n, q=q, c=c, alpha=alpha, theta_recipe=theta_recipe, seed=seed)
        for alpha in alphas
        for seed in seeds
    ]
    check_whole(w, "walk window w", 1)
    check_kappa(cfg.kappa, n, "each graph")
    rows = []
    for params in grid:
        score, wall = community_pipeline(
            dcsbm_sample(params), w, replace(cfg, seed=params.seed)
        )
        rows.append((params.alpha, params.seed, score, wall))
    return rows
