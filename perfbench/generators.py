"""Seeded input generators owned by the benchmark.

Each generator is a pure function of its seed and size arguments and
returns plain numpy arrays; the workloads write them to files through
``edrep.io`` before anything is timed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def planted_partition(n: int, q: int, mean_degree: float, in_out_ratio: float, seed: int):
    """Undirected planted-partition graph in O(n + E).

    Labels are uniform over q blocks.  The number of edges between blocks
    a <= b is Poisson with mean c_ab * n_a * n_b / n (halved on the
    diagonal), where c_in = in_out_ratio * c_out and the mean degree is
    (c_in + (q - 1) c_out) / q.  Endpoints are drawn uniformly inside their
    blocks; self-loops are dropped and repeated pairs collapse to one
    unit-weight edge, so the result is a simple graph.  Returns the CSR
    adjacency and labels in 1..q.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, q, n)
    c_out = q * mean_degree / (in_out_ratio + q - 1)
    c_in = in_out_ratio * c_out
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=q)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    src, dst = [], []
    for a in range(q):
        for b in range(a, q):
            if a == b:
                mean = c_in * sizes[a] * sizes[a] / (2.0 * n)
            else:
                mean = c_out * sizes[a] * sizes[b] / n
            m = rng.poisson(mean)
            src.append(order[starts[a] + rng.integers(0, sizes[a], m)])
            dst.append(order[starts[b] + rng.integers(0, sizes[b], m)])
    i = np.concatenate(src)
    j = np.concatenate(dst)
    keep = i != j
    i, j = i[keep], j[keep]
    adj = sp.coo_matrix(
        (np.ones(2 * i.size), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    ).tocsr()
    adj.data[:] = 1.0
    adj.sort_indices()
    return adj, labels + 1


def criterion1_embedding(seed: int, n: int = 20000, d: int = 100, k_true: int = 3, queries: int = 1000):
    """The criterion-1 instance of the acceptance suite.

    ``n`` unit vectors in dimension ``d`` from ``k_true`` anisotropic
    Gaussian components, plus ``queries`` distinct sampled row indices.
    The draw order matches the acceptance suite, so seed 2024 gives its
    instance.  Returns (Y, query indices, component labels in 1..k_true).
    """
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((k_true, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    comp = rng.integers(0, k_true, n)
    Y = np.empty((n, d))
    for c in range(k_true):
        idx = comp == c
        mixing = rng.standard_normal((d, d)) / np.sqrt(d)
        Y[idx] = means[c] + 0.5 * rng.standard_normal((idx.sum(), d)) @ mixing
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    sample = rng.choice(n, size=queries, replace=False)
    return Y, sample, comp + 1


def contact_list(
    seed: int,
    nodes: int = 250,
    snapshots: int = 3000,
    contacts: int = 100_000,
    groups: int = 10,
    in_group: float = 0.7,
):
    """Temporal contacts shaped like face-to-face proximity data.

    Nodes belong to ``groups`` classes of random size.  Each draw picks a
    snapshot and a node uniformly, and a partner from the node's own
    class with probability ``in_group``, otherwise uniformly.  Self pairs
    are dropped and a pair met twice in one snapshot is kept once, so
    slightly fewer than ``contacts`` records remain.  Weights are the
    number of 20-second slots of the contact, 1 to 9.  Returns columns
    (i, j, t, w) sorted by (t, i, j), with 1-based snapshots, and the
    class of every node.
    """
    rng = np.random.default_rng(seed)
    group = rng.integers(0, groups, nodes)
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group, minlength=groups)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    t = rng.integers(1, snapshots + 1, contacts)
    i = rng.integers(0, nodes, contacts)
    g = group[i]
    same = rng.random(contacts) < in_group
    j = np.where(
        same,
        order[starts[g] + (rng.random(contacts) * sizes[g]).astype(np.int64)],
        rng.integers(0, nodes, contacts),
    )
    a, b = np.minimum(i, j), np.maximum(i, j)
    keep = a != b
    key = np.unique((t[keep] * nodes + a[keep]) * nodes + b[keep])
    b = key % nodes
    a = (key // nodes) % nodes
    t = key // (nodes * nodes)
    w = rng.integers(1, 10, key.size).astype(np.float64)
    return a, b, t, w, group
