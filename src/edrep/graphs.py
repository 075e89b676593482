"""Synthetic graph generators and graph transforms.

Covers the degree-corrected block model benchmark, the averaged
random-walk probability operator, a heterogeneous-degree random graph
for optimizer comparisons, and the directed supra graph over
(node, activation time) pairs of a temporal contact list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .matstore import ProductChain, as_csr, row_normalize
from .mixture import LabelVector

_SAMPLE_BLOCK = 256


@dataclass(frozen=True)
class DcsbmParams:
    """Degree-corrected block model, parameterized by hardness.

    ``alpha`` controls detectability through
    alpha = (c - c_out) * sqrt(E[theta^2] / c); communities are
    recoverable in the large-n limit only for alpha > 1.  The in/out
    affinities are recovered from (c, alpha, q) via the mean-degree
    identity c = (c_in + (q - 1) c_out) / q.  ``theta_recipe`` is either
    ``unit`` (all ones) or ``powerlaw`` (sixth power of a uniform
    draw on [3, 12], normalized to mean 1), giving a broad but bounded
    degree profile.
    """

    n: int
    q: int
    c: float
    alpha: float
    theta_recipe: str = "powerlaw"
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.q < 1 or self.q > self.n:
            raise ValidationError(f"bad node/community counts n={self.n}, q={self.q}")
        if self.c <= 0 or self.alpha <= 0:
            raise ValidationError("expected degree and hardness must be positive")
        if self.theta_recipe not in ("unit", "powerlaw"):
            raise ValidationError(f"unknown theta recipe {self.theta_recipe!r}")


@dataclass(frozen=True)
class DcsbmInstance:
    """One sampled graph: adjacency, ground truth, and realized moments."""

    adjacency: sp.csr_matrix
    labels: LabelVector
    avg_degree: float
    c_in: float
    c_out: float
    theta: np.ndarray


def _draw_theta(recipe: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if recipe == "unit":
        return np.ones(n)
    raw = rng.uniform(3.0, 12.0, size=n) ** 6
    return raw / raw.mean()


def solve_affinities(c: float, alpha: float, q: int, theta_second_moment: float):
    """Invert (c, alpha, q) into (c_in, c_out) under the mean-degree identity."""
    c_out = c - alpha * np.sqrt(c / theta_second_moment)
    if -1e-9 < c_out < 0:
        c_out = 0.0
    c_in = q * c - (q - 1) * c_out
    if c_out < 0:
        raise ValidationError(
            f"alpha={alpha} is too large for c={c}: it would need c_out={c_out:.3f} < 0"
        )
    if c_in <= c_out:
        raise ValidationError(f"derived c_in={c_in:.3f} <= c_out={c_out:.3f}")
    return float(c_in), float(c_out)


def dcsbm_sample(params: DcsbmParams) -> DcsbmInstance:
    """Sample a block-model graph with degree correction.

    Labels are uniform over the q classes, edges are independent
    Bernoulli draws on the upper triangle with probability
    theta_i theta_j / n times the in/out affinity, mirrored to an exact
    symmetric zero-diagonal adjacency.  Sampling walks the upper
    triangle in fixed-size row ranges, each with its own spawned RNG
    substream, so results are reproducible regardless of how ranges are
    scheduled.
    """
    root = np.random.SeedSequence(params.seed)
    n_blocks = (params.n + _SAMPLE_BLOCK - 1) // _SAMPLE_BLOCK
    streams = root.spawn(2 + n_blocks)
    label_rng = np.random.default_rng(streams[0])
    theta_rng = np.random.default_rng(streams[1])

    labels = label_rng.integers(1, params.q + 1, size=params.n)
    while np.bincount(labels, minlength=params.q + 1)[1:].min() == 0:
        labels = label_rng.integers(1, params.q + 1, size=params.n)
    theta = _draw_theta(params.theta_recipe, params.n, theta_rng)
    c_in, c_out = solve_affinities(params.c, params.alpha, params.q, float(np.mean(theta**2)))

    top = np.sort(theta)[-2:]
    if top[0] * top[1] * c_in / params.n > 1.0:
        raise ValidationError(
            f"edge probability exceeds 1 for the pair theta_i={top[1]:.4f}, "
            f"theta_j={top[0]:.4f} (c_in={c_in:.3f}, n={params.n})"
        )

    rows, cols = [], []
    for b in range(n_blocks):
        r0 = b * _SAMPLE_BLOCK
        r1 = min(r0 + _SAMPLE_BLOCK, params.n)
        block_rng = np.random.default_rng(streams[2 + b])
        same = labels[r0:r1, None] == labels[None, :]
        probs = (theta[r0:r1, None] * theta[None, :] / params.n) * np.where(
            same, c_in, c_out
        )
        draw = block_rng.random((r1 - r0, params.n)) < probs
        local_i, local_j = np.nonzero(draw)
        keep = local_j > local_i + r0
        rows.append(local_i[keep] + r0)
        cols.append(local_j[keep])
    i = np.concatenate(rows)
    j = np.concatenate(cols)
    data = np.ones(2 * i.size)
    adj = sp.coo_matrix(
        (data, (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(params.n, params.n),
    ).tocsr()
    adj.sort_indices()
    return DcsbmInstance(
        adjacency=adj,
        labels=LabelVector(labels, params.q),
        avg_degree=float(adj.nnz / params.n),
        c_in=c_in,
        c_out=c_out,
        theta=theta,
    )


def walk_operator(adjacency, w: int) -> ProductChain:
    """Averaged random-walk operator of window ``w``.

    Equals the mean of the first ``w`` powers of the row-normalized
    adjacency, held as a weighted prefix chain so application costs
    O(w E d) instead of densifying matrix powers.  Degree-0 nodes keep
    their mass through the self-loop rule of row normalization.
    """
    if w < 1:
        raise ValidationError(f"walk window must be positive, got {w}")
    L = row_normalize(adjacency)
    if L.shape[0] != L.shape[1]:
        raise ValidationError("walk operator needs a square adjacency")
    return ProductChain([L] * w, weights=np.full(w, 1.0 / w))


def negative_binomial_graph(
    n: int, r: int = 3, p: float = 0.3, seed: int = 0
) -> sp.csr_matrix:
    """Random adjacency with heterogeneous degrees for optimizer comparisons.

    Each node draws a propensity from a negative binomial with the given
    parameters; edge (i, j) appears with probability proportional to
    theta_i theta_j (scaled so expected degrees track the propensities,
    capped at 1).  Row-normalize the result to obtain the operator.
    """
    if n < 1:
        raise ValidationError(f"negative binomial graph needs n >= 1, got {n}")
    if not (r > 0 and 0 < p <= 1):
        raise ValidationError(f"negative binomial needs r > 0 and 0 < p <= 1, got r={r}, p={p}")
    rng = np.random.default_rng(seed)
    theta = rng.negative_binomial(r, p, size=n).astype(np.float64)
    total = theta.sum()
    if total == 0:
        raise ValidationError("all propensities came out zero; change the seed")
    probs = np.minimum(np.outer(theta, theta) / total, 1.0)
    np.fill_diagonal(probs, 0.0)
    upper = np.triu(rng.random((n, n)) < probs, k=1)
    adj = upper | upper.T
    return as_csr(sp.csr_matrix(adj.astype(np.float64)))


@dataclass(frozen=True)
class TemporalEdgeList:
    """Weighted temporal contacts (i, j, t, w), one row per contact.

    Snapshots are 1-based integers; contacts are undirected and must not
    be self-contacts.  A pair interacting at one snapshot should appear
    in a single record.
    """

    i: np.ndarray
    j: np.ndarray
    t: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        i = np.ascontiguousarray(self.i, dtype=np.int64)
        j = np.ascontiguousarray(self.j, dtype=np.int64)
        t = np.ascontiguousarray(self.t, dtype=np.int64)
        w = np.ascontiguousarray(self.w, dtype=np.float64)
        for name, arr in (("i", i), ("j", j), ("t", t), ("w", w)):
            object.__setattr__(self, name, arr)
        if not (i.ndim == j.ndim == t.ndim == w.ndim == 1) or len(
            {i.size, j.size, t.size, w.size}
        ) != 1:
            raise ValidationError("temporal edge columns must be equal-length vectors")
        if i.size == 0:
            raise ValidationError("temporal edge list is empty")
        bad = np.flatnonzero(i == j)
        if bad.size:
            raise ValidationError(f"self contacts at records {bad[:5].tolist()}")
        bad = np.flatnonzero(t < 1)
        if bad.size:
            raise ValidationError(
                f"snapshot indices must be >= 1, offending records {bad[:5].tolist()}"
            )
        bad = np.flatnonzero(~(w > 0))
        if bad.size:
            raise ValidationError(
                f"contact weights must be positive, offending records {bad[:5].tolist()}"
            )

    @property
    def n_records(self) -> int:
        return self.i.size


@dataclass(frozen=True)
class SupraGraph:
    """Directed graph over (node, activation time) pairs.

    ``nodes`` is a (D, 2) int64 array whose row k holds the (node id,
    snapshot) pair of temporal node k, sorted by node id, then snapshot.
    Every edge points strictly forward in time, so the graph is acyclic
    by construction.
    """

    nodes: np.ndarray
    adjacency: sp.csr_matrix

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def is_time_respecting(self) -> bool:
        times = self.nodes[:, 1]
        adj = self.adjacency
        rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
        return bool(np.all(times[adj.indices] > times[rows]))


def supra_adjacency(edges: TemporalEdgeList) -> SupraGraph:
    """Build the supra graph of a temporal contact list.

    Temporal nodes are all (i, t) with at least one contact at t.  Each
    node is chained through its consecutive activations with unit-weight
    self-connection edges.  A contact between i and j at their shared
    activation time adds a cross edge from (i, t) to j's next activation
    and, symmetrically, from (j, t) to i's next activation, carrying the
    contact weight; contacts at a node's final activation produce no
    outgoing cross edge.

    One lexsort of the contact endpoints by (node, t) gives the temporal
    nodes in order, so a node's next activation is the temporal node right
    after it whenever both share the node id; cost O(E log E).  Edges are
    listed self-chains first, then the two cross edges of each record in
    record order; repeated records add up.
    """
    ends = np.concatenate([edges.i, edges.j])
    times = np.concatenate([edges.t, edges.t])
    order = np.lexsort((times, ends))
    ends, times = ends[order], times[order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    first[1:] = (ends[1:] != ends[:-1]) | (times[1:] != times[:-1])
    # Temporal node of every endpoint, back in record order.
    where = np.empty(order.size, dtype=np.int64)
    where[order] = np.cumsum(first) - 1
    node_ids, node_times = ends[first], times[first]
    D = node_ids.size
    has_next = np.zeros(D, dtype=bool)
    has_next[:-1] = node_ids[1:] == node_ids[:-1]

    chained = np.flatnonzero(has_next)
    at_i, at_j = where[: edges.n_records], where[edges.n_records :]
    # Per record: (i, t) -> j's next activation, then (j, t) -> i's.
    src = np.column_stack([at_i, at_j]).ravel()
    dst = np.column_stack([at_j, at_i]).ravel()
    keep = has_next[dst]
    src = np.concatenate([chained, src[keep]])
    dst = np.concatenate([chained, dst[keep]]) + 1
    wgt = np.concatenate([np.ones(chained.size), np.repeat(edges.w, 2)[keep]])
    adj = sp.coo_matrix((wgt, (src, dst)), shape=(D, D)).tocsr()
    adj.sort_indices()
    return SupraGraph(nodes=np.column_stack([node_ids, node_times]), adjacency=adj)
