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
from .matstore import ProductChain, _real, as_csr, row_normalize
from .mixture import LabelVector


#: Label draws before :class:`DcsbmParams` gives up on filling every class.
_LABEL_DRAWS = 1000


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

    Building the params draws all but the edges and raises every block-model
    failure.  Seed substream 1 gives ``theta``, then ``c_in`` and ``c_out``
    (no pair probability may exceed 1); 0 the 1-based ``labels``, redrawn until
    no class is empty (at most :data:`_LABEL_DRAWS` times); 2 the edges.
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
        if not (0 < self.c < np.inf and 0 < self.alpha < np.inf):
            raise ValidationError(f"c={self.c} and alpha={self.alpha} must be finite and positive")
        if self.theta_recipe not in ("unit", "powerlaw"):
            raise ValidationError(f"unknown theta recipe {self.theta_recipe!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        label_seq, theta_seq = np.random.SeedSequence(self.seed).spawn(2)
        theta = _draw_theta(self.theta_recipe, self.n, np.random.default_rng(theta_seq))
        c_in, c_out = solve_affinities(self.c, self.alpha, self.q, float(np.mean(theta**2)))
        top = np.sort(theta)[-2:]
        with np.errstate(over="ignore"):
            if top[0] * top[1] * c_in / self.n > 1.0:
                raise ValidationError(
                    f"edge probability exceeds 1 for the pair theta_i={top[1]:.4f}, "
                    f"theta_j={top[0]:.4f} (c_in={c_in:.6g}, n={self.n})"
                )
        label_rng = np.random.default_rng(label_seq)
        for _ in range(_LABEL_DRAWS):
            labels = label_rng.integers(1, self.q + 1, size=self.n)
            if np.bincount(labels, minlength=self.q + 1)[1:].min() > 0:
                break
        else:
            raise ValidationError(
                f"q={self.q} classes over n={self.n} nodes left a class empty in "
                f"{_LABEL_DRAWS} label draws; use fewer classes or more nodes"
            )
        for name, value in (("labels", labels), ("theta", theta), ("c_in", c_in), ("c_out", c_out)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class DcsbmInstance:
    """One sampled graph: adjacency, ground truth, and realized moments."""

    adjacency: sp.csr_matrix
    labels: LabelVector
    avg_degree: float
    params: DcsbmParams


def _draw_theta(recipe: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if recipe == "unit":
        return np.ones(n)
    raw = rng.uniform(3.0, 12.0, size=n) ** 6
    return raw / raw.mean()


def solve_affinities(c: float, alpha: float, q: int, theta_second_moment: float):
    """Invert (c, alpha, q) into (c_in, c_out) under the mean-degree identity."""
    with np.errstate(over="ignore", invalid="ignore"):
        c_out = c - alpha * np.sqrt(c / theta_second_moment)
        if -1e-9 < c_out < 0:
            c_out = 0.0
        c_in = q * c - (q - 1) * c_out
    if c_out < 0:
        raise ValidationError(
            f"alpha={alpha} is too large for c={c}: it would need c_out={c_out:.6g} < 0"
        )
    if not np.isfinite(c_in):
        raise ValidationError(f"c={c} and alpha={alpha} overflow float64: c_in={c_in:.6g}")
    if c_in <= c_out:
        raise ValidationError(f"derived c_in={c_in:.6g} <= c_out={c_out:.6g}")
    return float(c_in), float(c_out)


def _pair_edges(theta, classes, affinity, norm, rng):
    """Independent edges with probability p_uv = min(theta_u theta_v / norm
    * affinity[classes_u, classes_v], 1), one draw per unordered pair u != v.

    The exact O(n + E) sampler in the spirit of Miller & Hagberg 2011.
    The nodes of each class with positive theta are sorted by theta and
    cut into groups whose theta lies within a factor 2 of the group's
    largest.  A pair of groups (a cell) has a largest probability p_max,
    the one of its two first nodes.  Its candidate count is drawn from
    Binomial(cell size, p_max) and that many distinct positions are
    picked uniformly, which together is one Bernoulli(p_max) draw per
    position; each candidate is then kept with probability p_uv / p_max.
    Within one group only positions r < c count, so every unordered pair
    has one position.  Candidates number at most about 4 E, since theta
    varies by at most a factor 2 within a group.  Returns the endpoint
    arrays (u, v).
    """
    nodes = np.flatnonzero(theta > 0)
    th, cl = theta[nodes], classes[nodes]
    top = np.zeros(affinity.shape[0])
    np.maximum.at(top, cl, th)
    band = np.floor(np.log2(top[cl] / th)).astype(np.int64)
    order = np.lexsort((-th, band, cl))
    nodes, th, cl, band = nodes[order], th[order], cl[order], band[order]
    starts = np.flatnonzero(np.r_[True, (cl[1:] != cl[:-1]) | (band[1:] != band[:-1])])
    sizes = np.diff(np.r_[starts, nodes.size])
    # Cells (g, h), g <= h; a group's first node has its largest theta.
    g, h = np.triu_indices(starts.size)
    head = th[starts]
    p_max = np.minimum(head[g] * head[h] / norm * affinity[cl[starts[g]], cl[starts[h]]], 1.0)
    counts = rng.binomial(sizes[g] * sizes[h], p_max)
    live = np.flatnonzero(counts)
    picked = [
        rng.choice(sizes[g[k]] * sizes[h[k]], counts[k], replace=False, shuffle=False)
        for k in live
    ]
    pos = np.concatenate(picked) if picked else np.empty(0, dtype=np.int64)
    cell = np.repeat(live, counts[live])
    r, c = np.divmod(pos, sizes[h[cell]])
    keep = (g[cell] != h[cell]) | (r < c)
    cell = cell[keep]
    u = nodes[starts[g[cell]] + r[keep]]
    v = nodes[starts[h[cell]] + c[keep]]
    p = np.minimum(theta[u] * theta[v] / norm * affinity[classes[u], classes[v]], 1.0)
    accept = rng.random(u.size) < p / p_max[cell]
    return u[accept], v[accept]


def _symmetric_adjacency(n: int, u: np.ndarray, v: np.ndarray) -> sp.csr_matrix:
    """The canonical symmetric 0/1 CSR of the undirected edges (u, v)."""
    return as_csr(sp.coo_matrix(
        (np.ones(2 * u.size), (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n)
    ))


def dcsbm_sample(params: DcsbmParams) -> DcsbmInstance:
    """Draw the edges of a block-model graph from substream 2 of its seed,
    given the checked labels, theta and affinities of ``params``.  Every
    pair i < j is an independent Bernoulli edge with probability
    theta_i theta_j / n times the in/out affinity, drawn by the exact
    edge-linear sampler of :func:`_pair_edges` in O(n + E), and mirrored
    to an exact symmetric zero-diagonal adjacency."""
    rng = np.random.default_rng(np.random.SeedSequence(params.seed).spawn(3)[2])
    affinity = np.full((params.q, params.q), params.c_out)
    np.fill_diagonal(affinity, params.c_in)
    u, v = _pair_edges(params.theta, params.labels - 1, affinity, params.n, rng)
    adj = _symmetric_adjacency(params.n, u, v)
    return DcsbmInstance(
        adjacency=adj,
        labels=LabelVector(params.labels, params.q),
        avg_degree=float(adj.nnz / params.n),
        params=params,
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
    # A weighted chain rejects a factor that is not square.
    return ProductChain([row_normalize(adjacency)] * w, weights=np.full(w, 1.0 / w))


def negative_binomial_graph(
    n: int, r: int = 3, p: float = 0.3, seed: int = 0
) -> sp.csr_matrix:
    """Random adjacency with heterogeneous degrees for optimizer comparisons.

    Each node draws a propensity theta from a negative binomial with the
    given parameters; every pair i < j is an independent edge with
    probability min(theta_i theta_j / sum(theta), 1), so expected degrees
    track the propensities and a pair whose product reaches the total is
    always joined.  Edges come from the exact edge-linear sampler of
    :func:`_pair_edges`, O(n + E); nodes with theta = 0 stay isolated.
    Row-normalize the result to obtain the operator.
    """
    if n < 1:
        raise ValidationError(f"negative binomial graph needs n >= 1, got {n}")
    if not (r > 0 and 0 < p < 1):
        raise ValidationError(
            f"negative binomial needs r > 0 and 0 < p < 1 (at p = 1 every propensity "
            f"is 0), got r={r}, p={p}"
        )
    rng = np.random.default_rng(seed)
    try:
        theta = rng.negative_binomial(r, p, size=n).astype(np.float64)
    except ValueError as exc:
        raise ValidationError(
            f"negative binomial r={r}, p={p} is out of numpy's range (r too large or p too small)"
        ) from exc
    total = theta.sum()
    if total == 0:
        raise ValidationError("all propensities came out zero; change the seed")
    u, v = _pair_edges(theta, np.zeros(n, dtype=np.int64), np.ones((1, 1)), total, rng)
    return _symmetric_adjacency(n, u, v)


def _whole_numbers(values, name: str) -> np.ndarray:
    """``values`` as int64; a float entry that is not a whole number is
    refused rather than truncated by the cast.  Integer input needs no scan."""
    A = _real(np.asarray(values), name)
    if A.dtype.kind == "f":
        bad = np.flatnonzero(~((np.trunc(A) == A) & (np.abs(A) < 2.0**63)))
        if bad.size:
            raise ValidationError(
                f"{name} must hold whole numbers, offending records {bad[:5].tolist()}"
            )
    return np.ascontiguousarray(A, dtype=np.int64)


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
        i, j, t = (_whole_numbers(getattr(self, name), name) for name in "ijt")
        w = np.ascontiguousarray(_real(np.asarray(self.w), "w"), dtype=np.float64)
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
        bad = np.flatnonzero(~((w > 0) & (w < np.inf)))
        if bad.size:
            raise ValidationError(
                f"contact weights must be finite and positive, offending records {bad[:5].tolist()}"
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
    adj = as_csr(sp.coo_matrix((wgt, (src, dst)), shape=(D, D)))
    return SupraGraph(nodes=np.column_stack([node_ids, node_times]), adjacency=adj)
