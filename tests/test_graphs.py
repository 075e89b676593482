"""Block-model sampling, walk operators and the supra graph."""

import signal

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from edrep.errors import DimensionError, ValidationError
from edrep.graphs import (
    DcsbmParams,
    SupraGraph,
    TemporalEdgeList,
    _draw_theta,
    _pair_edges,
    dcsbm_sample,
    negative_binomial_graph,
    solve_affinities,
    supra_adjacency,
    walk_operator,
)
from edrep.matstore import as_csr, row_normalize

_REFERENCE_BLOCK = 256


def reference_dcsbm_sample(params):
    """Oracle: the dense block-model sampler, one Bernoulli draw per cell of
    the upper triangle in row ranges of 256, each with its own substream.
    O(n^2); labels and theta come from the same substreams as in
    ``dcsbm_sample``.  Returns (adjacency, labels, theta, c_in, c_out)."""
    root = np.random.SeedSequence(params.seed)
    n_blocks = (params.n + _REFERENCE_BLOCK - 1) // _REFERENCE_BLOCK
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
        raise ValidationError(f"edge probability exceeds 1 for the pair theta_i={top[1]:.4f}")
    rows, cols = [], []
    for b in range(n_blocks):
        r0 = b * _REFERENCE_BLOCK
        r1 = min(r0 + _REFERENCE_BLOCK, params.n)
        block_rng = np.random.default_rng(streams[2 + b])
        same = labels[r0:r1, None] == labels[None, :]
        probs = (theta[r0:r1, None] * theta[None, :] / params.n) * np.where(same, c_in, c_out)
        draw = block_rng.random((r1 - r0, params.n)) < probs
        local_i, local_j = np.nonzero(draw)
        keep = local_j > local_i + r0
        rows.append(local_i[keep] + r0)
        cols.append(local_j[keep])
    i, j = np.concatenate(rows), np.concatenate(cols)
    adj = sp.coo_matrix(
        (np.ones(2 * i.size), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(params.n, params.n),
    ).tocsr()
    adj.sort_indices()
    return adj, labels, theta, c_in, c_out


def reference_negative_binomial_graph(n, r=3, p=0.3, seed=0):
    """Oracle: the dense negative-binomial graph, n x n probabilities and
    draws.  Returns (adjacency, theta)."""
    rng = np.random.default_rng(seed)
    theta = rng.negative_binomial(r, p, size=n).astype(np.float64)
    probs = np.minimum(np.outer(theta, theta) / theta.sum(), 1.0)
    np.fill_diagonal(probs, 0.0)
    upper = np.triu(rng.random((n, n)) < probs, k=1)
    return as_csr(sp.csr_matrix((upper | upper.T).astype(np.float64))), theta


def pair_probabilities(theta, classes, affinity, norm):
    """The exact edge probability of every pair, zero on the diagonal."""
    probs = np.minimum(
        np.outer(theta, theta) / norm * affinity[classes[:, None], classes[None, :]], 1.0
    )
    np.fill_diagonal(probs, 0.0)
    return probs


def dcsbm_probabilities(labels, theta, c_in, c_out):
    q = labels.max()
    affinity = np.full((q, q), c_out)
    np.fill_diagonal(affinity, c_in)
    return pair_probabilities(theta, labels - 1, affinity, theta.size)


def assert_canonical_graph(A):
    """Symmetric 0/1 CSR with an empty diagonal, sorted and duplicate-free."""
    assert A.format == "csr" and A.has_canonical_format
    assert np.all(A.data == 1.0)
    assert (A != A.T).nnz == 0
    assert not A.diagonal().any()


def z_score(count, probs, draws):
    """(count - draws p) / sd for a sum of independent Bernoulli counts."""
    return (count - draws * probs.sum()) / np.sqrt(draws * (probs * (1.0 - probs)).sum())


class TestAffinityInversion:
    def test_round_trip_through_hardness_definition(self):
        # The derived pair must reproduce alpha through its definition
        # alpha = (c - c_out) sqrt(E[theta^2] / c) and the mean degree
        # through c = (c_in + (q - 1) c_out) / q.
        for c, alpha, q, m2 in [(10.0, 2.0, 4, 1.0), (10.0, 4.0, 4, 2.83), (6.0, 1.5, 3, 1.2)]:
            c_in, c_out = solve_affinities(c, alpha, q, m2)
            assert (c - c_out) * np.sqrt(m2 / c) == pytest.approx(alpha, abs=1e-12)
            assert (c_in + (q - 1) * c_out) / q == pytest.approx(c, abs=1e-12)

    def test_unreachable_hardness_rejected(self):
        with pytest.raises(ValidationError, match="c_out"):
            solve_affinities(10.0, 4.0, 4, 1.0)  # homogeneous cap is sqrt(10)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_nonpositive_hardness_rejected(self, alpha):
        with pytest.raises(ValidationError, match="c_in"):
            solve_affinities(10.0, alpha, 4, 1.0)


@pytest.mark.parametrize(
    "fields, match",
    [
        (dict(n=1), "bad node/community counts"),
        (dict(q=0), "bad node/community counts"),
        (dict(q=11), "bad node/community counts"),
        (dict(theta_recipe="lognormal"), "unknown theta recipe"),
        (dict(c=0.0), "finite and positive"),
        (dict(c=np.nan), "finite and positive"),
        (dict(c=np.inf), "finite and positive"),
        (dict(alpha=np.nan), "finite and positive"),
        (dict(alpha=np.inf), "finite and positive"),
    ],
    ids=["n-one", "q-zero", "q-above-n", "recipe", "c-zero", "c-nan", "c-inf", "alpha-nan",
         "alpha-inf"],
)
def test_dcsbm_params_rejected(fields, match):
    with pytest.raises(ValidationError, match=match):
        DcsbmParams(**{"n": 10, "q": 2, "c": 4.0, "alpha": 1.0, **fields})


class TestDcsbmSample:
    def test_zero_out_affinity_gives_disconnected_blocks(self):
        # alpha at the admissible cap makes c_out exactly 0.
        alpha_cap = np.sqrt(10.0)
        inst = dcsbm_sample(
            DcsbmParams(n=800, q=2, c=10.0, alpha=alpha_cap, theta_recipe="unit", seed=0)
        )
        assert inst.c_out == pytest.approx(0.0, abs=1e-12)
        coo = inst.adjacency.tocoo()
        labels = inst.labels.labels
        assert np.all(labels[coo.row] == labels[coo.col])

    def test_realized_degree_tracks_expectation(self):
        inst = dcsbm_sample(
            DcsbmParams(n=10000, q=4, c=10.0, alpha=3.0, theta_recipe="unit", seed=1)
        )
        assert abs(inst.avg_degree - 10.0) / 10.0 < 0.05

    def test_adjacency_symmetric_zero_diagonal(self):
        inst = dcsbm_sample(
            DcsbmParams(n=2000, q=3, c=8.0, alpha=2.0, theta_recipe="powerlaw", seed=2)
        )
        A = inst.adjacency
        assert (A != A.T).nnz == 0
        assert A.diagonal().max() == 0.0

    def test_block_density_ratio_matches_affinities(self):
        """Oracle: count within- and cross-block edges directly and
        compare their density ratio to c_in/c_out."""
        inst = dcsbm_sample(
            DcsbmParams(n=20000, q=2, c=10.0, alpha=2.0, theta_recipe="unit", seed=3)
        )
        labels = inst.labels.labels
        coo = inst.adjacency.tocoo()
        upper = coo.row < coo.col
        same = labels[coo.row[upper]] == labels[coo.col[upper]]
        counts = np.bincount(labels, minlength=3)[1:]
        within_pairs = sum(c * (c - 1) / 2 for c in counts)
        cross_pairs = counts[0] * counts[1]
        ratio = (same.sum() / within_pairs) / ((~same).sum() / cross_pairs)
        assert abs(ratio - inst.c_in / inst.c_out) / (inst.c_in / inst.c_out) < 0.10

    def test_full_benchmark_size_runs(self):
        inst = dcsbm_sample(
            DcsbmParams(n=30000, q=4, c=10.0, alpha=3.0, theta_recipe="powerlaw", seed=4)
        )
        assert inst.adjacency.shape == (30000, 30000)
        assert abs(inst.avg_degree - 10.0) / 10.0 < 0.05

    def test_probability_above_one_names_offending_pair(self):
        with pytest.raises(ValidationError, match="theta_i"):
            dcsbm_sample(
                DcsbmParams(n=20, q=2, c=18.0, alpha=1.0, theta_recipe="powerlaw", seed=5)
            )

    def test_classes_too_many_for_the_nodes_are_rejected_within_a_second(self):
        """Filling q = n classes needs a permutation (probability n!/n^n);
        the label draws must give up, not run on."""

        def stop(signum, frame):
            raise TimeoutError("the label draws ran past one second")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(ValidationError, match="q=30 .* n=30"):
                dcsbm_sample(DcsbmParams(n=30, q=30, c=2.0, alpha=0.5, theta_recipe="unit"))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_deterministic_given_seed(self):
        params = DcsbmParams(n=500, q=2, c=6.0, alpha=2.0, theta_recipe="powerlaw", seed=6)
        a, b = dcsbm_sample(params), dcsbm_sample(params)
        assert (a.adjacency != b.adjacency).nnz == 0
        np.testing.assert_array_equal(a.labels.labels, b.labels.labels)


class TestEdgeSamplerOracle:
    """The edge-linear sampler against exact pair probabilities and the
    dense reference samplers."""

    DRAWS = 2000

    def pair_counts(self, theta, classes, affinity, norm):
        n = theta.size
        counts = np.zeros(n * n)
        for seed in range(self.DRAWS):
            u, v = _pair_edges(theta, classes, affinity, norm, np.random.default_rng(seed))
            assert np.all(u != v)
            low, high = np.minimum(u, v), np.maximum(u, v)
            keys = low * n + high
            assert np.unique(keys).size == keys.size  # one draw per pair
            counts += np.bincount(keys, minlength=n * n)
        return counts.reshape(n, n)

    @pytest.mark.parametrize("design", ["blocks", "capped"])
    def test_pair_frequencies_match_exact_probabilities(self, design):
        rng = np.random.default_rng(21)
        n = 100
        if design == "blocks":
            # Three classes and theta over a 16-fold range: several groups
            # per class, probabilities from about 0.003 to 0.8.
            theta = rng.uniform(0.25, 4.0, n)
            classes = rng.integers(0, 3, n)
            affinity = np.array([[5.0, 1.0, 0.5], [1.0, 4.0, 1.0], [0.5, 1.0, 3.0]])
            norm = float(n)
        else:
            # Negative-binomial propensities with the min(., 1) cap: zero
            # theta, capped pairs and small probabilities all occur.
            theta = rng.negative_binomial(2, 0.2, n).astype(np.float64)
            classes = np.zeros(n, dtype=np.int64)
            affinity = np.ones((1, 1))
            norm = theta.sum() / 4.0
        probs = pair_probabilities(theta, classes, affinity, norm)
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        counts = self.pair_counts(theta, classes, affinity, norm)
        assert not counts[~upper].any()
        p, c = probs[upper], counts[upper]
        assert np.all(c[p == 0.0] == 0) and np.all(c[p == 1.0] == self.DRAWS)
        # Per pair, where the normal approximation holds; 5.5 sd is a
        # family-wise level of about 2e-4 over the 4950 pairs.
        var = self.DRAWS * p * (1.0 - p)
        tested = var >= 10.0
        assert tested.sum() > 500
        z = (c[tested] - self.DRAWS * p[tested]) / np.sqrt(var[tested])
        assert np.abs(z).max() < 5.5
        # Pooled over every pair, and over the pairs too rare to test alone.
        assert abs(z_score(c.sum(), p, self.DRAWS)) < 4.0
        rare = (p > 0.0) & (p < 1.0) & ~tested
        if rare.any():
            assert abs(z_score(c[rare].sum(), p[rare], self.DRAWS)) < 4.0

    def test_labels_and_theta_follow_the_reference_substreams(self):
        for seed in range(3):
            params = DcsbmParams(n=700, q=3, c=8.0, alpha=2.0, theta_recipe="powerlaw", seed=seed)
            inst = dcsbm_sample(params)
            _, labels, theta, c_in, c_out = reference_dcsbm_sample(params)
            np.testing.assert_array_equal(inst.labels.labels, labels)
            np.testing.assert_array_equal(inst.theta, theta)
            assert (inst.c_in, inst.c_out) == (c_in, c_out)

    @pytest.mark.parametrize("sampler", ["edge-linear", "reference"])
    def test_block_pair_counts_and_mean_degree_match_expectation(self, sampler):
        """Edges per block pair and in total, summed over 40 seeds, against
        their expectation under the exact probabilities; the dense
        reference passes the same check."""
        q = 3
        observed = np.zeros((q, q))
        expected = np.zeros((q, q))
        variance = np.zeros((q, q))
        degree_sum, degree_expected = 0.0, 0.0
        for seed in range(40):
            params = DcsbmParams(n=600, q=q, c=6.0, alpha=1.5, theta_recipe="powerlaw", seed=seed)
            if sampler == "edge-linear":
                inst = dcsbm_sample(params)
                A, labels, theta = inst.adjacency, inst.labels.labels, inst.theta
                c_in, c_out = inst.c_in, inst.c_out
            else:
                A, labels, theta, c_in, c_out = reference_dcsbm_sample(params)
            probs = np.triu(dcsbm_probabilities(labels, theta, c_in, c_out), k=1)
            coo = sp.triu(A, k=1).tocoo()
            for a in range(q):
                for b in range(a, q):
                    rows, cols = labels == a + 1, labels == b + 1
                    # probs is upper triangular: a pair of blocks a != b
                    # sits on one side of the diagonal or the other.
                    block = probs[np.ix_(rows, cols)] + (
                        probs[np.ix_(cols, rows)].T if a != b else 0.0
                    )
                    expected[a, b] += block.sum()
                    variance[a, b] += (block * (1.0 - block)).sum()
                    la, lb = labels[coo.row] - 1, labels[coo.col] - 1
                    observed[a, b] += np.sum((np.minimum(la, lb) == a) & (np.maximum(la, lb) == b))
            degree_sum += A.nnz / params.n
            degree_expected += 2.0 * probs.sum() / params.n
        upper = np.triu(np.ones((q, q), dtype=bool))
        z = (observed[upper] - expected[upper]) / np.sqrt(variance[upper])
        assert np.abs(z).max() < 4.0
        # Mean degree is 2 E / n; its sd follows from that of the edge total.
        assert abs(degree_sum - degree_expected) < 4.0 * 2.0 * np.sqrt(variance.sum()) / 600

    def test_graphs_are_canonical_symmetric_with_empty_diagonal(self):
        for seed in range(5):
            for recipe in ("unit", "powerlaw"):
                params = DcsbmParams(n=1000, q=4, c=9.0, alpha=2.0, theta_recipe=recipe, seed=seed)
                assert_canonical_graph(dcsbm_sample(params).adjacency)
            assert_canonical_graph(negative_binomial_graph(400, seed=seed))

    def test_probability_above_one_raises_like_the_reference(self):
        params = DcsbmParams(n=20, q=2, c=18.0, alpha=1.0, theta_recipe="powerlaw", seed=5)
        with pytest.raises(ValidationError, match="exceeds 1"):
            reference_dcsbm_sample(params)
        with pytest.raises(ValidationError, match="exceeds 1"):
            dcsbm_sample(params)

    def test_negative_binomial_pairs_at_the_total_always_appear(self):
        """Pairs whose propensity product reaches the total have
        probability 1, in the reference and in the sampler."""
        joined = 0
        for seed in range(30):
            A = negative_binomial_graph(25, r=2, p=0.2, seed=seed)
            ref, theta = reference_negative_binomial_graph(25, r=2, p=0.2, seed=seed)
            sure = np.outer(theta, theta) >= theta.sum()
            np.fill_diagonal(sure, False)
            assert np.all(A.toarray()[sure] == 1.0)
            assert np.all(ref.toarray()[sure] == 1.0)
            joined += sure.sum()
        assert joined > 100

    def test_negative_binomial_edge_count_matches_reference_expectation(self):
        draws = 60
        total, expected, variance = 0.0, 0.0, 0.0
        for seed in range(draws):
            A = negative_binomial_graph(200, seed=seed)
            _, theta = reference_negative_binomial_graph(200, seed=seed)
            probs = np.triu(pair_probabilities(theta, np.zeros(200, dtype=np.int64),
                                               np.ones((1, 1)), theta.sum()), k=1)
            total += A.nnz / 2
            expected += probs.sum()
            variance += (probs * (1.0 - probs)).sum()
        assert abs(total - expected) < 4.0 * np.sqrt(variance)


class TestWalkOperator:
    def test_window_one_is_row_normalized_adjacency(self):
        inst = dcsbm_sample(
            DcsbmParams(n=300, q=2, c=8.0, alpha=2.0, theta_recipe="unit", seed=7)
        )
        op = walk_operator(inst.adjacency, 1)
        L = row_normalize(inst.adjacency)
        X = np.random.default_rng(0).standard_normal((300, 3))
        np.testing.assert_allclose(op.apply(X), L @ X, atol=1e-14)

    def test_path_graph_window_two_matches_hand_computation(self):
        """Oracle: densify the 3-node path walk matrix (L + L^2) / 2."""
        import scipy.sparse as sp

        A = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        op = walk_operator(A, 2)
        L = np.array([[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])
        expected = (L + L @ L) / 2
        np.testing.assert_allclose(op.apply(np.eye(3)), expected, atol=1e-12)

    def test_maps_ones_to_ones(self):
        inst = dcsbm_sample(
            DcsbmParams(n=1500, q=3, c=7.0, alpha=2.0, theta_recipe="powerlaw", seed=8)
        )
        op = walk_operator(inst.adjacency, 3)
        op.validate_stochastic()
        out = op.apply(np.ones((1500, 1)))
        assert np.abs(out - 1.0).max() <= 1e-10

    def test_invalid_window_rejected(self):
        with pytest.raises(ValidationError):
            walk_operator(np.eye(3), 0)

    @pytest.mark.parametrize("w", [1, 3])
    def test_rectangular_adjacency_rejected(self, w):
        # The chain rejects it: not square at w = 1, not composable above.
        with pytest.raises(DimensionError):
            walk_operator(sp.csr_matrix(np.ones((2, 3))), w)


class TestNegativeBinomialGraph:
    def test_symmetric_zero_diagonal_and_normalizable(self):
        A = negative_binomial_graph(300, seed=9)
        assert (A != A.T).nnz == 0
        assert A.diagonal().max() == 0.0
        L = row_normalize(A)
        sums = np.asarray(L.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_degrees_are_heterogeneous(self):
        A = negative_binomial_graph(800, seed=10)
        deg = np.asarray(A.sum(axis=1)).ravel()
        assert deg.std() > 1.0

    @pytest.mark.parametrize("n", [0, -5])
    def test_node_count_must_be_positive(self, n):
        with pytest.raises(ValidationError, match="n >= 1"):
            negative_binomial_graph(n)

    def test_all_zero_propensities_rejected(self):
        # At p this close to 1 every draw is 0 for any seed in practice.
        with pytest.raises(ValidationError, match="all propensities came out zero"):
            negative_binomial_graph(5, r=1, p=1.0 - 1e-12)

    def test_p_of_one_is_rejected_as_out_of_range(self):
        # At p = 1 every propensity is 0, whatever the seed.
        with pytest.raises(ValidationError, match="0 < p < 1"):
            negative_binomial_graph(50, p=1.0)


def reference_supra_adjacency(edges):
    """Oracle: the supra graph built by scanning every record once per
    node and following dictionaries of next activations."""
    activations = {}
    for node in np.unique(np.concatenate([edges.i, edges.j])):
        mask = (edges.i == node) | (edges.j == node)
        activations[int(node)] = np.unique(edges.t[mask])
    nodes = sorted((int(n), int(t)) for n, ts in activations.items() for t in ts)
    index = {pair: k for k, pair in enumerate(nodes)}
    nxt = {}
    for node, ts in activations.items():
        for a in range(ts.size - 1):
            nxt[(node, int(ts[a]))] = (node, int(ts[a + 1]))
    src, dst, wgt = [], [], []
    for pair, follower in nxt.items():
        src.append(index[pair])
        dst.append(index[follower])
        wgt.append(1.0)
    for i, j, t, w in zip(edges.i, edges.j, edges.t, edges.w):
        contact = (int(i), int(j), int(t))
        for a, b in ((contact[0], contact[1]), (contact[1], contact[0])):
            follower = nxt.get((b, contact[2]))
            if follower is not None:
                src.append(index[(a, contact[2])])
                dst.append(index[follower])
                wgt.append(float(w))
    D = len(nodes)
    adj = sp.coo_matrix((wgt, (src, dst)), shape=(D, D)).tocsr()
    adj.sort_indices()
    return SupraGraph(nodes=np.array(nodes, dtype=np.int64), adjacency=adj)


def node_lookup(graph):
    """Temporal node number of every (node id, snapshot) pair."""
    return {(int(i), int(t)): k for k, (i, t) in enumerate(graph.nodes)}


def reference_is_time_respecting(graph):
    coo = graph.adjacency.tocoo()
    return all(graph.nodes[b][1] > graph.nodes[a][1] for a, b in zip(coo.row, coo.col))


@st.composite
def contact_lists(draw):
    """Random contact lists; records may repeat, node ids and times may be sparse."""
    n_rec = draw(st.integers(1, 60))
    n_nodes = draw(st.integers(2, 12))
    spread = draw(st.sampled_from([1, 1000]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n_nodes, n_rec)
    j = (i + rng.integers(1, n_nodes, n_rec)) % n_nodes
    t = rng.integers(1, draw(st.integers(1, 10)) + 1, n_rec)
    w = rng.random(n_rec) + 0.1
    repeats = rng.integers(0, n_rec, draw(st.integers(0, 5)))
    i, j, t, w = (np.concatenate([a, a[repeats]]) for a in (i, j, t, w))
    return TemporalEdgeList(i=i * spread, j=j * spread, t=t * spread, w=w)


def toy_contacts():
    return TemporalEdgeList(
        i=np.array([1, 1]), j=np.array([2, 2]), t=np.array([1, 2]), w=np.array([1.0, 2.0])
    )


class TestSupraAdjacency:
    def test_single_activation_has_no_self_connection(self):
        edges = TemporalEdgeList(
            i=np.array([1]), j=np.array([2]), t=np.array([1]), w=np.array([1.0])
        )
        graph = supra_adjacency(edges)
        assert graph.n_nodes == 2
        assert graph.adjacency.nnz == 0  # neither node activates again

    def test_two_node_two_snapshot_hand_enumeration(self):
        """Oracle: the four temporal nodes and four directed edges listed
        by hand.  The t=1 contact feeds both next activations; the t=2
        contact has no follow-up activation to point at."""
        graph = supra_adjacency(toy_contacts())
        assert graph.nodes.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]
        index = node_lookup(graph)
        expected = np.zeros((4, 4))
        expected[index[(1, 1)], index[(1, 2)]] = 1.0  # self chain
        expected[index[(2, 1)], index[(2, 2)]] = 1.0  # self chain
        expected[index[(1, 1)], index[(2, 2)]] = 1.0  # cross, weight w=1
        expected[index[(2, 1)], index[(1, 2)]] = 1.0  # mirrored cross
        np.testing.assert_array_equal(graph.adjacency.toarray(), expected)

    def test_cross_edges_carry_contact_weights(self):
        edges = TemporalEdgeList(
            i=np.array([1, 1]), j=np.array([2, 2]), t=np.array([1, 2]), w=np.array([5.0, 1.0])
        )
        graph = supra_adjacency(edges)
        A = graph.adjacency.toarray()
        index = node_lookup(graph)
        assert A[index[(1, 1)], index[(2, 2)]] == 5.0
        assert A[index[(1, 1)], index[(1, 2)]] == 1.0

    def test_random_temporal_graphs_respect_time(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n_rec = int(rng.integers(5, 40))
            i = rng.integers(0, 15, n_rec)
            j = (i + rng.integers(1, 15, n_rec)) % 16
            edges = TemporalEdgeList(
                i=i,
                j=j,
                t=rng.integers(1, 12, n_rec),
                w=rng.random(n_rec) + 0.1,
            )
            graph = supra_adjacency(edges)
            assert graph.is_time_respecting()
            coo = graph.adjacency.tocoo()
            for a, b in zip(coo.row, coo.col):
                assert graph.nodes[b][1] > graph.nodes[a][1]

    @settings(max_examples=100)
    @given(edges=contact_lists())
    def test_bitwise_equal_to_reference_builder(self, edges):
        graph = supra_adjacency(edges)
        ref = reference_supra_adjacency(edges)
        assert graph.nodes.dtype == ref.nodes.dtype == np.int64
        assert graph.nodes.tobytes() == ref.nodes.tobytes()
        for name in ("indptr", "indices", "data"):
            got, want = getattr(graph.adjacency, name), getattr(ref.adjacency, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert graph.adjacency.shape == ref.adjacency.shape
        assert graph.is_time_respecting() is reference_is_time_respecting(ref) is True

    @pytest.mark.parametrize("a, b", [((1, 2), (2, 1)), ((1, 1), (2, 1))], ids=["back", "same-time"])
    def test_edge_not_forward_in_time_detected(self, a, b):
        graph = supra_adjacency(toy_contacts())
        A = graph.adjacency.toarray()
        index = node_lookup(graph)
        A[index[a], index[b]] = 1.0
        broken = SupraGraph(graph.nodes, sp.csr_matrix(A))
        assert broken.is_time_respecting() is False

    def test_row_normalized_supra_feeds_the_optimizer(self):
        graph = supra_adjacency(toy_contacts())
        L = row_normalize(graph.adjacency)
        sums = np.asarray(L.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


class TestTemporalEdgeList:
    def test_self_contacts_rejected(self):
        with pytest.raises(ValidationError, match="self contacts"):
            TemporalEdgeList(
                i=np.array([1]), j=np.array([1]), t=np.array([1]), w=np.array([1.0])
            )

    def test_snapshot_and_weight_ranges_enforced(self):
        with pytest.raises(ValidationError, match="snapshot"):
            TemporalEdgeList(
                i=np.array([1]), j=np.array([2]), t=np.array([0]), w=np.array([1.0])
            )
        with pytest.raises(ValidationError, match="positive"):
            TemporalEdgeList(
                i=np.array([1]), j=np.array([2]), t=np.array([1]), w=np.array([0.0])
            )

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weights_rejected_by_record(self, bad):
        match = r"finite and positive, offending records \[1\]"
        with pytest.raises(ValidationError, match=match):
            TemporalEdgeList(
                i=np.array([1, 1, 2]), j=np.array([2, 3, 3]), t=np.array([1, 1, 2]),
                w=np.array([1.0, bad, 2.0]),
            )

    @pytest.mark.parametrize(
        "columns, match",
        [((np.array([1, 2]), np.array([2])), "equal-length"), ((np.array([]),) * 2, "empty")],
        ids=["unequal", "empty"],
    )
    def test_column_shapes_checked(self, columns, match):
        i, j = columns
        with pytest.raises(ValidationError, match=match):
            TemporalEdgeList(i=i, j=j, t=np.ones(i.size), w=np.ones(i.size))

    @pytest.mark.parametrize(
        "column, values, match",
        [
            ("i", [0.0, 1.5], r"i must hold whole numbers, offending records \[1\]"),
            ("t", [1.9, 1.0], r"t must hold whole numbers, offending records \[0\]"),
            ("t", [1.0, np.nan], r"t must hold whole numbers, offending records \[1\]"),
            ("t", [1.0, 2.0**63], r"t must hold whole numbers, offending records \[1\]"),
            ("j", [True, False], "j must hold real numbers, got dtype bool"),
            ("w", [1.0 + 1j, 1.0], "w must hold real numbers, got dtype complex128"),
        ],
        ids=["fraction", "fraction-snapshot", "nan-snapshot", "past-int64", "bool", "complex"],
    )
    def test_columns_that_are_not_whole_real_numbers_rejected(self, column, values, match):
        """The int64 and float64 casts would truncate 1.5 to 1, turn NaN
        into an arbitrary integer and drop an imaginary part; whole
        floats are kept as their integers."""
        columns = {"i": [0.0, 1.0], "j": [1, 2], "t": [1.0, 1.0], "w": [1.0, 1.0]}
        edges = TemporalEdgeList(**{k: np.array(v) for k, v in columns.items()})
        np.testing.assert_array_equal(edges.i, [0, 1])
        columns[column] = values
        with pytest.raises(ValidationError, match=match):
            TemporalEdgeList(**{k: np.array(v) for k, v in columns.items()})
