"""Hostile inputs to the library's entry points.

Each property draws parameters across float64's whole range, mixed with
typical values, and states one contract: the call either raises
``ValidationError`` or builds a valid result.  Nothing else is raised and
no warning is issued (the module turns every warning into an error).  The
first strategies cover the graph generators; the whole-number strategy
covers every entry that takes a count or a seed.
"""

from numbers import Integral

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edrep.errors import ValidationError
from edrep.evaluate import dcsbm_benchmark
from edrep.graphs import DcsbmParams, dcsbm_sample, negative_binomial_graph, walk_operator
from edrep.matstore import row_normalize
from edrep.mixture import MixtureParams, kmeans_label
from edrep.optimizer import OptimizerConfig, fit
from edrep.znorm import KernelFeatureMap, concentration_probe

pytestmark = pytest.mark.filterwarnings("error")

#: Magnitudes log-uniform over float64's range, typical values, and the
#: edges: zero, a negative, the smallest subnormal, the largest float,
#: infinity and NaN.
_REALS = st.one_of(
    st.floats(-307.0, 308.0).map(lambda exponent: 10.0**exponent),
    st.floats(0.01, 20.0),
    st.sampled_from([0.0, -1.0, 5e-324, 1.7976931348623157e308, np.inf, np.nan]),
)


@st.composite
def dcsbm_fields(draw):
    n = draw(st.integers(2, 300))
    return dict(
        n=n,
        q=draw(st.integers(1, n)),
        c=draw(_REALS),
        alpha=draw(_REALS),
        theta_recipe=draw(st.sampled_from(["unit", "powerlaw"])),
        seed=draw(st.integers(-3, 2**63)),
    )


def assert_canonical_graph(A, n):
    """Symmetric n x n 0/1 CSR with an empty diagonal, sorted and duplicate-free."""
    assert A.shape == (n, n) and A.format == "csr" and A.has_canonical_format
    assert np.all(A.data == 1.0)
    assert (A != A.T).nnz == 0
    assert not A.diagonal().any()


@settings(derandomize=True, max_examples=1000)
@given(fields=dcsbm_fields())
@example(fields=dict(n=600, q=4, c=10.0, alpha=2.0, theta_recipe="powerlaw", seed=0))
@example(fields=dict(n=50, q=4, c=1e308, alpha=1.0, theta_recipe="powerlaw", seed=0))
@example(fields=dict(n=50, q=4, c=1e300, alpha=1e300, theta_recipe="unit", seed=0))
@example(fields=dict(n=40, q=40, c=0.5, alpha=0.1, theta_recipe="unit", seed=0))
@example(fields=dict(n=40, q=2, c=4.0, alpha=1.0, theta_recipe="unit", seed=-1))
def test_block_model_is_rejected_when_built_or_samples_a_valid_graph(fields):
    """Every block-model failure is raised by ``DcsbmParams``; on params
    that were built, ``dcsbm_sample`` gives a canonical graph whose labels
    fill all q classes."""
    try:
        params = DcsbmParams(**fields)
    except ValidationError:
        return
    inst = dcsbm_sample(params)
    assert_canonical_graph(inst.adjacency, fields["n"])
    assert inst.labels.kappa == fields["q"]
    assert np.bincount(inst.labels.labels, minlength=fields["q"] + 1)[1:].min() > 0


@settings(derandomize=True, max_examples=600)
@given(
    n=st.integers(1, 300),
    r=_REALS,
    p=st.one_of(_REALS, st.floats(0.0, 1.0)),
    seed=st.integers(-3, 2**63),
)
@example(n=20, r=3, p=1e-20, seed=0)
@example(n=20, r=1e300, p=0.5, seed=0)
def test_negative_binomial_graph_is_rejected_or_valid(n, r, p, seed):
    try:
        A = negative_binomial_graph(n, r=r, p=p, seed=seed)
    except ValidationError:
        return
    assert_canonical_graph(A, n)


#: Counts and seeds as a caller might pass them: small integers around
#: the lower bounds, numpy's integers, and the values a whole-number
#: parameter must refuse rather than truncate or accept: bools, floats
#: (2.0 included), a string and None.
_WHOLE = st.one_of(
    st.integers(-3, 10),
    st.sampled_from([True, False, np.int64(3), 2.0, 2.5, "3", None]),
)
_SEEDS = st.one_of(_WHOLE, st.just(2**70))
_WHOLE_RUNS = settings(derandomize=True, max_examples=100, deadline=None)


def is_whole(*values):
    """Every value is an integer, numpy's included, and none a bool."""
    return all(isinstance(v, Integral) and not isinstance(v, bool) for v in values)


def _ring(n):
    """Adjacency of an n-cycle."""
    i = np.arange(n)
    return sp.csr_matrix((np.ones(2 * n), (np.r_[i, i], np.r_[(i + 1) % n, (i - 1) % n])))


@_WHOLE_RUNS
@given(d=_WHOLE, n_epochs=_WHOLE, kappa=_WHOLE, seed=_SEEDS)
@example(d=2, n_epochs=1, kappa=1, seed=-1)
@example(d=2, n_epochs=1.5, kappa=1, seed=0)
@example(d=2, n_epochs=1, kappa=1.5, seed=0)
@example(d=2.5, n_epochs=1, kappa=1, seed=0)
@example(d=True, n_epochs=1, kappa=1, seed=0)
def test_fit_takes_whole_numbers(d, n_epochs, kappa, seed):
    try:
        cfg = OptimizerConfig(d=d, n_epochs=n_epochs, kappa=kappa, seed=seed)
        result = fit(row_normalize(_ring(12)), cfg)
    except ValidationError:
        return
    assert is_whole(d, n_epochs, kappa, seed)
    assert result.X.shape == (12, d) and result.labels.kappa == kappa
    assert result.log.shape[0] == n_epochs + 1


@_WHOLE_RUNS
@given(kappa=_WHOLE, seed=_SEEDS, restarts=_WHOLE)
@example(kappa=2, seed=-1, restarts=1)
@example(kappa=2.5, seed=0, restarts=1)
@example(kappa=2, seed=0, restarts=1.5)
def test_kmeans_label_takes_whole_numbers(kappa, seed, restarts):
    Y = np.random.default_rng(0).standard_normal((20, 3))
    try:
        labels = kmeans_label(Y, kappa, seed=seed, restarts=restarts)
    except ValidationError:
        return
    assert is_whole(kappa, seed, restarts)
    assert labels.kappa == kappa and labels.n == 20


@_WHOLE_RUNS
@given(m=_WHOLE)
def test_mixture_source_count_is_whole(m):
    try:
        params = MixtureParams(pi=np.ones(1), mu=np.zeros((1, 2)), omega=np.zeros((1, 2, 2)), m=m)
    except ValidationError:
        return
    assert is_whole(m) and params.m == m


@_WHOLE_RUNS
@given(n=_WHOLE, q=_WHOLE, seed=_SEEDS)
@example(n=10.5, q=2, seed=0)
@example(n=10, q=2, seed=1.5)
def test_block_model_takes_whole_numbers(n, q, seed):
    try:
        params = DcsbmParams(n=n, q=q, c=1.0, alpha=0.5, theta_recipe="unit", seed=seed)
    except ValidationError:
        return
    assert is_whole(n, q, seed)
    inst = dcsbm_sample(params)
    assert_canonical_graph(inst.adjacency, n)
    assert inst.labels.kappa == q


@_WHOLE_RUNS
@given(w=_WHOLE, seed=_SEEDS)
@example(w=2, seed=1.5)
def test_block_model_benchmark_takes_whole_numbers(w, seed):
    try:
        rows = dcsbm_benchmark(
            n=12, q=2, c=1.0, alphas=[0.5], seeds=[seed], w=w,
            cfg=OptimizerConfig(d=2, n_epochs=1), theta_recipe="unit",
        )
    except ValidationError:
        return
    assert is_whole(w, seed)
    assert [row[1] for row in rows] == [seed]


@_WHOLE_RUNS
@given(w=_WHOLE)
@example(w=1.5)
def test_walk_operator_takes_a_whole_window(w):
    try:
        chain = walk_operator(_ring(6), w)
    except ValidationError:
        return
    assert is_whole(w) and len(chain.factors) == w


@_WHOLE_RUNS
@given(n=_WHOLE, seed=_SEEDS)
@example(n=20, seed=-1)
@example(n=10.5, seed=0)
@example(n=20, seed=1.5)
def test_negative_binomial_graph_takes_whole_numbers(n, seed):
    try:
        A = negative_binomial_graph(n, seed=seed)
    except ValidationError:
        return
    assert is_whole(n, seed)
    assert_canonical_graph(A, n)


@_WHOLE_RUNS
@given(d=_WHOLE, n_features=_WHOLE, seed=_SEEDS)
@example(d=3, n_features=4, seed=-1)
@example(d=3, n_features=2.5, seed=0)
def test_feature_map_takes_whole_numbers(d, n_features, seed):
    try:
        fmap = KernelFeatureMap.from_seed(d, n_features, seed)
    except ValidationError:
        return
    assert is_whole(d, n_features, seed)
    assert fmap.W.shape == (n_features, d)


@_WHOLE_RUNS
@given(m_grid=st.lists(_WHOLE, min_size=1, max_size=2), repeats=_WHOLE, seed=_SEEDS)
@example(m_grid=[2.5, 4.9], repeats=2, seed=0)
@example(m_grid=[4], repeats=2, seed=-1)
def test_concentration_probe_takes_whole_numbers(m_grid, repeats, seed):
    def sampler(m, rng):
        return rng.standard_normal((m, 2)) * 0.1

    try:
        table = concentration_probe(sampler, np.array([1.0, 0.0]), m_grid, repeats, seed=seed)
    except ValidationError:
        return
    assert is_whole(*m_grid, repeats, seed)
    assert table[:, 0].tolist() == m_grid
