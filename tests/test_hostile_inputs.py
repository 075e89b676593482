"""Hostile inputs to the library's entry points.

Each property draws parameters across float64's whole range, mixed with
typical values, and states one contract: the call either raises
``ValidationError`` or builds a valid result.  Nothing else is raised and
no warning is issued: each property runs its library calls inside
``warnings_as_errors``.  The first strategies cover the graph generators;
the whole-number and real-number strategies cover every entry that takes a
count, a seed, a rate or a distribution parameter, and the array strategy
every entry that takes an array.
"""

import os
import warnings
from contextlib import contextmanager
from numbers import Integral, Real

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edrep.errors import ValidationError
from edrep.evaluate import dcsbm_benchmark, deviation_ct
from edrep.graphs import (
    DcsbmParams, TemporalEdgeList, dcsbm_sample, negative_binomial_graph, walk_operator
)
from edrep.io import save_labels
from edrep.matstore import ProductChain, as_dense, row_normalize, unit_rows
from edrep.mixture import LabelVector, MixtureParams, kmeans_label
from edrep.optimizer import OptimizerConfig, exact_loss, fit, sphere_step
from edrep.znorm import KernelFeatureMap, ZEstimate, concentration_probe, exact_z


@contextmanager
def warnings_as_errors():
    """Every warning raised inside is an error.  Properties wrap their
    library calls in this, not the whole module in a warning filter, so
    that hypothesis' report of a failing example, whose imports warn, runs
    outside it and fails the test instead of the session."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


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
    with warnings_as_errors():
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
    with warnings_as_errors():
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
    with warnings_as_errors():
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
    with warnings_as_errors():
        try:
            labels = kmeans_label(Y, kappa, seed=seed, restarts=restarts)
        except ValidationError:
            return
    assert is_whole(kappa, seed, restarts)
    assert labels.kappa == kappa and labels.n == 20


@_WHOLE_RUNS
@given(m=_WHOLE)
def test_mixture_source_count_is_whole(m):
    with warnings_as_errors():
        try:
            params = MixtureParams(
                pi=np.ones(1), mu=np.zeros((1, 2)), omega=np.zeros((1, 2, 2)), m=m
            )
        except ValidationError:
            return
    assert is_whole(m) and params.m == m


@_WHOLE_RUNS
@given(n=_WHOLE, q=_WHOLE, seed=_SEEDS)
@example(n=10.5, q=2, seed=0)
@example(n=10, q=2, seed=1.5)
def test_block_model_takes_whole_numbers(n, q, seed):
    with warnings_as_errors():
        try:
            params = DcsbmParams(n=n, q=q, c=1.0, alpha=0.5, theta_recipe="unit", seed=seed)
        except ValidationError:
            return
        inst = dcsbm_sample(params)
    assert is_whole(n, q, seed)
    assert_canonical_graph(inst.adjacency, n)
    assert inst.labels.kappa == q


@_WHOLE_RUNS
@given(w=_WHOLE, seed=_SEEDS)
@example(w=2, seed=1.5)
def test_block_model_benchmark_takes_whole_numbers(w, seed):
    with warnings_as_errors():
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
    with warnings_as_errors():
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
    with warnings_as_errors():
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
    with warnings_as_errors():
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

    with warnings_as_errors():
        try:
            table = concentration_probe(sampler, np.array([1.0, 0.0]), m_grid, repeats, seed=seed)
        except ValidationError:
            return
    assert is_whole(*m_grid, repeats, seed)
    assert table[:, 0].tolist() == m_grid


#: Rates and distribution parameters as a caller might pass them: the
#: reals above, numpy's scalars, and the values a real parameter must
#: refuse rather than parse or read as 1: bools, a string, None and a
#: complex number.
_REAL_SCALARS = st.one_of(
    _REALS,
    st.sampled_from([True, False, "0.5", None, 0.5 + 0j, np.float32(0.5), np.int64(2)]),
)
_REAL_RUNS = settings(derandomize=True, max_examples=60, deadline=None)


def is_real(*values):
    """Every value is a real number, numpy's included, and none a bool."""
    return all(isinstance(v, Real) and not isinstance(v, bool) for v in values)


@_REAL_RUNS
@given(eta0=_REAL_SCALARS)
@example(eta0="0.5")
@example(eta0=None)
@example(eta0=0.5 + 0j)
@example(eta0=True)
@example(eta0=np.float32(0.7))
def test_fit_takes_a_real_rate(eta0):
    """A rate that is taken is used as the float it equals: a numpy
    float32 runs the float64 schedule of its value."""
    P = row_normalize(_ring(12))
    with warnings_as_errors():
        try:
            result = fit(P, OptimizerConfig(d=2, eta0=eta0, n_epochs=2))
        except ValidationError:
            return
        reference = fit(P, OptimizerConfig(d=2, eta0=float(eta0), n_epochs=2))
    assert is_real(eta0) and 0 < eta0 <= 1
    assert result.log[0, 1] == eta0
    assert result.X.tobytes() == reference.X.tobytes()


@_REAL_RUNS
@given(eta=_REAL_SCALARS)
@example(eta="0.5")
@example(eta=True)
@example(eta=np.float32(0.5))
def test_sphere_step_takes_a_real_rate(eta):
    rng = np.random.default_rng(0)
    X, g = unit_rows(rng.standard_normal((6, 3))), rng.standard_normal((6, 3))
    with warnings_as_errors():
        try:
            moved = sphere_step(X, g, eta)
        except ValidationError:
            return
        reference = sphere_step(X, g, float(eta))
    assert is_real(eta) and 0 < eta <= 1
    assert moved.tobytes() == reference.tobytes()


@_REAL_RUNS
@given(c=_REAL_SCALARS, alpha=_REAL_SCALARS)
@example(c="4", alpha=1.0)
@example(c=4.0, alpha=None)
@example(c=True, alpha=True)
@example(c=np.float32(4.0), alpha=np.float32(1.1))
def test_block_model_takes_real_c_and_alpha(c, alpha):
    with warnings_as_errors():
        try:
            params = DcsbmParams(n=40, q=2, c=c, alpha=alpha, theta_recipe="unit")
        except ValidationError:
            return
        reference = DcsbmParams(n=40, q=2, c=float(c), alpha=float(alpha), theta_recipe="unit")
        graph, expected = dcsbm_sample(params).adjacency, dcsbm_sample(reference).adjacency
    assert is_real(c, alpha)
    assert (params.c, params.alpha) == (c, alpha)
    assert (params.c_in, params.c_out) == (reference.c_in, reference.c_out)
    assert (graph != expected).nnz == 0


@_REAL_RUNS
@given(c=_REAL_SCALARS, alpha=_REAL_SCALARS)
@example(c=1.0, alpha="0.5")
@example(c=1.0, alpha=True)
def test_block_model_benchmark_takes_real_c_and_alphas(c, alpha):
    with warnings_as_errors():
        try:
            rows = dcsbm_benchmark(
                n=12, q=2, c=c, alphas=[alpha], seeds=[0], w=1,
                cfg=OptimizerConfig(d=2, n_epochs=1), theta_recipe="unit",
            )
        except ValidationError:
            return
    assert is_real(c, alpha)
    assert [row[0] for row in rows] == [alpha]


@_REAL_RUNS
@given(r=_REAL_SCALARS, p=_REAL_SCALARS)
@example(r="3", p=0.3)
@example(r=3, p=None)
@example(r=True, p=0.3)
def test_negative_binomial_graph_takes_real_r_and_p(r, p):
    with warnings_as_errors():
        try:
            A = negative_binomial_graph(20, r=r, p=p)
        except ValidationError:
            return
        expected = negative_binomial_graph(20, r=float(r), p=float(p))
    assert is_real(r, p) and 0 < p < 1
    assert (A != expected).nnz == 0


@st.composite
def _hostile_arrays(draw):
    """A ragged nested list, or an object, complex, bool or string array
    of rank 1 to 3: each rank is right for some entry and wrong for the
    others, and no entry may take any of them."""
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4, unique=True))
        ragged = [[1.0] * k for k in rows]
        return [ragged] * draw(st.integers(1, 2)) if draw(st.booleans()) else ragged
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    values = np.arange(1, int(np.prod(shape)) + 1).reshape(shape)
    kind = draw(st.sampled_from(["object", "complex", "bool", "str"]))
    if kind == "complex":
        return values + draw(st.sampled_from([0j, 1j]))
    return values.astype(object if kind == "object" else kind)


_X = np.eye(3)
_P = row_normalize(_ring(3))

#: Every entry that takes an array, the hostile array in one argument,
#: and the name its error must start with.
_ARRAY_ENTRIES = {
    "as_dense": (lambda a: as_dense(a), "matrix"),
    "exact_z-X": (lambda a: exact_z(a), "X"),
    "exact_z-Y": (lambda a: exact_z(_X, a), "Y"),
    "kmeans_label": (lambda a: kmeans_label(a, 1, seed=0), "Y"),
    "unit_rows": (lambda a: unit_rows(a), "embedding"),
    "row_normalize": (lambda a: row_normalize(a), "matrix"),
    "chain-factor": (lambda a: ProductChain([a]), "factor 0"),
    "chain-weights": (lambda a: ProductChain([sp.eye(3)], weights=a), "prefix weights"),
    "sphere_step-g": (lambda a: sphere_step(_X, a, 0.5), "g"),
    "exact_loss-p0": (lambda a: exact_loss(_X, _P, a), "regularization weights"),
    "mixture-pi": (
        lambda a: MixtureParams(pi=a, mu=np.zeros((1, 2)), omega=np.zeros((1, 2, 2)), m=1),
        "mixture parameter pi",
    ),
    "mixture-omega": (
        lambda a: MixtureParams(pi=np.ones(1), mu=np.zeros((1, 2)), omega=a, m=1),
        "mixture parameter omega",
    ),
    "label_vector": (lambda a: LabelVector(a, 1), "labels"),
    "temporal-i": (lambda a: TemporalEdgeList(i=a, j=[2], t=[1], w=[1.0]), "i"),
    "temporal-w": (lambda a: TemporalEdgeList(i=[1], j=[2], t=[1], w=a), "w"),
    "feature_map-W": (lambda a: KernelFeatureMap(W=a), "feature map W"),
    "deviation_ct": (lambda a: deviation_ct([a], [_X]), "epoch 0 iterate of X_traj"),
    "concentration_probe-x": (
        lambda a: concentration_probe(lambda m, rng: np.zeros((m, 1)), a, [2], 2), "x"
    ),
    "z_estimate": (lambda a: ZEstimate(a, "exact"), "Z values"),
    "save_labels": (lambda a: save_labels(os.devnull, a), "labels"),
}


@pytest.mark.parametrize("entry", _ARRAY_ENTRIES)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(a=_hostile_arrays())
@example(a=[[1.0, 2.0], [3.0]])
@example(a=["1", "2"])
@example(a=[True, True])
@example(a=np.array([1.0 + 1j, 2.0]))
def test_array_entry_refuses_what_is_not_real(entry, a):
    call, name = _ARRAY_ENTRIES[entry]
    with warnings_as_errors(), pytest.raises(ValidationError) as info:
        call(a)
    assert str(info.value).startswith(f"{name} must ")
