"""Hostile inputs to the library's entry points.

Each property draws parameters across float64's whole range, mixed with
typical values, and states one contract: the call either raises
``ValidationError`` or builds a valid result.  Nothing else is raised and
no warning is issued (the module turns every warning into an error).  The
first strategies cover the graph generators.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edrep.errors import ValidationError
from edrep.graphs import DcsbmParams, dcsbm_sample, negative_binomial_graph

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
    seed=st.integers(0, 2**63),
)
@example(n=20, r=3, p=1e-20, seed=0)
@example(n=20, r=1e300, p=0.5, seed=0)
def test_negative_binomial_graph_is_rejected_or_valid(n, r, p, seed):
    try:
        A = negative_binomial_graph(n, r=r, p=p, seed=seed)
    except ValidationError:
        return
    assert_canonical_graph(A, n)
