"""Containers, product chains, row normalization and rescaling."""

import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from edrep import matstore
from edrep.errors import DimensionError, ValidationError
from edrep.graphs import walk_operator
from edrep.matstore import (
    ProductChain,
    as_chain,
    product_threads,
    row_normalize,
    spmm,
    uniform_weights,
    unit_rows,
    validate_regularization_weights,
)


def random_sparse(rows, cols, density, seed):
    return sp.random(rows, cols, density=density, random_state=seed, format="csr")


class TestChainApply:
    def test_identity_chain_is_identity(self):
        chain = ProductChain([sp.eye(3, format="csr")])
        X = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(chain.apply(X), X)

    def test_rank_one_projector_squared(self):
        L = sp.csr_matrix(np.full((2, 2), 0.5))
        chain = ProductChain([L, L])
        out = chain.apply(np.eye(2))
        np.testing.assert_allclose(out, np.full((2, 2), 0.5), atol=1e-15)

    def test_three_factor_chain_matches_dense_product(self):
        """Oracle: materialize the factors densely and multiply directly."""
        rng = np.random.default_rng(10)
        factors = [random_sparse(50, 50, 0.1, s) for s in (1, 2, 3)]
        chain = ProductChain(factors)
        X = rng.standard_normal((50, 7))
        dense = factors[2].toarray() @ factors[1].toarray() @ factors[0].toarray()
        np.testing.assert_allclose(chain.apply(X), dense @ X, atol=1e-10)

    def test_single_factor_equals_direct_multiplication(self):
        A = random_sparse(20, 30, 0.2, 4)
        X = np.random.default_rng(5).standard_normal((30, 4))
        np.testing.assert_array_equal(ProductChain([A]).apply(X), A @ X)

    def test_distributes_over_column_blocks(self):
        rng = np.random.default_rng(6)
        chain = ProductChain([random_sparse(15, 15, 0.3, s) for s in (7, 8)])
        X1 = rng.standard_normal((15, 3))
        X2 = rng.standard_normal((15, 2))
        joint = chain.apply(np.hstack([X1, X2]))
        np.testing.assert_allclose(
            joint, np.hstack([chain.apply(X1), chain.apply(X2)]), atol=1e-12
        )

    def test_weighted_chain_averages_prefixes(self):
        rng = np.random.default_rng(9)
        L = row_normalize(random_sparse(12, 12, 0.4, 11) + sp.eye(12))
        chain = ProductChain([L, L, L], weights=[0.2, 0.3, 0.5])
        X = rng.standard_normal((12, 5))
        Ld = L.toarray()
        expected = 0.2 * Ld @ X + 0.3 * Ld @ Ld @ X + 0.5 * Ld @ Ld @ Ld @ X
        np.testing.assert_allclose(chain.apply(X), expected, atol=1e-12)

    def test_transpose_matches_dense_transpose(self):
        """Oracle: transpose of the materialized dense product."""
        rng = np.random.default_rng(12)
        factors = [random_sparse(40, 40, 0.15, s) for s in (21, 22, 23)]
        chain = ProductChain(factors)
        X = rng.standard_normal((40, 6))
        dense = factors[2].toarray() @ factors[1].toarray() @ factors[0].toarray()
        np.testing.assert_allclose(chain.apply_transpose(X), dense.T @ X, atol=1e-10)

    def test_weighted_transpose_matches_dense(self):
        rng = np.random.default_rng(13)
        L = row_normalize(random_sparse(10, 10, 0.5, 14) + sp.eye(10))
        chain = ProductChain([L, L], weights=[0.25, 0.75])
        X = rng.standard_normal((10, 3))
        Ld = L.toarray()
        dense = 0.25 * Ld + 0.75 * Ld @ Ld
        np.testing.assert_allclose(chain.apply_transpose(X), dense.T @ X, atol=1e-12)

    def test_dimension_mismatch_names_factor(self):
        with pytest.raises(DimensionError, match="factor 1"):
            ProductChain([random_sparse(4, 5, 0.5, 1), random_sparse(4, 3, 0.5, 2)])

    def test_operand_mismatch_rejected(self):
        chain = ProductChain([sp.eye(4, format="csr")])
        with pytest.raises(DimensionError):
            chain.apply(np.zeros((5, 2)))

    def test_weight_count_must_match(self):
        with pytest.raises(DimensionError):
            ProductChain([sp.eye(3, format="csr")], weights=[0.5, 0.5])

    @pytest.mark.parametrize(
        "weights, shape",
        [([[1.0]], r"\(1, 1\)"), ([0.5, 0.5], r"\(2,\)"), ([], r"\(0,\)")],
    )
    def test_weight_shape_error_names_the_shape(self, weights, shape):
        """A 2-D weight array has the right size and the wrong shape; the
        message gives its shape, not a count that matches the factors."""
        match = rf"prefix weights have shape {shape}, expected \(1,\), one per factor"
        with pytest.raises(DimensionError, match=match):
            ProductChain([sp.eye(3, format="csr")], weights=weights)


def serial_apply(chain, X):
    """Oracle: the single-threaded chain product, one scipy product per factor."""
    if chain.weights is None:
        for f in chain.factors:
            X = f @ X
        return X
    cur, acc = X, np.zeros((chain.shape[0], X.shape[1]))
    for w, f in zip(chain.weights, chain.factors):
        cur = f @ cur
        acc += w * cur
    return acc


def serial_apply_transpose(chain, X):
    """Oracle: the transposed chain through scipy's CSC products ``f.T @ X``."""
    if chain.weights is None:
        for f in reversed(chain.factors):
            X = f.T @ X
        return X
    acc = chain.weights[-1] * X
    for t in range(len(chain.factors) - 2, -1, -1):
        acc = chain.weights[t] * X + chain.factors[t + 1].T @ acc
    return chain.factors[0].T @ acc


def sparse_with_empty_rows(rows, cols, density, seed):
    A = random_sparse(rows, cols, density, seed).tolil()
    A[:: 3] = 0.0
    return A.tocsr()


class TestRowSplitProducts:
    """Row-split products are bitwise equal to the serial scipy products."""

    @settings(max_examples=40)
    @given(
        sizes=st.lists(st.integers(1, 30), min_size=2, max_size=4),
        d=st.integers(1, 5),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        threads=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_unweighted_rectangular_chain(self, sizes, d, density, threads, seed):
        factors = [
            sparse_with_empty_rows(sizes[k + 1], sizes[k], density, seed + k)
            for k in range(len(sizes) - 1)
        ]
        chain = ProductChain(factors)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((sizes[0], d))
        Y = rng.standard_normal((sizes[-1], d))
        expected = serial_apply_transpose(chain, Y).tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matstore, "product_threads", lambda: threads)
            assert chain.apply(X).tobytes() == serial_apply(chain, X).tobytes()
            assert chain.apply_transpose(Y).tobytes() == expected
            # The second call reads the cached transposes.
            assert chain.apply_transpose(Y).tobytes() == expected

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 40),
        w=st.integers(1, 4),
        d=st.integers(1, 5),
        threads=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_weighted_walk_chain(self, n, w, d, threads, seed):
        L = row_normalize(sparse_with_empty_rows(n, n, 0.2, seed))
        chain = ProductChain([L] * w, weights=np.random.default_rng(seed).random(w))
        X = np.random.default_rng(seed + 1).standard_normal((n, d))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matstore, "product_threads", lambda: threads)
            assert chain.apply(X).tobytes() == serial_apply(chain, X).tobytes()
            assert chain.apply_transpose(X).tobytes() == serial_apply_transpose(chain, X).tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3, 5])
    def test_fewer_rows_than_threads(self, threads):
        A = sp.csr_matrix(np.array([[0.0, 2.0], [1.5, 0.0]]))
        X = np.arange(6.0).reshape(2, 3)
        assert spmm(A, X, threads).tobytes() == (A @ X).tobytes()
        B = sp.csr_matrix((1, 2))
        assert spmm(B, X, threads).tobytes() == (B @ X).tobytes()

    def test_range_error_reaches_caller_after_every_range(self, monkeypatch):
        """The range at row 0 fails at once on the pool; the others are
        still running when it does, and must have finished when ``spmm``
        raises it, so none still writes to the output."""
        finished = []

        def add_rows(f, x, a, b, out):
            if a == 0:
                raise KeyError("range 0")
            time.sleep(0.2)
            finished.append(a)

        monkeypatch.setattr(matstore, "_add_rows", add_rows)
        with pytest.raises(KeyError, match="range 0"):
            spmm(sp.eye(3, format="csr"), np.ones((3, 2)), 3)
        assert sorted(finished) == [1, 2]

    def test_repeated_factor_is_stored_and_transposed_once(self):
        A = random_sparse(30, 30, 0.2, 3) + sp.eye(30)
        chain = walk_operator(A, 3)
        assert chain.factors[0] is chain.factors[1] is chain.factors[2]
        chain.apply_transpose(np.ones((30, 2)))
        assert len({id(t) for t in chain._transposed}) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(matstore, "product_threads", lambda: 2)
        chain = ProductChain([random_sparse(50, 50, 0.2, 5)])
        X = np.ones((50, 3))
        expected = chain.apply(X)  # starts the pool in this process
        pid = os.fork()
        if pid == 0:
            ok = chain.apply(X).tobytes() == expected.tobytes()
            os._exit(0 if ok else 1)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("product in a forked child did not finish")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_thread_count_follows_omp_cap(self, monkeypatch):
        cores = matstore._usable_cores()
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert product_threads() == 1
        monkeypatch.setenv("OMP_NUM_THREADS", str(cores + 7))
        assert product_threads() == cores
        monkeypatch.setenv("OMP_NUM_THREADS", "not-a-number")
        assert product_threads() == cores
        monkeypatch.delenv("OMP_NUM_THREADS")
        assert product_threads() == cores


def transpose_rows_cases(n, m, density, seed):
    """A one-factor chain of shape (n, m) with empty rows and, at low
    density, empty columns (empty rows of P'), and its weighted and
    two-factor relatives of the same shape."""
    P = sparse_with_empty_rows(n, m, density, seed)
    chains = {"one-factor": ProductChain([P])}
    if n == m:
        chains["weighted"] = ProductChain([P, P], weights=[0.25, 0.75])
        chains["one-factor weighted"] = ProductChain([P], weights=[1.0])
    chains["two-factor"] = ProductChain([random_sparse(m, m, density, seed + 1), P])
    return chains


def directed_graph(n, degree, seed):
    """A random directed graph of about ``degree`` edges per row, every
    third row empty, built without dense-size temporaries."""
    i, j = np.random.default_rng(seed).integers(0, n, (2, degree * n))
    keep = i % 3 != 0
    return sp.csr_matrix((np.ones(keep.sum()), (i[keep], j[keep])), shape=(n, n))


class TestTransposeRows:
    """``_transpose_rows`` serves rows lo:hi of P'X, bitwise equal to the
    same rows of the whole product, for any ranges in any order."""

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 40),
        square=st.booleans(),
        m=st.integers(1, 40),
        d=st.integers(1, 5),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        threads=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
        cuts=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=8),
    )
    def test_rows_equal_slices_of_the_whole_product(
        self, n, square, m, d, density, threads, seed, cuts
    ):
        m = n if square else m
        X = np.random.default_rng(seed).standard_normal((n, d))
        # P'X has m rows.  The whole range, then ranges in any order and
        # of any length, shorter and longer than those served before.
        cuts = [sorted((a % (m + 1), b % (m + 1))) for a, b in cuts]
        ranges = [(0, m), *cuts, (0, m)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matstore, "product_threads", lambda: threads)
            for chain in transpose_rows_cases(n, m, density, seed).values():
                whole = chain.apply_transpose(X)
                rows = chain._transpose_rows(X)
                for lo, hi in ranges:
                    assert rows(lo, hi).tobytes() == whole[lo:hi].tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ranges_past_one_block(self, threads, monkeypatch):
        """Epoch-loop blocks of 2048 rows, then ranges longer than any
        served before, up to every row at once."""
        monkeypatch.setattr(matstore, "product_threads", lambda: threads)
        n, d = 5000, 4
        P = directed_graph(n, 3, 7)
        X = np.random.default_rng(8).standard_normal((n, d))
        whole = ProductChain([P]).apply_transpose(X)
        rows = ProductChain([P])._transpose_rows(X)
        for lo, hi in [(0, 2048), (2048, 4096), (4096, n), (100, 4100), (0, n), (7, 9)]:
            assert rows(lo, hi).tobytes() == whole[lo:hi].tobytes()

    @pytest.mark.parametrize("lo, hi", [(-1, 2), (3, 2), (0, 7), (6, 7)])
    def test_range_outside_the_rows_rejected(self, lo, hi):
        """The kernel checks no bounds, so the server does."""
        rows = ProductChain([random_sparse(6, 4, 0.5, 1)])._transpose_rows(np.ones((6, 2)))
        with pytest.raises(DimensionError, match=f"rows {lo}:{hi} outside the 4 rows"):
            rows(lo, hi)

    def test_one_factor_chain_holds_one_block(self):
        """Streamed rows take one buffer of the longest range served; the
        whole product would take an n x d array."""
        n, d, block = 20000, 16, 2048
        chain = ProductChain([row_normalize(directed_graph(n, 5, 9))])
        X = np.random.default_rng(10).standard_normal((n, d))
        chain.apply_transpose(X[:, :1])  # builds the cached transpose
        tracemalloc.start()
        try:
            rows = chain._transpose_rows(X)
            for lo in range(0, n, block):
                rows(lo, min(lo + block, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block * d * 8 + 16 * 1024


class TestProductBuffers:
    """Each product call works in buffers of its own and returns one of them."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_later_calls_leave_earlier_results_alone(self, threads, monkeypatch):
        monkeypatch.setattr(matstore, "product_threads", lambda: threads)
        rng = np.random.default_rng(41)
        L = row_normalize(random_sparse(60, 60, 0.1, 41) + sp.eye(60))
        chains = [ProductChain([L] * w, weights=rng.random(w)) for w in (1, 2, 3)]
        chains += [ProductChain([L]), ProductChain([L, L, L])]
        chains.append(
            ProductChain([random_sparse(40, 60, 0.2, 42), random_sparse(30, 40, 0.2, 43)])
        )
        for chain in chains:
            X1, X2 = (rng.standard_normal((chain.shape[1], 4)) for _ in range(2))
            Y1, Y2 = (rng.standard_normal((chain.shape[0], 4)) for _ in range(2))
            inputs = [X1.copy(), Y1.copy()]
            first = [chain.apply(X1), chain.apply_transpose(Y1)]
            kept = [r.copy() for r in first]
            second = [chain.apply(X2), chain.apply_transpose(Y2), chain.apply(X1)]
            for old, saved in zip(first, kept):
                assert old.tobytes() == saved.tobytes()
                assert not any(np.shares_memory(old, new) for new in second)
            assert X1.tobytes() == inputs[0].tobytes() and Y1.tobytes() == inputs[1].tobytes()
            assert second[2].tobytes() == kept[0].tobytes()

    # Peaks of one call on a 4000-node walk chain of window 3 at d = 16,
    # in bytes above three 4000 x 16 arrays: the smallest of three runs of
    # this test on the products that allocated a new array for every
    # product and sum (numpy 2.4.6, scipy 1.17.1, Python 3.11).
    PARENT_EXTRA = {
        (1, "apply"): 1084, (1, "apply_transpose"): 888,
        (2, "apply"): 33544, (2, "apply_transpose"): 33288,
    }

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_no_more_than_fresh_arrays(self, threads, monkeypatch):
        monkeypatch.setattr(matstore, "product_threads", lambda: threads)
        n, d = 4000, 16
        A = sp.random(n, n, density=8.0 / n, random_state=1, format="csr")
        chain = walk_operator(A + A.T, 3)
        X = np.random.default_rng(0).standard_normal((n, d))
        chain.apply_transpose(X)  # builds the cached transpose (and the pool)
        array = n * d * 8
        peaks = {}
        for name in ("apply", "apply_transpose"):
            tracemalloc.start()
            try:
                result = getattr(chain, name)(X)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del result
            assert peaks[name] <= 3 * array + self.PARENT_EXTRA[threads, name]
        # The Horner sum holds two arrays where fresh ones took three.
        assert peaks["apply_transpose"] <= 2 * array + 64 * 1024


class TestStochasticValidation:
    def test_row_normalized_chain_passes(self):
        L = row_normalize(random_sparse(25, 25, 0.2, 3) + sp.eye(25))
        ProductChain([L, L]).validate_stochastic()
        ProductChain([L, L], weights=[0.5, 0.5]).validate_stochastic()

    def test_negative_factor_rejected(self):
        A = sp.csr_matrix(np.array([[0.5, 0.5], [-0.2, 1.2]]))
        with pytest.raises(ValidationError, match="negative"):
            ProductChain([A]).validate_stochastic()

    def test_negative_prefix_weight_rejected(self):
        # Rows of 1.5 L - 0.5 L still sum to 1, but the operator has
        # negative entries.
        L = row_normalize(random_sparse(25, 25, 0.2, 3) + sp.eye(25))
        with pytest.raises(ValidationError, match="weights must be nonnegative"):
            ProductChain([L, L], weights=[1.5, -0.5]).validate_stochastic()

    def test_non_stochastic_rows_reported(self):
        A = sp.csr_matrix(np.array([[0.5, 0.5], [0.3, 0.3]]))
        with pytest.raises(ValidationError, match="row-stochastic"):
            ProductChain([A]).validate_stochastic()

    def test_passed_chain_is_not_checked_again(self, validation_calls):
        L = row_normalize(random_sparse(25, 25, 0.2, 4) + sp.eye(25))
        chain = ProductChain([L, L])
        chain.validate_stochastic()
        chain.validate_stochastic()
        assert len(validation_calls) == 1

    def test_failing_chain_fails_every_time(self, validation_calls):
        chain = ProductChain([sp.csr_matrix(np.array([[0.5, 0.5], [0.3, 0.3]]))])
        for _ in range(2):
            with pytest.raises(ValidationError, match="row-stochastic"):
                chain.validate_stochastic()
        assert len(validation_calls) == 2

    def test_as_chain_wraps_matrices(self):
        A = row_normalize(sp.eye(4, format="csr"))
        chain = as_chain(A)
        assert isinstance(chain, ProductChain)
        assert as_chain(chain) is chain


class TestRowNormalize:
    def test_direct_division(self):
        out = row_normalize(sp.csr_matrix(np.array([[2.0, 2.0], [0.0, 4.0]])))
        np.testing.assert_array_equal(out.toarray(), [[0.5, 0.5], [0.0, 1.0]])

    def test_identity_unchanged(self):
        out = row_normalize(sp.eye(5, format="csr"))
        np.testing.assert_array_equal(out.toarray(), np.eye(5))

    def test_empty_row_becomes_self_loop(self):
        A = sp.csr_matrix(np.array([[0.0, 3.0], [0.0, 0.0]]))
        out = row_normalize(A)
        np.testing.assert_array_equal(out.toarray(), [[0.0, 1.0], [0.0, 1.0]])

    def test_matches_hand_written_dense_normalizer(self):
        """Oracle: an explicit loop that divides each dense row by its sum."""
        rng = np.random.default_rng(31)
        for _ in range(5):
            dense = rng.random((20, 20)) * (rng.random((20, 20)) < 0.3)
            dense[3] = 0.0  # force one empty row
            expected = np.zeros_like(dense)
            for i in range(20):
                s = dense[i].sum()
                if s > 0:
                    expected[i] = dense[i] / s
                else:
                    expected[i, i] = 1.0
            out = row_normalize(sp.csr_matrix(dense))
            np.testing.assert_allclose(out.toarray(), expected, atol=1e-14)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            row_normalize(sp.csr_matrix(np.array([[1.0, -1.0], [0.0, 1.0]])))

    def test_output_composes_into_stochastic_chain(self):
        A = random_sparse(30, 30, 0.2, 17)
        L = row_normalize(A)
        ProductChain([L, L, L], weights=uniform_weights(3) * 3 / 3).validate_stochastic()


class TestAsDense:
    def test_aligned_contiguous_float64_is_returned_itself(self):
        A = np.random.default_rng(0).standard_normal((4, 3))
        assert matstore.as_dense(A) is A

    def test_misaligned_view_is_copied_once_into_an_aligned_array(self):
        view = np.frombuffer(bytearray(8 * 12 + 4), "<f8", offset=4).reshape(4, 3)
        view[:] = np.arange(12.0).reshape(4, 3)
        assert not view.flags.aligned
        A = matstore.as_dense(view)
        assert A.flags.aligned and A.flags.c_contiguous and A.flags.owndata
        assert A.tobytes() == view.tobytes()
        assert matstore.as_dense(A) is A

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 5, -1])
    def test_non_finite_entry_rejected_anywhere(self, bad, where):
        A = np.full((3, 4), -1e308)
        A.flat[where] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            matstore.as_dense(A, name="A")

    def test_finiteness_check_allocates_nothing(self):
        """Extreme finite values pass, and the check makes no boolean
        copy of the input."""
        A = np.random.default_rng(1).standard_normal((4000, 100)) * 1e307
        tracemalloc.start()
        try:
            assert matstore.as_dense(A) is A
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.size // 100


class TestRealDtypes:
    @pytest.mark.parametrize("convert", [matstore.as_dense, matstore.as_csr], ids=["dense", "csr"])
    @pytest.mark.parametrize(
        "values",
        [
            np.array([[0.5, 0.5 + 5j]]),
            np.array([[True, False]]),
            np.array([["0.5", "0.5"]]),
            np.array([[0.5, 0.5]], dtype=object),
        ],
        ids=["complex", "bool", "string", "object"],
    )
    def test_non_real_dtype_rejected(self, convert, values):
        """A float64 cast would keep the real part of a complex entry and
        turn booleans, numeric strings and objects into numbers."""
        with pytest.raises(ValidationError, match="A must hold real numbers"):
            convert(values, name="A")

    def test_complex_sparse_matrix_rejected(self):
        with pytest.raises(ValidationError, match="got dtype complex128"):
            matstore.as_csr(sp.coo_matrix(np.array([[1.0 + 2j, 0.0], [0.0, 1.0]])))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8, np.float32])
    def test_integer_and_floating_dtypes_convert_exactly(self, dtype):
        values = np.array([[1, 0, 2], [0, 3, 4]], dtype=dtype)
        assert matstore.as_dense(values).tobytes() == values.astype(np.float64).tobytes()
        M = matstore.as_csr(values)
        assert M.dtype == np.float64
        assert M.toarray().tobytes() == values.astype(np.float64).tobytes()


class TestRescaleEmbedding:
    def test_unit_rows_idempotent(self):
        X = np.array([[1.0, 0.0], [0.6, 0.8]])
        out = unit_rows(X)
        np.testing.assert_allclose(out, X, atol=1e-15)

    def test_postconditions_on_random_matrix(self):
        """Oracle: recompute the row norms of the rescaled output."""
        rng = np.random.default_rng(8)
        X = rng.standard_normal((100, 10)) * 3.0
        unit = unit_rows(X)
        np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0, atol=1e-12)

    def test_zero_row_error_lists_indices(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match=r"\[1, 2\]"):
            unit_rows(X)


class TestRegularizationWeights:
    def test_uniform_weights_sum_to_one(self):
        w = uniform_weights(7)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_rejects_bad_sums_and_signs(self):
        with pytest.raises(ValidationError):
            validate_regularization_weights(np.array([0.5, 0.6]), 2)
        with pytest.raises(ValidationError):
            validate_regularization_weights(np.array([1.5, -0.5]), 2)
        with pytest.raises(DimensionError):
            validate_regularization_weights(uniform_weights(4), n=5)

    def test_rejects_complex_weights(self):
        """A float64 cast would drop the imaginary part with only a
        ComplexWarning."""
        with pytest.raises(ValidationError, match="real numbers"):
            validate_regularization_weights(np.array([0.5 + 1j, 0.5]), 2)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: matstore.as_dense(np.zeros((2, 2, 2))), ValidationError, "2-dimensional"),
        (lambda: matstore.as_csr(sp.csr_matrix([[1.0, np.inf]])), ValidationError, "non-finite"),
        (lambda: ProductChain([sp.eye(2)], weights=[[1.0]]), DimensionError, "prefix weights"),
        (lambda: ProductChain([]), ValidationError, "at least one factor"),
        (lambda: ProductChain([sp.eye(2)], weights=[np.nan]), ValidationError, "finite"),
        (lambda: ProductChain([sp.eye(2)] * 2, weights=[[1], [1, 2]]), ValidationError,
         "prefix weights must be numbers"),
        (lambda: ProductChain([sp.eye(2)], weights=np.array([1 + 1j])), ValidationError,
         "prefix weights must hold real numbers, got dtype complex128"),
        (lambda: ProductChain([sp.csr_matrix(np.ones((2, 3)))], weights=[1.0]), DimensionError,
         "square"),
        (lambda: ProductChain([sp.eye(4)]).apply_transpose(np.zeros((5, 2))), DimensionError,
         "transposed chain expects 4"),
        (lambda: row_normalize(sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))),
         ValidationError, r"rectangular matrix: rows \[1\]"),
        (lambda: validate_regularization_weights(np.full((2, 2), 0.25), 4), ValidationError,
         "must be a vector"),
    ],
    ids=["dense-3d", "csr-non-finite", "weights-not-vector", "no-factors", "weights-non-finite",
         "weights-ragged", "weights-complex", "weighted-non-square", "transpose-operand-rows",
         "rectangular-empty-rows", "regularization-weights-2d"],
)
def test_malformed_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()
