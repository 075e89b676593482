"""Matrix containers and the sparse product-chain operator.

Dense matrices are plain float64 ``numpy`` arrays (rows are vectors).
Sparse matrices are CSR, since every operation in this package is
row-oriented (operator application, per-row gradients, row sums).
``ProductChain`` represents a probability operator as an ordered list of
sparse factors that are applied right to left, so the full operator is
never materialized.

Each factor product is split into contiguous row ranges that run on a
shared thread pool, sized by ``product_threads``; every output row is
computed exactly as in a serial product, so results do not depend on the
thread count.  Transposed products use an explicit CSR transpose of each
distinct factor, built on the first call and cached on the chain, so
they split by rows too.  The kernel feature maps of ``znorm`` run their
elementwise passes on the same pool, through the same range runner.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import DimensionError, ValidationError

#: Row sums of a probability operator must match 1 within this tolerance.
ROW_STOCHASTIC_TOL = 1e-9


def as_dense(X, name: str = "matrix") -> np.ndarray:
    """Return ``X`` as an aligned, C-contiguous 2-D float64 array,
    checking that entries are finite.

    An array that already has that form is returned itself; anything
    else is copied once.  That includes a misaligned view, one whose
    data does not start on an 8-byte boundary: BLAS and numpy's loops
    take a slow path on every later call that reads it.
    """
    A = np.ascontiguousarray(X, dtype=np.float64)
    if not A.flags.aligned:
        A = A.copy()
    if A.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValidationError(f"{name} contains non-finite entries")
    return A


def as_csr(A, name: str = "matrix") -> sp.csr_matrix:
    """Return ``A`` as a canonical float64 CSR matrix."""
    M = sp.csr_matrix(A, dtype=np.float64)
    M.sum_duplicates()
    M.sort_indices()
    if not np.all(np.isfinite(M.data)):
        raise ValidationError(f"{name} contains non-finite entries")
    return M


def validate_regularization_weights(p0, n: int | None = None) -> np.ndarray:
    """Check that ``p0`` is a nonnegative vector summing to 1 within 1e-12."""
    w = np.ascontiguousarray(p0, dtype=np.float64)
    if w.ndim != 1:
        raise ValidationError("regularization weights must be a vector")
    if n is not None and w.size != n:
        raise DimensionError(f"regularization weights have length {w.size}, expected {n}")
    if w.size == 0 or np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValidationError("regularization weights must be finite and nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValidationError(f"regularization weights sum to {w.sum()!r}, expected 1")
    return w


def uniform_weights(n: int) -> np.ndarray:
    """The default regularization weights, 1/n for every item."""
    return np.full(n, 1.0 / n)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def product_threads() -> int:
    """Threads for one sparse product: the ``OMP_NUM_THREADS`` cap that
    ``--threads`` sets, if any, and at most the usable cores."""
    cores = _usable_cores()
    try:
        cap = int(os.environ.get("OMP_NUM_THREADS", cores))
    except ValueError:
        cap = cores
    return max(1, min(cap, cores))


_pool = None
_pool_lock = threading.Lock()


def _forget_pool_in_child() -> None:
    # A forked child inherits the pool object but not its threads; work
    # submitted to it would wait forever, so the child starts its own.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def _executor():
    """The product thread pool, started on first use, never at import."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(1, _usable_cores() - 1), thread_name_prefix="edrep-spmm"
            )
        return _pool


def _run_ranges(fn, cuts) -> list:
    """``[fn(a, b) ...]`` over the consecutive ranges of ``cuts``, in order.

    Every range but the last goes to the product pool and the calling
    thread runs the last one itself.  The call returns, or raises the
    first error of a range, only after every range has finished, so no
    range still writes to its output once the caller sees the error.
    """
    if len(cuts) == 2:
        return [fn(*cuts)]
    ranges = list(zip(cuts[:-1], cuts[1:]))
    pool = _executor()
    futures = [pool.submit(fn, a, b) for a, b in ranges[:-1]]
    try:
        last = fn(*ranges[-1])
    finally:
        wait(futures)
    return [future.result() for future in futures] + [last]


def spmm(
    f: sp.csr_matrix, X: np.ndarray, threads: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``f @ X`` for a canonical float64 CSR ``f``, on ``threads`` threads.

    The product is written into ``out`` (C-contiguous float64 of shape
    (rows of f, columns of X)), zeroed first, or into a new array, and
    returned.  The rows of ``f`` are cut into ``threads`` contiguous
    ranges of about equal nonzero count.  Each range runs scipy's CSR
    kernel, the one behind ``f @ X``, on views of the factor's arrays and
    adds straight into its slice of the output, so nothing is copied.  A
    row's products are summed in the same order as in ``f @ X``, so the
    result is bitwise the same.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, d = f.shape[0], X.shape[1]
    if out is None:
        out = np.zeros((n, d))
    else:
        out.fill(0.0)
    x = X.ravel()
    if threads == 1:
        _sparsetools.csr_matvecs(n, f.shape[1], d, f.indptr, f.indices, f.data, x, out.ravel())
        return out

    def rows(a, b):
        # The row pointers of a range index the factor's whole arrays.
        _sparsetools.csr_matvecs(
            b - a, f.shape[1], d, f.indptr[a : b + 1], f.indices, f.data, x, out[a:b].ravel()
        )

    # Targets in the pointers' own dtype: a float or wider search would
    # copy the whole pointer array.
    targets = ((np.arange(1, threads) * f.nnz + threads - 1) // threads).astype(f.indptr.dtype)
    _run_ranges(rows, [0, *np.searchsorted(f.indptr, targets).tolist(), n])
    return out


class ProductChain:
    """A linear operator given as a product (or weighted prefix sum) of sparse factors.

    ``factors[0]`` is applied to the input first, so the represented
    operator is ``factors[-1] @ ... @ factors[0]``.  When ``weights`` is
    given, the operator is instead the weighted sum of chain prefixes,
    ``sum_t weights[t] * (factors[t] @ ... @ factors[0])``; this is how
    averaged random-walk operators are stored without expanding matrix
    powers.  Application costs O(d * sum of factor nonzeros).

    Factors must not be modified after construction: ``apply_transpose``
    caches their transposes.  A matrix repeated in ``factors`` (the walk
    operator's ``[L] * w``) is stored, and transposed, once.
    """

    def __init__(self, factors, weights=None):
        if not factors:
            raise ValidationError("a product chain needs at least one factor")
        # A factor listed several times is converted once, so the copies
        # stay one object (and share one cached transpose).
        converted = {}
        for k, f in enumerate(factors):
            if id(f) not in converted:
                converted[id(f)] = as_csr(f, name=f"factor {k}")
        self.factors = [converted[id(f)] for f in factors]
        for k in range(1, len(self.factors)):
            need = self.factors[k - 1].shape[0]
            got = self.factors[k].shape[1]
            if got != need:
                raise DimensionError(
                    f"factor {k} has {got} columns, but factor {k - 1} produces {need} rows"
                )
        if weights is None:
            self.weights = None
        else:
            try:
                w = np.ascontiguousarray(weights, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"prefix weights must be numbers: {exc}") from exc
            if w.shape != (len(self.factors),):
                raise DimensionError(
                    f"got {w.size} prefix weights for {len(self.factors)} factors"
                )
            if not np.all(np.isfinite(w)):
                raise ValidationError("prefix weights must be finite")
            for k, f in enumerate(self.factors):
                if f.shape[0] != f.shape[1] or f.shape != self.factors[0].shape:
                    raise DimensionError(
                        f"factor {k} must be square of fixed size in a weighted chain"
                    )
            self.weights = w
        self._transposed = None
        self._stochastic = False

    @property
    def shape(self) -> tuple[int, int]:
        return (self.factors[-1].shape[0], self.factors[0].shape[1])

    @property
    def nnz(self) -> int:
        return sum(f.nnz for f in self.factors)

    def apply(self, X) -> np.ndarray:
        """Compute ``P @ X`` right to left without materializing the operator."""
        X = as_dense(X)
        if X.shape[0] != self.shape[1]:
            raise DimensionError(
                f"operand has {X.shape[0]} rows, factor 0 expects {self.shape[1]}"
            )
        return self._apply(X)

    def apply_transpose(self, X) -> np.ndarray:
        """Compute ``P.T @ X`` as the reversed chain of transposed factors."""
        X = as_dense(X)
        if X.shape[0] != self.shape[0]:
            raise DimensionError(
                f"operand has {X.shape[0]} rows, transposed chain expects {self.shape[0]}"
            )
        return self._apply_transpose(X)

    # The unchecked products below take a finite C-contiguous float64
    # operand of the right height, as the public methods check.  Each
    # call reuses its own buffers, a product overwriting one whose value
    # is no longer needed, and returns a buffer of its own; no buffer
    # outlives the call, and no more are live at once than products and
    # sums of fresh arrays would hold.

    def _apply(self, X: np.ndarray) -> np.ndarray:
        threads = product_threads()
        if self.weights is None:
            return _product(self.factors, X, threads)
        shape = (self.shape[0], X.shape[1])
        # The result is allocated after the scratch, so it sits above it
        # on the heap: the freed scratch then leaves no free top that
        # malloc would return to the system, only for the next call to
        # fault its pages in again.
        out = np.empty(shape)
        free = np.empty(shape) if len(self.factors) > 1 else out
        acc = np.zeros(shape)
        cur = X
        for w, f in zip(self.weights, self.factors):
            cur = spmm(f, cur, threads, out)
            # w * cur goes to the buffer of the previous product, now
            # consumed; with one factor, over the product itself.
            acc += np.multiply(w, cur, out=free)
            out, free = free, out
        return acc

    def _apply_transpose(self, X: np.ndarray) -> np.ndarray:
        threads = product_threads()
        transposed = self._transposes()
        if self.weights is None:
            return _product(transposed[::-1], X, threads)
        # Horner form of sum_t w_t (F_t ... F_0)^T X.
        acc = self.weights[-1] * X
        spare = None
        for t in range(len(self.factors) - 2, -1, -1):
            out = spmm(transposed[t + 1], acc, threads, spare)
            # acc is consumed: it takes the Horner term w_t X, and the sum
            # lands in the product (addition commutes exactly).
            out += np.multiply(self.weights[t], X, out=acc)
            acc, spare = out, acc
        return spmm(transposed[0], acc, threads, spare)

    def _transposes(self) -> list[sp.csr_matrix]:
        """CSR transposes of the factors, built once per distinct factor.

        A row of ``f.T.tocsr()`` lists its entries in ascending column
        order, the order in which the CSC product ``f.T @ X`` adds them,
        so products with it are bitwise equal to that product.
        """
        if self._transposed is None:
            built = {}
            for f in self.factors:
                if id(f) not in built:
                    built[id(f)] = f.T.tocsr()
            self._transposed = [built[id(f)] for f in self.factors]
        return self._transposed

    def validate_stochastic(self) -> None:
        """Check the chain can serve as a probability operator.

        Eligibility is judged on the effective operator: all factor
        entries and prefix weights must be nonnegative, and the operator
        must map the all-ones vector to itself within
        :data:`ROW_STOCHASTIC_TOL`.
        Individual factors are not required to be row-stochastic on their
        own.  The factors do not change, so a chain that passed is not
        checked again.
        """
        if not self._stochastic:
            self._check_stochastic()
            self._stochastic = True

    def _check_stochastic(self) -> None:
        for k, f in enumerate(self.factors):
            if f.nnz and f.data.min() < 0:
                raise ValidationError(f"factor {k} has negative entries")
        if self.weights is not None and self.weights.min() < 0:
            raise ValidationError(f"prefix weights must be nonnegative, got {self.weights.tolist()}")
        ones = np.ones((self.shape[1], 1))
        sums = self.apply(ones).ravel()
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_STOCHASTIC_TOL)
        if bad.size:
            raise ValidationError(
                f"operator is not row-stochastic: {bad.size} rows deviate, "
                f"first offenders {bad[:5].tolist()}"
            )


def _product(factors, X: np.ndarray, threads: int) -> np.ndarray:
    """``factors[-1] @ ... @ factors[0] @ X``; each product overwrites the
    one before the last when their shapes match."""
    cur, spare = X, None
    for f in factors:
        if spare is not None and spare.shape != (f.shape[0], X.shape[1]):
            spare = None
        out = spmm(f, cur, threads, spare)
        spare = None if cur is X else cur
        cur = out
    return cur


def as_chain(P) -> ProductChain:
    """Wrap a sparse/dense matrix as a one-factor chain; pass chains through."""
    if isinstance(P, ProductChain):
        return P
    return ProductChain([as_csr(P)])


def row_normalize(A) -> sp.csr_matrix:
    """Divide each row of a nonnegative sparse matrix by its sum.

    Rows that sum to zero cannot be normalized; for square matrices they
    are replaced by a unit self-loop so the result stays row-stochastic
    (a dangling node redistributes its mass to itself).
    """
    M = as_csr(A)
    if M.nnz and M.data.min() < 0:
        raise ValidationError("row_normalize requires nonnegative entries")
    sums = np.asarray(M.sum(axis=1)).ravel()
    empty = np.flatnonzero(sums == 0)
    if empty.size and M.shape[0] != M.shape[1]:
        raise ValidationError(
            f"cannot add self-loops to empty rows of a rectangular matrix: rows {empty[:5].tolist()}"
        )
    scale = np.ones_like(sums)
    nonempty = sums > 0
    scale[nonempty] = 1.0 / sums[nonempty]
    out = sp.diags(scale) @ M
    if empty.size:
        loops = sp.coo_matrix(
            (np.ones(empty.size), (empty, empty)), shape=M.shape
        )
        out = out + loops
    out = out.tocsr()
    out.sort_indices()
    return out


def rescale_embedding(X, mode: str) -> np.ndarray:
    """Rescale embedding rows.

    ``mode="average-norm-one"`` divides the whole matrix by the mean row
    norm; ``mode="unit-rows"`` normalizes each row to unit length and
    rejects zero rows.
    """
    X = as_dense(X, name="embedding")
    norms = np.linalg.norm(X, axis=1)
    if mode == "average-norm-one":
        mean = norms.mean()
        if mean == 0:
            raise ValidationError("embedding is identically zero")
        return X / mean
    if mode == "unit-rows":
        zero = np.flatnonzero(norms == 0)
        if zero.size:
            raise ValidationError(
                f"cannot normalize zero rows to unit length: rows {zero.tolist()}"
            )
        return X / norms[:, None]
    raise ValidationError(f"unknown rescale mode {mode!r}")
