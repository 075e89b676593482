"""Class labels and moment-matched Gaussian mixture parameters.

The mixture that feeds the normalization estimator is described by one
triple per class: the class fraction, the class mean vector and the
class covariance matrix (unbiased, divisor |class| - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from .errors import ValidationError
from .matstore import _real, as_dense

#: Covariance eigenvalues may undershoot zero by at most this much.
PSD_EIG_TOL = -1e-8

#: Lloyd iterations per k-means restart, if the labels keep changing.
_MAX_ITER = 100
#: Rows per block of k-means' row norms and distances (:func:`_block_cuts`).
#: With the remainder joined to the last block, every block's distances
#: had the bits of one product over all rows in a measured sweep: 0 of
#: 300 shapes differed (n from 8191 to 100,000, d up to 100, kappa up to
#: 16, at 1 and 2 BLAS threads), against 30 with 512-row blocks and every
#: row of a short tail of up to 128 rows at some shapes.  OpenBLAS can
#: give a row other bits depending on the product's row count, so this
#: holds for the measured shapes and thread counts, not for every one.
_LLOYD_BLOCK = 2048


def _block_cuts(n: int, width: int) -> list[int]:
    """Edges of blocks of ``width`` rows, the remainder joined to the
    last, so every block holds ``width`` to ``2 width - 1`` rows and
    fewer than ``2 width`` rows are one block.  BLAS computes the rows of
    a short product with other kernels than the same rows inside a long
    one (a lone row is a matrix-vector product), so no block is short."""
    return [*range(0, max(1, n // width) * width, width), n]


def _row_sq_norms(Y: np.ndarray) -> np.ndarray:
    """|y|^2 per row of Y, summed per ``_block_cuts`` block of
    ``_LLOYD_BLOCK`` rows, so no Y-sized Y * Y is made; each row's sum is
    its own, so it keeps the bits of one sum over all rows."""
    cuts = _block_cuts(Y.shape[0], _LLOYD_BLOCK)
    out = np.empty(Y.shape[0])
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        b = Y[lo:hi]
        np.sum(b * b, axis=1, out=out[lo:hi])
    return out


def check_kappa(kappa: int, rows: int, what: str) -> None:
    """A mixture of order kappa needs at least one row of ``what`` per class."""
    if not 1 <= kappa <= rows:
        raise ValidationError(f"kappa={kappa} must lie between 1 and the {rows} rows of {what}")


@dataclass(frozen=True)
class LabelVector:
    """Integer class labels in {1..kappa}, one per row, every class nonempty."""

    labels: np.ndarray
    kappa: int

    def __post_init__(self):
        raw = _real(np.asarray(self.labels), "labels")
        if raw.ndim != 1 or raw.size == 0:
            raise ValidationError("labels must form a nonempty vector")
        check_kappa(self.kappa, raw.size, "the label vector")
        # Membership, not a range test, which 1.5 would pass into the cast.
        if not np.isin(raw, np.arange(1, self.kappa + 1)).all():
            raise ValidationError(
                f"labels must be whole numbers in 1..{self.kappa}, got range "
                f"[{raw.min()}, {raw.max()}]"
            )
        arr = np.ascontiguousarray(raw, dtype=np.int64)
        object.__setattr__(self, "labels", arr)
        counts = np.bincount(arr, minlength=self.kappa + 1)[1:]
        if np.any(counts == 0):
            empty = np.flatnonzero(counts == 0) + 1
            raise ValidationError(f"classes {empty.tolist()} are empty")

    @property
    def n(self) -> int:
        return self.labels.size

    def counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.kappa + 1)[1:]


@dataclass(frozen=True)
class MixtureParams:
    """Per-class fraction, mean and covariance of m embedding vectors.

    ``omega_stack`` (every class covariance side by side, d x kappa d) is
    derived once; a singleton class adds a zero block.
    """

    pi: np.ndarray       # (kappa,)
    mu: np.ndarray       # (kappa, d)
    omega: np.ndarray    # (kappa, d, d), each symmetric PSD
    m: int               # number of vectors the moments were estimated from

    def __post_init__(self):
        pi, mu, omega = (
            np.ascontiguousarray(_real(np.asarray(getattr(self, name)), name), dtype=np.float64)
            for name in ("pi", "mu", "omega")
        )
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "omega", omega)
        if pi.ndim != 1 or mu.ndim != 2 or omega.ndim != 3:
            raise ValidationError("mixture parameter arrays have wrong ranks")
        k, d = mu.shape
        if pi.size != k or omega.shape != (k, d, d):
            raise ValidationError("mixture parameter shapes disagree")
        if self.m < 1:
            raise ValidationError("mixture source count m must be positive")
        for name, arr in (("pi", pi), ("mu", mu), ("omega", omega)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"mixture parameter {name} contains non-finite entries")
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValidationError("class fractions must be nonnegative and sum to 1")
        # reshape(d, -1) would fail at d = 0, and so would the reductions
        # below without an initial value.
        object.__setattr__(self, "omega_stack", omega.transpose(1, 0, 2).reshape(d, k * d))
        asym = np.abs(omega - omega.transpose(0, 2, 1)).max(initial=0.0)
        if asym > 1e-12:
            raise ValidationError(f"covariances asymmetric by {asym:.3e}")
        lows = np.linalg.eigvalsh(omega).min(axis=1, initial=0.0)
        bad = np.flatnonzero(lows < PSD_EIG_TOL)
        if bad.size:
            raise ValidationError(
                f"covariance of class {bad[0] + 1} has eigenvalue {lows[bad[0]]:.3e}"
            )

    @property
    def kappa(self) -> int:
        return self.pi.size

    @property
    def d(self) -> int:
        return self.mu.shape[1]


def class_moments(Y: np.ndarray, labels: LabelVector):
    """Mean vector and unbiased covariance per class.

    Singleton classes get a zero covariance (the point-mass limit).
    Covariances are explicitly symmetrized so the stored matrices are
    exactly equal to their transposes.
    """
    Y = as_dense(Y)
    n, d = Y.shape
    if labels.n != n:
        raise ValidationError(f"{labels.n} labels for {n} rows")
    k = labels.kappa
    mu = np.zeros((k, d))
    omega = np.zeros((k, d, d))
    for a in range(k):
        idx = np.flatnonzero(labels.labels == a + 1)
        # A class of every row (kappa = 1) needs no gathered copy of Y;
        # a gathered copy is this function's own, so it is centred in place.
        whole = idx.size == n
        block = Y if whole else Y[idx]
        mu[a] = block.mean(axis=0)
        if idx.size > 1:
            centered = block - mu[a] if whole else np.subtract(block, mu[a], out=block)
            cov = centered.T @ centered / (idx.size - 1)
            omega[a] = 0.5 * (cov + cov.T)
    return mu, omega


def estimate_mixture(Y: np.ndarray, labels: LabelVector) -> MixtureParams:
    """Moment-match one Gaussian per labeled class of the rows of ``Y``."""
    mu, omega = class_moments(Y, labels)
    pi = labels.counts() / labels.n
    return MixtureParams(pi=pi, mu=mu, omega=omega, m=labels.n)


def singleton_mixture(Y: np.ndarray) -> MixtureParams:
    """The point-mass mixture with one zero-covariance component per row.

    Every class has its zero block in ``omega_stack``, so ``approx_z`` of
    n queries against it costs O(n m d^2), and the parameter checks
    O(m d^3): trivial at the n, m <= 100, d = 8 of criterion 9.
    """
    Y = as_dense(Y)
    m, d = Y.shape
    return MixtureParams(
        pi=np.full(m, 1.0 / m),
        mu=Y.copy(),
        omega=np.zeros((m, d, d)),
        m=m,
    )


def kmeans_label(Y: np.ndarray, kappa: int, seed: int, restarts: int = 1) -> LabelVector:
    """Cluster rows of ``Y`` with Lloyd iterations and k-means++ seeding.

    Deterministic given ``seed``.  Iteration stops when no label changes.
    Clusters that empty out are repaired by stealing the point currently
    farthest from its own centroid among the classes with at least two
    members, so a repair never empties another class.  With ``restarts``
    > 1, the labeling with the lowest within-cluster sum of squares is kept.
    """
    Y = as_dense(Y)
    n = Y.shape[0]
    check_kappa(kappa, n, "the clustered matrix")
    if restarts < 1:
        raise ValidationError(f"restarts must be positive, got {restarts}")
    if kappa == 1:
        return LabelVector(np.ones(n, dtype=np.int64), 1)
    rng = np.random.default_rng(seed)
    cuts = _block_cuts(n, _LLOYD_BLOCK)
    sq_norms = _row_sq_norms(Y)
    best_labels, best_inertia = None, np.inf
    for _ in range(restarts):
        labels, centers = _lloyd(Y, sq_norms, kappa, rng, cuts)
        # Only a comparison of restarts reads the within-cluster sum of
        # squares, and it takes three Y-sized temporaries.
        inertia = float(np.sum((Y - centers[labels]) ** 2)) if restarts > 1 else 0.0
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return LabelVector(best_labels + 1, kappa)


def _sq_dists(Y, sq_norms, centers, out=None):
    # ||y||^2 - 2 y.c + ||c||^2, clipped at 0 against roundoff
    d2 = np.matmul(Y, centers.T, out=out)
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += np.sum(centers * centers, axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _plus_plus_centers(Y, sq_norms, k, rng):
    n = Y.shape[0]
    centers = np.empty((k, Y.shape[1]))
    centers[0] = Y[rng.integers(n)]
    d2 = _sq_dists(Y, sq_norms, centers[:1]).ravel()
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[c] = Y[idx]
        d2 = np.minimum(d2, _sq_dists(Y, sq_norms, centers[c : c + 1]).ravel())
    return centers


def _class_means(Y, labels, k):
    """Mean row of each class in 0..k-1, as one class-indicator product.

    The indicator has one entry per row of ``Y``, stored by columns, and
    goes straight to scipy's CSC kernel (the one behind ``indicator @ Y``),
    so no sparse matrix is built per call.  The kernel adds the rows of
    each class in ascending order, as ``Y[labels == j].mean(axis=0)``
    does.  It reads ``Y`` once, in order.
    """
    n, d = Y.shape
    sums = np.zeros((k, d))
    _sparsetools.csc_matvecs(
        k, n, d, np.arange(n + 1), labels, np.ones(n), Y.ravel(), sums.ravel()
    )
    counts = np.bincount(labels, minlength=k)
    return sums / counts[:, None]


def _block_dists(Y, sq_norms, centers, cuts, buf):
    """(lo, hi, distances of rows lo:hi) per block of ``cuts``, each
    block's distances written into ``buf``."""
    k = centers.shape[0]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        out = buf[: (hi - lo) * k].reshape(hi - lo, k)
        yield lo, hi, _sq_dists(Y[lo:hi], sq_norms[lo:hi], centers, out=out)


def _lloyd(Y, sq_norms, k, rng, cuts):
    """Lloyd iterations from k-means++ centers, each one pass over the
    row blocks ``cuts``.

    Per block the pass writes the distances into one buffer and takes
    their argmin, so no n x k distance array exists, and BLAS never packs
    all of Y.
    """
    n = Y.shape[0]
    centers = _plus_plus_centers(Y, sq_norms, k, rng)
    buf = np.empty(max(b - a for a, b in zip(cuts[:-1], cuts[1:])) * k)
    labels = None
    for _ in range(_MAX_ITER):
        new = np.empty(n, dtype=np.intp)
        for lo, hi, dists in _block_dists(Y, sq_norms, centers, cuts, buf):
            np.argmin(dists, axis=1, out=new[lo:hi])
        counts = np.bincount(new, minlength=k)
        if np.any(counts == 0):
            # Each row's distance to its own center, from a second pass
            # with the same bits: a repair is rare, and keeping these in
            # the pass above cost 6% of an iteration at 20,000 x 100.
            own = np.concatenate([
                dists[np.arange(hi - lo), new[lo:hi]]
                for lo, hi, dists in _block_dists(Y, sq_norms, centers, cuts, buf)
            ])
            for j in np.flatnonzero(counts == 0):
                # Some class has two members while one is empty, as k <= n.
                far = int(np.argmax(np.where(counts[new] > 1, own, -np.inf)))
                counts[new[far]] -= 1
                counts[j] += 1
                new[far] = j
        if labels is not None and np.array_equal(labels, new):
            break
        labels = new
        # The centers always belong to the final labels: a converged
        # iteration leaves both unchanged.
        centers = _class_means(Y, labels, k)
    return labels, centers
