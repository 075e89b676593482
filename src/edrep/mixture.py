"""Class labels and moment-matched Gaussian mixture parameters.

The mixture that feeds the normalization estimator is described by one
triple per class: the class fraction, the class mean vector and the
class covariance matrix (unbiased, divisor |class| - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .matstore import as_dense

#: Covariance eigenvalues may undershoot zero by at most this much.
PSD_EIG_TOL = -1e-8


@dataclass(frozen=True)
class LabelVector:
    """Integer class labels in {1..kappa}, one per row, every class nonempty."""

    labels: np.ndarray
    kappa: int

    def __post_init__(self):
        arr = np.ascontiguousarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("labels must form a nonempty vector")
        if self.kappa < 1:
            raise ValidationError(f"kappa must be positive, got {self.kappa}")
        if arr.min() < 1 or arr.max() > self.kappa:
            raise ValidationError(
                f"labels must lie in 1..{self.kappa}, got range "
                f"[{arr.min()}, {arr.max()}]"
            )
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
    """Per-class fraction, mean and covariance of m embedding vectors."""

    pi: np.ndarray       # (kappa,)
    mu: np.ndarray       # (kappa, d)
    omega: np.ndarray    # (kappa, d, d), each symmetric PSD
    m: int               # number of vectors the moments were estimated from
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        pi = np.ascontiguousarray(self.pi, dtype=np.float64)
        mu = np.ascontiguousarray(self.mu, dtype=np.float64)
        omega = np.ascontiguousarray(self.omega, dtype=np.float64)
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
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValidationError("class fractions must be nonnegative and sum to 1")
        if not self.validate:
            return
        asym = np.abs(omega - omega.transpose(0, 2, 1)).max(initial=0.0)
        if asym > 1e-12:
            raise ValidationError(f"covariances asymmetric by {asym:.3e}")
        for a in range(k):
            lo = np.linalg.eigvalsh(omega[a]).min() if d else 0.0
            if lo < PSD_EIG_TOL:
                raise ValidationError(
                    f"covariance of class {a + 1} has eigenvalue {lo:.3e}"
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
        block = Y[idx]
        mu[a] = block.mean(axis=0)
        if idx.size > 1:
            centered = block - mu[a]
            cov = centered.T @ centered / (idx.size - 1)
            omega[a] = 0.5 * (cov + cov.T)
    return mu, omega


def estimate_mixture(Y: np.ndarray, labels: LabelVector) -> MixtureParams:
    """Moment-match one Gaussian per labeled class of the rows of ``Y``."""
    Y = as_dense(Y)
    mu, omega = class_moments(Y, labels)
    pi = labels.counts() / labels.n
    return MixtureParams(pi=pi, mu=mu, omega=omega, m=labels.n)


def singleton_mixture(Y: np.ndarray) -> MixtureParams:
    """The point-mass mixture with one zero-covariance component per row."""
    Y = as_dense(Y)
    m, d = Y.shape
    return MixtureParams(
        pi=np.full(m, 1.0 / m),
        mu=Y.copy(),
        omega=np.zeros((m, d, d)),
        m=m,
        validate=False,
    )


def kmeans_label(
    Y: np.ndarray,
    kappa: int,
    seed: int,
    max_iter: int = 100,
    restarts: int = 1,
) -> LabelVector:
    """Cluster rows of ``Y`` with Lloyd iterations and k-means++ seeding.

    Deterministic given ``seed``.  Iteration stops when no label changes.
    Clusters that empty out are repaired by stealing the point currently
    farthest from its own centroid among the classes with at least two
    members, so a repair never empties another class.  With ``restarts``
    > 1, the labeling with the lowest within-cluster sum of squares is kept.
    """
    Y = as_dense(Y)
    n = Y.shape[0]
    if kappa < 1:
        raise ValidationError(f"kappa must be positive, got {kappa}")
    if kappa > n:
        raise ValidationError(f"kappa={kappa} exceeds the row count {n}")
    if kappa == 1:
        return LabelVector(np.ones(n, dtype=np.int64), 1)
    rng = np.random.default_rng(seed)
    sq_norms = np.sum(Y * Y, axis=1)
    best_labels, best_inertia = None, np.inf
    for _ in range(max(1, restarts)):
        labels, inertia = _lloyd(Y, sq_norms, kappa, rng, max_iter)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return LabelVector(best_labels + 1, kappa)


def _sq_dists(Y, sq_norms, centers):
    # ||y||^2 - 2 y.c + ||c||^2, clipped at 0 against roundoff
    d2 = Y @ centers.T
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

    The indicator is stored by columns, one entry per row of ``Y``, so the
    product adds the rows of each class in ascending order, as
    ``Y[labels == j].mean(axis=0)`` does.  It reads ``Y`` once, in order.
    """
    n = labels.size
    indicator = sp.csc_matrix((np.ones(n), labels, np.arange(n + 1)), shape=(k, n))
    counts = np.bincount(labels, minlength=k)
    return (indicator @ Y) / counts[:, None]


def _lloyd(Y, sq_norms, k, rng, max_iter):
    n = Y.shape[0]
    centers = _plus_plus_centers(Y, sq_norms, k, rng)
    labels = None
    for _ in range(max_iter):
        dists = _sq_dists(Y, sq_norms, centers)
        new = np.argmin(dists, axis=1)
        counts = np.bincount(new, minlength=k)
        if np.any(counts == 0):
            own = dists[np.arange(n), new]
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
    inertia = float(np.sum((Y - centers[labels]) ** 2))
    return labels, inertia
