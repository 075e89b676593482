"""Norm-constrained embedding optimizer.

The objective couples a cross-entropy between given probability rows and
the softmax of pairwise embedding scores with a weighted regularizer,
over embeddings whose rows live on the unit sphere.  In trace form it
reads  -tr(X'PX) + sum_i log Z_i + tr(X'1 p0'X).  The log-Z part is the
quadratic-cost bottleneck; the production loop replaces it with the
moment-matched mixture estimate, while ``fit_exact`` keeps the exact
constants as a comparison arm.  Both arms run one epoch loop; only the
normalizer, which gives log Z and its gradient, differs.
The loop walks the query rows in blocks small enough to stay in cache:
per block it takes the normalizer's log Z and gradient term, adds the
affinity and regularizer pieces, and makes the sphere step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import DimensionError, NumericError, ValidationError
from .matstore import (
    as_chain, as_dense, uniform_weights, unit_rows, validate_regularization_weights
)
from .mixture import LabelVector, MixtureParams, check_kappa, class_moments, kmeans_label
from .znorm import _log_sum_exp, _operands, _score_blocks, exact_z, zeta_matrix

#: Tangential rows whose norm falls below this fraction of the full
#: gradient row norm count as vanished: below that scale the direction
#: is cancellation noise, and the row sits at a fixed point.
TANGENT_FLOOR = 1e-12

_UNIT_ROW_TOL = 1e-10
#: Query rows per block of the epoch loop.  Timing fit on a 2-core Xeon
#: (2 MiB L2 per core) at d = 32, blocks of 1024 and 2048 rows were the
#: fastest of 256 to 8192 and of whole matrices, at kappa = 1 (171k rows,
#: 2.9 s against 4.1 s whole) and kappa = 8 (100k rows, 7.2 s against 8.7 s).
_BLOCK_ROWS = 2048
_EXACT_SIZE_GUARD = 20000


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters of one optimization run.

    ``eta0`` must lie in (0, 1] because the sphere-preserving update
    scales the previous iterate by sqrt(1 - eta^2).  The learning rate
    decays linearly to eta0/n_epochs over the run.  ``kappa`` is checked
    against the rows of the operator when a mixture fit starts.
    """

    d: int
    eta0: float = 0.7
    n_epochs: int = 25
    kappa: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"embedding dimension must be positive, got {self.d}")
        if not 0.0 < self.eta0 <= 1.0:
            raise ValidationError(f"eta0 must lie in (0, 1], got {self.eta0}")
        if self.n_epochs < 1:
            raise ValidationError(f"n_epochs must be positive, got {self.n_epochs}")


@dataclass
class FitResult:
    """Final embedding plus the per-epoch training log.

    ``log`` has one row per epoch and a trailing row for the final
    iterate; columns are :data:`LOG_COLUMNS` (epoch, eta, approx loss,
    exact loss), with NaN for losses that were not evaluated.
    ``trajectory`` (optional) holds the initial embedding followed by
    the iterate after every epoch.
    """

    X: np.ndarray
    labels: LabelVector
    log: np.ndarray
    trajectory: list[np.ndarray] | None = None


LOG_COLUMNS = ("epoch", "eta", "approx_loss", "exact_loss")


def _assert_unit_rows(X: np.ndarray, where: str) -> None:
    drift = np.abs(np.linalg.norm(X, axis=1) - 1.0).max()
    # Written so that a NaN drift fails too.
    if not drift <= _UNIT_ROW_TOL:
        raise NumericError(f"row norms drifted by {drift:.3e} {where}")


def _mixture_params(Y: np.ndarray, labels: LabelVector) -> MixtureParams:
    mu, omega = class_moments(Y, labels)
    return MixtureParams(pi=labels.counts() / labels.n, mu=mu, omega=omega, m=labels.n)


def _entry(X, P, p0):
    """The entry check of the losses and the gradient: finite X, an
    operator of shape (rows of X, rows of X) and p0 over the rows."""
    X = as_dense(X, name="X")
    chain = as_chain(P)
    n = X.shape[0]
    if chain.shape != (n, n):
        raise DimensionError(f"operator shape {chain.shape} does not match {n} rows of X")
    return X, chain, validate_regularization_weights(p0, n)


def _objective(X: np.ndarray, PX: np.ndarray, p0X: np.ndarray):
    """-tr(X'PX) + sum_i log Z_i + tr(X'1 p0'X) as a function of the total
    log Z.  P X is read here, so it may be overwritten before the call."""
    # einsum's loop runs in this thread, in one fixed order, and makes no
    # n x d temporary; a BLAS dot splits its sum by the thread count.
    affinity = -float(np.einsum("ij,ij->", X, PX))
    reg = float(X.sum(axis=0) @ p0X)
    return lambda logz: affinity + logz + reg


def _pull(chain, X, PX, p0X, p0):
    """The affinity and regularizer gradient of the rows of X, as a function
    of a row block (lo, hi): -(P X + P'X) + (1 p0'X + p0 1'X).  The rows
    of P'X come from the chain's row server: a block at a time for a
    one-factor chain, slices of the whole product for any other."""
    PtX = chain._transpose_rows(X)
    xsum = X.sum(axis=0)
    return lambda lo, hi: -(PX[lo:hi] + PtX(lo, hi)) + (p0X + np.outer(p0[lo:hi], xsum))


def exact_loss(X: np.ndarray, P, p0) -> float:
    """Trace-form objective with exact normalization constants, O(d n^2).

    Intended as an oracle and a comparison arm, not for large runs.
    """
    X, chain, p0 = _entry(X, P, p0)
    logz = np.log(exact_z(X).values)
    # Summed per row block, in the order of the epoch loop.
    total = sum(float(logz[lo:hi].sum()) for lo, hi in _row_blocks(len(X)))
    return _objective(X, chain._apply(X), p0 @ X)(total)


def mixture_loss(X: np.ndarray, P, p0, params: MixtureParams) -> float:
    """Objective value with the mixture estimate substituted for the
    constants; ``params`` describe the rows of X."""
    X, chain, p0 = _entry(X, P, p0)
    logz = 0.0
    for lo, hi in _row_blocks(X.shape[0]):
        # Log Z alone: the loss does not need the gradient term.
        logz += float(_mixture_logz(params, X[lo:hi])[0].sum())
    return _objective(X, chain._apply(X), p0 @ X)(logz)


def approx_gradient(X: np.ndarray, P, p0, params: MixtureParams) -> np.ndarray:
    """Gradient of the mixture-approximated objective.

    Mixture means and covariances are treated as constants, so per row
    the log-Z part contributes the responsibility-weighted combination of
    class means and covariance images.  Cost O(E d + n kappa d^2).
    """
    X, chain, p0 = _entry(X, P, p0)
    term = _normalized(_mixture_normalizer(params), X)
    term += _pull(chain, X, chain._apply(X), p0 @ X, p0)(0, X.shape[0])
    return term


def softmax_weighted_term(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Rows sum_a softmax(x_i . y_a) y_a: the log-Z gradient with frozen keys."""
    X, Y = _operands(X, X if Y is None else Y)
    return _normalized(_exact_normalizer(Y), X)


def _row_blocks(n: int):
    """(start, stop) of each row block of the epoch loop."""
    return [(lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS)]


def _normalized(normalize, X: np.ndarray) -> np.ndarray:
    """The whole gradient term of the rows of X, from a normalizer that
    serves one row block at a time."""
    term = np.empty_like(X)
    for lo, hi in _row_blocks(X.shape[0]):
        term[lo:hi] = normalize(X[lo:hi])[1]
    return term


def _mixture_logz(params: MixtureParams, X: np.ndarray):
    """Mixture log Z of a block of query rows, with the class
    responsibilities and the product X [Omega_a ...] that gave it."""
    L, XO = zeta_matrix(X, params)
    logz, r = _log_sum_exp(L)
    return np.log(params.m) + logz, r, XO


def _mixture_normalizer(params: MixtureParams):
    """The mixture normalizer of the keys that ``params`` describe.

    For a block of query rows it gives log Z per row and the gradient
    term sum_a r_a (mu_a + Omega_a x), r_a the class responsibilities.
    The product of the block with the covariances that gave the quadratic
    exponents gives the term as well.
    """
    d = params.d

    def normalize(X):
        logz, r, XO = _mixture_logz(params, X)
        term = r @ params.mu
        for a in range(params.kappa):
            term += r[:, a, None] * XO[:, a * d : (a + 1) * d]
        return logz, term

    return normalize


def _key_mixture(labels: LabelVector, Y: np.ndarray):
    """The mixture normalizer, prepared from the class moments of the keys."""
    return _mixture_normalizer(_mixture_params(Y, labels))


def _exact_normalizer(Y: np.ndarray):
    """The exact normalizer against the keys ``Y``.

    For a block of query rows it gives log Z per row and the
    softmax-weighted key sums, from one score buffer per epoch; the term
    sums exp-scores times keys over the key chunks, then divides by Z.
    """
    blocks = _score_blocks(Y, _BLOCK_ROWS)

    def normalize(X):
        z = np.empty(X.shape[0])
        term = np.zeros_like(X)
        for lo, hi, a, b, E, zb in blocks(X):
            term[lo:hi] += E @ Y[a:b]
            z[lo:hi] = zb
        term /= z[:, None]
        return np.log(z, out=z), term

    return normalize


def unit_tangential(g: np.ndarray, X: np.ndarray):
    """Unit-norm tangential rows of ``g`` (each row minus its component
    along the row of ``X``) plus the mask of rows where they exist."""
    gp = g - np.einsum("ij,ij->i", g, X)[:, None] * X
    norms = np.linalg.norm(gp, axis=1)
    scale = np.maximum(np.linalg.norm(g, axis=1), 1.0)
    mask = norms > TANGENT_FLOOR * scale
    out = np.divide(gp, norms[:, None], out=np.zeros_like(gp), where=mask[:, None])
    return out, mask


def sphere_step(X: np.ndarray, g, eta: float) -> np.ndarray:
    """One sphere-preserving update of every row, at a rate 0 < eta <= 1.

    Each row moves to sqrt(1 - eta^2) x - eta g'' where g'' is the
    unit-norm tangential gradient; rows whose tangential gradient
    vanishes are fixed points and stay where they are.  The update has
    unit norm in exact arithmetic; the residual roundoff is divided out
    so that iterated steps cannot drift off the sphere.
    """
    X = as_dense(X, name="X")
    g = as_dense(g, name="g")
    if g.shape != X.shape:
        raise DimensionError(f"gradient shape {g.shape} vs embedding {X.shape}")
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"eta must lie in (0, 1], got {eta}")
    gpp, mask = unit_tangential(g, X)
    moved = np.sqrt(1.0 - eta * eta) * X - eta * gpp
    norms = np.linalg.norm(moved, axis=1)
    return np.divide(moved, norms[:, None], out=X.copy(), where=mask[:, None])


def _single_class(n: int) -> LabelVector:
    return LabelVector(np.ones(n, dtype=np.int64), 1)


def _validated(P, caller: str):
    """The operator as a square chain, validated once, and uniform p0
    over its rows; ``caller`` names the fit in the error message."""
    chain = as_chain(P)
    n = chain.shape[0]
    if chain.shape[1] != n:
        raise ValidationError(f"{caller} needs a square operator, got {chain.shape}")
    chain.validate_stochastic()
    return chain, uniform_weights(n)


def _blocked_step(X: np.ndarray, normalize, pull, eta: float, where: str, out: np.ndarray):
    """The sphere step of every row of X, one row block at a time.

    A block's gradient is its normalizer term plus ``pull(lo, hi)``, the
    block of the other gradient pieces.  The step checks that the rows
    and the gradient are finite; the stepped rows must have unit norm.
    They are written into ``out``, each block after its gradient is made,
    so ``out`` may hold data that only that block's pull reads (the
    epoch passes P X, and so allocates no array for the new rows).  The
    pull may read all of X, as a one-factor chain's block of P'X does,
    so ``out`` must not be X.  Returns ``out`` and the total log Z of
    the rows of X.
    """
    logz = 0.0
    for lo, hi in _row_blocks(X.shape[0]):
        block_logz, g = normalize(X[lo:hi])
        logz += float(block_logz.sum())
        # The term takes the other pieces in place; addition commutes
        # exactly, so the sum does not depend on which comes first.
        g += pull(lo, hi)
        out[lo:hi] = sphere_step(X[lo:hi], g, eta)
        _assert_unit_rows(out[lo:hi], where)
    return out, logz


def _descend(chain, cfg, p0, prepare, record_trajectory=False, on_epoch=None):
    """The epoch loop of every fit, on a validated square operator.

    ``prepare(X)`` gives the epoch's normalizer, with the rows of X as the
    keys; called on a block of query rows, the normalizer returns their
    log Z per row and its gradient term.  Work on whole matrices (key
    moments, operator products, column sums) comes first; then each row
    block of X gets its normalizer pieces, its gradient and its sphere
    step while it is in cache.  The normalizer is built before P X
    exists, so the copies its moments make are freed by then; on a
    one-factor chain the block loop computes P'X a block at a time, so
    the epoch holds two n x d arrays, X and P X (which the step
    overwrites with the new rows), where a walk chain's weighted product
    holds four.  Returns X, the (epoch, eta, loss) rows and X's
    trajectory or None.
    """
    rng = np.random.default_rng(cfg.seed)
    X = unit_rows(rng.standard_normal((chain.shape[0], cfg.d)))
    _assert_unit_rows(X, "after initialization")
    trajectory = [X.copy()] if record_trajectory else None
    rows = []
    for t in range(cfg.n_epochs):
        eta = cfg.eta0 * (1.0 - t / cfg.n_epochs)
        # The normalizer first: the centred copies of its class moments
        # are gone before P X is made.
        normalize = prepare(X)
        PX = chain._apply(X)
        p0X = p0 @ X
        loss = _objective(X, PX, p0X)
        # The step writes the new rows over P X.  Left unbound, the pull
        # and the rows of P'X it serves (one block buffer on a one-factor
        # chain, the whole product on any other) die with the step.
        X, logz = _blocked_step(
            X, normalize, _pull(chain, X, PX, p0X, p0), eta, f"after epoch {t}", PX
        )
        rows.append((t, eta, loss(logz)))
        if trajectory is not None:
            trajectory.append(X.copy())
        if on_epoch is not None:
            on_epoch(t, X)
    return X, rows, trajectory


def _resolve_labels(chain, cfg, p0, labels) -> LabelVector:
    """Key labels: given, trivial for kappa=1, or two-pass: the rows of a
    single-class run clustered into kappa classes."""
    n = chain.shape[0]
    check_kappa(cfg.kappa, n, "the key embedding")
    if labels is None:
        if cfg.kappa == 1:
            return _single_class(n)
        single = partial(_key_mixture, _single_class(n))
        warm = _descend(chain, replace(cfg, kappa=1), p0, single)[0]
        return kmeans_label(warm, cfg.kappa, seed=cfg.seed)
    if labels.n != n:
        raise DimensionError(f"{labels.n} labels for {n} rows")
    if labels.kappa != cfg.kappa:
        raise ValidationError(
            f"label vector has kappa={labels.kappa}, config says {cfg.kappa}"
        )
    return labels


def fit(
    P,
    cfg: OptimizerConfig,
    labels: LabelVector | None = None,
    record_trajectory: bool = False,
    on_epoch=None,
) -> FitResult:
    """Optimize a symmetric embedding against a row-stochastic operator.

    Runs the full training loop: random unit-row initialization, class
    fractions fixed before the epoch loop, class means and covariances
    refreshed once per epoch, a full gradient matrix computed from the
    epoch-start snapshot, synchronous row updates, and a learning rate
    decaying linearly from ``cfg.eta0``.  For ``cfg.kappa > 1`` without
    a label vector, a single-class run is clustered to produce labels
    and the optimization is rerun with them.  Deterministic given
    ``cfg.seed``; ``on_epoch(epoch, X)`` is invoked after every update.
    """
    chain, p0 = _validated(P, "fit")
    labels = _resolve_labels(chain, cfg, p0, labels)
    normalize = partial(_key_mixture, labels)
    X, rows, trajectory = _descend(chain, cfg, p0, normalize, record_trajectory, on_epoch)
    rows.append((cfg.n_epochs, 0.0, mixture_loss(X, chain, p0, _mixture_params(X, labels))))
    log = np.array([(t, eta, loss, np.nan) for t, eta, loss in rows])
    return FitResult(X=X, labels=labels, log=log, trajectory=trajectory)


def fit_exact(
    P,
    cfg: OptimizerConfig,
    record_trajectory: bool = False,
    on_epoch=None,
) -> FitResult:
    """The quadratic-cost comparison arm of :func:`fit`.

    Identical loop, but the log-Z gradient term is the exact
    softmax-weighted sum of embedding rows and the logged loss uses the
    exact constants.  Shares the initializer with :func:`fit` for equal
    seeds.  Guarded to at most 20000 rows.
    """
    chain = as_chain(P)
    if chain.shape[0] > _EXACT_SIZE_GUARD:
        raise ValidationError(
            f"fit_exact is O(n^2 d); refusing n={chain.shape[0]} > {_EXACT_SIZE_GUARD}"
        )
    chain, p0 = _validated(chain, "fit_exact")
    X, rows, trajectory = _descend(
        chain, cfg, p0, _exact_normalizer,
        record_trajectory=record_trajectory, on_epoch=on_epoch,
    )
    rows.append((cfg.n_epochs, 0.0, exact_loss(X, chain, p0)))
    labels = _single_class(chain.shape[0])
    log = np.array([(t, eta, np.nan, loss) for t, eta, loss in rows])
    return FitResult(X=X, labels=labels, log=log, trajectory=trajectory)

