"""Norm-constrained embedding optimizer.

The objective couples a cross-entropy between given probability rows and
the softmax of pairwise embedding scores with a weighted regularizer,
over embeddings whose rows live on the unit sphere.  In trace form it
reads  -tr(X'PX) + sum_i log Z_i + tr(X'1 p0'X).  The log-Z part is the
quadratic-cost bottleneck; the production loop replaces it with the
moment-matched mixture estimate, while ``fit_exact`` keeps the exact
constants as a comparison arm.  Both arms and the asymmetric fit run one
epoch loop; only the normalizer, which gives log Z and its gradient, differs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import DimensionError, NumericError, ValidationError
from .matstore import as_chain, as_dense, uniform_weights, validate_regularization_weights
from .mixture import LabelVector, MixtureParams, class_moments, kmeans_label
from .znorm import _check_exponents, _compensated_rowsum, exact_z, zeta_matrix

#: Tangential rows whose norm falls below this fraction of the full
#: gradient row norm count as vanished: below that scale the direction
#: is cancellation noise, and the row sits at a fixed point.
TANGENT_FLOOR = 1e-12

_UNIT_ROW_TOL = 1e-10
_EXACT_BLOCK = 1024
_EXACT_SIZE_GUARD = 20000


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters of one optimization run.

    ``eta0`` must lie in (0, 1] because the sphere-preserving update
    scales the previous iterate by sqrt(1 - eta^2).  The learning rate
    decays linearly to eta0/n_epochs over the run.
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
        if self.kappa < 1:
            raise ValidationError(f"kappa must be positive, got {self.kappa}")


@dataclass
class FitResult:
    """Final embedding plus the per-epoch training log.

    ``log`` has one row per epoch and a trailing row for the final
    iterate; columns are :data:`LOG_COLUMNS` (epoch, eta, approx loss,
    exact loss), with NaN for losses that were not evaluated.
    ``trajectory`` (optional) holds the initial embedding followed by
    the iterate after every epoch.  ``Y`` holds the key embedding of an
    asymmetric fit and is None for symmetric ones.
    """

    X: np.ndarray
    labels: LabelVector
    log: np.ndarray
    trajectory: list[np.ndarray] | None = None
    Y: np.ndarray | None = None


LOG_COLUMNS = ("epoch", "eta", "approx_loss", "exact_loss")


def _unit_rows(M: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(M, axis=1)
    if np.any(norms == 0):
        raise NumericError("degenerate zero row during initialization")
    return M / norms[:, None]


def _assert_unit_rows(X: np.ndarray, where: str) -> None:
    drift = np.abs(np.linalg.norm(X, axis=1) - 1.0).max()
    if drift > _UNIT_ROW_TOL:
        raise NumericError(f"row norms drifted by {drift:.3e} {where}")


def _affinity(X: np.ndarray, PY: np.ndarray) -> float:
    return float(np.sum(X * PY))


def _reg_value(X: np.ndarray, Y: np.ndarray, p0: np.ndarray) -> float:
    return float(X.sum(axis=0) @ (p0 @ Y))


def _reg_gradient(X: np.ndarray, p0: np.ndarray) -> np.ndarray:
    ones_part = np.broadcast_to(p0 @ X, X.shape)
    return ones_part + np.outer(p0, X.sum(axis=0))


def _mixture_term(X: np.ndarray, zeta: np.ndarray, params: MixtureParams) -> np.ndarray:
    term = zeta @ params.mu
    for a in range(params.kappa):
        if params.omega[a].any():
            term += zeta[:, a, None] * (X @ params.omega[a])
    return term / zeta.sum(axis=1)[:, None]


def _mixture_logz(zeta: np.ndarray, m: int) -> float:
    return zeta.shape[0] * np.log(m) + float(np.log(zeta.sum(axis=1)).sum())


def _mixture_params(Y: np.ndarray, labels: LabelVector) -> MixtureParams:
    mu, omega = class_moments(Y, labels)
    return MixtureParams(pi=labels.counts() / labels.n, mu=mu, omega=omega, m=labels.n)


def exact_loss(X: np.ndarray, P, p0, Y: np.ndarray | None = None) -> float:
    """Trace-form objective with exact normalization constants, O(d n^2).

    With key rows ``Y`` it is the asymmetric objective, which equals the
    symmetric one when Y = X and the operator is square.  Intended as an
    oracle and a comparison arm, not for large runs.
    """
    X = as_dense(X, name="X")
    Y = X if Y is None else as_dense(Y, name="Y")
    chain = as_chain(P)
    p0 = validate_regularization_weights(p0, Y.shape[0])
    logz = float(np.log(exact_z(X, Y).values).sum())
    return -_affinity(X, chain.apply(Y)) + logz + _reg_value(X, Y, p0)


def mixture_loss(
    X: np.ndarray, P, p0, params: MixtureParams, Y: np.ndarray | None = None
) -> float:
    """Objective value with the mixture estimate substituted for the constants.

    ``params`` describe the keys: the rows of ``Y`` when given, else of X."""
    X = as_dense(X, name="X")
    Y = X if Y is None else as_dense(Y, name="Y")
    chain = as_chain(P)
    p0 = validate_regularization_weights(p0, Y.shape[0])
    logz = _mixture_logz(zeta_matrix(X, params), params.m)
    return -_affinity(X, chain.apply(Y)) + logz + _reg_value(X, Y, p0)


def approx_gradient(X: np.ndarray, P, p0, params: MixtureParams) -> np.ndarray:
    """Gradient of the mixture-approximated objective.

    Mixture means and covariances are treated as constants, so per row
    the log-Z part contributes the zeta-weighted combination of class
    means and covariance images.  Cost O(E d + n kappa d^2).
    """
    X = as_dense(X, name="X")
    chain = as_chain(P)
    if chain.shape != (X.shape[0], X.shape[0]):
        raise DimensionError(
            f"operator shape {chain.shape} does not match {X.shape[0]} embedding rows"
        )
    p0 = validate_regularization_weights(p0, X.shape[0])
    zeta = zeta_matrix(X, params)
    return (
        -(chain.apply(X) + chain.apply_transpose(X))
        + _reg_gradient(X, p0)
        + _mixture_term(X, zeta, params)
    )


def softmax_weighted_term(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Rows sum_a softmax(x_i . y_a) y_a: the log-Z gradient with frozen keys."""
    _, term = _attention_pieces(as_dense(X), X if Y is None else as_dense(Y))
    return term


def _attention_pieces(X, Y, block_rows: int = _EXACT_BLOCK):
    """The exact normalizer: total log Z and the softmax-weighted key sums,
    blockwise, never materializing the full score matrix."""
    term = np.empty_like(X)
    logz = 0.0
    for start in range(0, X.shape[0], block_rows):
        stop = min(start + block_rows, X.shape[0])
        S = X[start:stop] @ Y.T
        _check_exponents(S)
        E = np.exp(S)
        z = _compensated_rowsum(E)
        term[start:stop] = (E / z[:, None]) @ Y
        logz += float(np.log(z).sum())
    return logz, term


def _mixture_normalizer(labels: LabelVector, X: np.ndarray, Y: np.ndarray):
    """The mixture normalizer: moments of the key rows per class, then the
    estimated total log Z of the query rows and its gradient term."""
    params = _mixture_params(Y, labels)
    zeta = zeta_matrix(X, params)
    return _mixture_logz(zeta, params.m), _mixture_term(X, zeta, params)


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
    """One sphere-preserving update of every row.

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
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"eta must lie in [0, 1], got {eta}")
    if eta == 0.0:
        return X.copy()
    gpp, mask = unit_tangential(g, X)
    moved = np.sqrt(1.0 - eta * eta) * X - eta * gpp
    norms = np.linalg.norm(moved, axis=1)
    return np.divide(moved, norms[:, None], out=X.copy(), where=mask[:, None])


def _single_class(n: int) -> LabelVector:
    return LabelVector(np.ones(n, dtype=np.int64), 1)


def _validated(P, p0, square: str | None = None):
    """The operator as a chain, validated once, and p0 over its columns."""
    chain = as_chain(P)
    if square and chain.shape[0] != chain.shape[1]:
        raise ValidationError(f"{square} needs a square operator, got {chain.shape}")
    chain.validate_stochastic()
    m = chain.shape[1]
    p0 = uniform_weights(m) if p0 is None else validate_regularization_weights(p0, m)
    return chain, p0


def _descend(
    chain, cfg, p0, normalize, keys=False, record_trajectory=False, log_exact_loss=False,
    on_epoch=None,
):
    """The epoch loop of every fit, on a validated operator.

    ``normalize(X, Y)`` gives the total log Z of the queries X against the
    keys Y and its gradient term in X.  Without ``keys``, Y is X; with it,
    Y is a second embedding moved only by the affinity and regularizer.
    The exact normalizer's loss goes to the exact log column, any other to
    the approx one.  Returns X, Y, the log rows and X's trajectory or None.
    """
    n, m = chain.shape
    rng = np.random.default_rng(cfg.seed)
    X = _unit_rows(rng.standard_normal((n, cfg.d)))
    Y = _unit_rows(rng.standard_normal((m, cfg.d))) if keys else X
    _assert_unit_rows(X, "after initialization")
    trajectory = [X.copy()] if record_trajectory else None
    rows = []
    for t in range(cfg.n_epochs):
        eta = cfg.eta0 * (1.0 - t / cfg.n_epochs)
        logz, g = normalize(X, Y)
        PY = chain.apply(Y)
        loss = -_affinity(X, PY) + logz + _reg_value(X, Y, p0)
        if normalize is _attention_pieces:
            rows.append((t, eta, np.nan, loss))
        else:
            exact = exact_loss(X, chain, p0) if log_exact_loss else np.nan
            rows.append((t, eta, loss, exact))
        # The log-Z term is the last addend of the gradient; it takes the
        # rest in place (addition commutes exactly), saving one n x d array.
        if keys:
            g += -PY + np.broadcast_to(p0 @ Y, X.shape)
            gY = -chain.apply_transpose(X) + np.outer(p0, X.sum(axis=0))
            Y = sphere_step(Y, gY, eta)
            _assert_unit_rows(Y, f"after epoch {t} (keys)")
        else:
            g += -(PY + chain.apply_transpose(X)) + _reg_gradient(X, p0)
        X = sphere_step(X, g, eta)
        _assert_unit_rows(X, f"after epoch {t}")
        Y = Y if keys else X
        if trajectory is not None:
            trajectory.append(X.copy())
        if on_epoch is not None:
            on_epoch(t, X, Y) if keys else on_epoch(t, X)
    return X, Y, rows, trajectory


def _resolve_labels(chain, cfg, p0, labels, keys) -> LabelVector:
    """Key labels: given, trivial for kappa=1, or two-pass: the keys of a
    single-class run clustered into kappa classes."""
    m = chain.shape[1]
    if labels is None:
        if cfg.kappa == 1:
            return _single_class(m)
        single = partial(_mixture_normalizer, _single_class(m))
        warm = _descend(chain, replace(cfg, kappa=1), p0, single, keys)[1]
        return kmeans_label(warm, cfg.kappa, seed=cfg.seed)
    if labels.n != m:
        raise DimensionError(f"{labels.n} labels for {m} rows")
    if labels.kappa != cfg.kappa:
        raise ValidationError(
            f"label vector has kappa={labels.kappa}, config says {cfg.kappa}"
        )
    return labels


def _fit_mixture(
    chain, cfg, p0, labels, keys, record_trajectory=False, log_exact=False, on_epoch=None
):
    """Descend with the mixture normalizer and add the final log row."""
    labels = _resolve_labels(chain, cfg, p0, labels, keys)
    normalize = partial(_mixture_normalizer, labels)
    X, Y, rows, trajectory = _descend(
        chain, cfg, p0, normalize, keys, record_trajectory, log_exact, on_epoch
    )
    final_approx = mixture_loss(X, chain, p0, _mixture_params(Y, labels), Y=Y)
    final_exact = exact_loss(X, chain, p0) if log_exact else np.nan
    rows.append((cfg.n_epochs, 0.0, final_approx, final_exact))
    Y = Y if keys else None
    return FitResult(X=X, labels=labels, log=np.array(rows), trajectory=trajectory, Y=Y)


def fit(
    P,
    cfg: OptimizerConfig,
    p0=None,
    labels: LabelVector | None = None,
    record_trajectory: bool = False,
    log_exact_loss: bool = False,
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
    chain, p0 = _validated(P, p0, square="fit")
    return _fit_mixture(
        chain, cfg, p0, labels, False, record_trajectory, log_exact_loss, on_epoch
    )


def fit_exact(
    P,
    cfg: OptimizerConfig,
    p0=None,
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
    chain, p0 = _validated(chain, p0, square="fit_exact")
    X, _, rows, trajectory = _descend(
        chain, cfg, p0, _attention_pieces,
        record_trajectory=record_trajectory, on_epoch=on_epoch,
    )
    rows.append((cfg.n_epochs, 0.0, np.nan, exact_loss(X, chain, p0)))
    labels = _single_class(chain.shape[0])
    return FitResult(X=X, labels=labels, log=np.array(rows), trajectory=trajectory)


def fit_asymmetric(
    P,
    cfg: OptimizerConfig,
    p0=None,
    labels: LabelVector | None = None,
    on_epoch=None,
) -> FitResult:
    """Optimize separate query and key embeddings for a rectangular operator.

    The mixture parameters (and the label vector) live on the key side.
    Under the frozen-moments gradient the key rows receive only the
    affinity and regularization forces.  Both outputs keep unit rows;
    the keys are returned as ``FitResult.Y``, and ``on_epoch(epoch, X,
    Y)`` is invoked after every update.
    """
    chain, p0 = _validated(P, p0)
    return _fit_mixture(chain, cfg, p0, labels, True, on_epoch=on_epoch)
