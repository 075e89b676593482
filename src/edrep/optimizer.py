"""Norm-constrained embedding optimizer.

The objective couples a cross-entropy between given probability rows and
the softmax of pairwise embedding scores with a weighted regularizer,
over embeddings whose rows live on the unit sphere.  In trace form it
reads  -tr(X'PX) + sum_i log Z_i + tr(X'1 p0'X).  The log-Z part is the
quadratic-cost bottleneck; the production loop replaces it with the
moment-matched mixture estimate, while ``fit_exact`` keeps the exact
constants as a comparison arm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, NumericError, ValidationError
from .matstore import (
    as_chain,
    as_dense,
    uniform_weights,
    validate_regularization_weights,
)
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
    sym: bool = True

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"embedding dimension must be positive, got {self.d}")
        if not 0.0 < self.eta0 <= 1.0:
            raise ValidationError(f"eta0 must lie in (0, 1], got {self.eta0}")
        if self.n_epochs < 1:
            raise ValidationError(f"n_epochs must be positive, got {self.n_epochs}")
        if self.kappa < 1:
            raise ValidationError(f"kappa must be positive, got {self.kappa}")


@dataclass(frozen=True)
class GradientMatrix:
    """Full gradient with helpers for its tangential decomposition."""

    g: np.ndarray

    def tangential(self, X: np.ndarray) -> np.ndarray:
        """Remove from every row its component parallel to the embedding row."""
        X = np.asarray(X)
        return self.g - np.einsum("ij,ij->i", self.g, X)[:, None] * X

    def unit_tangential(self, X: np.ndarray):
        """Unit-norm tangential rows plus the mask of rows where they exist."""
        gp = self.tangential(X)
        norms = np.linalg.norm(gp, axis=1)
        scale = np.maximum(np.linalg.norm(self.g, axis=1), 1.0)
        mask = norms > TANGENT_FLOOR * scale
        out = np.divide(gp, norms[:, None], out=np.zeros_like(gp), where=mask[:, None])
        return out, mask


@dataclass
class FitResult:
    """Final embedding plus the per-epoch training log.

    ``log`` has one row per epoch and a trailing row for the final
    iterate; columns are (epoch, eta, approx loss, exact loss), with NaN
    for losses that were not evaluated.  ``trajectory`` (optional) holds
    the initial embedding followed by the iterate after every epoch.
    """

    X: np.ndarray
    labels: LabelVector
    log: np.ndarray
    trajectory: list[np.ndarray] | None = None


@dataclass
class AsymmetricFitResult:
    X: np.ndarray
    Y: np.ndarray
    labels: LabelVector
    log: np.ndarray


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


def _affinity(X: np.ndarray, PX: np.ndarray) -> float:
    return float(np.sum(X * PX))


def _reg_value(X: np.ndarray, p0: np.ndarray) -> float:
    return float(X.sum(axis=0) @ (p0 @ X))


def _reg_gradient(X: np.ndarray, p0: np.ndarray) -> np.ndarray:
    ones_part = np.broadcast_to(p0 @ X, X.shape)
    return ones_part + np.outer(p0, X.sum(axis=0))


def _mixture_term(X: np.ndarray, zeta: np.ndarray, params: MixtureParams) -> np.ndarray:
    term = zeta @ params.mu
    for a in range(params.kappa):
        if params.omega[a].any():
            term += zeta[:, a, None] * (X @ params.omega[a])
    return term / zeta.sum(axis=1)[:, None]


def exact_loss(X: np.ndarray, P, p0) -> float:
    """Trace-form objective with exact normalization constants, O(d n^2).

    Intended as an oracle and a comparison arm, not for large runs.
    """
    X = as_dense(X, name="X")
    chain = as_chain(P)
    p0 = validate_regularization_weights(p0, X.shape[0])
    z = exact_z(X)
    return (
        -_affinity(X, chain.apply(X))
        + float(np.log(z.values).sum())
        + _reg_value(X, p0)
    )


def mixture_loss(X: np.ndarray, P, p0, params: MixtureParams) -> float:
    """Objective value with the mixture estimate substituted for the constants."""
    X = as_dense(X, name="X")
    chain = as_chain(P)
    p0 = validate_regularization_weights(p0, X.shape[0])
    zeta = zeta_matrix(X, params)
    logz = X.shape[0] * np.log(params.m) + float(np.log(zeta.sum(axis=1)).sum())
    return -_affinity(X, chain.apply(X)) + logz + _reg_value(X, p0)


def approx_gradient(X: np.ndarray, P, p0, params: MixtureParams) -> GradientMatrix:
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
    g = (
        -(chain.apply(X) + chain.apply_transpose(X))
        + _reg_gradient(X, p0)
        + _mixture_term(X, zeta, params)
    )
    return GradientMatrix(g)


def softmax_weighted_term(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Rows sum_a softmax(x_i . y_a) y_a: the log-Z gradient with frozen keys."""
    term, _ = _attention_pieces(as_dense(X), X if Y is None else as_dense(Y))
    return term


def _attention_pieces(X, Y, block_rows: int = _EXACT_BLOCK):
    """Blockwise softmax-weighted key sums and total log Z, never
    materializing the full score matrix."""
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
    return term, logz


def sphere_step(X: np.ndarray, g, eta: float) -> np.ndarray:
    """One sphere-preserving update of every row.

    Each row moves to sqrt(1 - eta^2) x - eta g'' where g'' is the
    unit-norm tangential gradient; rows whose tangential gradient
    vanishes are fixed points and stay where they are.  The update has
    unit norm in exact arithmetic; the residual roundoff is divided out
    so that iterated steps cannot drift off the sphere.
    """
    X = as_dense(X, name="X")
    grad = g if isinstance(g, GradientMatrix) else GradientMatrix(as_dense(g, name="g"))
    if grad.g.shape != X.shape:
        raise DimensionError(f"gradient shape {grad.g.shape} vs embedding {X.shape}")
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"eta must lie in [0, 1], got {eta}")
    if eta == 0.0:
        return X.copy()
    gpp, mask = grad.unit_tangential(X)
    moved = np.sqrt(1.0 - eta * eta) * X - eta * gpp
    norms = np.linalg.norm(moved, axis=1)
    return np.divide(moved, norms[:, None], out=X.copy(), where=mask[:, None])


def _single_class(n: int) -> LabelVector:
    return LabelVector(np.ones(n, dtype=np.int64), 1)


def _resolve_labels(n: int, cfg: OptimizerConfig, labels, first_pass):
    """Labels for the mixture: given, trivial for kappa=1, or two-pass.

    The two-pass workflow runs the whole optimization with a single
    class, clusters that embedding into kappa classes, and uses those
    labels for the real run.
    """
    if labels is not None:
        if labels.n != n:
            raise DimensionError(f"{labels.n} labels for {n} rows")
        if labels.kappa != cfg.kappa:
            raise ValidationError(
                f"label vector has kappa={labels.kappa}, config says {cfg.kappa}"
            )
        return labels
    if cfg.kappa == 1:
        return _single_class(n)
    warm = first_pass(replace(cfg, kappa=1))
    return kmeans_label(warm, cfg.kappa, seed=cfg.seed)


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
    chain = as_chain(P)
    if not cfg.sym:
        raise ValidationError("fit() handles the symmetric case; use fit_asymmetric")
    if chain.shape[0] != chain.shape[1]:
        raise ValidationError(f"fit needs a square operator, got {chain.shape}")
    chain.validate_stochastic()
    n = chain.shape[0]
    p0 = uniform_weights(n) if p0 is None else validate_regularization_weights(p0, n)
    labels = _resolve_labels(
        n, cfg, labels, lambda c: _descend(chain, c, p0, _single_class(n))[0]
    )
    X, rows, trajectory = _descend(
        chain, cfg, p0, labels, record_trajectory, log_exact_loss, on_epoch
    )
    mu, omega = class_moments(X, labels)
    params = MixtureParams(pi=labels.counts() / n, mu=mu, omega=omega, m=n)
    final_approx = mixture_loss(X, chain, p0, params)
    final_exact = exact_loss(X, chain, p0) if log_exact_loss else np.nan
    rows.append((cfg.n_epochs, 0.0, final_approx, final_exact))
    return FitResult(X=X, labels=labels, log=np.array(rows), trajectory=trajectory)


def _descend(
    chain,
    cfg: OptimizerConfig,
    p0: np.ndarray,
    labels: LabelVector,
    record_trajectory: bool = False,
    log_exact_loss: bool = False,
    on_epoch=None,
):
    """The epoch loop of :func:`fit` on a validated operator and labels.

    Returns the final iterate, the per-epoch log rows and the trajectory
    (None unless recorded).
    """
    n = chain.shape[0]
    pi = labels.counts() / n
    rng = np.random.default_rng(cfg.seed)
    X = _unit_rows(rng.standard_normal((n, cfg.d)))
    _assert_unit_rows(X, "after initialization")
    trajectory = [X.copy()] if record_trajectory else None
    rows = []
    for t in range(cfg.n_epochs):
        eta = cfg.eta0 * (1.0 - t / cfg.n_epochs)
        mu, omega = class_moments(X, labels)
        params = MixtureParams(pi=pi, mu=mu, omega=omega, m=n)
        zeta = zeta_matrix(X, params)
        PX = chain.apply(X)
        g = GradientMatrix(
            -(PX + chain.apply_transpose(X))
            + _reg_gradient(X, p0)
            + _mixture_term(X, zeta, params)
        )
        approx = (
            -_affinity(X, PX)
            + n * np.log(n)
            + float(np.log(zeta.sum(axis=1)).sum())
            + _reg_value(X, p0)
        )
        exact = exact_loss(X, chain, p0) if log_exact_loss else np.nan
        rows.append((t, eta, approx, exact))
        X = sphere_step(X, g, eta)
        _assert_unit_rows(X, f"after epoch {t}")
        if trajectory is not None:
            trajectory.append(X.copy())
        if on_epoch is not None:
            on_epoch(t, X)
    return X, rows, trajectory


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
    if chain.shape[0] != chain.shape[1]:
        raise ValidationError(f"fit_exact needs a square operator, got {chain.shape}")
    if chain.shape[0] > _EXACT_SIZE_GUARD:
        raise ValidationError(
            f"fit_exact is O(n^2 d); refusing n={chain.shape[0]} > {_EXACT_SIZE_GUARD}"
        )
    chain.validate_stochastic()
    n = chain.shape[0]
    p0 = uniform_weights(n) if p0 is None else validate_regularization_weights(p0, n)

    rng = np.random.default_rng(cfg.seed)
    X = _unit_rows(rng.standard_normal((n, cfg.d)))
    trajectory = [X.copy()] if record_trajectory else None
    rows = []
    for t in range(cfg.n_epochs):
        eta = cfg.eta0 * (1.0 - t / cfg.n_epochs)
        PX = chain.apply(X)
        attn, logz = _attention_pieces(X, X)
        g = GradientMatrix(
            -(PX + chain.apply_transpose(X)) + _reg_gradient(X, p0) + attn
        )
        rows.append((t, eta, np.nan, -_affinity(X, PX) + logz + _reg_value(X, p0)))
        X = sphere_step(X, g, eta)
        _assert_unit_rows(X, f"after epoch {t}")
        if trajectory is not None:
            trajectory.append(X.copy())
        if on_epoch is not None:
            on_epoch(t, X)
    rows.append((cfg.n_epochs, 0.0, np.nan, exact_loss(X, chain, p0)))
    return FitResult(X=X, labels=_single_class(n), log=np.array(rows), trajectory=trajectory)


def exact_loss_asymmetric(X, Y, P, p0) -> float:
    """Asymmetric objective with exact constants; specializes to
    :func:`exact_loss` when Y = X and the operator is square."""
    X, Y = as_dense(X, name="X"), as_dense(Y, name="Y")
    chain = as_chain(P)
    p0 = validate_regularization_weights(p0, Y.shape[0])
    z = exact_z(X, Y)
    return (
        -float(np.sum(X * chain.apply(Y)))
        + float(np.log(z.values).sum())
        + float(X.sum(axis=0) @ (p0 @ Y))
    )


def mixture_loss_asymmetric(X, Y, P, p0, params: MixtureParams) -> float:
    X, Y = as_dense(X, name="X"), as_dense(Y, name="Y")
    chain = as_chain(P)
    p0 = validate_regularization_weights(p0, Y.shape[0])
    zeta = zeta_matrix(X, params)
    logz = X.shape[0] * np.log(params.m) + float(np.log(zeta.sum(axis=1)).sum())
    return (
        -float(np.sum(X * chain.apply(Y)))
        + logz
        + float(X.sum(axis=0) @ (p0 @ Y))
    )


def fit_asymmetric(
    P,
    cfg: OptimizerConfig,
    p0=None,
    labels: LabelVector | None = None,
    on_epoch=None,
) -> AsymmetricFitResult:
    """Optimize separate query and key embeddings for a rectangular operator.

    The mixture parameters (and the label vector) live on the key side.
    Under the frozen-moments gradient the key rows receive only the
    affinity and regularization forces.  Both outputs keep unit rows.
    """
    chain = as_chain(P)
    if cfg.sym:
        raise ValidationError("fit_asymmetric needs a config with sym=False")
    chain.validate_stochastic()
    n, m = chain.shape
    p0 = uniform_weights(m) if p0 is None else validate_regularization_weights(p0, m)
    labels = _resolve_labels(
        m, cfg, labels, lambda c: fit_asymmetric(chain, c, p0=p0).Y
    )
    pi = labels.counts() / m

    rng = np.random.default_rng(cfg.seed)
    X = _unit_rows(rng.standard_normal((n, cfg.d)))
    Y = _unit_rows(rng.standard_normal((m, cfg.d)))
    rows = []
    for t in range(cfg.n_epochs):
        eta = cfg.eta0 * (1.0 - t / cfg.n_epochs)
        mu, omega = class_moments(Y, labels)
        params = MixtureParams(pi=pi, mu=mu, omega=omega, m=m)
        zeta = zeta_matrix(X, params)
        PY = chain.apply(Y)
        gX = GradientMatrix(
            -PY + np.broadcast_to(p0 @ Y, X.shape) + _mixture_term(X, zeta, params)
        )
        gY = GradientMatrix(
            -chain.apply_transpose(X) + np.outer(p0, X.sum(axis=0))
        )
        approx = (
            -float(np.sum(X * PY))
            + n * np.log(m)
            + float(np.log(zeta.sum(axis=1)).sum())
            + float(X.sum(axis=0) @ (p0 @ Y))
        )
        rows.append((t, eta, approx, np.nan))
        X = sphere_step(X, gX, eta)
        Y = sphere_step(Y, gY, eta)
        _assert_unit_rows(X, f"after epoch {t} (queries)")
        _assert_unit_rows(Y, f"after epoch {t} (keys)")
        if on_epoch is not None:
            on_epoch(t, X, Y)
    mu, omega = class_moments(Y, labels)
    params = MixtureParams(pi=pi, mu=mu, omega=omega, m=m)
    rows.append((cfg.n_epochs, 0.0, mixture_loss_asymmetric(X, Y, chain, p0, params), np.nan))
    return AsymmetricFitResult(X=X, Y=Y, labels=labels, log=np.array(rows))
