"""Normalization constants of attention score rows.

For embedding matrices X (n queries) and Y (m keys), row i of the
attention score matrix is normalized by Z_i = sum_a exp(x_i . y_a).
This module provides the exact quadratic-cost sum, the linear-time
moment-matched mixture estimate, two Monte-Carlo kernel-feature
baselines, and the error-evaluation helpers used to compare them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ValidationError
from .matstore import as_dense
from .mixture import MixtureParams

#: Scalar products beyond this magnitude would push exp() against the
#: float64 cliff; callers are expected to rescale their embeddings.
EXP_GUARD = 700.0

_BLOCK_ROWS = 256
_FEATURE_BLOCK = 4096


@dataclass(frozen=True)
class ZEstimate:
    """Per-row normalization constants with a provenance tag.

    ``method`` is one of ``exact``, ``mixture(k)``, ``performer(D)`` or
    ``rfa(D)``.  ``includes_self`` records whether, in the symmetric
    X = Y case, the a = i term is part of the sum.  ``clamped`` lists
    rows whose raw estimate was nonpositive and was lifted to a tiny
    positive floor (possible under signed trigonometric features).
    """

    values: np.ndarray
    method: str
    includes_self: bool = True
    clamped: np.ndarray | None = None

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValidationError("Z values must form a vector")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise NumericError(
                f"{self.method} produced nonpositive or non-finite Z values"
            )

    @property
    def n(self) -> int:
        return self.values.size


def _compensated_rowsum(block: np.ndarray, chunk: int = 1024) -> np.ndarray:
    """Error-compensated sum along the last axis.

    Chunks are reduced with numpy's pairwise summation and combined with
    Kahan compensation, keeping the result within a few ulps of an
    extended-precision sum.
    """
    total = np.zeros(block.shape[:-1])
    comp = np.zeros_like(total)
    for start in range(0, block.shape[-1], chunk):
        part = block[..., start : start + chunk].sum(axis=-1)
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _check_exponents(S: np.ndarray) -> None:
    peak = np.abs(S).max(initial=0.0)
    if peak > EXP_GUARD:
        raise NumericError(
            f"scalar product magnitude {peak:.1f} exceeds {EXP_GUARD:.0f}; "
            "rescale the embeddings to bounded norms before estimating Z"
        )


def exact_z(
    X: np.ndarray,
    Y: np.ndarray | None = None,
    include_self: bool = True,
    block_rows: int = _BLOCK_ROWS,
) -> ZEstimate:
    """Exact normalization constants Z_i = sum_a exp(x_i . y_a).

    With ``Y`` omitted the sum runs over the rows of ``X`` itself and
    ``include_self`` controls whether the a = i term participates.
    Row sums use compensated accumulation; cost O(d n m).
    """
    X = as_dense(X, name="X")
    symmetric = Y is None or Y is X
    Ymat = X if symmetric else as_dense(Y, name="Y")
    if X.shape[1] != Ymat.shape[1]:
        raise DimensionError(
            f"inner dimensions differ: X has d={X.shape[1]}, Y has d={Ymat.shape[1]}"
        )
    n = X.shape[0]
    out = np.empty(n)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        S = X[start:stop] @ Ymat.T
        _check_exponents(S)
        E = np.exp(S)
        if symmetric and not include_self:
            rows = np.arange(start, stop)
            E[rows - start, rows] = 0.0
        out[start:stop] = _compensated_rowsum(E)
    return ZEstimate(out, "exact", includes_self=symmetric and include_self)


def zeta_matrix(X: np.ndarray, params: MixtureParams) -> np.ndarray:
    """Per-row, per-class terms pi_a * exp(x.mu_a + x.Omega_a.x / 2).

    Row sums times the mixture source count m reproduce the estimated
    normalization constants.
    """
    X = as_dense(X, name="X")
    if X.shape[1] != params.d:
        raise DimensionError(
            f"X has d={X.shape[1]}, mixture parameters have d={params.d}"
        )
    expo = X @ params.mu.T
    for a in range(params.kappa):
        if params.omega[a].any():
            expo[:, a] += 0.5 * np.einsum("ij,ij->i", X @ params.omega[a], X)
    zeta = params.pi * np.exp(expo)
    if not np.all(np.isfinite(zeta)):
        raise NumericError("mixture terms overflowed; rescale the embeddings")
    return zeta


def approx_z(X: np.ndarray, params: MixtureParams) -> ZEstimate:
    """Mixture estimate of the normalization constants.

    Returns m * sum_a pi_a exp(x.mu_a + x.Omega_a.x / 2) per row of X,
    at O(n kappa d^2) total cost, independent of m.
    """
    zeta = zeta_matrix(X, params)
    return ZEstimate(
        params.m * zeta.sum(axis=1),
        f"mixture({params.kappa})",
        includes_self=True,
    )


@dataclass(frozen=True)
class KernelFeatureMap:
    """Random projection matrix shared by the kernel baselines."""

    W: np.ndarray  # (D, d) standard-normal entries
    D: int
    seed: int

    @classmethod
    def from_seed(cls, d: int, n_features: int, seed: int) -> "KernelFeatureMap":
        if n_features < 1 or d < 1:
            raise ValidationError("feature map dimensions must be positive")
        W = np.random.default_rng(seed).standard_normal((n_features, d))
        return cls(W=W, D=n_features, seed=seed)


def _performer_features(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    # Positive exponential features: exp(Wv - |v|^2/2) / sqrt(D); pairs of
    # features estimate exp(x.y) directly.
    expo = V @ W.T - 0.5 * np.sum(V * V, axis=1)[:, None]
    _check_exponents(expo)
    return np.exp(expo) / np.sqrt(W.shape[0])


def _rfa_features(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    # Trigonometric features: [cos(Wv), sin(Wv)] / sqrt(D); pairs of
    # features estimate the Gaussian kernel exp(-|x-y|^2/2).
    proj = V @ W.T
    return np.concatenate([np.cos(proj), np.sin(proj)], axis=1) / np.sqrt(W.shape[0])


def kernel_z(
    X: np.ndarray,
    Y: np.ndarray,
    fmap: KernelFeatureMap,
    variant: str,
    block_rows: int = _FEATURE_BLOCK,
) -> ZEstimate:
    """Monte-Carlo estimate of the normalization constants via random features.

    The key-side feature mass is accumulated once over blocks of Y, then
    every query row costs O(D d).  ``variant`` selects ``performer``
    (positive exponential features) or ``rfa`` (trigonometric features,
    whose signed sums are clamped to a positive floor when they fail to
    be positive; clamped rows are reported in the estimate).
    """
    X = as_dense(X, name="X")
    Y = X if Y is None or Y is X else as_dense(Y, name="Y")
    if X.shape[1] != fmap.W.shape[1] or Y.shape[1] != fmap.W.shape[1]:
        raise DimensionError(
            f"feature map expects d={fmap.W.shape[1]}, got X d={X.shape[1]}, Y d={Y.shape[1]}"
        )
    if variant == "performer":
        feats = _performer_features
        prefactor = False
    elif variant == "rfa":
        feats = _rfa_features
        prefactor = True
    else:
        raise ValidationError(f"unknown kernel variant {variant!r}")

    width = 2 * fmap.D if prefactor else fmap.D
    mass = np.zeros(width)
    for start in range(0, Y.shape[0], block_rows):
        block = Y[start : start + block_rows]
        phi = feats(block, fmap.W)
        if prefactor:
            sq = 0.5 * np.sum(block * block, axis=1)
            _check_exponents(sq)
            phi = phi * np.exp(sq)[:, None]
        mass += phi.sum(axis=0)

    phi_x = feats(X, fmap.W)
    vals = phi_x @ mass
    if prefactor:
        sq = 0.5 * np.sum(X * X, axis=1)
        _check_exponents(sq)
        vals = np.exp(sq) * vals
    if not np.all(np.isfinite(vals)):
        raise NumericError(f"{variant} feature sums are not finite")
    clamped = np.flatnonzero(vals <= 0)
    if clamped.size:
        vals = vals.copy()
        vals[clamped] = np.finfo(np.float64).tiny
    return ZEstimate(
        vals,
        f"{variant}({fmap.D})",
        includes_self=True,
        clamped=clamped if clamped.size else None,
    )


def error_cdf(reference: ZEstimate, candidate: ZEstimate) -> np.ndarray:
    """Empirical CDF of the relative error |est - exact| / exact.

    Returns a two-column table (sorted relative error, cumulative
    fraction k/n); the reference must come from the exact method.
    """
    if reference.method != "exact":
        raise ValidationError(
            f"reference must be exact, got method {reference.method!r}"
        )
    if reference.n != candidate.n:
        raise DimensionError(
            f"row counts differ: {reference.n} reference vs {candidate.n} candidate"
        )
    rel = np.abs(candidate.values - reference.values) / reference.values
    rel = np.sort(rel)
    fractions = np.arange(1, rel.size + 1) / rel.size
    return np.column_stack([rel, fractions])


def concentration_probe(
    sampler,
    x: np.ndarray,
    m_grid,
    repeats: int,
    seed: int = 0,
) -> np.ndarray:
    """Empirical spread of Z/m for growing key counts.

    ``sampler(m, rng)`` must return an m-row matrix of i.i.d. key
    vectors with bounded scalar products against ``x``.  Returns a
    three-column table (m, mean of Z/m, sample std of Z/m over
    ``repeats`` independent draws).
    """
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if repeats < 2:
        raise ValidationError("need at least 2 repeats for a standard deviation")
    rng = np.random.default_rng(seed)
    rows = []
    for m in m_grid:
        m = int(m)
        vals = np.empty(repeats)
        for r in range(repeats):
            Y = as_dense(np.asarray(sampler(m, rng)), name="sampled keys")
            vals[r] = exact_z(x[None, :], Y).values[0] / m
        rows.append((float(m), vals.mean(), vals.std(ddof=1)))
    return np.array(rows)
