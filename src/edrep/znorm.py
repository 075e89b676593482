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

from .errors import DimensionError, NumericError, ValidationError, check_whole
from .matstore import _real, as_dense
from .mixture import MixtureParams, _block_cuts, _row_sq_norms

#: Scalar products beyond this magnitude would push exp() against the
#: float64 cliff; callers are expected to rescale their embeddings.
EXP_GUARD = 700.0

#: Query rows per block of exact scores, in :func:`exact_z` and in
#: ``fit_exact``'s normalizer alike.
_BLOCK_ROWS = 256
#: Keys per chunk of every exact score (:func:`_score_blocks`), a multiple
#: of the 1024 columns that :func:`_compensated_rowsum` sums at once; the
#: remainder joins the last chunk, so a chunk holds 2048 to 4095 keys.  One
#: score buffer takes at most 8 MiB however many keys there are (7.1 MiB at
#: m = 20,000), against 39 MiB for whole 256-row blocks of scores.
_KEY_CHUNK = 2048
#: Bytes of key features that :func:`_key_mass` holds at once.  The keys
#: are cut into the fewest equal sub-blocks of at most this size, each
#: summed onto the first row of the next, so the mass has the bits of
#: features(Y).sum(axis=0) wherever BLAS gives a sub-block's rows the
#: bits of the same rows in one product over all keys: at the benchmark's
#: 1000- and 2000-row sub-blocks, but not at every shape (1 query Z in 1
#: of 1000 cases of a sweep over D from 257 to 1000 and d from 2 to 100
#: missed it by 1 ulp, at 2 threads).  RFA's cos and sin halves are two
#: contiguous blocks of one sub-block, summed in one call that sums each
#: on its own.  A block of one column (performer or rfa at D = 1), which
#: numpy sums pairwise rather than row after row, is split only past
#: _FEATURE_BYTES // 8 keys, so rfa at D = 1 holds up to twice this size.
_FEATURE_BYTES = 16 << 20


@dataclass(frozen=True)
class ZEstimate:
    """Per-row normalization constants with a provenance tag.

    ``method`` is one of ``exact``, ``mixture(k)``, ``performer(D)`` or
    ``rfa(D)``.  ``clamped`` lists rows whose raw estimate was
    nonpositive and was lifted to a tiny positive floor (possible under
    signed trigonometric features).
    """

    values: np.ndarray
    method: str
    clamped: np.ndarray | None = None

    def __post_init__(self):
        vals = np.ascontiguousarray(_real(self.values, "Z values"), dtype=np.float64)
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


def _compensated_rowsum(block: np.ndarray, carry) -> np.ndarray:
    """Error-compensated sum along the last axis.

    Chunks of 1024 are reduced with numpy's pairwise summation and
    combined with Kahan compensation, keeping the result within a few
    ulps of an extended-precision sum.  ``carry``, the (total, comp)
    pair of a sum over earlier columns (zeros to start one), is continued
    in place: columns summed in runs of whole 1024-column chunks get the
    bits of one call over them all.  Returns the total.
    """
    total, comp = carry
    for start in range(0, block.shape[-1], 1024):
        y = block[..., start : start + 1024].sum(axis=-1)
        y -= comp
        t = total + y
        np.subtract(t, total, out=comp)
        comp -= y
        total[...] = t
    return total


def _check_exponents(S: np.ndarray) -> None:
    # Two reductions instead of np.abs(S), which would copy the block.
    peak = max(S.max(initial=0.0), -S.min(initial=0.0))
    if peak > EXP_GUARD:
        raise NumericError(
            f"scalar product magnitude {peak:.1f} exceeds {EXP_GUARD:.0f}; "
            "rescale the embeddings to bounded norms before estimating Z"
        )


def _score_blocks(Y: np.ndarray, rows: int):
    """The one loop that computes exact scores against the keys Y.

    ``blocks(X)``, for X of at most ``rows`` rows, yields (lo, hi, a, b,
    E, z) per ``_BLOCK_ROWS`` rows and key chunk Y[a:b] (``_block_cuts``
    of ``_KEY_CHUNK``): E = exp(X[lo:hi] Y[a:b]'), guarded whole before
    its exp, in one buffer (a fresh one per chunk would be faulted in
    anew), and z the compensated row sums so far.  Each row's sum is
    carried from chunk to chunk, which gives the bits of one sum over the
    whole row, so z is final after the block's last chunk.
    """
    cuts = _block_cuts(Y.shape[0], _KEY_CHUNK)
    scores = np.empty(min(_BLOCK_ROWS, rows) * max(np.diff(cuts)))

    def blocks(X: np.ndarray):
        for lo in range(0, X.shape[0], _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, X.shape[0])
            carry = (np.zeros(hi - lo), np.zeros(hi - lo))
            for a, b in zip(cuts[:-1], cuts[1:]):
                S = scores[: (hi - lo) * (b - a)].reshape(hi - lo, b - a)
                np.matmul(X[lo:hi], Y[a:b].T, out=S)
                _check_exponents(S)
                np.exp(S, out=S)
                _compensated_rowsum(S, carry)
                yield lo, hi, a, b, S, carry[0]

    return blocks


def _operands(X, Y):
    """The queries X and keys Y as checked dense arrays of one width, Y
    being X itself when passed as X; Z sums over the keys, so Y needs a row."""
    X = as_dense(X, name="X")
    Y = X if Y is X else as_dense(Y, name="Y")
    if Y.shape[0] == 0:
        raise ValidationError("Y has no rows; Z sums over at least one key")
    if X.shape[1] != Y.shape[1]:
        raise DimensionError(
            f"inner dimensions differ: X has d={X.shape[1]}, Y has d={Y.shape[1]}"
        )
    return X, Y


def exact_z(X: np.ndarray, Y: np.ndarray | None = None) -> ZEstimate:
    """Exact normalization constants Z_i = sum_a exp(x_i . y_a).

    With ``Y`` omitted the sum runs over the rows of ``X`` itself, the
    a = i term included.  Row sums use compensated accumulation; cost
    O(d n m), with one score buffer of at most 256 x 4095 floats
    however many keys there are.
    """
    X, Y = _operands(X, X if Y is None else Y)
    out = np.empty(X.shape[0])
    for lo, hi, _, _, _, z in _score_blocks(Y, X.shape[0])(X):
        out[lo:hi] = z
    return ZEstimate(out, "exact")


def zeta_matrix(X: np.ndarray, params: MixtureParams):
    """Per-row, per-class terms pi_a exp(x.mu_a + x.Omega_a.x / 2), as logarithms.

    Returns ``(L, XO)``.  ``L[i, a] = log pi_a + x_i.mu_a + x_i.Omega_a.x_i / 2``,
    so the estimate is Z_i = m sum_a exp(L[i, a]); no term overflows in
    the log domain, however large the norms.  ``XO`` is X times
    ``params.omega_stack``, the [Omega_a ...] of every class in order:
    the one product that gives every quadratic exponent, returned so that
    the gradient term can reuse it.
    """
    X = as_dense(X, name="X")
    if X.shape[1] != params.d:
        raise DimensionError(
            f"X has d={X.shape[1]}, mixture parameters have d={params.d}"
        )
    d = params.d
    L = X @ params.mu.T
    XO = X @ params.omega_stack
    for a in range(params.kappa):
        L[:, a] += 0.5 * np.einsum("ij,ij->i", XO[:, a * d : (a + 1) * d], X)
    # A class with pi = 0 gets log pi = -inf and weight 0.
    with np.errstate(divide="ignore"):
        L += np.log(params.pi)
    return L, XO


def _log_sum_exp(L: np.ndarray):
    """Row-wise log sum_a exp(L[:, a]), max-shifted, and the weights
    exp(L[:, a]) / sum_a exp(L[:, a]), written over ``L``."""
    top = L.max(axis=1)
    L -= top[:, None]
    w = np.exp(L, out=L)
    total = w.sum(axis=1)
    w /= total[:, None]
    return top + np.log(total), w


def approx_z(X: np.ndarray, params: MixtureParams) -> ZEstimate:
    """Mixture estimate of the normalization constants.

    Returns m * sum_a pi_a exp(x.mu_a + x.Omega_a.x / 2) per row of X,
    at O(n kappa d^2) total cost, independent of m.  The class terms are
    summed in the log domain, so a row fails only if Z itself overflows.
    """
    logz, _ = _log_sum_exp(zeta_matrix(X, params)[0])
    # An overflow gives inf, which ZEstimate rejects.
    with np.errstate(over="ignore"):
        return ZEstimate(params.m * np.exp(logz), f"mixture({params.kappa})")


@dataclass(frozen=True)
class KernelFeatureMap:
    """Random projection matrix shared by the kernel baselines."""

    W: np.ndarray  # (D, d) standard-normal entries

    def __post_init__(self):
        W = as_dense(self.W, name="feature map W")
        object.__setattr__(self, "W", W)
        if 0 in W.shape:
            raise ValidationError(f"feature map W must have rows and columns, got shape {W.shape}")

    @property
    def D(self) -> int:
        return self.W.shape[0]

    @classmethod
    def from_seed(cls, d: int, n_features: int, seed: int) -> "KernelFeatureMap":
        shape = (check_whole(n_features, "feature count D", 1), check_whole(d, "dimension d", 1))
        return cls(W=np.random.default_rng(check_whole(seed, "seed", 0)).standard_normal(shape))


def _performer_features(V: np.ndarray, W: np.ndarray, phi: np.ndarray) -> None:
    # Positive exponential features: exp(Wv - |v|^2/2) / sqrt(D); pairs of
    # features estimate exp(x.y) directly.  Written into ``phi``, one row
    # per row of V.  The guard sees the whole block before the exp.
    np.matmul(V, W.T, out=phi)
    phi -= 0.5 * _row_sq_norms(V)[:, None]
    _check_exponents(phi)
    np.exp(phi, out=phi)
    phi /= np.sqrt(W.shape[0])


def _rfa_features(V: np.ndarray, W: np.ndarray, q: np.ndarray, t: np.ndarray) -> None:
    # Trigonometric features: cos(Wv) / sqrt(D) into ``q`` and sin(Wv) /
    # sqrt(D) into ``t``, one row per row of V; pairs of [cos, sin]
    # features estimate the Gaussian kernel exp(-|x-y|^2/2).  numpy's sin
    # and cos are scalar loops, so each feature takes one tan of the half
    # angle: with t = tan(Wv/2), k = 1/sqrt(D) and q = 2k / (1 + t^2),
    # cos(Wv) k = q - k and sin(Wv) k = t q, within 3.5 eps k of
    # [np.cos, np.sin] / sqrt(D) (2.98 seen, for cos near Wv = 0, where q
    # rounds at 2k); Wv = 0 gives [k, 0].  Each pass is faster on
    # contiguous q and t than on strided halves of one array.
    k = 1 / np.sqrt(W.shape[0])
    np.matmul(V, 0.5 * W.T, out=t)  # halving is exact
    np.tan(t, out=t)
    np.multiply(t, t, out=q)
    q += 1
    np.divide(2 * k, q, out=q)
    t *= q
    q -= k


def _exp_half_sq(V: np.ndarray) -> np.ndarray:
    """exp(|v|^2 / 2) per row, the RFA prefactor that turns the Gaussian
    kernel into exp(x.y)."""
    sq = 0.5 * _row_sq_norms(V)
    _check_exponents(sq)
    return np.exp(sq)


def _key_mass(Y: np.ndarray, W: np.ndarray, rfa: bool) -> np.ndarray:
    """features(Y).sum(axis=0), the key feature mass: performer features,
    or rfa's [cos | sin] features times each key's exp(|y|^2 / 2).

    One sub-block of keys (see ``_FEATURE_BYTES``) at a time goes into
    one (halves, rows, D) buffer, rfa's cos and sin as contiguous blocks
    so that every elementwise pass runs on contiguous memory; the key
    side holds that buffer however many keys there are.
    """
    features = _rfa_features if rfa else _performer_features
    halves, D = (2 if rfa else 1), W.shape[0]
    m = Y.shape[0]
    # A one-column block is summed pairwise: see _FEATURE_BYTES.
    rows = _FEATURE_BYTES // (8 * halves * D) if D > 1 else _FEATURE_BYTES // 8
    parts = -(-m // max(1, rows))
    cuts = [m * k // parts for k in range(parts + 1)]
    buf = np.empty((halves, -(-m // parts), D))
    sums = None
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sub, phi = Y[lo:hi], buf[:, : hi - lo]
        features(sub, W, *phi)
        if rfa:
            phi *= _exp_half_sq(sub)[:, None]
        # numpy sums a C-contiguous block of two or more columns row
        # after row, so carrying the sum so far onto the first row gives
        # the sum over all keys' phi, bit for bit.
        if sums is not None:
            phi[:, 0] += sums
        sums = phi.sum(axis=1)
    return sums.ravel()


def kernel_z(X: np.ndarray, Y: np.ndarray, fmap: KernelFeatureMap, variant: str) -> ZEstimate:
    """Monte-Carlo estimate of the normalization constants via random features.

    ``variant`` selects ``performer`` (positive exponential features) or
    ``rfa`` (trigonometric features, whose signed sums are clamped to a
    positive floor when they fail to be positive; clamped rows are
    reported in the estimate).  The key feature mass (``_key_mass``) is
    summed once over Y, and its buffer freed, before the query features
    are made in an array of their own, with the mass's [cos | sin] rows;
    every query row then costs O(D d).  Both maps run their elementwise
    passes in place, in the calling thread.  RFA takes one tan(a/2) per
    feature, each feature within 3.5 eps / sqrt(D) of [cos(a), sin(a)] /
    sqrt(D) (see ``_rfa_features``).
    """
    X, Y = _operands(X, Y)
    if X.shape[1] != fmap.W.shape[1]:
        raise DimensionError(f"feature map expects d={fmap.W.shape[1]}, got d={X.shape[1]}")
    if variant not in ("performer", "rfa"):
        raise ValidationError(f"unknown kernel variant {variant!r}")
    rfa = variant == "rfa"
    mass = _key_mass(Y, fmap.W, rfa)
    phi = np.empty((X.shape[0], mass.size))
    features = _rfa_features if rfa else _performer_features
    features(X, fmap.W, *np.hsplit(phi, 2 if rfa else 1))
    with np.errstate(over="ignore"):
        vals = phi @ mass
        if rfa:
            vals *= _exp_half_sq(X)
    if not np.all(np.isfinite(vals)):
        raise NumericError(f"{variant} feature sums are not finite")
    clamped = np.flatnonzero(vals <= 0)
    # Only rfa's signed sums are clamped; a performer 0 is an underflow.
    if rfa and clamped.size:
        vals[clamped] = np.finfo(np.float64).tiny
    return ZEstimate(
        vals, f"{variant}({fmap.D})", clamped=clamped if clamped.size else None
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
    x = np.ascontiguousarray(_real(x, "x"), dtype=np.float64).ravel()
    check_whole(repeats, "repeats", 2)
    m_grid = [check_whole(m, "key count m", 1) for m in m_grid]
    if not m_grid:
        raise ValidationError("the grid of key counts is empty")
    rng = np.random.default_rng(check_whole(seed, "seed", 0))
    rows = []
    for m in m_grid:
        vals = np.empty(repeats)
        for r in range(repeats):
            Y = as_dense(sampler(m, rng), name="sampled keys")
            vals[r] = exact_z(x[None, :], Y).values[0] / m
        rows.append((float(m), vals.mean(), vals.std(ddof=1)))
    return np.array(rows)
