"""Exact, mixture and kernel-feature normalization constants."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edrep import matstore, znorm
from edrep.errors import DimensionError, NumericError, ValidationError
from edrep.matstore import as_dense, unit_rows
from edrep.mixture import (
    _LLOYD_BLOCK,
    LabelVector,
    MixtureParams,
    _block_cuts,
    estimate_mixture,
    kmeans_label,
    singleton_mixture,
)
from edrep.znorm import (
    EXP_GUARD,
    KernelFeatureMap,
    ZEstimate,
    _compensated_rowsum,
    approx_z,
    concentration_probe,
    error_cdf,
    exact_z,
    kernel_z,
)


def reference_kernel_z(X, Y, fmap, variant, magnitude=False, trig=False):
    """``kernel_z`` by its definition: fresh arrays, the features of all
    keys in one product, each half of them (rfa's cos and sin; all of
    performer's) summed in one call, the query features in one array, all
    in one thread.  With ``magnitude``, the sum of the terms' magnitudes
    instead: Z itself for performer, whose terms are positive, and far
    above Z where rfa's signed terms cancel.  Rfa's features take
    ``kernel_z``'s half-angle passes, t = tan(Wv/2), q = 2k / (1 + t^2)
    with k = 1/sqrt(D), [q - k, t q]; with ``trig``, they are
    [cos(Wv), sin(Wv)] / sqrt(D) instead.  numpy sums a half of two or
    more columns row after row, which gives the bits of summing the
    [cos | sin] rows whole; a half of one column it sums pairwise.  With
    X None, the key mass alone: the per-half sums side by side."""

    def guard(S):
        if max(S.max(initial=0.0), -S.min(initial=0.0)) > EXP_GUARD:
            raise NumericError("exponent guard")

    def performer(V, W):
        expo = V @ W.T - 0.5 * np.sum(V * V, axis=1)[:, None]
        guard(expo)
        return [np.exp(expo) / np.sqrt(W.shape[0])]

    def rfa(V, W):
        if trig:
            proj = V @ W.T
            halves = [np.cos(proj) / np.sqrt(W.shape[0]), np.sin(proj) / np.sqrt(W.shape[0])]
        else:
            k = 1 / np.sqrt(W.shape[0])
            t = np.tan(V @ (0.5 * W.T))
            q = 2 * k / (1 + t * t)
            halves = [q - k, t * q]
        return [np.abs(h) for h in halves] if magnitude else halves

    feats = performer if variant == "performer" else rfa
    halves = feats(Y, fmap.W)
    if variant == "rfa":
        sq = 0.5 * np.sum(Y * Y, axis=1)
        guard(sq)
        halves = [h * np.exp(sq)[:, None] for h in halves]
    mass = np.concatenate([h.sum(axis=0) for h in halves])
    if X is None:
        return mass
    vals = np.concatenate(feats(X, fmap.W), axis=1) @ mass
    if variant == "rfa":
        sq = 0.5 * np.sum(X * X, axis=1)
        guard(sq)
        vals = np.exp(sq) * vals
    clamped = np.flatnonzero(vals <= 0)
    vals[clamped] = np.finfo(np.float64).tiny
    return vals, clamped


def reference_exact_z(X, Y):
    """``exact_z`` without key chunks: fresh arrays for every 256-row
    block of whole score rows, each row summed in 1024-column pieces with
    Kahan compensation."""

    def rowsum(E):
        total = np.zeros(E.shape[0])
        comp = np.zeros_like(total)
        for start in range(0, E.shape[1], 1024):
            y = E[:, start : start + 1024].sum(axis=1) - comp
            t = total + y
            comp = (t - total) - y
            total = t
        return total

    return np.concatenate(
        [rowsum(np.exp(X[s : s + 256] @ Y.T)) for s in range(0, X.shape[0], 256)]
    )


class TestExactZ:
    def test_two_term_closed_form(self):
        x = np.array([[1.0, 0.0]])
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = exact_z(x, Y)
        np.testing.assert_allclose(z.values, [math.e + 1.0], rtol=1e-15)

    def test_zero_query_counts_keys(self):
        Y = np.random.default_rng(0).standard_normal((37, 5))
        z = exact_z(np.zeros((1, 5)), Y)
        np.testing.assert_allclose(z.values, [37.0], rtol=1e-14)

    def test_matches_extended_precision_sum(self):
        """Oracle: math.fsum of the exponentials, row by row."""
        rng = np.random.default_rng(1)
        X = rng.standard_normal((300, 8)) * 0.5  # the last row block is partial
        Y = rng.standard_normal((100, 8)) * 0.5
        z = exact_z(X, Y)
        for i in range(300):
            oracle = math.fsum(math.exp(v) for v in (X[i] @ Y.T))
            assert abs(z.values[i] - oracle) / oracle < 1e-12

    def test_invariant_under_key_permutation(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 4))
        Y = rng.standard_normal((30, 4))
        perm = rng.permutation(30)
        a = exact_z(X, Y)
        b = exact_z(X, Y[perm])
        np.testing.assert_allclose(a.values, b.values, rtol=1e-13)

    def test_self_term_contributes_its_own_exponential(self):
        """Without keys the sum runs over X itself, the a = i term included."""
        rng = np.random.default_rng(3)
        X = unit_rows(rng.standard_normal((300, 6)))
        assert exact_z(X).values.tobytes() == exact_z(X, X.copy()).values.tobytes()

    def test_overflow_guard_advises_rescaling(self):
        X = np.full((1, 1), 30.0)
        for key in (30.0, -30.0):  # scores of +900 and -900
            with pytest.raises(NumericError, match="rescale"):
                exact_z(X, np.full((1, 1), key))

    def test_guard_raises_before_the_last_key_chunk_overflows(self):
        """The one score above the guard, 750, sits in the last of three
        key chunks, whose predecessors have already run their exp; exp
        would overflow there, and RuntimeWarning is an error under pytest."""
        X = np.ones((3, 1))
        Y = np.full((7000, 1), 0.01)
        Y[-1, 0] = 750.0
        assert len(_block_cuts(Y.shape[0], znorm._KEY_CHUNK)) - 1 >= 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="rescale"):
                exact_z(X, Y)

    def test_peak_memory_is_one_score_block(self):
        """The scores are computed one key chunk at a time into one buffer
        and the exponent guard reduces them in place: one 256-row block of
        at most 4095 keys is the only large array ``exact_z`` allocates,
        and four times the keys take no more memory."""
        rng = np.random.default_rng(4)
        X = rng.standard_normal((256, 100)) * 0.05
        exact_z(X[:1], X)  # warms up outside the trace
        peaks = []
        for m in (20000, 80000):
            Y = rng.standard_normal((m, 100)) * 0.05
            tracemalloc.start()
            try:
                exact_z(X, Y)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 256 * (2 * znorm._KEY_CHUNK - 1) * 8
        assert peaks[1] <= peaks[0]

    @pytest.mark.parametrize("m", [1, 2047, 2048, 4095, 4096, 6143, 6144, 20000])
    def test_key_chunks_hold_one_to_two_chunk_widths(self, m):
        """The one block-edge rule, at the widths of the key chunks and
        of k-means' row blocks and at a small width that cuts many
        blocks."""
        for width in {znorm._KEY_CHUNK, _LLOYD_BLOCK, 3}:
            cuts = _block_cuts(m, width)
            widths = np.diff(cuts)
            assert cuts[0] == 0 and cuts[-1] == m
            if m < 2 * width:
                assert widths.tolist() == [m]
            else:
                assert widths.min() >= width
                assert widths.max() < 2 * width

    @settings(max_examples=60)
    @given(
        m=st.sampled_from([2047, 2048, 2049, 2050, 4095, 4096, 4097, 6143, 6145, 8193]),
        n=st.sampled_from([1, 3, 17, 300]),
        d=st.integers(1, 100),
        scale=st.sampled_from([0.1, 1.0, 3.0]),
        seed=st.integers(0, 2**16),
    )
    @example(m=8193, n=300, d=100, scale=1.0, seed=0)
    @example(m=6145, n=17, d=5, scale=3.0, seed=1)
    @example(m=4097, n=1, d=1, scale=3.0, seed=2)
    def test_key_chunks_keep_the_bits(self, m, n, d, scale, seed):
        """Key counts on either side of the chunk edges, against whole
        256-row blocks of scores: each row's compensated sum is carried
        from chunk to chunk, so Z keeps its bits."""
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((m, d)) * scale / np.sqrt(d)
        X = rng.standard_normal((n, d)) * scale / np.sqrt(d)
        assert exact_z(X, Y).values.tobytes() == reference_exact_z(X, Y).tobytes()

    def test_inner_dimension_checked(self):
        with pytest.raises(DimensionError):
            exact_z(np.zeros((2, 3)), np.zeros((2, 4)))


class TestApproxZ:
    def test_point_mass_mixture_is_exact(self):
        v = np.array([0.3, -0.2, 0.5])
        Y = np.tile(v, (25, 1))
        params = estimate_mixture(Y, LabelVector(np.ones(25, dtype=int), 1))
        x = np.array([[0.1, 0.4, -0.3]])
        z = approx_z(x, params)
        np.testing.assert_allclose(z.values, [25.0 * math.exp(x[0] @ v)], rtol=1e-14)

    def test_zero_query_is_exact(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((40, 6))
        labels = LabelVector(rng.integers(1, 4, 40) * 0 + np.tile([1, 2, 3, 1], 10), 3)
        params = estimate_mixture(Y, labels)
        z = approx_z(np.zeros((2, 6)), params)
        np.testing.assert_allclose(z.values, [40.0, 40.0], rtol=1e-12)

    def test_two_component_instance_has_small_median_error(self):
        """Oracle: exact_z on a 20000-key two-component instance; the
        regression bound 0.02 sits far above the first measured error."""
        rng = np.random.default_rng(77)
        d, m = 50, 20000
        means = rng.standard_normal((2, d))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        comp = rng.integers(0, 2, m)
        mixing = np.eye(d) + 0.5 * rng.standard_normal((d, d)) / np.sqrt(d)
        Y = means[comp] + 0.3 * rng.standard_normal((m, d)) / np.sqrt(d) @ mixing
        X = unit_rows(rng.standard_normal((1000, d)))
        params = estimate_mixture(Y, LabelVector(comp + 1, 2))
        ze = exact_z(X, Y)
        za = approx_z(X, params)
        median = np.median(np.abs(za.values - ze.values) / ze.values)
        assert median < 0.02

    def test_singleton_mixture_reproduces_exact(self):
        rng = np.random.default_rng(6)
        Y = unit_rows(rng.standard_normal((80, 7)))
        z_mix = approx_z(Y, singleton_mixture(Y))
        z_ex = exact_z(Y)
        np.testing.assert_allclose(z_mix.values, z_ex.values, rtol=1e-9)

    def test_zeta_row_sums_match_estimate(self):
        from edrep.znorm import zeta_matrix

        rng = np.random.default_rng(7)
        Y = rng.standard_normal((30, 4)) * 0.4
        labels = LabelVector(np.tile([1, 2, 3], 10), 3)
        params = estimate_mixture(Y, labels)
        X = rng.standard_normal((12, 4)) * 0.4
        log_zeta, _ = zeta_matrix(X, params)
        z = approx_z(X, params)
        np.testing.assert_allclose(
            np.exp(log_zeta).sum(axis=1), z.values / params.m, rtol=0, atol=1e-12
        )

    def test_class_terms_past_the_exp_limit_give_finite_z(self):
        """Oracle: Z = m sum_a pi_a exp(e_a) by hand, with log pi_1 folded
        into e_1 = 709.9, which is above log(max float) ~ 709.78."""
        mu = np.array([[709.9], [0.0]])
        params = MixtureParams(
            pi=np.array([0.25, 0.75]), mu=mu, omega=np.zeros((2, 1, 1)), m=1
        )
        z = approx_z(np.ones((1, 1)), params)
        expected = np.exp(709.9 + np.log(0.25)) + 0.75
        np.testing.assert_allclose(z.values, [expected], rtol=1e-13)
        assert np.isfinite(z.values[0]) and z.values[0] > 1e307

    def test_dimension_mismatch_rejected(self):
        Y = np.zeros((5, 3))
        params = estimate_mixture(Y, LabelVector(np.ones(5, dtype=int), 1))
        with pytest.raises(DimensionError):
            approx_z(np.zeros((2, 4)), params)


class TestKernelZ:
    def test_rfa_on_zero_vectors_is_exact(self):
        X = np.zeros((3, 4))
        fmap = KernelFeatureMap.from_seed(4, 50, 0)
        z = kernel_z(X, X, fmap, "rfa")
        np.testing.assert_allclose(z.values, [3.0, 3.0, 3.0], rtol=1e-12)

    @given(theta=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64))
    @example(theta=[0.0, math.pi, -math.pi])  # math.pi / 2 is the double nearest pi/2
    @example(theta=[j * math.pi + e for j in (-317, -3, -1, 1, 3, 317) for e in (-1e-9, 1e-9)])
    def test_rfa_features_match_cos_and_sin(self, theta):
        """The half-angle features against [cos, sin] / sqrt(D), one angle
        per feature.  q's two roundings (1 + t^2 and the divide) put up to
        2 eps/sqrt(D) on a cos feature near angle 0, the reference's cos
        and division up to 0.75 more, and k = 1/sqrt(D) against dividing
        by sqrt(D) up to 0.5: 3.5 eps/sqrt(D) per feature.  The largest
        seen, in 200,000-row draws at each D up to 64 and at 1000, was
        2.98 eps/sqrt(D) for cos and 2.0 for sin."""
        theta = np.array(theta)
        D = theta.size
        q, t = np.empty((1, D)), np.empty((1, D))
        znorm._rfa_features(np.ones((1, 1)), theta[:, None], q, t)
        q, t = q[0], t[0]
        bound = 3.5 * np.finfo(np.float64).eps / np.sqrt(D)
        assert np.all(np.abs(q - np.cos(theta) / np.sqrt(D)) <= bound)
        assert np.all(np.abs(t - np.sin(theta) / np.sqrt(D)) <= bound)
        zero = theta == 0  # either sign: the product's sum makes -0 a +0
        assert q[zero].tobytes() == np.full(zero.sum(), 1 / np.sqrt(D)).tobytes()
        assert np.all(t[zero] == 0)

    def test_rfa_never_calls_sin_or_cos(self):
        """numpy's sin and cos are scalar loops, each several times slower
        than the one tan per feature that the half-angle form takes."""

        def scalar_loop(*args, **kwargs):
            raise AssertionError("kernel_z called np.sin or np.cos")

        rng = np.random.default_rng(15)
        Y = unit_rows(rng.standard_normal((300, 4)))
        fmap = KernelFeatureMap.from_seed(4, 64, 0)
        values, _ = reference_kernel_z(Y[:10], Y, fmap, "rfa")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "sin", scalar_loop)
            mp.setattr(np, "cos", scalar_loop)
            z = kernel_z(Y[:10], Y, fmap, "rfa")
        assert z.values.tobytes() == values.tobytes()

    def test_rfa_key_passes_run_on_contiguous_halves(self):
        """An elementwise pass over a strided half of [cos | sin] rows is
        slower than over a contiguous block (1.14 against 0.72 ms for one
        multiply over 1048 x 1000 on a 2-core Xeon), so the keys' cos and
        sin halves are two contiguous blocks; only the queries' features,
        written into [cos | sin] rows, are strided."""
        tan = np.tan
        contiguous = []

        def recorded(x, *args, **kwargs):
            contiguous.append(x.flags.c_contiguous)
            return tan(x, *args, **kwargs)

        rng = np.random.default_rng(16)
        Y = unit_rows(rng.standard_normal((3000, 4)))
        fmap = KernelFeatureMap.from_seed(4, 64, 0)
        values, _ = reference_kernel_z(Y[:10], Y, fmap, "rfa")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(znorm, "_FEATURE_BYTES", 8 * 2 * 64 * 1000)
            mp.setattr(np, "tan", recorded)
            z = kernel_z(Y[:10], Y, fmap, "rfa")
        assert contiguous[:-1] == [True] * 3  # three key sub-blocks, then the queries
        assert z.values.tobytes() == values.tobytes()

    def test_performer_error_shrinks_with_feature_count(self):
        """Oracle: exact_z; Monte-Carlo error must drop when the feature
        count is multiplied by 100."""
        rng = np.random.default_rng(8)
        X = unit_rows(rng.standard_normal((50, 8)))
        ze = exact_z(X, X)

        def median_err(D, seed):
            fmap = KernelFeatureMap.from_seed(8, D, seed)
            zk = kernel_z(X, X, fmap, "performer")
            return np.median(np.abs(zk.values - ze.values) / ze.values)

        small = median_err(1000, 21)
        large = median_err(100000, 21)
        assert large < small

    def test_baseline_feature_count_runs(self):
        rng = np.random.default_rng(9)
        X = unit_rows(rng.standard_normal((20, 6)))
        fmap = KernelFeatureMap.from_seed(6, 1000, 1)
        for variant in ("performer", "rfa"):
            z = kernel_z(X, X, fmap, variant)
            assert z.method == f"{variant}(1000)"
            assert np.all(z.values > 0)

    def test_rfa_clamps_nonpositive_sums_and_reports_rows(self):
        # Seed 0 with two features on these wide vectors drives the signed
        # trigonometric sums negative for some rows.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3)) * 3.0
        Y = rng.standard_normal((4, 3)) * 3.0
        z = kernel_z(X, Y, KernelFeatureMap.from_seed(3, 2, 0), "rfa")
        assert z.clamped is not None
        np.testing.assert_array_equal(z.clamped, [2, 4, 5])
        assert np.all(z.values > 0)

    @pytest.mark.parametrize(
        "variant, y, w, match",
        [
            ("performer", 37.0, 37.0, "not finite"),
            ("rfa", -37.0, np.pi / 74, "not finite"),
            ("performer", -37.0, np.pi / 74, "nonpositive"),
        ],
        ids=["performer-overflow", "rfa-overflow", "performer-underflow"],
    )
    def test_sums_outside_float64_raise_numeric_error(self, variant, y, w, match):
        """x = 37 passes the exponent guard, but the sums do not fit: the
        performer sum exp(684.5)^2 and rfa's -exp(684.5)^2 overflow, and
        the performer sum exp(-686.1) exp(-682.9) underflows to 0, which is
        not clamped as rfa's signed sums are.  No RuntimeWarning comes
        first."""
        fmap = KernelFeatureMap(W=np.array([[w]]))
        with pytest.raises(NumericError, match=match):
            kernel_z(np.array([[37.0]]), np.array([[y]]), fmap, variant)

    def test_map_reproducible_from_seed(self):
        a = KernelFeatureMap.from_seed(5, 64, 42)
        b = KernelFeatureMap.from_seed(5, 64, 42)
        np.testing.assert_array_equal(a.W, b.W)
        assert a.D == 64

    @settings(max_examples=40)
    @given(
        m=st.sampled_from([1, 255, 1025, 2049, 3000, 4097, 9000]),
        n=st.sampled_from([1, 3, 300]),
        d=st.integers(1, 6),
        D=st.integers(1, 40),
        scale=st.sampled_from([0.1, 1.0, 3.0]),
        seed=st.integers(0, 2**16),
        budget=st.sampled_from([None, 8 * 9000, 8 * 16384]),
    )
    @example(m=9000, n=300, d=3, D=1, scale=1.0, seed=1, budget=8 * 9000)
    @example(m=9000, n=300, d=3, D=2, scale=1.0, seed=2, budget=8 * 9000)
    @example(m=1025, n=300, d=2, D=9, scale=1.0, seed=2, budget=8 * 9000)
    @example(m=2049, n=3, d=4, D=1024, scale=1.0, seed=3, budget=None)
    @example(m=3000, n=3, d=4, D=1024, scale=1.0, seed=4, budget=None)
    @example(m=9000, n=3, d=4, D=1024, scale=1.0, seed=5, budget=None)
    def test_bitwise_equal_to_allocating_reference(self, m, n, d, D, scale, seed, budget):
        """Key counts cross the sub-block sizes, and m = 1025 (D = 9) or
        2049 (D = 1024), one row past a 1000- or 2048-row budget, is cut
        into equal parts, not a lone row projected on its own; queries
        outgrow the key buffer when m is small.  The patched budgets split the keys
        of every map of two or more columns (4500 rows at width 2) and
        keep a one-column map, which numpy sums pairwise, whole; at
        D = 1024 the real budget cuts performer keys into sub-blocks of
        at most 2048 rows and rfa keys into sub-blocks of at most 1024.
        The key mass alone has the bits of the definition's per-half sums."""
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((m, d)) * scale / np.sqrt(d)
        X = rng.standard_normal((n, d)) * scale / np.sqrt(d)
        fmap = KernelFeatureMap.from_seed(d, D, seed)
        expected = {v: reference_kernel_z(X, Y, fmap, v) for v in ("performer", "rfa")}
        expected_exact = reference_exact_z(X, Y).tobytes()
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(znorm, "_FEATURE_BYTES", budget)
            for variant, (values, clamped) in expected.items():
                mass = reference_kernel_z(None, Y, fmap, variant)
                assert znorm._key_mass(Y, fmap.W, variant == "rfa").tobytes() == mass.tobytes()
                z = kernel_z(X, Y, fmap, variant)
                assert z.values.tobytes() == values.tobytes()
                got = np.array([], dtype=np.intp) if z.clamped is None else z.clamped
                np.testing.assert_array_equal(got, clamped)
            assert exact_z(X, Y).values.tobytes() == expected_exact

    @settings(max_examples=40)
    @given(
        m=st.integers(1, 4000),
        n=st.sampled_from([1, 50]),
        d=st.integers(1, 100),
        D=st.integers(1, 1000),
        scale=st.sampled_from([0.1, 1.0, 3.0]),
        seed=st.integers(0, 2**16),
        budget=st.sampled_from([None, 128 << 10, 1 << 20]),
    )
    @example(m=3515, n=50, d=8, D=300, scale=1.0, seed=300100, budget=None)
    @example(m=1081, n=50, d=89, D=470, scale=1.0, seed=48123, budget=256 << 10)
    @example(m=1579, n=50, d=94, D=390, scale=3.0, seed=5775, budget=4 << 20)
    def test_wide_keys_stay_within_ulps_of_one_product(self, m, n, d, D, scale, seed, budget):
        """Past the bitwise test's d <= 6, BLAS can give a sub-block's rows
        other bits than the same rows inside one product over all keys: a
        projection p moves by a few ulps of the sum P of its terms'
        magnitudes, exp turns that into a relative change of as many ulps
        times P, and rfa's signed terms can cancel to a Z far below their
        magnitudes.  So each Z is held within 8 (1 + P) ulps of
        S, the sum of its terms' magnitudes (Z itself for performer), P
        the largest over the keys.  Measured: at most 2.0 (1 + P) ulps of S in 1000 uniform
        draws of this space at each of 1 and 2 threads, and 2.65 in the
        last example at 2 threads, where the examples miss the one
        product by 1, 6 and 116 ulps of Z.  Rfa is held to its cos/sin
        definition, not to ``kernel_z``'s half-angle features: at most
        1.95 (1 + P) ulps of S in 300 uniform draws at 1 thread and 1.78
        at 2."""
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((m, d)) * scale / np.sqrt(d)
        X = rng.standard_normal((n, d)) * scale / np.sqrt(d)
        fmap = KernelFeatureMap.from_seed(d, D, seed)
        P = 1 + (np.abs(Y) @ np.abs(fmap.W).T).max()
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(znorm, "_FEATURE_BYTES", budget)
            for variant in ("performer", "rfa"):
                values, _ = reference_kernel_z(X, Y, fmap, variant, trig=True)
                S, _ = reference_kernel_z(X, Y, fmap, variant, magnitude=True, trig=True)
                z = kernel_z(X, Y, fmap, variant).values
                assert np.all(np.abs(z - values) <= 8 * P * np.spacing(S))

    @pytest.mark.parametrize(
        "D, d, m, seed",
        [
            (257, 100, 4084, 258004),
            (300, 100, 3498, 3),
            (400, 32, 2623, 400322),
            (400, 32, 2624, 400323),
            (400, 100, 2624, 401003),
            (600, 100, 1748, 601001),
        ],
    )
    def test_short_last_sub_block_keeps_the_bits(self, D, d, m, seed):
        """Wide keys and 1 to 4 rows past the budget's 4080, 3495, 2621 or
        1747-row rfa sub-blocks: projected on their own, such rows can
        take other bits than inside the block's one product, and a query
        Z misses the one product; the fewest equal sub-blocks leave no
        such short sub-block."""
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((m, d)) / np.sqrt(d)
        X = rng.standard_normal((50, d)) / np.sqrt(d)
        fmap = KernelFeatureMap.from_seed(d, D, seed)
        values, _ = reference_kernel_z(X, Y, fmap, "rfa")
        assert kernel_z(X, Y, fmap, "rfa").values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("side", ["keys", "queries"])
    def test_performer_guard_raises_before_any_exp(self, side, threads, monkeypatch):
        """An exponent of 950 sits in the last row of the second key block
        (or of the queries); exp would overflow there, and RuntimeWarning
        is an error under pytest.  The same holds with one or two usable
        cores for the product pool, which kernel_z does not use."""
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(matstore, "_usable_cores", lambda: threads)
        fmap = KernelFeatureMap(W=np.array([[100.0]]))
        X = np.full((10, 1), 0.01)
        Y = np.full((6000, 1), 0.01)
        (Y if side == "keys" else X)[-1, 0] = 10.0  # 100 * 10 - 10**2 / 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="rescale"):
                kernel_z(X, Y, fmap, "performer")

    # tracemalloc peaks of kernel_z on this instance with one 4096-row
    # feature block at a time: 34.1 MB for performer and 67.7 MB for rfa;
    # with budgeted sub-blocks, 16 MiB plus 0.3 MB for either (numpy 2.4.6).
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("variant", ["performer", "rfa"])
    def test_peak_memory_is_one_feature_block(self, variant, threads, monkeypatch):
        """The projection is written into the budgeted feature buffer and
        the passes run in place, so the only other large array is the
        |v|^2 product of at most one sub-block's key rows; four times the
        keys take no more memory, with one or two usable cores for the
        product pool alike."""
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(matstore, "_usable_cores", lambda: threads)
        rng = np.random.default_rng(12)
        d = 16
        fmap = KernelFeatureMap.from_seed(d, 1024, 1)
        width = 2 * fmap.D if variant == "rfa" else fmap.D
        rows = znorm._FEATURE_BYTES // (8 * width)
        peaks = []
        for m in (8192, 32768):
            Y = unit_rows(rng.standard_normal((m, d)))
            X = Y[:1000].copy()
            kernel_z(X, Y, fmap, variant)  # warms up outside the trace
            tracemalloc.start()
            try:
                kernel_z(X, Y, fmap, variant)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= rows * width * 8 + rows * d * 8 + 256 * 1024
        assert peaks[1] <= peaks[0] + 4096

    @pytest.mark.parametrize("variant", ["performer", "rfa"])
    def test_key_buffer_is_freed_before_the_query_features(self, variant, monkeypatch):
        """5000 queries against 1000-row key sub-blocks: the query features
        are made after the key mass's buffer is gone, so beside them lies
        only the |x|^2 product of at most 4095 query rows and a few
        n-vectors (tracemalloc: 2.73 MB for performer and 5.39 MB for rfa,
        against 3.31 and 6.43 MB with the key buffer still live)."""
        rng = np.random.default_rng(15)
        d, D = 8, 64
        width = 2 * D if variant == "rfa" else D
        monkeypatch.setattr(znorm, "_FEATURE_BYTES", 8 * width * 1000)
        Y = unit_rows(rng.standard_normal((6000, d)))
        X = unit_rows(rng.standard_normal((5000, d)))
        fmap = KernelFeatureMap.from_seed(d, D, 2)
        kernel_z(X, Y, fmap, variant)  # warms up outside the trace
        tracemalloc.start()
        try:
            kernel_z(X, Y, fmap, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= X.shape[0] * width * 8 + (2 * _LLOYD_BLOCK - 1) * d * 8 + 128 * 1024

    @pytest.mark.parametrize("variant", ["performer", "rfa"])
    def test_narrow_map_makes_no_key_sized_square(self, variant):
        """A map narrower than the keys puts all 20,000 keys in one
        sub-block; their |v|^2 is summed per block of 2048 to 4095 rows, so
        no 16 MB copy of Y * Y is made (tracemalloc: 16.9 MiB for
        performer and 18.5 MiB for rfa before, 4.4 and 6.0 MiB after)."""
        rng = np.random.default_rng(14)
        d = 100
        Y = unit_rows(rng.standard_normal((20000, d)))
        fmap = KernelFeatureMap.from_seed(d, 10, 1)
        width = 2 * fmap.D if variant == "rfa" else fmap.D
        kernel_z(Y[:10], Y, fmap, variant)  # warms up outside the trace
        tracemalloc.start()
        try:
            kernel_z(Y[:10], Y, fmap, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= Y.shape[0] * width * 8 + (2 * _LLOYD_BLOCK - 1) * d * 8 + 256 * 1024

    def test_feature_passes_never_reach_the_product_pool(self, monkeypatch):
        """Two usable cores would split a pool-run pass into two ranges;
        both maps still run every pass in the calling thread."""
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(matstore, "_usable_cores", lambda: 2)

        def no_pool():
            raise AssertionError("kernel_z reached the product pool")

        monkeypatch.setattr(matstore, "_executor", no_pool)
        rng = np.random.default_rng(13)
        Y = unit_rows(rng.standard_normal((5000, 4)))
        fmap = KernelFeatureMap.from_seed(4, 64, 0)
        for variant in ("rfa", "performer"):
            assert kernel_z(Y[:10], Y, fmap, variant).n == 10

    def test_unknown_variant_rejected(self):
        fmap = KernelFeatureMap.from_seed(3, 8, 0)
        with pytest.raises(ValidationError):
            kernel_z(np.zeros((2, 3)), np.zeros((2, 3)), fmap, "nystrom")


class TestCarriedColumnSum:
    """The numpy property behind ``kernel_z``'s sub-blocks: a C-contiguous
    array of two or more columns is summed along axis 0 one row after
    another, so the sum of each sub-block, carried onto the first row of
    the next, ends as the sum over all rows bit for bit.  A numpy whose
    axis-0 reduction sums in another order fails here first."""

    @pytest.mark.parametrize("width", range(2, 65))
    def test_numpy_sums_axis_0_row_after_row(self, width):
        rng = np.random.default_rng(width)
        block = np.exp(3.0 * rng.standard_normal((4096, width)))
        expected = block.sum(axis=0).tobytes()
        for rows in (1, 3, 1000, 1365, 2048):
            buf = np.empty((rows, width))
            carry = None
            for lo in range(0, 4096, rows):
                sub = buf[: min(rows, 4096 - lo)]
                sub[:] = block[lo : lo + rows]
                if carry is not None:
                    sub[0] += carry
                carry = sub.sum(axis=0)
            assert carry.tobytes() == expected, f"{rows}-row sub-blocks"

    def test_one_column_blocks_are_never_split(self, monkeypatch):
        """numpy sums one column pairwise, where the carry is not exact, so
        a map of one column per block (performer, or rfa's cos and sin
        halves, at D = 1) is cut only past _FEATURE_BYTES // 8 keys."""
        monkeypatch.setattr(znorm, "_FEATURE_BYTES", 8 * 4096)
        projected = []

        def counted(features):
            def run(V, W, *blocks):
                projected.append(V.shape[0])
                features(V, W, *blocks)

            return run

        for variant in ("performer", "rfa"):
            name = f"_{variant}_features"
            monkeypatch.setattr(znorm, name, counted(getattr(znorm, name)))
        fmap = KernelFeatureMap.from_seed(2, 1, 0)
        Y = np.full((4097, 2), 0.1)
        for variant in ("performer", "rfa"):
            for m, cuts in ((4096, [4096]), (4097, [2048, 2049])):
                projected.clear()
                kernel_z(Y[:1], Y[:m], fmap, variant)
                assert projected == [*cuts, 1], variant


class TestCarriedCompensatedSum:
    """The property behind ``exact_z``'s key chunks: a compensated row sum
    continued over runs of whole 1024-column chunks ends with the bits of
    one call over all the columns."""

    @pytest.mark.parametrize("cols", [1024, 2048, 3000, 6145])
    def test_carry_over_column_runs_is_one_sum(self, cols):
        rng = np.random.default_rng(cols)
        block = np.exp(8.0 * rng.standard_normal((5, cols)))
        expected = _compensated_rowsum(block, (np.zeros(5), np.zeros(5))).tobytes()
        for run in (1024, 2048):
            carry = (np.zeros(5), np.zeros(5))
            for a in range(0, cols, run):
                _compensated_rowsum(block[:, a : a + run], carry)
            assert carry[0].tobytes() == expected, f"{run}-column runs"


class TestInputChecks:
    @pytest.mark.parametrize(
        "values, error, match",
        [
            (np.ones((2, 2)), ValidationError, "vector"),
            (np.array([1.0, 0.0]), NumericError, "nonpositive or non-finite"),
            (np.array([1.0, np.inf]), NumericError, "nonpositive or non-finite"),
            (["1", "2"], ValidationError, "Z values must hold real numbers, got dtype <U1"),
            ([True, True], ValidationError, "Z values must hold real numbers, got dtype bool"),
            (np.array([1.0 + 1j, 2.0]), ValidationError,
             "Z values must hold real numbers, got dtype complex128"),
        ],
        ids=["not-vector", "nonpositive", "non-finite", "strings", "bools", "complex"],
    )
    def test_z_estimate_values_checked(self, values, error, match):
        with pytest.raises(error, match=match):
            ZEstimate(values, "exact")

    def test_kernel_z_requires_keys(self):
        fmap = KernelFeatureMap.from_seed(3, 8, 0)
        with pytest.raises(ValidationError, match="Y must hold real numbers, got dtype object"):
            kernel_z(np.zeros((2, 3)), None, fmap, "performer")

    @pytest.mark.parametrize("method", ["exact", "performer", "rfa"])
    def test_keys_without_rows_rejected(self, method):
        """Not a floor Z with every row clamped, nor a NumericError."""
        X, Y = np.ones((2, 3)), np.empty((0, 3))
        with pytest.raises(ValidationError, match="Y has no rows"):
            if method == "exact":
                exact_z(X, Y)
            else:
                kernel_z(X, Y, KernelFeatureMap.from_seed(3, 8, 0), method)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: KernelFeatureMap(W=np.ones(3)), "2-dimensional"),
            (lambda: KernelFeatureMap(W=np.array([[1.0, np.nan]])), "non-finite"),
            (lambda: KernelFeatureMap(W=np.empty((0, 3))), "rows and columns"),
            (lambda: KernelFeatureMap(W=np.empty((3, 0))), "rows and columns"),
            (lambda: KernelFeatureMap.from_seed(0, 8, 0),
             "dimension d must be a whole number of at least 1, got 0"),
            (lambda: KernelFeatureMap.from_seed(3, 0, 0),
             "feature count D must be a whole number of at least 1, got 0"),
        ],
        ids=["1-d", "nan", "no-rows", "no-columns", "seed-no-dims", "seed-no-features"],
    )
    def test_feature_map_checked_when_built(self, build, match):
        with pytest.raises(ValidationError, match=match):
            build()

    def test_kernel_z_checks_the_map_dimension(self):
        fmap = KernelFeatureMap.from_seed(3, 8, 0)
        with pytest.raises(DimensionError, match="d=3"):
            kernel_z(np.zeros((2, 4)), np.zeros((2, 4)), fmap, "performer")

    def test_error_cdf_row_counts_must_match(self):
        ref = ZEstimate(np.ones(3), "exact")
        with pytest.raises(DimensionError, match="row counts differ"):
            error_cdf(ref, ZEstimate(np.ones(2), "mixture(1)"))

    def test_concentration_probe_needs_two_repeats(self):
        match = "repeats must be a whole number of at least 2, got 1"
        with pytest.raises(ValidationError, match=match):
            concentration_probe(lambda m, rng: np.zeros((m, 2)), np.ones(2), [4], 1)

    def test_concentration_probe_query_must_be_real(self):
        """A float64 cast would drop the imaginary part with only a
        ComplexWarning."""
        with pytest.raises(ValidationError, match="x must hold real numbers"):
            concentration_probe(lambda m, rng: np.zeros((m, 2)), np.array([0.1 + 1j, 0.2]), [4], 2)


class TestErrorCdf:
    def test_identical_estimates_give_zero_errors(self):
        ref = exact_z(np.zeros((5, 2)), np.ones((3, 2)))
        table = error_cdf(ref, ref)
        np.testing.assert_array_equal(table[:, 0], np.zeros(5))
        np.testing.assert_allclose(table[:, 1], np.arange(1, 6) / 5)

    def test_single_row_half_error(self):
        ref = ZEstimate(np.array([2.0]), "exact")
        cand = ZEstimate(np.array([3.0]), "mixture(1)")
        table = error_cdf(ref, cand)
        np.testing.assert_allclose(table, [[0.5, 1.0]])

    def test_matches_naive_sort_oracle_and_is_monotone(self):
        """Oracle: sorted(|raw errors|) compared entry by entry."""
        rng = np.random.default_rng(10)
        exact_vals = rng.uniform(1.0, 5.0, 1000)
        est_vals = exact_vals * (1.0 + 0.1 * rng.standard_normal(1000))
        ref = ZEstimate(exact_vals, "exact")
        cand = ZEstimate(np.abs(est_vals) + 1e-12, "mixture(2)")
        table = error_cdf(ref, cand)
        oracle = sorted(abs(c - e) / e for c, e in zip(cand.values, ref.values))
        np.testing.assert_allclose(table[:, 0], oracle, rtol=1e-15)
        assert np.all(np.diff(table[:, 0]) >= 0)
        assert np.all(np.diff(table[:, 1]) > 0)

    def test_reference_must_be_exact(self):
        est = ZEstimate(np.ones(3), "mixture(1)")
        with pytest.raises(ValidationError):
            error_cdf(est, est)


class TestConcentrationProbe:
    def test_constant_keys_have_zero_spread(self):
        v = np.array([0.2, 0.1])

        def sampler(m, rng):
            return np.tile(v, (m, 1))

        table = concentration_probe(sampler, np.array([1.0, 0.0]), [10, 40], 20)
        # identical draws; only mean-rounding residue may survive
        np.testing.assert_allclose(table[:, 2], 0.0, atol=1e-14)

    def test_spread_halves_when_keys_quadruple(self):
        """Quadrupling the key count should halve the spread of Z/m
        (inverse square-root decay), within sampling slack 1.5."""
        d = 20
        rng = np.random.default_rng(11)
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)

        def sampler(m, gen):
            Y = gen.standard_normal((m, d))
            return Y / np.linalg.norm(Y, axis=1)[:, None]

        table = concentration_probe(sampler, x, [500, 2000], repeats=200, seed=12)
        ratio = table[0, 2] / table[1, 2]
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5

    @pytest.mark.parametrize("m_grid", [[10, 0], [-5], []])
    def test_key_counts_must_be_positive(self, m_grid):
        def sampler(m, rng):
            return rng.standard_normal((m, 2))

        match = "grid of key counts is empty"
        if m_grid:
            match = f"key count m must be a whole number of at least 1, got {m_grid[-1]}$"
        with pytest.raises(ValidationError, match=match):
            concentration_probe(sampler, np.array([1.0, 0.0]), m_grid, 5)

    def test_tail_bound_anchor_is_vacuous_at_matched_scale(self):
        # At deviation threshold 4*e*h/sqrt(m) the tail bound evaluates to
        # 4/e, which exceeds 1 and therefore always holds.
        h, m = 1.0, 100
        t = 4 * math.e * h / math.sqrt(m)
        bound = 4 * math.exp(-((math.sqrt(m) * t / (4 * math.e * h)) ** 2))
        assert bound == pytest.approx(4 / math.e)
        assert bound > 1.0


def misaligned_unit_rows(n, d, seed):
    """Random unit rows in a writable view that starts 4 bytes into its
    buffer, as a view of a file's bytes after a 20-byte header does."""
    view = np.frombuffer(bytearray(8 * n * d + 4), "<f8", offset=4).reshape(n, d)
    view[:] = unit_rows(np.random.default_rng(seed).standard_normal((n, d)))
    return view


class TestMisalignedOperands:
    @settings(max_examples=25)
    @given(
        n=st.sampled_from([3, 40, 300]),
        d=st.integers(1, 6),
        queries=st.integers(1, 3),
        kappa=st.integers(1, 3),
        D=st.sampled_from([1, 2, 64]),
        seed=st.integers(0, 2**16),
    )
    def test_results_bitwise_equal_to_aligned_copy(self, n, d, queries, kappa, D, seed):
        """Every estimator and k-means give the same bits on a misaligned
        view as on its aligned copy; with one or two features some RFA
        rows are clamped."""
        view = misaligned_unit_rows(n, d, seed)
        aligned = view.copy()
        assert not view.flags.aligned and aligned.flags.aligned
        assert as_dense(view).flags.aligned
        fmap = KernelFeatureMap.from_seed(d, D, seed)
        kappa = min(kappa, n)

        def run(Y):
            X = Y[: max(1, n // queries)]
            labels = kmeans_label(Y, kappa, seed=seed)
            out = {
                "labels": labels.labels,
                "exact": exact_z(X, Y).values,
                "self": exact_z(Y).values,
                "mixture": approx_z(X, estimate_mixture(Y, labels)).values,
            }
            for variant in ("performer", "rfa"):
                z = kernel_z(X, Y, fmap, variant)
                out[variant] = z.values
                out[f"{variant} clamped"] = np.array([] if z.clamped is None else z.clamped)
            return out

        got, want = run(view), run(aligned)
        for key, value in want.items():
            assert got[key].dtype == value.dtype and got[key].tobytes() == value.tobytes(), key
