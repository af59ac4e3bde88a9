import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lensless_crb import (
    DimensionError,
    SingularRateError,
    adjoint,
    build_system_matrix,
    forward,
    pad_psf,
    vectorize,
)
from lensless_crb import forward_model
from lensless_crb.fisher import fisher_poisson
from lensless_crb.forward_model import blas_thread_cap, one_blas_thread, weighted_gram
from conftest import (conv_matrix_bruteforce, fft_convolve_full,
                      one_working_array_bound, traced_peak_bytes)


class TestVectorize:
    def test_row_major(self):
        v = vectorize([[1, 2], [3, 4]])
        np.testing.assert_array_equal(v.values, [1, 2, 3, 4])

    def test_single_pixel(self):
        v = vectorize([[5]])
        np.testing.assert_array_equal(v.values, [5])

    def test_full_scale_length(self):
        v = vectorize(np.ones((32, 32)))
        assert v.values.shape == (1024,)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vectorize([[1, -1]])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make", [lambda g: build_system_matrix(g, (2, 2)),
                                  lambda g: pad_psf(g, (3, 3)), vectorize],
                         ids=["build_system_matrix", "pad_psf", "vectorize"])
def test_non_finite_grid_rejected(make, value):
    # NaN fails every comparison, so a sign check alone lets it through
    with pytest.raises(ValueError, match="finite"):
        make([[value, 1.0]])


class TestBuildSystemMatrix:
    def test_delta_psf_gives_identity(self):
        H = build_system_matrix(np.ones((1, 1)), (3, 3), (1, 1))
        np.testing.assert_array_equal(H.matrix, np.eye(9))

    def test_full_scale_dimensions(self):
        H = build_system_matrix(np.ones((32, 32)) / 1024, (32, 32), (34, 34))
        assert H.matrix.shape == (4225, 1024)
        assert H.out_shape == (65, 65)

    def test_matches_bruteforce_convolution_matrix(self):
        psf = np.ones((2, 2))
        H = build_system_matrix(psf, (2, 2), (2, 2))
        assert H.matrix.shape == (9, 4)
        np.testing.assert_array_equal(H.matrix, conv_matrix_bruteforce(psf, (2, 2)))

    def test_bruteforce_with_padding(self):
        rng = np.random.default_rng(3)
        psf = rng.uniform(0, 1, size=(3, 2))
        H = build_system_matrix(psf, (4, 5), (5, 4))
        np.testing.assert_array_equal(
            H.matrix, conv_matrix_bruteforce(pad_psf(psf, (5, 4)), (4, 5)))

    def test_pad_smaller_than_psf_rejected(self):
        with pytest.raises(DimensionError):
            build_system_matrix(np.ones((3, 3)), (4, 4), (2, 4))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3)])
    def test_psf_without_positive_entry_rejected(self, shape):
        # an all-zero PSF gives J = 0, whose only "bound" is 1/eps
        with pytest.raises(ValueError):
            build_system_matrix(np.zeros(shape), (4, 4))

    def test_column_sums_equal_psf_mass(self):
        rng = np.random.default_rng(1)
        psf = rng.uniform(0, 1, size=(4, 4))
        H = build_system_matrix(psf, (6, 6), (6, 6))
        sums = H.matrix.sum(axis=0)
        np.testing.assert_allclose(sums, psf.sum(), rtol=0, atol=1e-12)

    def test_delta_object_reproduces_padded_psf(self):
        rng = np.random.default_rng(2)
        psf = rng.uniform(0, 1, size=(3, 3))
        H = build_system_matrix(psf, (5, 5), (5, 5))
        delta = np.zeros((5, 5))
        delta[2, 2] = 1.0
        plane = forward(H, vectorize(delta)).reshape(H.out_shape)
        expected = np.zeros(H.out_shape)
        expected[2:7, 2:7] = pad_psf(psf, (5, 5))
        np.testing.assert_array_equal(plane, expected)


class TestForward:
    def test_identity(self, identity_h):
        y = forward(identity_h, np.array([1.0, 2, 3, 4, 5, 6, 7, 8, 9]))
        np.testing.assert_array_equal(y, [1, 2, 3, 4, 5, 6, 7, 8, 9])

    def test_matches_direct_convolution(self):
        H = build_system_matrix(np.ones((2, 2)), (2, 2), (2, 2))
        y = forward(H, vectorize(np.ones((2, 2))))
        expected = fft_convolve_full(np.ones((2, 2)), np.ones((2, 2)))
        np.testing.assert_allclose(y.reshape(3, 3), expected, rtol=1e-12)

    def test_mass_conservation(self):
        rng = np.random.default_rng(4)
        psf = rng.uniform(0, 1, size=(4, 4))
        obj = rng.uniform(0, 5, size=(6, 6))
        H = build_system_matrix(psf, obj.shape, (6, 6))
        y = forward(H, vectorize(obj))
        assert y.sum() == pytest.approx(psf.sum() * obj.sum(), rel=1e-9)

    def test_dimension_mismatch(self, identity_h):
        with pytest.raises(DimensionError):
            forward(identity_h, np.ones(4))

    @pytest.mark.parametrize("size", [4, 9, 16])
    def test_fft_equivalence(self, size):
        rng = np.random.default_rng(size)
        psf = rng.uniform(0, 1, size=(size, size))
        obj = rng.uniform(0, 1, size=(size, size))
        H = build_system_matrix(psf, obj.shape, psf.shape)
        y = forward(H, vectorize(obj)).reshape(H.out_shape)
        np.testing.assert_allclose(y, fft_convolve_full(psf, obj), rtol=1e-9,
                                   atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        psf = rng.uniform(0, 1, size=(3, 3))
        H = build_system_matrix(psf, (4, 4), (4, 4))
        v1 = rng.uniform(0, 1, size=16)
        v2 = rng.uniform(0, 1, size=16)
        a, b = 2.5, 0.75
        lhs = forward(H, a * v1 + b * v2)
        rhs = a * forward(H, v1) + b * forward(H, v2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(6)
        psf = rng.uniform(0, 1, size=(3, 3))
        H = build_system_matrix(psf, (4, 4), (4, 4))
        v = rng.uniform(0, 1, size=H.d)
        y = rng.uniform(0, 1, size=H.k)
        lhs = forward(H, v) @ y
        rhs = v @ (H.matrix.T @ y)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestAdjoint:
    @pytest.mark.parametrize("psf_shape, obj_shape, pad", [
        ((3, 2), (4, 5), None),      # unpadded
        ((3, 2), (4, 5), (5, 6)),    # padded
        ((1, 1), (3, 3), (3, 1)),    # padded delta
    ])
    def test_operator_pair_matches_bruteforce(self, psf_shape, obj_shape, pad):
        rng = np.random.default_rng(sum(obj_shape))
        psf = rng.uniform(0.1, 1, size=psf_shape)
        H = build_system_matrix(psf, obj_shape, pad)
        M = conv_matrix_bruteforce(pad_psf(psf, H.psf.shape), obj_shape)
        v, V = rng.uniform(0, 1, size=H.d), rng.uniform(0, 1, size=(H.d, 3))
        r, R = rng.normal(size=H.k), rng.normal(size=(H.k, 3))
        for got, expected in [(forward(H, v), M @ v), (forward(H, V), M @ V),
                              (adjoint(H, r), M.T @ r), (adjoint(H, R), M.T @ R)]:
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.ones(4), np.ones((4, 2)), 1.0, np.ones((9, 2, 1))])
    def test_dimension_mismatch(self, identity_h, bad):
        with pytest.raises(DimensionError):
            adjoint(identity_h, bad)
        with pytest.raises(DimensionError):
            forward(identity_h, bad)

    @settings(max_examples=40, deadline=None)
    @given(ph=st.integers(1, 5), pw=st.integers(1, 5), oh=st.integers(1, 5),
           ow=st.integers(1, 5), n=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_inner_products_agree_property(self, ph, pw, oh, ow, n, seed):
        # <H v, r> = <v, H^T r> column by column
        rng = np.random.default_rng(seed)
        H = build_system_matrix(rng.uniform(0.1, 1, size=(ph, pw)), (oh, ow))
        V, R = rng.normal(size=(H.d, n)), rng.normal(size=(H.k, n))
        lhs = np.sum(forward(H, V) * R, axis=0)
        rhs = np.sum(V * adjoint(H, R), axis=0)
        scale = np.sum(np.abs(forward(H, np.abs(V))) * np.abs(R), axis=0)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_one_object_forward_reuses_the_operator_plan(monkeypatch):
    # the canvas and the Toeplitz stack are built with H, once: applying H
    # to one object pads and windows nothing
    psf = np.random.default_rng(22).uniform(0.1, 1, size=(4, 5))
    H = build_system_matrix(psf, (5, 6), (6, 7))
    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(forward_model, "sliding_window_view",
                        counted("sliding_window_view", forward_model.sliding_window_view))
    monkeypatch.setattr(np, "pad", counted("pad", np.pad))
    v = np.random.default_rng(23).uniform(0, 3, size=H.d)
    for _ in range(100):
        forward(H, v)
    assert calls == []
    # the counters see the build
    build_system_matrix(psf, (5, 6), (6, 7))
    assert sorted(calls) == ["pad", "sliding_window_view"]


def assert_gram_matches_dense(psf, obj_shape, psf_pad=None):
    H = build_system_matrix(psf, obj_shape, psf_pad)
    J = weighted_gram(H)
    assert "matrix" not in vars(H)          # the scalar-weight Gram needs no dense H
    np.testing.assert_array_equal(J, J.T)
    # LAPACK factors the Gram in place whatever the object shape
    assert J.flags.f_contiguous and J.flags.writeable
    M = conv_matrix_bruteforce(pad_psf(psf, H.psf.shape), obj_shape)
    np.testing.assert_array_equal(H.matrix, M)
    # the cached matrix is column-major and writable whatever the object shape
    assert H.matrix.flags.f_contiguous and H.matrix.flags.writeable
    dense = M.T @ M
    assert np.max(np.abs(J - dense)) <= 1e-12 * np.max(np.abs(dense))


class TestWeightedGram:
    @pytest.mark.parametrize("psf_shape, obj_shape, pad", [
        ((9, 7), (3, 4), None),      # PSF larger than the object
        ((2, 5), (6, 3), None),      # non-square PSF and object
        ((1, 1), (8, 8), None),      # delta PSF: lags span the object, not the PSF
        ((4, 3), (5, 5), (4, 3)),    # psf_pad equal to the PSF size
        ((4, 3), (5, 6), (6, 5)),    # psf_pad of size + 2
        ((2, 3), (1, 4), None),      # single-row object
        ((2, 3), (4, 1), (4, 3)),    # single-column object
    ])
    def test_scalar_weight_matches_dense_gram(self, psf_shape, obj_shape, pad):
        psf = np.random.default_rng(sum(psf_shape)).uniform(0, 1, size=psf_shape)
        assert_gram_matches_dense(psf, obj_shape, pad)

    @settings(max_examples=60, deadline=None)
    @given(ph=st.integers(1, 6), pw=st.integers(1, 6), oh=st.integers(1, 6),
           ow=st.integers(1, 6), extra_h=st.integers(0, 2), extra_w=st.integers(0, 2),
           seed=st.integers(0, 2**16))
    def test_scalar_weight_matches_dense_gram_property(self, ph, pw, oh, ow,
                                                       extra_h, extra_w, seed):
        psf = np.random.default_rng(seed).uniform(0, 1, size=(ph, pw))
        assert_gram_matches_dense(psf, (oh, ow), (ph + extra_h, pw + extra_w))

    def test_scalar_weight_scales_gram(self, small_lenslet_h):
        np.testing.assert_array_equal(weighted_gram(small_lenslet_h, 0.25),
                                      0.25 * weighted_gram(small_lenslet_h))

    def test_weight_vector_matches_dense_product(self, small_lenslet_h):
        H = small_lenslet_h
        w = np.random.default_rng(7).uniform(0, 2, size=H.k)
        w[::5] = 0.0
        expected = H.matrix.T @ (w[:, None] * H.matrix)
        np.testing.assert_allclose(weighted_gram(H, w), expected, rtol=1e-12,
                                   atol=1e-14 * np.max(expected))

    def test_weight_vector_gram_exactly_symmetric(self, small_lenslet_h):
        w = np.random.default_rng(8).uniform(0.1, 2, size=small_lenslet_h.k)
        J = weighted_gram(small_lenslet_h, w)
        assert np.array_equal(J, J.T)

    @pytest.mark.parametrize("bad", [-1e-9, np.nan, np.inf])
    def test_bad_weight_vector_rejected(self, small_lenslet_h, bad):
        w = np.ones(small_lenslet_h.k)
        w[3] = bad
        with pytest.raises(ValueError):
            weighted_gram(small_lenslet_h, w)

    @pytest.mark.parametrize("shape", [(1,), (288,), (290,), (289, 1)])
    def test_weight_shape_other_than_k_rejected(self, small_lenslet_h, shape):
        # a length-1 vector would broadcast to w[0] * H^T H
        with pytest.raises(DimensionError):
            weighted_gram(small_lenslet_h, np.ones(shape))


# the layouts an object or weight vector reaches the BLAS kernels in
LAYOUTS = {
    "contiguous": lambda x: np.ascontiguousarray(x),
    "strided": lambda x: np.repeat(x, 3)[::3],
    "column_of_c_ordered": lambda x: np.stack([x, 2 * x], axis=1)[:, 0],
    "integer": lambda x: np.rint(4 * x).astype(np.int64),
}

# the layouts a batch of objects or measurements reaches dgemm in
BATCH_LAYOUTS = {
    "c_ordered": lambda X: np.ascontiguousarray(X),
    "fortran_ordered": lambda X: np.asfortranarray(X),
    "strided": lambda X: np.repeat(np.repeat(X, 2, axis=0), 3, axis=1)[::2, ::3],
    "integer": lambda X: np.rint(4 * X).astype(np.int64),
}


def assert_matches_product(got, expected):
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestBlasKernels:
    """forward, adjoint and the weight-vector Gram against plain NumPy
    products, for every input layout, unpadded and padded."""

    @pytest.fixture(scope="class", params=[None, (6, 7)], ids=["unpadded", "padded"])
    def H(self, request):
        psf = np.random.default_rng(11).uniform(0.1, 1, size=(4, 5))
        return build_system_matrix(psf, (5, 6), request.param)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_forward_one_object_matches_matrix_product(self, H, layout):
        v = np.random.default_rng(12).uniform(0, 3, size=H.d)
        v[v < 1.5] = 0.0
        v = LAYOUTS[layout](v)
        expected = H.matrix @ v.astype(float)
        got = forward(H, v)
        assert_matches_product(got, expected)
        np.testing.assert_array_equal(got == 0, expected == 0)

    @pytest.mark.parametrize("layout", BATCH_LAYOUTS)
    def test_forward_batch_matches_matrix_product(self, H, layout):
        V = BATCH_LAYOUTS[layout](np.random.default_rng(16).uniform(0, 3, size=(H.d, 4)))
        assert_matches_product(forward(H, V), H.matrix @ V.astype(float))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_adjoint_one_vector_matches_matrix_product(self, H, layout):
        r = LAYOUTS[layout](np.random.default_rng(17).uniform(0, 3, size=H.k))
        assert_matches_product(adjoint(H, r), H.matrix.T @ r.astype(float))

    @pytest.mark.parametrize("layout", BATCH_LAYOUTS)
    def test_adjoint_batch_matches_matrix_product(self, H, layout):
        R = BATCH_LAYOUTS[layout](np.random.default_rng(18).uniform(0, 3, size=(H.k, 4)))
        assert_matches_product(adjoint(H, R), H.matrix.T @ R.astype(float))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_weight_vector_gram_matches_scaled_product(self, H, layout):
        w = LAYOUTS[layout](np.random.default_rng(13).uniform(0, 2, size=H.k))
        S = np.sqrt(w.astype(float))[:, None] * H.matrix
        expected = S.T @ S
        J = weighted_gram(H, w)
        assert np.array_equal(J, J.T)
        assert np.max(np.abs(J - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_weight_vector_gram_sums_ragged_row_blocks(monkeypatch):
    # 16 rows from the first nonzero PSF row to the last make bands of 2
    # measurement rows, and a 1-byte block cap bands of 1; either way the 21
    # reached measurement rows are fed once each, in order, the last band of
    # 2 is ragged, the first two and the last two measurement rows (which
    # only zero PSF rows reach) are skipped, and each block keeps exactly
    # the object rows its band reaches
    psf = np.random.default_rng(20).uniform(0.1, 1, size=(17, 3))
    psf[[0, 7]] = 0.0                   # a zero top row and an interior one
    H = build_system_matrix(psf, (6, 4), (20, 3))    # zero rows 0, 1, 8, 18, 19
    M = conv_matrix_bruteforce(H.psf, H.obj_shape)
    OW, ow = H.out_shape[1], H.obj_shape[1]
    assert not M[:2 * OW].any() and not M[23 * OW:].any()
    w = np.random.default_rng(19).uniform(0, 2, size=H.k)
    w[::4] = 0.0
    S = np.sqrt(w)[:, None] * M
    expected = S.T @ S
    gram = forward_model.gram
    for block_bytes, band in [(forward_model.GRAM_BLOCK_BYTES, 2), (1, 1)]:
        monkeypatch.setattr(forward_model, "GRAM_BLOCK_BYTES", block_bytes)
        blocks = []
        monkeypatch.setattr(forward_model, "gram", lambda bands, d: gram(
            (blocks.append((c0, S.flags.f_contiguous, S.copy())) or (c0, S)
             for c0, S in bands), d))
        J = weighted_gram(H, w)
        assert "matrix" not in vars(H)
        assert [len(B) for _, _, B in blocks] == [band * OW] * (21 // band) + [OW] * (21 % band)
        start = 2 * OW
        for c0, f_contiguous, B in blocks:
            rows = slice(start, start + len(B))
            cols = slice(c0, c0 + B.shape[1])
            assert f_contiguous
            np.testing.assert_array_equal(B, S[rows, cols])
            # the block's object rows are those that a padded PSF row from the
            # first nonzero one (2) to the last (17) puts into its measurement rows
            i0, i1 = rows.start // OW, rows.stop // OW
            assert (cols.start, cols.stop) == (max(0, i0 - 17) * ow, min(6, i1 - 2) * ow)
            outside = np.ones(H.d, bool)
            outside[cols] = False
            assert not M[rows][:, outside].any()
            start += len(B)
        assert np.max(np.abs(J - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert np.array_equal(J, J.T) and J.flags.f_contiguous


def test_weight_vector_gram_allocates_one_block_and_one_gram():
    # neither H nor S = diag(sqrt w) H is ever formed: beyond the Gram, one
    # band of S and one strip-sized product are alive at a time, and the
    # lower triangle is mirrored in place, never through a d x d temporary
    psf = np.random.default_rng(14).uniform(0, 1, size=(32, 32))
    H = build_system_matrix(psf, (32, 32), (34, 34))
    w = np.random.default_rng(15).uniform(0.1, 2, size=H.k)
    J, peak = traced_peak_bytes(lambda: weighted_gram(H, w))
    assert "matrix" not in vars(H)
    assert J.shape == (H.d, H.d)
    # bands of 4 measurement rows (an eighth of the 32 nonzero PSF rows)
    # over at most all d columns, strips of STRIP columns, 256 KiB of small
    # temporaries (the weights, the padded PSF)
    band = 8 * 4 * H.out_shape[1] * H.d
    strip = 8 * H.d * forward_model.STRIP
    assert peak <= 8 * H.d * H.d + band + strip + (1 << 18)


def _psf_with_zero_rows(rng, ph, pw, zero_rows):
    """A random PSF with the given rows zero, and one positive entry kept."""
    psf = rng.uniform(0, 1, size=(ph, pw))
    psf[[r for r in zero_rows if r < ph]] = 0.0
    if not psf.any():
        psf[ph // 2, pw // 2] = 1.0
    return psf


psf_cases = dict(ph=st.integers(1, 18), pw=st.integers(1, 5), oh=st.integers(1, 6),
                 ow=st.integers(1, 6), extra_h=st.integers(0, 2), extra_w=st.integers(0, 2),
                 zero_rows=st.sets(st.integers(0, 17), max_size=6), seed=st.integers(0, 2**16))


def psf_case_examples(test):
    """Cases every run checks: a single-row object under a tall PSF with
    zero top, interior and (padded) bottom rows, whose 17 rows from the
    first nonzero to the last make bands of 2, a single-column object, and
    a one-pixel PSF."""
    for case in [dict(ph=18, pw=3, oh=1, ow=5, extra_h=2, extra_w=0, zero_rows={0, 9},
                      seed=1),
                 dict(ph=4, pw=5, oh=6, ow=1, extra_h=1, extra_w=2, zero_rows={3}, seed=2),
                 dict(ph=1, pw=1, oh=3, ow=4, extra_h=0, extra_w=0, zero_rows=set(), seed=3)]:
        test = example(**case)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(**psf_cases)
@psf_case_examples
def test_weight_vector_gram_matches_dense_product_property(ph, pw, oh, ow, extra_h,
                                                           extra_w, zero_rows, seed):
    # PSFs with zero top, bottom and interior rows, PSFs taller than the
    # object (up to 18 nonzero rows: bands of 2), single-row and
    # single-column objects, and zero weights
    rng = np.random.default_rng(seed)
    psf = _psf_with_zero_rows(rng, ph, pw, zero_rows)
    H = build_system_matrix(psf, (oh, ow), (ph + extra_h, pw + extra_w))
    w = rng.uniform(0, 2, size=H.k) * (rng.uniform(size=H.k) < 0.7)
    J = weighted_gram(H, w)
    v = rng.uniform(0, 3, size=H.d)
    F = fisher_poisson(H, v, 0.5)
    assert "matrix" not in vars(H)
    assert np.array_equal(J, J.T) and np.array_equal(F, F.T)
    assert J.flags.f_contiguous and F.flags.f_contiguous
    M = conv_matrix_bruteforce(H.psf, (oh, ow))
    for got, weights in [(J, w), (F, 1.0 / (M @ v + 0.5))]:
        S = np.sqrt(weights)[:, None] * M
        expected = S.T @ S
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@settings(max_examples=80, deadline=None)
@given(**psf_cases)
@psf_case_examples
def test_forward_one_object_matches_dense_product_property(ph, pw, oh, ow, extra_h,
                                                           extra_w, zero_rows, seed):
    # same values and the same exact zeros as the dense product, without it
    rng = np.random.default_rng(seed)
    psf = _psf_with_zero_rows(rng, ph, pw, zero_rows)
    H = build_system_matrix(psf, (oh, ow), (ph + extra_h, pw + extra_w))
    v = rng.uniform(0, 3, size=H.d) * (rng.uniform(size=H.d) < 0.5)
    got = forward(H, v)
    assert "matrix" not in vars(H)
    expected = conv_matrix_bruteforce(H.psf, (oh, ow)) @ v
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-13 * max(np.max(expected), 1e-300)
    np.testing.assert_array_equal(got == 0, expected == 0)


@pytest.mark.parametrize("obj_shape, pad", [((5, 6), None), ((5, 6), (7, 8)), ((1, 6), (5, 7)),
                                            ((6, 1), (7, 4))])
def test_zero_rate_error_names_the_dense_products_pixel(obj_shape, pad):
    # at beta = 0 the first zero rate is the one the dense H v has
    rng = np.random.default_rng(21)
    psf = _psf_with_zero_rows(rng, 5, 4, {0, 2})
    H = build_system_matrix(psf, obj_shape, pad)
    v = np.zeros(H.d)
    v[rng.integers(H.d)] = 2.0
    with pytest.raises(SingularRateError) as exc:
        fisher_poisson(H, v, 0.0)
    dense = conv_matrix_bruteforce(H.psf, obj_shape) @ v
    assert exc.value.pixel == int(np.argmax(dense <= 0))


def test_scalar_weight_gram_allocates_one_gram(full_scale_lenslet_h):
    # the weight scales the lag table, so the gather is the only d x d array
    H = full_scale_lenslet_h
    _, peak = traced_peak_bytes(lambda: weighted_gram(H, 0.5))
    assert peak <= one_working_array_bound(H.d)


class TestOneBlasThread:
    @pytest.mark.skipif(
        scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        != "scipy-openblas", reason="SciPy does not bundle scipy-openblas")
    def test_caps_scipys_openblas(self, blas_threads_at_two):
        assert blas_threads_at_two is not None     # the library was found
        assert blas_thread_cap() == 1
        with one_blas_thread():
            assert blas_threads_at_two() == 1
        assert blas_threads_at_two() == 2

    def test_changes_nothing_without_the_library(self, monkeypatch,
                                                 blas_threads_at_two):
        monkeypatch.setattr(forward_model, "_openblas_thread_controls", lambda: None)
        assert blas_thread_cap() is None
        with one_blas_thread():
            if blas_threads_at_two is not None:
                assert blas_threads_at_two() == 2
