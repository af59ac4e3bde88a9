import tracemalloc

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from lensless_crb import (
    DimensionError,
    adjoint,
    build_system_matrix,
    forward,
    pad_psf,
    vectorize,
)
from lensless_crb import forward_model
from lensless_crb.forward_model import blas_thread_cap, one_blas_thread, weighted_gram
from conftest import conv_matrix_bruteforce, fft_convolve_full


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


def assert_gram_matches_dense(psf, obj_shape, psf_pad=None):
    H = build_system_matrix(psf, obj_shape, psf_pad)
    J = weighted_gram(H)
    assert "matrix" not in vars(H)          # the scalar-weight Gram needs no dense H
    np.testing.assert_array_equal(J, J.T)
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


class TestBlasKernels:
    """forward on one object and the weight-vector Gram against plain
    NumPy products, for every input layout, unpadded and padded."""

    @pytest.fixture(scope="class", params=[None, (6, 7)], ids=["unpadded", "padded"])
    def H(self, request):
        psf = np.random.default_rng(11).uniform(0.1, 1, size=(4, 5))
        return build_system_matrix(psf, (5, 6), request.param)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_forward_one_object_matches_matrix_product(self, H, layout):
        v = LAYOUTS[layout](np.random.default_rng(12).uniform(0, 3, size=H.d))
        expected = H.matrix @ v.astype(float)
        got = forward(H, v)
        assert got.shape == (H.k,)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_weight_vector_gram_matches_scaled_product(self, H, layout):
        w = LAYOUTS[layout](np.random.default_rng(13).uniform(0, 2, size=H.k))
        S = np.sqrt(w.astype(float))[:, None] * H.matrix
        expected = S.T @ S
        J = weighted_gram(H, w)
        assert np.array_equal(J, J.T)
        assert np.max(np.abs(J - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_weight_vector_gram_allocates_one_s_and_one_gram():
    # S = diag(sqrt w) H and the Gram are the only full-size arrays: the
    # lower triangle is mirrored in place, never through a d x d temporary
    psf = np.random.default_rng(14).uniform(0, 1, size=(32, 32))
    H = build_system_matrix(psf, (32, 32), (34, 34))
    assert H.matrix.flags.f_contiguous      # built and cached before tracing starts
    w = np.random.default_rng(15).uniform(0.1, 2, size=H.k)
    tracemalloc.start()
    try:
        J = weighted_gram(H, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert J.shape == (H.d, H.d)
    assert peak <= 8 * (H.k * H.d + H.d * H.d) + (1 << 20)


def _bundles_scipy_openblas(package):
    return package.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] \
        == "scipy-openblas"


class TestOneBlasThread:
    @pytest.mark.skipif(
        not (_bundles_scipy_openblas(np) and _bundles_scipy_openblas(scipy)),
        reason="NumPy and SciPy do not both bundle scipy-openblas")
    def test_caps_both_bundled_libraries(self, blas_threads_at_two):
        assert blas_threads_at_two is not None     # both libraries were found
        assert blas_thread_cap() == 1
        with one_blas_thread():
            assert blas_threads_at_two() == [1, 1]
        assert blas_threads_at_two() == [2, 2]

    def test_changes_nothing_without_both_libraries(self, monkeypatch,
                                                    blas_threads_at_two):
        monkeypatch.setattr(forward_model, "_openblas_thread_controls", lambda: None)
        assert blas_thread_cap() is None
        with one_blas_thread():
            if blas_threads_at_two is not None:
                assert blas_threads_at_two() == [2, 2]
