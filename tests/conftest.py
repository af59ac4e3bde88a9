"""Shared helpers: brute-force oracles kept independent of the library paths."""

import numpy as np
import pytest

from lensless_crb import build_system_matrix, forward_model, generate_psf
from lensless_crb.psf import Lenslets, PsfSpec


def conv_matrix_bruteforce(psf_padded, obj_shape):
    """Full 2-D convolution matrix built by explicit shifting loops."""
    oh, ow = obj_shape
    ph, pw = psf_padded.shape
    out_w = ow + pw - 1
    H = np.zeros(((oh + ph - 1) * out_w, oh * ow))
    for r in range(oh):
        for c in range(ow):
            for i in range(ph):
                for j in range(pw):
                    H[(r + i) * out_w + (c + j), r * ow + c] = psf_padded[i, j]
    return H


def fft_convolve_full(a, b):
    """Full 2-D convolution via zero-padded FFTs."""
    sh = (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1)
    return np.real(np.fft.ifft2(np.fft.fft2(a, sh) * np.fft.fft2(b, sh)))


@pytest.fixture(scope="session")
def identity_h():
    """9x9 identity system matrix from a 1x1 delta PSF on a 3x3 object."""
    return build_system_matrix(np.ones((1, 1)), (3, 3))


@pytest.fixture(scope="session")
def small_lenslet_h():
    """8x8 object, 3-lenslet PSF, padded to 10x10 (k=289, d=64)."""
    grid = generate_psf(PsfSpec(Lenslets(3), (8, 8), 0))
    return build_system_matrix(grid, (8, 8), (10, 10))


@pytest.fixture(scope="session")
def unpadded_lenslet_h():
    """Same encoder without zero padding: every measurement rate stays
    strictly positive, as required for beta=0 Poisson Fisher matrices."""
    grid = generate_psf(PsfSpec(Lenslets(3), (8, 8), 0))
    return build_system_matrix(grid, (8, 8), (8, 8))


@pytest.fixture
def blas_threads_at_two():
    """NumPy's and SciPy's OpenBLAS both at two threads for the test, and at
    their own counts again after it. Yields a function that reads the two
    counts, or None where the two libraries are not both found."""
    controls = forward_model._openblas_thread_controls()
    if controls is None:
        yield None
        return
    before = [get() for get, _set in controls]
    for _get, set_threads in controls:
        set_threads(2)
    yield lambda: [get() for get, _set in controls]
    for (_get, set_threads), n in zip(controls, before):
        set_threads(n)
