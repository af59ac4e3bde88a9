"""Shared helpers: brute-force oracles kept independent of the library paths."""

import functools
import os
import threading
import tracemalloc

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


def assert_same_bits(a, b):
    """a and b are float64 arrays of one shape with the same bits."""
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def traced_peak_bytes(call):
    """call()'s result, and the peak bytes tracemalloc saw allocated while
    it ran."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_working_array_bound(d):
    """Bytes of one d x d float array, plus a d x d boolean mask (np.triu's,
    or the finiteness check of cho_factor) and 1 MiB of small temporaries."""
    return 8 * d * d + d * d + (1 << 20)


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
def full_scale_lenslet_h():
    """32x32 object, 3-lenslet PSF padded to 34x34 (k=4225, d=1024); its
    dense matrix is not built by the fixture."""
    grid = generate_psf(PsfSpec(Lenslets(3), (32, 32), 0))
    return build_system_matrix(grid, (32, 32), (34, 34))


@pytest.fixture(scope="session")
def unpadded_lenslet_h():
    """Same encoder without zero padding: every measurement rate stays
    strictly positive, as required for beta=0 Poisson Fisher matrices."""
    grid = generate_psf(PsfSpec(Lenslets(3), (8, 8), 0))
    return build_system_matrix(grid, (8, 8), (8, 8))


@pytest.fixture
def blas_threads_at_two():
    """SciPy's OpenBLAS at two threads for the test, and at its own count
    again after it. Yields a function that reads the count, or None where
    the library is not found."""
    controls = forward_model._openblas_thread_controls()
    if controls is None:
        yield None
        return
    get, set_threads = controls
    before = get()
    set_threads(2)
    yield get
    set_threads(before)


class CallLog:
    """Calls recorded in this process and in every process it forks after the
    spy is set: each call appends one line to a file, so what a worker
    process records outlives it."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def record(self, line: str) -> None:
        with open(self.path, "a") as f:
            f.write(line + "\n")

    def lines(self) -> list:
        return self.path.read_text().splitlines()


@pytest.fixture
def call_log(tmp_path_factory):
    return CallLog(tmp_path_factory.mktemp("calls") / "calls.log")


@pytest.fixture
def dense_builds(monkeypatch, call_log):
    """A function returning the (process id, thread ident) of every build of
    a SystemMatrix's dense matrix during the test, in this process or a
    forked worker, in build order; matrices cached before it are not
    rebuilt."""
    build = forward_model.SystemMatrix.matrix.func

    def counted(H):
        call_log.record(f"{os.getpid()} {threading.get_ident()}")
        return build(H)

    matrix = functools.cached_property(counted)
    matrix.__set_name__(forward_model.SystemMatrix, "matrix")
    monkeypatch.setattr(forward_model.SystemMatrix, "matrix", matrix)
    return lambda: [tuple(map(int, line.split())) for line in call_log.lines()]
