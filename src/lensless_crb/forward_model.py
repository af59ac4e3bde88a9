"""Discrete forward model for lensless imaging.

Objects and PSFs live on 2-D non-negative pixel grids (photons per pixel).
Image formation is full 2-D convolution with a fixed PSF, realized as a
system matrix H so that the noiseless measurement is b = H v for the
row-major vectorized object v. H keeps the padded PSF and builds its dense
k x d matrix on first use; the constant-weight Gram H^T H never needs it,
since it is the PSF autocorrelation laid out block-Toeplitz. ``forward``
(H v) and ``adjoint`` (H^T r) are the only products with H that other
modules use, so this module alone knows how H is stored. The PSF may be
zero-padded before building H; padding to (psf + 2) per axis turns 32x32
objects into 65x65 measurements.

NumPy and SciPy each bundle their own OpenBLAS, each with its own thread
pool, and after a call a pool's idle threads keep spinning for a while. The
products of the Poisson Fisher -> CRB path therefore run on SciPy's OpenBLAS,
the library whose LAPACK factors and inverts the Fisher matrix next: the
image H v of one object is ``dgemv`` and the weight-vector Gram is ``dsyrk``.
Alternating the two libraries on every case left NumPy's helper thread
spinning beside SciPy's two-thread Cholesky on a 2-vCPU machine, where two
BLAS threads then ran slower than one. Batched products (a (d, n) array
in ``forward``, every ``adjoint``) stay on NumPy's ``@``. The Monte Carlo
Fisher chunks, one Python worker per CPU, and the GLS solves (NumPy's
``adjoint``, then SciPy's ``cho_solve``) run inside ``one_blas_thread``,
which sets both libraries to one thread for its block, so their results do
not depend on ``OPENBLAS_NUM_THREADS``.
"""

import ctypes
import glob
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas

from .errors import DimensionError

MIRROR_BLOCK = 64   # rows per strip when mirroring a Gram's lower triangle
# (package, suffix of its OpenBLAS's exported names): NumPy's has 64-bit ints
OPENBLAS_LIBRARIES = ((np, "64_"), (scipy, ""))


def as_grid(values) -> np.ndarray:
    """Validate and return a 2-D non-negative float array."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D grid, got ndim={a.ndim}")
    if np.any(a < 0):
        raise ValueError("grid values must be non-negative")
    return a


@dataclass(frozen=True)
class VectorizedObject:
    """Row-major flattening of an object grid."""

    values: np.ndarray          # 1-D, non-negative


def vectorize(grid) -> VectorizedObject:
    """Flatten a 2-D grid row-major into a vectorized object."""
    return VectorizedObject(values=as_grid(grid).ravel().copy())


@dataclass(frozen=True)
class SystemMatrix:
    """Full 2-D convolution with a fixed (padded) PSF, as a k x d operator.

    Every column of the dense matrix is the padded PSF translated to one
    object pixel's position in the output plane, so all column sums equal
    the PSF mass. The dense matrix is built on first access of ``matrix``
    and cached on the instance.
    """

    psf: np.ndarray               # padded PSF, (ph, pw), non-negative
    obj_shape: tuple[int, int]    # (height, width) of the object grid
    out_shape: tuple[int, int]    # measurement plane shape

    @property
    def k(self) -> int:
        return self.out_shape[0] * self.out_shape[1]

    @property
    def d(self) -> int:
        return self.obj_shape[0] * self.obj_shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense (k, d) matrix; column j is the PSF shifted to object pixel j."""
        oh, ow = self.obj_shape
        # row (r, c) of H^T, the PSF placed at (r, c) of the output plane, is
        # the window at (oh-1-r, ow-1-c) of the padded PSF, as in the Gram;
        # copying the windows makes H^T contiguous and its reshape writable
        padded = np.pad(self.psf, ((oh - 1, oh - 1), (ow - 1, ow - 1)))
        HT = sliding_window_view(padded, self.out_shape)[::-1, ::-1].copy()
        return HT.reshape(self.d, self.k).T


def pad_psf(psf, pad_shape) -> np.ndarray:
    """Center-embed a PSF in a zero grid of ``pad_shape``.

    Odd leftovers go to the bottom/right so the embedding is unambiguous.
    """
    p = as_grid(psf)
    ph, pw = pad_shape
    if ph < p.shape[0] or pw < p.shape[1]:
        raise DimensionError(
            f"padded size {pad_shape} smaller than PSF {p.shape}"
        )
    top = (ph - p.shape[0]) // 2
    left = (pw - p.shape[1]) // 2
    out = np.zeros((ph, pw))
    out[top:top + p.shape[0], left:left + p.shape[1]] = p
    return out


def build_system_matrix(psf, obj_shape, psf_pad=None) -> SystemMatrix:
    """Build the convolution operator H for a PSF and object shape.

    Parameters
    ----------
    psf : array_like
        2-D non-negative PSF grid with at least one positive entry.
    obj_shape : (int, int)
        Object grid shape (height, width).
    psf_pad : (int, int), optional
        Shape to zero-pad the PSF to before convolution. Defaults to the
        PSF's own shape (plain full convolution).
    """
    p = as_grid(psf)
    if not np.any(p > 0):
        raise ValueError("PSF has no positive entry, so H carries no information")
    oh, ow = int(obj_shape[0]), int(obj_shape[1])
    if oh < 1 or ow < 1:
        raise DimensionError("object shape must be positive")
    if psf_pad is None:
        psf_pad = p.shape
    padded = pad_psf(p, psf_pad)
    out_shape = (oh + padded.shape[0] - 1, ow + padded.shape[1] - 1)
    return SystemMatrix(psf=padded, obj_shape=(oh, ow), out_shape=out_shape)


def object_values(v) -> np.ndarray:
    """Pixel values of a :class:`VectorizedObject` or of a 1-D array-like."""
    return v.values if isinstance(v, VectorizedObject) else np.asarray(v, dtype=float)


def forward(H: SystemMatrix, v) -> np.ndarray:
    """Noiseless measurement b = H v of one object (d,) or of a batch of
    objects in the columns of a (d, n) array."""
    values = object_values(v)
    if values.ndim > 2 or values.shape[:1] != (H.d,):
        raise DimensionError(f"object shape {values.shape} is not ({H.d},) or ({H.d}, n)")
    if values.ndim == 1:
        return blas.dgemv(1.0, H.matrix, values)
    return H.matrix @ values


def adjoint(H: SystemMatrix, r) -> np.ndarray:
    """Back-projection H^T r of one measurement-plane vector (k,) or of a
    batch in the columns of a (k, n) array."""
    r = np.asarray(r, dtype=float)
    if r.ndim > 2 or r.shape[:1] != (H.k,):
        raise DimensionError(f"measurement shape {r.shape} is not ({H.k},) or ({H.k}, n)")
    return H.matrix.T @ r


def weighted_gram(H: SystemMatrix, w=1.0) -> np.ndarray:
    """H^T diag(w) H for non-negative per-measurement weights w of shape
    (k,) or a scalar w.

    A scalar weight scales the PSF autocorrelation: entry (a, b) of H^T H is
    the autocorrelation at the lag between object pixels a and b, so the
    dense H is not needed. A weight vector forms S = diag(sqrt(w)) H; the
    symmetric rank-k update ``dsyrk`` writes the lower triangle of S^T S,
    which is then mirrored into the upper one in place. Both branches return
    an exactly symmetric matrix.
    """
    if np.ndim(w) == 0:
        return _autocorrelation_gram(H.psf, H.obj_shape) * w
    w = np.asarray(w, dtype=float)
    if w.shape != (H.k,):
        raise DimensionError(f"weight shape {w.shape} is not () or ({H.k},)")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("Gram weights must be finite and non-negative")
    # S keeps H's column-major layout, so dsyrk reads it without a copy
    S = np.sqrt(w)[:, None] * H.matrix
    G = blas.dsyrk(1.0, S, trans=1, lower=1)
    _mirror_lower(G)
    return G


def _mirror_lower(G: np.ndarray) -> None:
    """Copy the lower triangle of the square G into its upper one, in place,
    one strip of MIRROR_BLOCK rows at a time: first the strip right of its
    diagonal block, then the block column by column. The strips keep the
    transposed reads in cache, and no temporary is larger than a strip."""
    d = len(G)
    for s in range(0, d, MIRROR_BLOCK):
        e = min(s + MIRROR_BLOCK, d)
        G[s:e, e:] = G[e:, s:e].T
        for j in range(s + 1, e):
            G[s:j, j] = G[j, s:j]


def _autocorrelation_gram(psf: np.ndarray, obj_shape) -> np.ndarray:
    """H^T H of full convolution with psf over an object of obj_shape.

    R[a, b] is the PSF autocorrelation at lag (a - oh + 1, b - ow + 1); the
    lags span the object, not the PSF, since pixels up to (oh - 1, ow - 1)
    apart share measurements whenever the PSF is at least that large.
    Entry ((r1, c1), (r2, c2)) of the Gram is R at lag (r2 - r1, c2 - c1).
    R is averaged with its point reflection (lag -> -lag), which makes the
    Gram exactly symmetric.
    """
    oh, ow = obj_shape
    padded = np.pad(psf, ((oh - 1, oh - 1), (ow - 1, ow - 1)))
    R = np.einsum("abij,ij->ab", sliding_window_view(padded, psf.shape), psf)
    R = 0.5 * (R + R[::-1, ::-1])
    # window [oh-1-r1, ow-1-c1] of R, entry [r2, c2], is R[lag + (oh-1, ow-1)]
    return sliding_window_view(R, (oh, ow))[::-1, ::-1].reshape(oh * ow, oh * ow)


@cache
def _openblas_thread_controls():
    """(get, set) thread-count functions of NumPy's and SciPy's bundled
    OpenBLAS, found by ctypes in ``<package>/../<package>.libs``; None unless
    both libraries are found."""
    controls = []
    for package, suffix in OPENBLAS_LIBRARIES:
        libs = os.path.join(os.path.dirname(package.__file__), "..",
                            package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
        else:
            return None
    return tuple(controls)


def blas_thread_cap():
    """The BLAS thread count ``one_blas_thread`` sets: 1, or None where it
    cannot find both libraries and so changes nothing."""
    return 1 if _openblas_thread_controls() is not None else None


@contextmanager
def one_blas_thread():
    """Run the block with NumPy's and SciPy's OpenBLAS at one thread each.

    Each library's thread count is read on entry and restored on exit, also
    when the block raises. Both libraries are set or neither: where they are
    not both found, the block runs at the process's own thread counts. The
    counts are process-wide, so blocks on several threads at once would
    restore each other's counts; the package enters it from the calling
    thread only.
    """
    controls = _openblas_thread_controls()
    if controls is None:
        yield
        return
    counts = [get() for get, _set in controls]
    for _get, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_get, set_threads), n in zip(controls, counts):
            set_threads(n)
