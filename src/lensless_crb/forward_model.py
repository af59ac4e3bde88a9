"""Discrete forward model for lensless imaging.

Objects and PSFs live on 2-D non-negative pixel grids (photons per pixel).
Image formation is full 2-D convolution with a fixed PSF, realized as a
system matrix H so that the noiseless measurement is b = H v for the
row-major vectorized object v. By default H is the full linear
convolution, so 32x32 objects and PSFs give 63x63 measurements. The PSF may
be zero-padded before building H; padding adds only all-zero rows to H, so
it changes k and the cost but not the Fisher matrix.

``build_system_matrix`` pads the PSF once more, by the object extent less
one per side, into H's canvas, and every product and Gram reads windows of
that one canvas: the dense k x d matrix (built on first use; only the batch
products and the adjoint read it), the bands of the weight-vector Gram, the
PSF autocorrelation of the scalar-weight Gram, and the row-Toeplitz stack
with which ``forward`` convolves one object. ``forward`` (H v) and
``adjoint`` (H^T r) are the only products with H that other modules use,
so this module alone knows how H is stored.

Every product runs on SciPy's bundled OpenBLAS, the library whose LAPACK
factors and inverts the Fisher matrix, and ``gram`` makes the package's one
``dsyrk`` call. NumPy bundles an OpenBLAS of its own, with its own thread
pool, whose idle threads would spin beside SciPy's; the package calls only
SciPy's, so ``one_blas_thread`` has one library to set.

``blas`` and ``lapack`` are SciPy's two compiled wrapper modules,
``scipy.linalg._fblas`` and ``scipy.linalg._flapack``: the very functions
``scipy.linalg.blas`` and ``scipy.linalg.lapack`` export, loaded from their
files in SciPy's ``linalg`` folder without running the ``scipy.linalg``
package init, which costs about 0.2 s of start-up (the two modules load in
about 9 ms). Every BLAS and LAPACK call of the package goes through them.
"""

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError

GRAM_BLOCK_BYTES = 8 << 20   # bytes of one row block of S, or of the draws it is formed from
STRIP = 64   # columns per strip when adding a block's product into a Gram or mirroring it


def as_grid(values) -> np.ndarray:
    """Validate and return a 2-D finite, non-negative float array."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D grid, got ndim={a.ndim}")
    # NaN fails both comparisons
    if not np.all((a >= 0) & (a < np.inf)):
        raise ValueError("grid values must be finite and non-negative")
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
    the PSF mass. ``build_system_matrix`` builds the canvas, the row span
    and the Toeplitz stack with the instance; the dense matrix is built on
    first access of ``matrix`` and cached on the instance.
    """

    psf: np.ndarray               # padded PSF, (ph, pw), non-negative
    obj_shape: tuple[int, int]    # (height, width) of the object grid
    out_shape: tuple[int, int]    # measurement plane shape
    canvas: np.ndarray            # psf zero-padded by (oh - 1, ow - 1) per side
    rows: tuple[int, int]         # first and one past the last nonzero psf row
    toeplitz: np.ndarray          # (ow, (hi - lo) * OW) row-Toeplitz stack of those rows

    @property
    def k(self) -> int:
        return self.out_shape[0] * self.out_shape[1]

    @property
    def d(self) -> int:
        return self.obj_shape[0] * self.obj_shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense (k, d) matrix; column j is the PSF shifted to object pixel j.
        It is the block of S = H at unit weight over the whole plane."""
        return _band_block(self.canvas, np.ones(self.out_shape), self.obj_shape)


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

    The canvas, its nonzero row span and the Toeplitz stack are built here,
    once, so no thread or forked worker that applies H builds them again.
    The Toeplitz matrix of PSF row a, T_a[c, j] = psf[a, j - c], is the
    reversed width-OW windows of canvas row oh - 1 + a; those of the nonzero
    rows stand side by side in one (ow, rows * OW) array.
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
    canvas = np.pad(padded, ((oh - 1, oh - 1), (ow - 1, ow - 1)))
    nonzero = np.flatnonzero(np.any(padded != 0, axis=1))
    lo, hi = int(nonzero[0]), int(nonzero[-1]) + 1
    stack = sliding_window_view(canvas[oh - 1 + lo:oh - 1 + hi], out_shape[1], axis=1)
    toeplitz = stack[:, ::-1].transpose(1, 0, 2).copy().reshape(ow, -1)
    return SystemMatrix(padded, (oh, ow), out_shape, canvas, (lo, hi), toeplitz)


def object_values(v) -> np.ndarray:
    """Pixel values of a :class:`VectorizedObject` or of a 1-D array-like."""
    return v.values if isinstance(v, VectorizedObject) else np.asarray(v, dtype=float)


def forward(H: SystemMatrix, v) -> np.ndarray:
    """Noiseless measurement b = H v of one object (d,) or of a batch of
    objects in the columns of a (d, n) array.

    One object is convolved row by row (``_convolve``), without the dense
    H; a batch is one ``dgemm`` on the dense matrix, which is faster for
    many columns than a structured product per object.
    """
    values = object_values(v)
    if values.ndim > 2 or values.shape[:1] != (H.d,):
        raise DimensionError(f"object shape {values.shape} is not ({H.d},) or ({H.d}, n)")
    if values.ndim == 1:
        return _convolve(H, values)
    return _product(H.matrix, values, trans=0)


def build_matrix(H: SystemMatrix) -> None:
    """Build and cache H's dense matrix, which batch products and the
    adjoint read. A caller that applies H from several threads builds it
    first on its own thread: ``cached_property`` builds under a lock on
    CPython 3.11, but takes none from 3.12 on, where threads that found it
    missing would each build a copy."""
    H.matrix


def _convolve(H: SystemMatrix, values: np.ndarray) -> np.ndarray:
    """H v of one object as a row-Toeplitz GEMM: the 1-D convolutions of
    every object row with every nonzero PSF row in one ``dgemm`` on H's
    Toeplitz stack, then one shifted add of object rows per PSF row into
    the measurement plane. All terms are non-negative, so a rate is exactly
    zero where the dense product's is.
    """
    oh, ow = H.obj_shape
    OH, OW = H.out_shape
    lo, hi = H.rows
    V = np.ascontiguousarray(values, dtype=float).reshape(oh, ow)
    # P^T = T^T V^T on the column-major views of the row-major T and V, so
    # dgemm copies neither operand; P[r, a] is object row r through PSF row lo + a
    P = blas.dgemm(1.0, H.toeplitz.T, V.T).T.reshape(oh, hi - lo, OW)
    out = np.zeros((OH, OW))
    for a in range(hi - lo):
        out[lo + a:lo + a + oh] += P[:, a]
    return out.ravel()


def adjoint(H: SystemMatrix, r) -> np.ndarray:
    """Back-projection H^T r of one measurement-plane vector (k,) or of a
    batch in the columns of a (k, n) array."""
    r = np.asarray(r, dtype=float)
    if r.ndim > 2 or r.shape[:1] != (H.k,):
        raise DimensionError(f"measurement shape {r.shape} is not ({H.k},) or ({H.k}, n)")
    return _product(H.matrix, r, trans=1)


def _product(M: np.ndarray, x: np.ndarray, trans: int) -> np.ndarray:
    """M x (trans=0) or M^T x (trans=1) of a vector, or of the columns of a
    matrix x, on SciPy's BLAS; H's column-major matrix is read in place.

    A batch is formed as the transpose of x^T op(M)^T, with x^T taken as the
    column-major x.T when x is row-major, so dgemm copies neither operand
    of a contiguous x; this operand order also ran faster than op(M) x.
    """
    if x.ndim == 1:
        return blas.dgemv(1.0, M, x, trans=trans)
    xt, trans_x = (x.T, 0) if x.flags.c_contiguous else (x, 1)
    return blas.dgemm(1.0, xt, M, trans_a=trans_x, trans_b=1 - trans).T


def weighted_gram(H: SystemMatrix, w=1.0) -> np.ndarray:
    """H^T diag(w) H for non-negative per-measurement weights w of shape
    (k,) or a scalar w.

    A scalar weight scales the PSF autocorrelation: entry (a, b) of H^T H is
    the autocorrelation at the lag between object pixels a and b, so the
    dense H is not needed. A weight vector is the ``gram`` of S =
    diag(sqrt(w)) H, fed in bands of measurement rows formed straight from
    windows of H's canvas (``_gram_bands``), so neither H nor a
    second copy of it is ever held. Both branches return one exactly
    symmetric, column-major array, which LAPACK can factor in place.
    """
    if np.ndim(w) == 0:
        return _autocorrelation_gram(H, w)
    w = np.asarray(w, dtype=float)
    if w.shape != (H.k,):
        raise DimensionError(f"weight shape {w.shape} is not () or ({H.k},)")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("Gram weights must be finite and non-negative")
    return gram(_gram_bands(H, np.sqrt(w).reshape(H.out_shape)), H.d)


def _gram_bands(H: SystemMatrix, sqrt_w: np.ndarray):
    """(first column, block) of each band of rows of S = diag(sqrt_w) H.

    A band of measurement rows [i0, i1) reaches only object rows
    [i0 - hi + 1, i1 - lo), where [lo, hi) = H.rows runs from the PSF's
    first nonzero row to its last, so its block keeps just those columns of S;
    measurement rows that no PSF row reaches are skipped. A band is an
    eighth of hi - lo rows, so it reaches at most 9/8 of the object rows
    one measurement row does, and its block is at most GRAM_BLOCK_BYTES
    (one row if a row is larger).
    """
    oh, ow = H.obj_shape
    OW = H.out_shape[1]
    lo, hi = H.rows
    band = max(1, min((hi - lo) // 8, GRAM_BLOCK_BYTES // (8 * OW * H.d)))
    for i0 in range(lo, oh - 1 + hi, band):
        i1 = min(i0 + band, oh - 1 + hi)
        r0, r1 = max(0, i0 - hi + 1), min(oh, i1 - lo)
        # the block is yielded, not named, so it is freed before the next is formed
        yield r0 * ow, _band_block(H.canvas[oh - r1 + i0:oh - 1 - r0 + i1], sqrt_w[i0:i1],
                                   (r1 - r0, ow))


def _band_block(canvas: np.ndarray, sqrt_w: np.ndarray, reach) -> np.ndarray:
    """Column-major block of S: the measurement band whose square-root
    weights are sqrt_w, against the (rows, width) of object pixels it
    reaches, given the canvas rows that map those pixels into the band.

    Column (r, c) of the block, the PSF placed at object pixel (r, c) and
    cut to the band, is the window at (last - r, ow - 1 - c) of the canvas
    rows; the weighted windows written row-major are the block's transpose.
    """
    band = sqrt_w.shape
    # copying the windows, then weighting in place, ran faster than one
    # multiply of the strided windows into a new array
    ST = sliding_window_view(canvas, band)[::-1, ::-1].copy()
    ST *= sqrt_w
    return ST.reshape(reach[0] * reach[1], band[0] * band[1]).T


def gram(blocks, d: int) -> np.ndarray:
    """S^T S of the stacked row blocks of S, as one exactly symmetric,
    column-major d x d array. Each block comes as (first column, block): a
    column-major (rows, n) array of its rows of S in columns [first,
    first + n), S being zero in the other columns of those rows.

    A block that spans all d columns adds its symmetric rank-k update
    ``dsyrk`` into the lower triangle of the one array in place. A narrower
    block adds its product at its column range one strip of STRIP columns
    at a time: ``dgemm`` forms the strip's part of the lower triangle, from
    the strip's diagonal down, and it is added in place (SciPy's wrappers
    would copy a sub-block of the result in and out, so none is passed to
    them). Each block is freed before the next is formed, so beyond the
    result only one block and one strip-sized temporary are alive at a time.
    The lower triangle is then copied into the upper one in place, one strip
    of STRIP rows at a time: first the strip right of its diagonal block,
    then the block column by column. The strips keep the transposed reads in
    cache, and no temporary is larger than a strip.
    """
    G = np.zeros((d, d), order="F")
    for c0, S in blocks:
        n = S.shape[1]
        if n == d:
            G = blas.dsyrk(1.0, S, beta=1.0, c=G, trans=1, lower=1, overwrite_c=1)
        else:
            for s in range(0, n, STRIP):
                e = min(s + STRIP, n)
                G[c0 + s:c0 + n, c0 + s:c0 + e] += blas.dgemm(1.0, S[:, s:], S[:, s:e],
                                                              trans_a=1)
        del S
    for s in range(0, d, STRIP):
        e = min(s + STRIP, d)
        G[s:e, e:] = G[e:, s:e].T
        for j in range(s + 1, e):
            G[s:j, j] = G[j, s:j]
    return G


def _autocorrelation_gram(H: SystemMatrix, w) -> np.ndarray:
    """w H^T H, column-major, from the PSF autocorrelation over H's canvas.

    R[a, b] is the PSF autocorrelation at lag (a - oh + 1, b - ow + 1); the
    lags span the object, not the PSF, since pixels up to (oh - 1, ow - 1)
    apart share measurements whenever the PSF is at least that large.
    Entry ((r1, c1), (r2, c2)) of the Gram is R at lag (r2 - r1, c2 - c1).
    R is averaged with its point reflection (lag -> -lag), which makes the
    Gram exactly symmetric, so its transpose is the same matrix laid out
    column-major. The weight scales the small lag table, and the gather is
    the one d x d array.
    """
    oh, ow = H.obj_shape
    R = np.einsum("abij,ij->ab", sliding_window_view(H.canvas, H.psf.shape), H.psf)
    R = 0.5 * (R + R[::-1, ::-1]) * w
    # window [oh-1-r1, ow-1-c1] of R, entry [r2, c2], is R[lag + (oh-1, ow-1)];
    # copying the windows makes the gather contiguous and its reshape writable
    return sliding_window_view(R, (oh, ow))[::-1, ::-1].copy().reshape(oh * ow, oh * ow).T


def _scipy_linalg_module(name: str):
    """SciPy's compiled module scipy.linalg.<name>.

    It is loaded from its file in SciPy's linalg folder, without running
    the scipy.linalg package init, and registered in sys.modules under its
    own name, so a later ``import scipy.linalg`` reuses this module object.
    Where the file is not found, the import takes the usual route, through
    the package init, to the same module.
    """
    full = f"scipy.linalg.{name}"
    if full not in sys.modules:
        folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = importlib.machinery.PathFinder.find_spec(full, [folder])
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[full] = module
    return importlib.import_module(full)


blas = _scipy_linalg_module("_fblas")
lapack = _scipy_linalg_module("_flapack")


@cache
def _openblas_thread_controls():
    """(get, set) thread-count functions of SciPy's bundled OpenBLAS, found by
    ctypes in ``scipy/../scipy.libs``; None where it is not found."""
    libs = os.path.join(os.path.dirname(scipy.__file__), "..", "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def blas_thread_cap():
    """The BLAS thread count ``one_blas_thread`` sets: 1, or None where it
    cannot find SciPy's OpenBLAS and so changes nothing."""
    return 1 if _openblas_thread_controls() is not None else None


def blas_threads():
    """The thread count SciPy's OpenBLAS runs at now, or None where it is
    not found."""
    controls = _openblas_thread_controls()
    return None if controls is None else controls[0]()


@contextmanager
def one_blas_thread():
    """Run the block with SciPy's OpenBLAS at one thread.

    The thread count is read on entry and restored on exit, also when the
    block raises. Where the library is not found, the block runs at the
    process's own thread count. The count is process-wide, so blocks on
    several threads at once would restore each other's counts; the package
    enters it from the calling thread only.
    """
    controls = _openblas_thread_controls()
    if controls is None:
        yield
        return
    get, set_threads = controls
    n = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(n)
