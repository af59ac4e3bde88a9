"""Discrete forward model for lensless imaging.

Objects and PSFs live on 2-D non-negative pixel grids (photons per pixel).
Image formation is full 2-D convolution with a fixed PSF, realized as a
dense system matrix H so that the noiseless measurement is b = H v for the
row-major vectorized object v. The PSF may be zero-padded before building H;
padding to (psf + 2) per axis turns 32x32 objects into 65x65 measurements.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


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
    """Row-major flattening of an object grid, with the shape kept for round-trips."""

    values: np.ndarray          # 1-D, non-negative
    shape: tuple[int, int]      # (height, width)

    @property
    def d(self) -> int:
        return self.values.size


def vectorize(grid) -> VectorizedObject:
    """Flatten a 2-D grid row-major into a vectorized object."""
    a = as_grid(grid)
    return VectorizedObject(values=a.ravel().copy(), shape=a.shape)


def devectorize(obj: VectorizedObject) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    return obj.values.reshape(obj.shape).copy()


@dataclass(frozen=True)
class SystemMatrix:
    """Dense k x d matrix realizing full 2-D convolution with a fixed PSF.

    Every column is the (zero-padded) PSF translated to one object pixel's
    position in the output plane, so all column sums equal the PSF mass.
    """

    matrix: np.ndarray            # (k, d), non-negative
    obj_shape: tuple[int, int]    # (height, width) of the object grid
    out_shape: tuple[int, int]    # measurement plane shape

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


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
    """Build the dense convolution matrix H for a PSF and object shape.

    Parameters
    ----------
    psf : array_like
        2-D non-negative PSF grid.
    obj_shape : (int, int)
        Object grid shape (height, width).
    psf_pad : (int, int), optional
        Shape to zero-pad the PSF to before convolution. Defaults to the
        PSF's own shape (plain full convolution).
    """
    p = as_grid(psf)
    oh, ow = int(obj_shape[0]), int(obj_shape[1])
    if oh < 1 or ow < 1:
        raise DimensionError("object shape must be positive")
    if psf_pad is None:
        psf_pad = p.shape
    padded = pad_psf(p, psf_pad)
    ph, pw = padded.shape
    out_h, out_w = oh + ph - 1, ow + pw - 1
    k, d = out_h * out_w, oh * ow

    # Column j is the padded PSF shifted to object pixel j; columns are
    # written independently so any parallel construction is bit-identical.
    H = np.zeros((k, d))
    plane = np.zeros((out_h, out_w))
    for r in range(oh):
        for c in range(ow):
            plane[:] = 0.0
            plane[r:r + ph, c:c + pw] = padded
            H[:, r * ow + c] = plane.ravel()
    return SystemMatrix(matrix=H, obj_shape=(oh, ow), out_shape=(out_h, out_w))


def object_values(v) -> np.ndarray:
    """Pixel values of a :class:`VectorizedObject` or of a 1-D array-like."""
    return v.values if isinstance(v, VectorizedObject) else np.asarray(v, dtype=float)


def forward(H: SystemMatrix, v) -> np.ndarray:
    """Noiseless measurement b = H v."""
    values = object_values(v)
    if values.shape[0] != H.d:
        raise DimensionError(f"object length {values.shape[0]} != H columns {H.d}")
    return H.matrix @ values


def weighted_gram(H: SystemMatrix, w=1.0) -> np.ndarray:
    """H^T diag(w) H for per-measurement weights w (length k) or a scalar w.

    A scalar weight scales the plain H^T H product, so no k x d weighted copy
    of H is allocated.
    """
    M = H.matrix
    if np.ndim(w) == 0:
        return (M.T @ M) * w
    return M.T @ (np.asarray(w)[:, None] * M)
