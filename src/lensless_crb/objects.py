"""Seeded generators for test objects of varying sparsity.

Two families: dense cell-like samples built from overlapping soft-edged
ellipses, and sparse bead samples with a handful of isolated bright pixels.
Each kind holds its own checks and generator in ``grid(h, w, rng)``;
``generate_object`` scales the grid to the spec's peak. Both are surrogates
for typical microscopy scenes; exact structures are a matter of convention,
so acceptance checks use orderings, never absolute bound values.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .seeds import spec_rng

# soft rim extends to this multiple of the nominal blob radius
RIM_EXTENT = 1.6


@dataclass(frozen=True)
class DenseCells:
    n_blobs: int = 6
    blob_radius: tuple[float, float] = (3.0, 6.0)

    def grid(self, h, w, rng):
        if self.n_blobs < 1:
            raise ValueError("blob count must be >= 1")
        rows = np.arange(h)[:, None]
        cols = np.arange(w)[None, :]
        field = np.zeros((h, w))
        for _ in range(self.n_blobs):
            cr = rng.uniform(0.15 * h, 0.85 * h)
            cc = rng.uniform(0.15 * w, 0.85 * w)
            a = rng.uniform(*self.blob_radius)
            b = rng.uniform(*self.blob_radius)
            theta = rng.uniform(0, np.pi)
            dr, dc = rows - cr, cols - cc
            u = dr * np.cos(theta) + dc * np.sin(theta)
            t = -dr * np.sin(theta) + dc * np.cos(theta)
            r = np.sqrt((u / a) ** 2 + (t / b) ** 2)
            # flat interior, smooth rim out to RIM_EXTENT * radius
            rim = np.clip((RIM_EXTENT - r) / (RIM_EXTENT - 1.0), 0.0, 1.0)
            field += rim * rim * (3.0 - 2.0 * rim)
        return field


@dataclass(frozen=True)
class SparseBeads:
    n_beads: int = 10

    def grid(self, h, w, rng):
        if self.n_beads < 1:
            raise ValueError("bead count must be >= 1")
        if self.n_beads > h * w:
            raise ValueError(f"{self.n_beads} beads do not fit in {h}x{w}")
        grid = np.zeros(h * w)
        grid[rng.choice(h * w, size=self.n_beads, replace=False)] = 1.0
        return grid.reshape(h, w)


@dataclass(frozen=True)
class ObjectSpec:
    kind: object                      # DenseCells | SparseBeads
    size: tuple[int, int] = (32, 32)
    peak_photons: float = 100.0
    seed: int = 0


def generate_object(spec: ObjectSpec) -> np.ndarray:
    """Generate the object grid; max value is exactly peak_photons."""
    h, w = spec.size
    if h < 8 or w < 8:
        raise DimensionError("object grids must be at least 8x8")
    if not 0 < spec.peak_photons < np.inf:
        raise ValueError("peak_photons must be finite and positive")
    if not hasattr(spec.kind, "grid"):
        raise TypeError(f"unknown object kind: {spec.kind!r}")
    grid = spec.kind.grid(h, w, spec_rng(spec.seed, spec))
    return grid * (spec.peak_photons / grid.max())


def sparsity(obj) -> float:
    """Fraction of strictly positive pixels."""
    a = np.asarray(obj)
    return float(np.count_nonzero(a > 0) / a.size)
