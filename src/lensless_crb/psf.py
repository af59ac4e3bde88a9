"""Seeded generators for encoder PSFs with increasing multiplexing.

The studies run seven encoders (``cli.STUDY_PSFS``): 1-5 lenslets, a random
multi-focal lenslet (many focal spots of varying size), and a diffuser
(caustic-like speckle).
Each kind holds its own checks and generator in ``grid(h, w, rng)``. All PSFs
are normalized to unit total mass so photon budgets are encoder-independent,
and all generation is deterministic per (spec, seed).

The real encoders come from hardware; these grids are statistical
surrogates, flagged as such in run manifests.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PlacementError
from .seeds import spec_rng

LENSLET_SIGMA_PX = 0.75
MIN_SPOT_SEPARATION_PX = 2.0
PLACEMENT_RETRY_BUDGET = 1000


def _wrap_blur(a, sigma):
    """scipy.ndimage.gaussian_filter(a, sigma, mode="wrap"), bit for bit.

    Same kernel (radius int(4 sigma + 0.5), normalized exp weights) and the
    same arithmetic as ndimage's symmetric correlate1d, axis 0 then axis 1:
    centre times w0, plus (left + right) * wj from the farthest wrap
    neighbour to the nearest. ndimage overflows to inf silently; so does this.
    """
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    w = (w / w.sum())[radius:]      # w[j]: the weight at distance j
    with np.errstate(over="ignore"):
        for _ in range(2):          # axis 0, then axis 1 as axis 0 of the transpose
            n = a.shape[0]
            p = np.pad(a, ((radius, radius), (0, 0)), mode="wrap")
            out = a * w[0]
            for j in range(radius, 0, -1):
                out += (p[radius - j:radius - j + n] + p[radius + j:radius + j + n]) * w[j]
            a = out.T
    return a


def _need_8x8(h, w):
    if h < 8 or w < 8:
        raise DimensionError("multi-spot PSFs need a grid of at least 8x8")


def _lenslet_centers(n, h, w):
    """Fixed layouts spanning the central half of the grid."""
    lr, mr, hr = h // 4, h // 2, 3 * h // 4
    lc, mc, hc = w // 4, w // 2, 3 * w // 4
    layouts = {
        1: [(mr, mc)],
        2: [(mr, lc), (mr, hc)],
        3: [(lr, mc), (hr, lc), (hr, hc)],
        4: [(lr, lc), (lr, hc), (hr, lc), (hr, hc)],
        5: [(lr, lc), (lr, hc), (hr, lc), (hr, hc), (mr, mc)],
    }
    if n in layouts:
        return layouts[n]
    # beyond the quincunx: evenly spaced on a circle of radius min(h, w)/4
    radius = min(h, w) / 4.0
    angles = 2 * np.pi * np.arange(n) / n
    return [(mr + radius * np.sin(a), mc + radius * np.cos(a)) for a in angles]


def _spots(h, w, centers, sigmas):
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    out = np.zeros((h, w))
    for (r, c), s in zip(centers, sigmas):
        out += np.exp(-((rows - r) ** 2 + (cols - c) ** 2) / (2.0 * s * s))
    return out


@dataclass(frozen=True)
class Lenslets:
    """n Gaussian focal spots on a fixed symmetric layout."""

    n: int = 1

    def grid(self, h, w, rng):
        if self.n < 1:
            raise ValueError("lenslet count must be >= 1")
        if self.n > 1:
            _need_8x8(h, w)
        centers = _lenslet_centers(self.n, h, w)
        return _spots(h, w, centers, [LENSLET_SIGMA_PX] * len(centers))


@dataclass(frozen=True)
class Rml:
    """Random multi-focal lenslet: random spot positions and widths."""

    n_spots: int = 15
    width_range: tuple[float, float] = (0.6, 2.0)

    def grid(self, h, w, rng):
        if self.n_spots < 1:
            raise ValueError("spot count must be >= 1")
        if not 0 < self.width_range[0] <= self.width_range[1] < np.inf:
            raise ValueError("width_range must be finite, with 0 < min <= max")
        _need_8x8(h, w)
        margin = 2.0
        positions = []
        attempts = 0
        while len(positions) < self.n_spots:
            if attempts >= PLACEMENT_RETRY_BUDGET:
                raise PlacementError(
                    f"could not place {self.n_spots} spots with "
                    f"{MIN_SPOT_SEPARATION_PX} px separation in {h}x{w}"
                )
            r = rng.uniform(margin, h - 1 - margin)
            c = rng.uniform(margin, w - 1 - margin)
            attempts += 1
            if all((r - pr) ** 2 + (c - pc) ** 2 >= MIN_SPOT_SEPARATION_PX ** 2
                   for pr, pc in positions):
                positions.append((r, c))
        sigmas = rng.uniform(*self.width_range, size=self.n_spots)
        return _spots(h, w, positions, sigmas)


@dataclass(frozen=True)
class Diffuser:
    """Pseudo-random caustic-like speckle from exponentiated filtered noise."""

    correlation_length: float = 3.0
    contrast: float = 2.0

    def grid(self, h, w, rng):
        if not 1 <= self.correlation_length < np.inf:
            raise ValueError("correlation_length must be finite and >= 1")
        # exp(contrast * z) with |z| <= 1.5 below must not overflow
        if not 1.5 * abs(self.contrast) < np.log(np.finfo(float).max):
            raise ValueError("contrast must be finite, with |contrast| below "
                             "log(largest float) / 1.5, about 473.2")
        if h * w < 2:
            raise DimensionError(f"a diffuser needs 2 pixels to vary, got size {h}x{w}")
        z = _wrap_blur(rng.standard_normal((h, w)), self.correlation_length)
        z = (z - z.mean()) / z.std()
        # clip before exponentiating and re-smooth after: keeps the caustic-like
        # bright filaments while taming lone lognormal peaks that would otherwise
        # concentrate most of the mass in a few pixels
        return _wrap_blur(np.exp(self.contrast * np.clip(z, -1.5, 1.5)),
                          self.correlation_length / 2.0)


@dataclass(frozen=True)
class PsfSpec:
    kind: object                      # Lenslets | Rml | Diffuser
    size: tuple[int, int] = (32, 32)
    seed: int = 0


def generate_psf(spec: PsfSpec) -> np.ndarray:
    """Generate the PSF grid for a spec; unit mass, deterministic per seed."""
    if not hasattr(spec.kind, "grid"):
        raise TypeError(f"unknown PSF kind: {spec.kind!r}")
    h, w = spec.size
    if h < 1 or w < 1:
        raise DimensionError(f"PSF grids must be at least 1x1, got size {h}x{w}")
    grid = spec.kind.grid(h, w, spec_rng(spec.seed, spec))
    with np.errstate(over="ignore"):
        mass = float(grid.sum())
    if not 0 < mass < np.inf:
        raise ValueError(f"PSF mass must be finite and positive, got {mass!r}")
    return grid / mass


def multiplexing_index(psf) -> float:
    """Inverse participation ratio normalized by pixel count.

    1/N for a delta PSF, 1 for a uniform PSF; invariant to rescaling.
    """
    p = np.asarray(psf, dtype=float)
    s1 = p.sum()
    if s1 <= 0:
        raise ValueError("PSF mass must be positive")
    return float(s1 * s1 / (p.size * np.sum(p * p)))
