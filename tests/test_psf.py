from dataclasses import dataclass

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from lensless_crb import (
    Diffuser,
    Lenslets,
    PlacementError,
    PsfSpec,
    Rml,
    cli,
    generate_psf,
    multiplexing_index,
)
from lensless_crb.psf import _wrap_blur


@dataclass(frozen=True)
class _Constant:
    """A PSF kind whose grid holds one value."""

    value: float

    def grid(self, h, w, rng):
        return np.full((h, w), self.value)


def local_maxima(grid):
    """Strict 8-neighbor local maxima as (row, col) pairs."""
    h, w = grid.shape
    out = []
    for r in range(h):
        for c in range(w):
            v = grid[r, c]
            neigh = grid[max(r - 1, 0):r + 2, max(c - 1, 0):c + 2]
            if v == neigh.max() and np.count_nonzero(neigh == v) == 1:
                out.append((r, c))
    return out


class TestLenslets:
    def test_single_lens_centered(self):
        p = generate_psf(PsfSpec(Lenslets(1), (32, 32), 0))
        assert np.unravel_index(np.argmax(p), p.shape) == (16, 16)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_lens_positions(self):
        p = generate_psf(PsfSpec(Lenslets(2), (32, 32), 0))
        peaks = {m for m in local_maxima(p) if p[m] > 0.5 * p.max()}
        assert peaks == {(16, 8), (16, 24)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_spot_count(self, n):
        p = generate_psf(PsfSpec(Lenslets(n), (32, 32), 0))
        peaks = [m for m in local_maxima(p) if p[m] > 0.5 * p.max()]
        assert len(peaks) == n

    def test_small_grid_rejected_for_multi_spot(self):
        with pytest.raises(Exception):
            generate_psf(PsfSpec(Lenslets(3), (4, 4), 0))


class TestRml:
    def test_deterministic(self):
        a = generate_psf(PsfSpec(Rml(), (32, 32), 9))
        b = generate_psf(PsfSpec(Rml(), (32, 32), 9))
        np.testing.assert_array_equal(a, b)

    def test_placement_budget_exhausted(self):
        with pytest.raises(PlacementError):
            generate_psf(PsfSpec(Rml(n_spots=40), (8, 8), 0))

    @pytest.mark.parametrize("widths", [(0.0, 0.0), (-1.0, 2.0), (2.0, 1.0),
                                        (0.6, np.inf), (np.nan, 2.0), (0.6, np.nan)])
    def test_widths_must_be_finite_and_positive(self, widths):
        # (0, 0) would divide by a zero width and give a NaN PSF
        with pytest.raises(ValueError):
            generate_psf(PsfSpec(Rml(width_range=widths), (16, 16), 0))


class TestDiffuser:
    def test_high_multiplexing_occupancy(self):
        p = generate_psf(PsfSpec(Diffuser(correlation_length=3, contrast=2),
                                 (32, 32), 42))
        occupancy = np.mean(p > 0.1 * p.max())
        assert occupancy >= 0.30

    def test_deterministic(self):
        spec = PsfSpec(Diffuser(), (32, 32), 7)
        np.testing.assert_array_equal(generate_psf(spec), generate_psf(spec))

    @pytest.mark.parametrize("kwargs", [
        {"correlation_length": 0.5}, {"correlation_length": np.nan},
        {"correlation_length": np.inf}, {"contrast": np.nan},
        {"contrast": np.inf}, {"contrast": -np.inf}])
    def test_parameters_must_be_finite(self, kwargs):
        with pytest.raises(ValueError):
            generate_psf(PsfSpec(Diffuser(**kwargs), (16, 16), 0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("contrast", [1000, -1000])
    def test_contrast_that_overflows_is_rejected(self, contrast):
        with pytest.raises(ValueError, match="contrast"):
            generate_psf(PsfSpec(Diffuser(contrast=contrast), (16, 16), 0))


def _ndimage_diffuser(kind, h, w, rng):
    """Diffuser.grid as written with scipy.ndimage, the reference for the blur."""
    z = gaussian_filter(rng.standard_normal((h, w)), sigma=kind.correlation_length,
                        mode="wrap")
    z = (z - z.mean()) / z.std()
    return gaussian_filter(np.exp(kind.contrast * np.clip(z, -1.5, 1.5)),
                           sigma=kind.correlation_length / 2.0, mode="wrap")


class TestWrapBlur:
    @pytest.mark.parametrize("sigma", [0.5, 1, 1.5, 3, 7.3])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 17), (17, 1),
                                       (2, 2), (3, 5), (7, 4), (16, 16), (31, 9),
                                       (40, 40)])
    def test_matches_ndimage_wrap_bit_for_bit(self, sigma, shape):
        # grids smaller than the kernel radius wrap round several times
        a = np.random.default_rng(100 * shape[0] + shape[1]).standard_normal(shape) * 10.0
        assert np.array_equal(_wrap_blur(a, sigma),
                              gaussian_filter(a, sigma, mode="wrap"))

    def test_random_grids_match_ndimage(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            shape = tuple(rng.integers(1, 41, size=2))
            sigma = float(rng.uniform(0.5, 12.0))
            a = rng.lognormal(0.0, 2.0, size=shape)
            assert np.array_equal(_wrap_blur(a, sigma),
                                  gaussian_filter(a, sigma, mode="wrap")), (shape, sigma)

    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    @pytest.mark.parametrize("kind", [Diffuser(), Diffuser(correlation_length=1.7,
                                                           contrast=-3.0)])
    def test_diffuser_matches_ndimage_reference(self, seed, kind):
        def rng():
            return np.random.default_rng(cli.derive_seed(seed, "psf"))
        assert np.array_equal(kind.grid(32, 32, rng()),
                              _ndimage_diffuser(kind, 32, 32, rng()))


class TestUnknownKind:
    @pytest.mark.parametrize("kind", ["lenslets", None, Lenslets])
    def test_non_kind_rejected(self, kind):
        with pytest.raises(TypeError):
            generate_psf(PsfSpec(kind, (16, 16), 0))


class TestNormalization:
    @pytest.mark.parametrize("name", list(cli.STUDY_PSFS))
    def test_unit_mass(self, name):
        p = cli.make_psf_grid({**cli.DEFAULTS, "seed": 11, **cli.STUDY_PSFS[name]})
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0)

    # 1.5 * 473 is just below log(largest float), so no exp overflows, but
    # the sum of the grid does
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", [Diffuser(contrast=473), Diffuser(contrast=-473),
                                      _Constant(0.0), _Constant(np.nan)])
    def test_mass_must_be_finite_and_positive(self, kind):
        with pytest.raises(ValueError, match="mass"):
            generate_psf(PsfSpec(kind, (16, 16), 0))


class TestMultiplexingIndex:
    def test_delta(self):
        p = np.zeros((32, 32))
        p[3, 5] = 1.0
        assert multiplexing_index(p) == pytest.approx(1 / 1024)

    def test_uniform(self):
        assert multiplexing_index(np.ones((32, 32))) == pytest.approx(1.0)

    def test_scale_invariance(self):
        p = generate_psf(PsfSpec(Lenslets(4), (32, 32), 0))
        assert multiplexing_index(p) == pytest.approx(multiplexing_index(17.3 * p),
                                                      rel=1e-12)

    def test_ordering_by_multiplexing(self):
        i1, i5, idiff = (multiplexing_index(cli.make_psf_grid(
            {**cli.DEFAULTS, "seed": 42, **cli.STUDY_PSFS[name]}))
            for name in ("lenslets1", "lenslets5", "diffuser"))
        assert i1 < i5 < idiff

    def test_zero_psf_rejected(self):
        with pytest.raises(ValueError):
            multiplexing_index(np.zeros((4, 4)))
