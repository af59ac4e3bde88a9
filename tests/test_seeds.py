import numpy as np

from lensless_crb.seeds import spec_rng, substream


class TestSubstream:
    def test_deterministic(self):
        a = substream(7, "psf").generate_state(4)
        b = substream(7, "psf").generate_state(4)
        np.testing.assert_array_equal(a, b)

    def test_names_are_independent(self):
        a = substream(7, "psf").generate_state(4)
        b = substream(7, "object").generate_state(4)
        assert not np.array_equal(a, b)

    def test_master_seed_matters(self):
        a = substream(7, "psf").generate_state(4)
        b = substream(8, "psf").generate_state(4)
        assert not np.array_equal(a, b)


class TestSpecRng:
    def test_spec_value_changes_stream(self):
        a = spec_rng(0, ("lenslets", 3)).standard_normal(5)
        b = spec_rng(0, ("lenslets", 4)).standard_normal(5)
        c = spec_rng(0, ("lenslets", 3)).standard_normal(5)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, c)
