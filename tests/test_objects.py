import numpy as np
import pytest

from lensless_crb import DenseCells, ObjectSpec, SparseBeads, generate_object, sparsity


class TestSparseBeads:
    def test_single_bead(self):
        g = generate_object(ObjectSpec(SparseBeads(1), (32, 32), 100.0, 0))
        assert np.count_nonzero(g) == 1
        assert g.max() == 100.0

    def test_bead_count_and_amplitude(self):
        g = generate_object(ObjectSpec(SparseBeads(10), (32, 32), 100.0, 3))
        nz = g[g > 0]
        assert nz.size == 10
        assert np.all(nz == 100.0)

    def test_sparsity_exact(self):
        g = generate_object(ObjectSpec(SparseBeads(10), (32, 32), 100.0, 3))
        assert sparsity(g) == 10 / 1024

    def test_too_many_beads(self):
        with pytest.raises(ValueError):
            generate_object(ObjectSpec(SparseBeads(100), (8, 8), 100.0, 0))


class TestDenseCells:
    def test_postconditions(self):
        g = generate_object(ObjectSpec(DenseCells(6, (3.0, 6.0)), (32, 32), 100.0, 7))
        assert sparsity(g) >= 0.4
        assert g.max() == 100.0
        assert np.all(g >= 0)

    def test_values_bounded_by_peak(self):
        for seed in range(5):
            g = generate_object(ObjectSpec(DenseCells(), (32, 32), 100.0, seed))
            assert g.max() == 100.0 and g.min() >= 0


@pytest.mark.parametrize("peak", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("kind", [SparseBeads(), DenseCells()])
def test_peak_must_be_finite_and_positive(kind, peak):
    with pytest.raises(ValueError):
        generate_object(ObjectSpec(kind, (16, 16), peak, 0))


class TestUnknownKind:
    @pytest.mark.parametrize("kind", ["beads", None, SparseBeads])
    def test_non_kind_rejected(self, kind):
        with pytest.raises(TypeError):
            generate_object(ObjectSpec(kind, (16, 16), 100.0, 0))


class TestDeterminism:
    @pytest.mark.parametrize("kind", [SparseBeads(7), DenseCells(4)])
    def test_same_spec_same_object(self, kind):
        spec = ObjectSpec(kind, (16, 16), 50.0, 99)
        np.testing.assert_array_equal(generate_object(spec), generate_object(spec))


class TestSparsity:
    def test_all_zero(self):
        assert sparsity(np.zeros((4, 4))) == 0.0

    def test_single_nonzero(self):
        g = np.zeros((32, 32))
        g[0, 0] = 5.0
        assert sparsity(g) == 1 / 1024
