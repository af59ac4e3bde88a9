import json

import numpy as np
import pytest

from lensless_crb.storage import (
    checksum_tree,
    read_grid_csv,
    read_pgm16,
    sha256_file,
    write_grid_csv,
    write_manifest,
    write_pgm16,
)


class TestGridCsv:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = rng.uniform(1e-12, 1e6, size=(9, 7)) * rng.choice([1, 1e-9, 1e9],
                                                                 size=(9, 7))
        path = tmp_path / "g.csv"
        write_grid_csv(path, grid)
        np.testing.assert_array_equal(read_grid_csv(path), grid)

    def test_header_line(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid_csv(path, np.zeros((3, 5)))
        assert path.read_text().splitlines()[0] == "3,5"

    def test_one_dimensional_input_becomes_row(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid_csv(path, np.array([1.0, 2.0, 3.0]))
        assert read_grid_csv(path).shape == (1, 3)

    def test_header_mismatch_detected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("2,2\n1.0,2.0\n")
        with pytest.raises(ValueError):
            read_grid_csv(path)


class TestPgm16:
    def test_round_trip_and_scale(self, tmp_path):
        grid = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "g.pgm"
        scale = write_pgm16(path, grid)
        assert scale == 65535.0
        back = read_pgm16(path)
        np.testing.assert_array_equal(back, np.rint(grid * scale))

    def test_binary_header(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_pgm16(path, np.ones((2, 3)))
        assert path.read_bytes().startswith(b"P5\n3 2\n65535\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected(self, tmp_path, bad):
        path = tmp_path / "g.pgm"
        with pytest.raises(ValueError):
            write_pgm16(path, np.array([[1.0, bad]]))
        assert not path.exists()

    def test_negative_grid_rejected(self, tmp_path):
        # a negative sample would wrap in the unsigned cast and show as mid-gray
        path = tmp_path / "g.pgm"
        with pytest.raises(ValueError, match="non-negative"):
            write_pgm16(path, np.array([[-1.0, 2.0]]))
        assert not path.exists()

    def test_all_zero_grid(self, tmp_path):
        path = tmp_path / "g.pgm"
        assert write_pgm16(path, np.zeros((2, 2))) == 0.0
        np.testing.assert_array_equal(read_pgm16(path), 0.0)


class TestManifestAndChecksums:
    def test_manifest_sorted_and_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, {"b": 1, "a": {"z": 2, "y": 3}})
        text = path.read_text()
        assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}
        assert text.index('"a"') < text.index('"b"')

    def test_checksum_tree_excludes_manifest(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.csv").write_text("x")
        (tmp_path / "sub" / "b.csv").write_text("y")
        (tmp_path / "manifest.json").write_text("{}")
        tree = checksum_tree(tmp_path)
        assert set(tree) == {"a.csv", "sub/b.csv"}
        assert tree["a.csv"] == sha256_file(tmp_path / "a.csv")
