"""File formats: round-trip CSV grids, 16-bit PGM previews, JSON manifests.

CSV carries full float precision (shortest round-trip repr) so re-reading a
file reproduces the array bit-exactly. PGM is binary P5 with 16-bit
big-endian samples, linearly scaled to the full range; the scale factor is
returned so manifests can record it.
"""

import hashlib
import json
from pathlib import Path

import numpy as np


def write_grid_csv(path, grid) -> None:
    """Write a 2-D array as CSV with a ``height,width`` header line."""
    a = np.asarray(grid, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    lines = [f"{a.shape[0]},{a.shape[1]}"]
    for row in a:
        lines.append(",".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_grid_csv(path) -> np.ndarray:
    """Read a grid written by :func:`write_grid_csv`; bit-exact round trip."""
    lines = Path(path).read_text().strip().split("\n")
    h, w = (int(x) for x in lines[0].split(","))
    a = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if a.shape != (h, w):
        raise ValueError(f"CSV header says {h}x{w}, body is {a.shape}")
    return a


def write_pgm16(path, grid) -> float:
    """Write a 2-D array as 16-bit binary PGM, max-scaled; returns the scale."""
    a = np.asarray(grid, dtype=float)
    if not np.all((a >= 0) & (a < np.inf)):
        raise ValueError("PGM grids must be finite and non-negative")
    peak = float(a.max())
    scale = 65535.0 / peak if peak > 0 else 0.0
    samples = np.rint(a * scale).astype(">u2")
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + samples.tobytes())
    return scale


def read_pgm16(path) -> np.ndarray:
    """Read a binary P5 PGM with 16-bit samples (as written by write_pgm16)."""
    raw = Path(path).read_bytes()
    magic, dims, maxval, body = raw.split(b"\n", 3)
    if magic != b"P5":
        raise ValueError("not a binary PGM file")
    w, h = (int(x) for x in dims.split())
    if int(maxval) != 65535:
        raise ValueError("expected 16-bit samples")
    return np.frombuffer(body, dtype=">u2", count=h * w).reshape(h, w).astype(float)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def checksum_tree(root) -> dict[str, str]:
    """sha256 of every file under root (relative paths), manifest.json excluded."""
    root = Path(root)
    return {
        str(p.relative_to(root)): sha256_file(p)
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
