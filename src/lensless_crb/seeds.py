"""Named, reproducible RNG substreams.

All randomness in the toolkit flows from one master seed. Substreams are
derived from (seed, name) or (seed, spec) pairs so that generation order,
chunking, and thread count never change results.
"""

import zlib

import numpy as np


def _tag(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def substream(master_seed: int, name: str) -> np.random.SeedSequence:
    """Seed sequence for the named substream of a master seed."""
    return np.random.SeedSequence([int(master_seed), _tag(name)])


def spec_rng(seed: int, spec) -> np.random.Generator:
    """Generator keyed to (seed, spec) so each spec owns an independent stream.

    The spec is hashed through its repr; dataclass reprs are deterministic
    functions of the field values.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), _tag(repr(spec))]))
