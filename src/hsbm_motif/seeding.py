"""Deterministic seed derivation for multi-stage, possibly parallel runs.

Every source of randomness in the library is a ``numpy.random.Generator``
constructed from a root seed plus a path of stage labels.  Two stages with
different label paths get statistically independent streams, and the mapping
is stable across runs and across execution order, so parallelising a stage
never changes its output.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK32 = 0xFFFFFFFF


def derive_rng(root_seed: int, *labels: str | int) -> np.random.Generator:
    """Generator for the stage identified by ``labels`` under ``root_seed``.
    Each label keys the stream by 32 bits: an integer's low bits, or the
    CRC-32 of any other label's UTF-8 text."""
    if root_seed < 0:
        raise ValueError(f"root seed must be non-negative, got {root_seed}")
    entropy = [int(root_seed)]
    for label in labels:
        integer = isinstance(label, (int, np.integer))
        entropy.append(int(label) & _MASK32 if integer else zlib.crc32(str(label).encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(entropy))
