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


def label_key(label: str | int) -> int:
    """Stable 32-bit key for a stage label; integer labels pass through."""
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK32
    return zlib.crc32(str(label).encode("utf-8")) & _MASK32


def seed_sequence(root_seed: int, *labels: str | int) -> np.random.SeedSequence:
    """SeedSequence for a named stage, decorrelated from all other stages."""
    if root_seed < 0:
        raise ValueError(f"root seed must be non-negative, got {root_seed}")
    entropy = [int(root_seed)] + [label_key(lab) for lab in labels]
    return np.random.SeedSequence(entropy)


def derive_rng(root_seed: int, *labels: str | int) -> np.random.Generator:
    """Generator for the stage identified by ``labels`` under ``root_seed``."""
    return np.random.default_rng(seed_sequence(root_seed, *labels))


def seed_record(root_seed: int, *labels: str | int) -> dict:
    """Manifest entry describing how a stage seed was derived."""
    return {
        "root_seed": int(root_seed),
        "labels": [str(lab) for lab in labels],
        "entropy": [int(root_seed)] + [label_key(lab) for lab in labels],
    }
