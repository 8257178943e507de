"""Seeding and replication helpers.

Every random draw in the package flows through ``spawn_rng`` so that a
(seed, stream-key) pair fully determines the stream. Replications run
serially, in order, through ``parallel_map``: a thread pool over them
measured no faster on two cores, so the thread count has no effect.
"""

from __future__ import annotations

import numpy as np


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for stream ``key`` under the master ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def parallel_map(fn, items) -> list:
    """Map ``fn`` over ``items`` serially, in order."""
    return [fn(item) for item in items]
