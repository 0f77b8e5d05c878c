"""The one seeding scheme: every random stream is ``rng(seed, *key)``, a
PCG64 generator on ``SeedSequence(seed, spawn_key=key)``. Distinct keys give
independent streams, so adding a draw in one place never shifts another."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


def _sequence(seed: int, key) -> np.random.SeedSequence:
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed, spawn_key=key)


def rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_sequence(seed, key)))


def sub_seed(seed: int, *key: int) -> int:
    """An int seed for a config that builds its own streams, e.g. one per grid cell."""
    return int(_sequence(seed, key).generate_state(1)[0])


def sample_box(bbox: np.ndarray, count: int, gen: np.random.Generator, shrink: float = 0.0) -> np.ndarray:
    """Uniform points in the box, optionally shrunk by ``shrink`` of each side's span."""
    lo, hi = bbox[:, 0], bbox[:, 1]
    if shrink:
        pad = shrink * (hi - lo)
        lo, hi = lo + pad, hi - pad
    return gen.uniform(lo, hi, size=(count, bbox.shape[0]))
