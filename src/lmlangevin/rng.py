"""Deterministic, splittable random streams for chain ensembles.

Randomness is organized as one PCG64 stream per fixed-size block of chains,
derived as ``SeedSequence(entropy=seed, spawn_key=(block,))``.  The
block partition depends only on chain index, never on worker count, so a run
produces bit-identical results whether blocks execute sequentially or on a
thread pool.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK", "stream", "block_bounds", "ensemble_normal"]

BLOCK = 4096

# spawn-key namespaces for auxiliary streams (ground truth draws, projections)
GT_STREAM_OFFSET = 1 << 20
PROJ_STREAM_OFFSET = 1 << 21


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def block_bounds(n_chains: int) -> list[tuple[int, int]]:
    """Half-open [lo, hi) chain ranges, one per block."""
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    return [(lo, min(lo + BLOCK, n_chains)) for lo in range(0, n_chains, BLOCK)]


def ensemble_normal(seed: int, n_chains: int, cols: int) -> np.ndarray:
    """(n_chains, cols) standard normals, each chain block drawn from its own stream."""
    out = np.empty((n_chains, cols), dtype=np.float64)
    for b, (lo, hi) in enumerate(block_bounds(n_chains)):
        out[lo:hi] = stream(seed, b).standard_normal((hi - lo, cols))
    return out
