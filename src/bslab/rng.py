"""Deterministic random streams.

Every stochastic routine in the package draws from a named substream that
is a pure function of (master seed, integer path).  Philox is counter
based, so streams can be split arbitrarily without correlation, and a
replica or a per-vertex clock can be resampled in isolation: the stream
for (seed, replica, vertex) never depends on which other streams were
consumed.
"""
from __future__ import annotations

import enum

import numpy as np

__all__ = ["Stream", "substream"]


@enum.unique
class Stream(enum.IntEnum):
    """The first path element of every substream, one member per consumer.

    Each member is drawn at one call site.  The only path that starts with
    no member is the graphical construction's (replica, vertex) clock in
    dynamics.sample_graphical.  Two overlaps are live; removing either
    moves seeded outputs, so both stay:
    - MC_REPLICA's stream for replica r, substream(seed, 29, r), is also
      the clock of vertex r in graphical replica 29;
    - BLOCK_DIRECT feeds all three direct block samplers (stick, two-block
      and four-block) through blocks._direct_stats.
    """

    SIMULATE_INIT = 11  # cli simulate: the random initial configuration
    CLASSICAL_FITNESS = 17  # dynamics.classical_fitness_samples
    EMBEDDED_STEPS = 19  # cli simulate: the embedded chain's steps
    MC_REPLICA = 29  # montecarlo replica chains, path (29, replica)
    PERCOLATION_CONNECT = 31  # percolation.prob_connect_theta_sweep
    PERCOLATION_GOOD_LEVEL = 37  # percolation.prob_good_level
    BLOCK_DIRECT = 41  # blocks._direct_stats
    GRAPHICAL_BATCH = 71  # dynamics._graphical_chunks
    RANDOM_REGULAR = 93  # graphs._random_regular, path (93, n, d)


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for substream `path` of `master_seed`.

    The same (master_seed, path) always yields an identical stream, so
    results are reproducible regardless of scheduling or thread count.
    """
    if master_seed is None:
        raise ValueError("a master seed is required")
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in path))
    return np.random.Generator(np.random.Philox(ss))
