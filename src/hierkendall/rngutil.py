"""Seed handling.

All randomness flows through ``numpy.random.Generator`` objects. A single
64-bit master seed is split into independent substreams with
``SeedSequence(seed, spawn_key=path)``, where ``path`` is a tuple of small
integers naming the consumer (e.g. ``(STREAM_REPLICATION, cell, rep)`` for
one simulation-study replication). Streams are therefore reproducible and
independent of execution order or parallel scheduling. ``model_sample``
draws from the one generator it is given, in a fixed order.
"""

from __future__ import annotations

import numpy as np

from .errors import check_count

# stream namespaces used by the package (documented, stable)
STREAM_SIMULATE = 0      # the draw of the ``simulate`` command
STREAM_KENDALL = 1       # Monte Carlo builds of empirical Kendall functions
STREAM_REPLICATION = 2   # simulation-study replications
STREAM_FORECAST = 3      # VaR forecast draws, one per backtest refit day


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the RNG for substream ``path`` of the given master seed; a
    seed not an integer >= 0 is a ``ParameterError`` naming ``seed``."""
    check_count("seed", seed, 0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))

