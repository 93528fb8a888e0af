"""Counter-based random streams.

All randomness in the package flows through Philox generators keyed by a
seed and a path: a tuple of small non-negative integers naming the consumer,
such as ``(KIND_FRINGE, point, ROLE_SOURCE)`` or ``(KIND_PUMP, k, j,
ROLE_DETECTION)``.  The seed is the ``SeedSequence`` entropy and the path its
spawn key, so two different (seed, path) keys never share a stream: paths of
different lengths stay apart (a trailing 0 is not padding), and seeds below
2**128 and path entries below 2**32 each fill a fixed number of words.
Philox is counter based and splittable, so every stream is independent and a
sampled sequence is a pure function of its key.

Samplers that need per-item addressability draw a fixed block of
``DRAWS_PER_ITEM`` uniforms per item.  One Philox counter step yields four
64-bit draws, so item ``j`` starts at counter offset ``2 * j`` and ranges of
items can be generated concurrently without generating their predecessors.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

# Stream roles within one simulated scan point.
ROLE_SOURCE = 0
ROLE_DETECTION = 1

# Run-kind tags used as the first path component by experiment runners.
KIND_FRINGE = 1
KIND_LOCAL = 2
KIND_CROSSOVER = 3
KIND_TAU = 4
KIND_PUMP = 5
KIND_CHSH = 6
KIND_TIMETAGS = 7

DRAWS_PER_ITEM = 8
_BLOCKS_PER_ITEM = DRAWS_PER_ITEM // 4

# Shifts a 2**-53-grid uniform from [0, 1) to the open interval (0, 1),
# keeping it symmetric about 1/2 so inverse-CDF transforms stay unbiased
# and finite.
OPEN_INTERVAL_SHIFT = 2.0 ** -54


def stream_key(stream) -> tuple:
    """A stream's key path: a tuple as given, an int k as (k,)."""
    return stream if isinstance(stream, tuple) else (stream,)


def item_uniforms(seed: int, path: tuple[int, ...], n_items: int, start: int = 0) -> np.ndarray:
    """(n_items, DRAWS_PER_ITEM) uniforms on (0, 1) for items start..start+n_items.

    Row ``i`` depends only on the key and on ``start + i``, never on
    ``n_items`` or on previous calls.
    """
    if n_items < 0 or start < 0:
        raise ValueError("n_items and start must be non-negative")
    path = tuple(map(int, path))
    if not 0 <= int(seed) < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    if not all(0 <= p < 2**32 for p in path):
        raise ValueError(f"stream path entries must lie in [0, 2**32), got {path}")
    bitgen = Philox(SeedSequence(int(seed), spawn_key=path))
    if start:
        bitgen.advance(_BLOCKS_PER_ITEM * start)
    u = Generator(bitgen).random(size=(n_items, DRAWS_PER_ITEM))
    u += OPEN_INTERVAL_SHIFT
    return u
