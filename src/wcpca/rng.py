"""Deterministic random number generation.

Every stochastic routine in the package draws from a counter-based Philox
generator so that results are reproducible from a single integer seed and
independent streams can be opened without coordination:

* restart r of an iterative solver uses ``make_rng(seed, stream=r)``;
* replicate j of an experiment uses a child seed from ``spawn_seed(seed, j)``.

Streams are implemented as disjoint offsets of the 256-bit Philox counter,
so different stream indices can never overlap for any realistic draw count.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

__all__ = ["make_rng", "as_rng", "spawn_seed"]

# Philox takes a 128-bit key, so every seed lies in [0, SEED_LIMIT).
SEED_LIMIT = 2**128


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Philox generator for stream ``stream`` of ``seed``.

    :param seed: base seed, a Python int with 0 <= seed < 2**128
    :param stream: stream index >= 0; each index yields a generator whose
        counter starts 2**192 draws apart from its neighbours
    """
    if not 0 <= seed < SEED_LIMIT:
        raise InvalidInput(f"seed must lie in [0, 2**128), got {seed}")
    if stream < 0:
        raise InvalidInput(f"stream must be nonnegative, got {stream}")
    bit_gen = np.random.Philox(key=seed)
    # advance() takes a 64-bit word count; jumping by whole high-word
    # increments keeps streams exactly 2**192 counter values apart.
    if stream:
        state = bit_gen.state
        counter = state["state"]["counter"].copy()
        counter[3] = stream  # highest 64-bit word of the 256-bit counter
        state["state"]["counter"] = counter
        bit_gen.state = state
    return np.random.Generator(bit_gen)


def as_rng(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    """Coerce an int seed or an existing Generator to a Generator.

    Existing generators pass through unchanged so callers can share one
    stream across several routines.
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return make_rng(int(seed_or_rng))


def spawn_seed(seed: int, stream: int) -> int:
    """Derive a child seed for replicate ``stream`` of ``seed``.

    The child is a single 63-bit draw from the stream's generator, which is
    independent across streams by the Philox counter construction.
    """
    rng = make_rng(seed, stream)
    return int(rng.integers(0, 2**63 - 1))
