"""Deterministic randomness for the whole package.

Every random draw anywhere in causalloop flows from one integer seed
through numpy's Philox bit generator (Philox 4x64, counter-based).  A
stream is addressed by ``key = (seed, stream id)`` and each tick gets its
own generator whose 256-bit counter starts at ``tick * 2**128``: counter
words ``[0, 0, tick, 0]``, least significant first.  Streams for
different ticks can never overlap, and a generator for tick t can be
built at any time without replaying ticks 0..t-1.  That property is what
makes traces replayable bit for bit.

Setting the counter directly is the same address as the scheme's first
form, ``Philox(key).jumped(tick)``: ``jumped(n)`` adds ``n * 2**128`` to
a zero counter, modulo ``2**256``, and leaves the output buffer empty, as
a fresh generator has it.  The two bit generators therefore hold the same
state (counter, key, buffer) and give the same draws; the direct form
only skips building one generator and then advancing a copy of it.
Ticks of ``2**64`` and more carry into the top word, as the jump does.

The generator identity ("philox4x64" plus a scheme version) is recorded in
trace headers; cross-check vectors for this scheme are frozen under
``tests/data/rng_vectors.json``.
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "philox4x64"
SCHEME_VERSION = 1

# Stream ids; distinct consumers never share a key.
STREAM_WORLD = 1
STREAM_POLICY = 2
STREAM_SCENARIO = 3

_WORD = 2**64 - 1


def stream(seed: int, stream_id: int, tick: int = 0) -> np.random.Generator:
    """Generator for one (seed, stream, tick) address.

    Draws from the returned generator must happen in a fixed documented
    order; the address itself carries no draw state.
    """
    if seed < 0 or tick < 0:
        raise ValueError(f"seed and tick must be non-negative, got {seed}, {tick}")
    counter = np.array([0, 0, tick & _WORD, (tick >> 64) & _WORD], dtype=np.uint64)
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))
