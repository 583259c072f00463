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

An address is applied by setting a bit generator's whole ``.state``
(:func:`_state`): counter ``[0, 0, tick & mask, tick >> 64]``, key
``[seed, stream id]`` and an empty buffer (``buffer_pos`` 4,
``has_uint32`` 0, ``uinteger`` 0).  Nothing of the generator's earlier
state survives that, so one bit generator can be re-addressed any number
of times.  Two entry points give the same draws for one address:

* :func:`stream` builds an independent generator.  It is for callers that
  keep a generator, or hold two at once.
* :func:`shared_stream` re-addresses the one module-level generator of its
  stream id and returns it; the per-tick loop uses it, because building a
  ``Philox`` costs more than the draws a tick makes.  It keeps one state
  dict (:func:`_state`) beside each generator; each call rewrites the two
  counter words and the seed's key word in it, then assigns it whole.  The
  setter copies every field, and the rest (the stream id, the empty buffer)
  is the same for every address, so nothing earlier survives.  The generator it
  returns is valid only until the next ``shared_stream`` call for the same
  stream id, which re-addresses it: draw what a tick needs, then drop it.
  Generators of different stream ids never share state.  The shared
  generators are not locked, so episodes run one thread per process
  (``causalloop sweep`` runs its jobs in processes); a forked process
  re-addresses its copies before every use, so it draws what its parent
  would.

The generator identity ("philox4x64" plus a scheme version) is recorded in
trace headers; cross-check vectors for this scheme are frozen under
``tests/data/rng_vectors.json``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

GENERATOR_NAME = "philox4x64"
SCHEME_VERSION = 1

# Stream ids; distinct consumers never share a key.
STREAM_WORLD = 1
STREAM_POLICY = 2

_WORD = 2**64 - 1
_EMPTY_BUFFER = (0, 0, 0, 0)

# Stream id -> the generator shared_stream re-addresses for it, and the
# state dict it writes each address into.
_SHARED: dict[int, tuple[np.random.Generator, dict[str, Any]]] = {}


def _state(seed: int, stream_id: int, tick: int) -> dict[str, Any]:
    """The whole Philox state of one (seed, stream, tick) address."""
    if seed < 0 or tick < 0:
        raise ValueError(f"seed and tick must be non-negative, got {seed}, {tick}")
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": [0, 0, tick & _WORD, (tick >> 64) & _WORD],
            "key": [seed, stream_id],
        },
        "buffer": _EMPTY_BUFFER,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def stream(seed: int, stream_id: int, tick: int = 0) -> np.random.Generator:
    """An independent generator for one (seed, stream, tick) address.

    Draws from the returned generator must happen in a fixed documented
    order; the address itself carries no draw state.
    """
    state = _state(seed, stream_id, tick)
    bit_generator = np.random.Philox(0)  # a fixed seed: the state replaces it
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def shared_stream(seed: int, stream_id: int, tick: int = 0) -> np.random.Generator:
    """The shared generator of ``stream_id``, set to one (seed, stream,
    tick) address; it draws what :func:`stream` would.

    It is valid only until the next call for the same stream id (see the
    module docstring).
    """
    if seed < 0 or tick < 0:
        raise ValueError(f"seed and tick must be non-negative, got {seed}, {tick}")
    shared = _SHARED.get(stream_id)
    if shared is None:
        shared = _SHARED[stream_id] = (np.random.Generator(np.random.Philox(0)), _state(0, stream_id, 0))
    gen, state = shared
    state["state"]["counter"][2:] = tick & _WORD, (tick >> 64) & _WORD
    state["state"]["key"][0] = seed
    gen.bit_generator.state = state
    return gen
