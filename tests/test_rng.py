"""Deterministic stream derivation, pinned against frozen vectors."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalloop import rng

VECTORS = json.loads((Path(__file__).parent / "data" / "rng_vectors.json").read_text())


def test_scheme_identity():
    assert rng.GENERATOR_NAME == VECTORS["generator"]
    assert rng.SCHEME_VERSION == VECTORS["scheme_version"]


def check_frozen_vectors(make):
    for v in VECTORS["vectors"]:
        gen = make(v["seed"], v["stream"], v["tick"])
        got = gen.uniform(-1.0, 1.0, size=4)
        assert got.tolist() == v["uniform"], (v["seed"], v["stream"], v["tick"])
        gen = make(v["seed"], v["stream"], v["tick"])
        got = gen.normal(0.0, 1.0, size=4)
        assert got.tolist() == v["normal"], (v["seed"], v["stream"], v["tick"])


def test_frozen_vectors():
    check_frozen_vectors(rng.stream)


def test_frozen_vectors_through_the_shared_generator():
    check_frozen_vectors(rng.shared_stream)


def test_streams_are_independent():
    a = rng.stream(7, rng.STREAM_WORLD).uniform(size=8)
    b = rng.stream(7, rng.STREAM_POLICY).uniform(size=8)
    c = rng.stream(8, rng.STREAM_WORLD).uniform(size=8)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_tick_jump_matches_manual_construction():
    manual = np.random.Generator(
        np.random.Philox(key=np.array([42, 1], dtype=np.uint64)).jumped(13)
    ).uniform(size=4)
    derived = rng.stream(42, rng.STREAM_WORLD, tick=13).uniform(size=4)
    assert derived.tolist() == manual.tolist()


def test_same_inputs_same_draws():
    a = rng.stream(3, 2, 5).normal(size=16)
    b = rng.stream(3, 2, 5).normal(size=16)
    assert a.tolist() == b.tolist()


def test_distinct_ticks_distinct_draws():
    a = rng.stream(3, 1, 5).uniform(size=8)
    b = rng.stream(3, 1, 6).uniform(size=8)
    assert not np.allclose(a, b)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.one_of(st.integers(0, 2**16), st.integers(0, 2**40)),
)
def test_counter_address_is_the_tick_jump(seed, stream_id, tick):
    """Setting the counter to tick * 2**128 is the scheme's ``jumped(tick)``,
    for a new generator and for the shared one re-addressed after draws."""
    key = np.array([seed, stream_id], dtype=np.uint64)
    rng.shared_stream(seed, stream_id, tick + 1).normal(size=3)  # leave it mid-buffer
    for make in (rng.stream, rng.shared_stream):
        jumped = np.random.Philox(key=key).jumped(tick)
        gen = make(seed, stream_id, tick)
        assert repr(gen.bit_generator.state) == repr(jumped.state)
        expected = np.random.Generator(jumped)
        assert gen.uniform(-1.0, 1.0, size=5).tolist() == expected.uniform(-1.0, 1.0, size=5).tolist()
        assert gen.normal(size=3).tolist() == expected.normal(size=3).tolist()
        assert gen.integers(2**32, size=3).tolist() == expected.integers(2**32, size=3).tolist()


def test_generators_for_one_address_share_no_state():
    a = rng.stream(5, rng.STREAM_WORLD, 9)
    b = rng.stream(5, rng.STREAM_WORLD, 9)
    first = a.uniform(size=4).tolist()
    assert b.uniform(size=4).tolist() == first
    assert rng.stream(5, rng.STREAM_WORLD, 9).uniform(size=4).tolist() == first


def test_shared_stream_leaves_a_stream_generator_alone():
    """Re-addressing the shared generator between draws from a ``stream()``
    generator for the same address does not move the latter."""
    alone = rng.stream(5, rng.STREAM_WORLD, 9).uniform(size=6).tolist()
    gen = rng.stream(5, rng.STREAM_WORLD, 9)
    first = gen.uniform(size=3).tolist()
    rng.shared_stream(5, rng.STREAM_WORLD, 9).uniform(size=4)
    rng.shared_stream(5, rng.STREAM_WORLD, 10).normal(size=4)
    assert first + gen.uniform(size=3).tolist() == alone


def test_shared_stream_is_one_generator_per_stream_id():
    """Each stream id keeps its own shared generator, so a policy draw does
    not move a world generator that is still in use."""
    world = rng.shared_stream(5, rng.STREAM_WORLD, 9)
    assert rng.shared_stream(6, rng.STREAM_WORLD, 2) is world
    world = rng.shared_stream(5, rng.STREAM_WORLD, 9)
    first = world.uniform(size=2).tolist()
    assert rng.shared_stream(5, rng.STREAM_POLICY, 9) is not world
    rng.shared_stream(5, rng.STREAM_POLICY, 9).uniform(size=4)
    expected = rng.stream(5, rng.STREAM_WORLD, 9).uniform(size=4).tolist()
    assert first + world.uniform(size=2).tolist() == expected


def test_interleaved_shared_streams_draw_what_stream_draws():
    """``shared_stream`` rewrites each stream id's kept state in place: one
    interleaved run over both stream ids, two seeds and ticks on both sides
    of 2**64 (where the counter carries into its top word) draws, at every
    address, what a fresh ``stream`` draws, half-used buffers included."""
    ticks = (0, 7, 2**64 - 1, 2**64, 2**64 + 3, 2**70, 5)
    for n, (tick, seed, stream_id) in enumerate(
        (t, s, i) for t in ticks for s in (11, 2**63 + 5) for i in (rng.STREAM_WORLD, rng.STREAM_POLICY)
    ):
        shared = rng.shared_stream(seed, stream_id, tick)
        fresh = rng.stream(seed, stream_id, tick)
        assert repr(shared.bit_generator.state) == repr(fresh.bit_generator.state)
        draws = n % 3 + 1  # 1-3 normals leave the 4-word output buffer part-used
        assert shared.normal(size=draws).tolist() == fresh.normal(size=draws).tolist()
        assert shared.random(2).tolist() == fresh.random(2).tolist()


def test_negative_seed_or_tick_is_refused():
    for make in (rng.stream, rng.shared_stream):
        with pytest.raises(ValueError):
            make(-1, rng.STREAM_WORLD, 0)
        with pytest.raises(ValueError):
            make(0, rng.STREAM_WORLD, -1)
