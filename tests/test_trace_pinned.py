"""Pinned trace bytes: episodes must serialize to fixed hashes.

Replay only checks a trace against the code that re-runs it, so a change
that shifts trace bits in every run alike passes replay.  The repair-run
hashes were recorded before the lagged-feature kernel replaced
per-candidate rollouts in reflect; the fit-only hashes before the RNG
streams were addressed by counter, the model digest was kept while the
model is unchanged and lags were looked up by position.  A speed change
must leave them alone.  If they ever need to move, the trace format
moved: bump ``TRACE_FORMAT_VERSION`` and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from causalloop.agent import RandomPolicy, run_episode
from causalloop.scenario import ScenarioConfig, builtin_scenarios
from causalloop.trace import TRACE_FORMAT_VERSION, write_trace
from causalloop.world import CausalEdge, CausalGraph, ScheduledBreak, SourceKind

from helpers import random_graph

SEED = 7


def _wide4() -> ScenarioConfig:
    """4-dim random graph whose action edges flip and double at tick 30.

    Its repair run accepts every kind of edit but DeltaShift, including two
    StructuralBreaks, so later candidates are scored against flushed history.
    """
    rng = np.random.default_rng(10)
    g = random_graph(rng, 4, 2, max_edges=8, max_delay=3)
    flipped = tuple(
        CausalEdge(e.source, e.target, e.delay, -2.0 * e.coefficient, e.form)
        if e.source.kind is SourceKind.ACTION
        else e
        for e in g.edges
    )
    return ScenarioConfig(
        name="wide4",
        d_state=4,
        d_action=2,
        initial_state=tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=4)),
        graph=g,
        breaks=(ScheduledBreak(30, CausalGraph(4, 2, flipped)),),
        noise_sigma=0.05,
    )


PINNED = {
    "break_demo": (240, "330de7f4963c2e678a33bc1cfb262af5347688141e7b9e9890057e19a1191d8f"),
    "productivity": (160, "f41fef5c9475d6bfa515f93c96b083e5985caba9c30ba5709b448239e147f42c"),
    "wide4": (60, "be02bbf50dc65aedb6259942babeed50b7210cf30079cc3717550e77c38fd26e"),
}

# Fit-only (``reflect_enabled=False``): the model changes only at applied
# scheduled fits, so most ticks reuse the previous tick's digest.
PINNED_FIT_ONLY = {
    "break_demo": (300, "655d37153f4b58176aa5b518470818fc86b994693ff3a800a82dbd4a305a55b5"),
    "wide4": (120, "b398786257d3cad4eebc750a9893b2d2aeba1fd663414e2afbea111b4e074a24"),
}


def _scenario(name: str) -> ScenarioConfig:
    return _wide4() if name == "wide4" else builtin_scenarios()[name]


def test_format_version_is_pinned():
    assert TRACE_FORMAT_VERSION == 1


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_bytes_match_pinned_hash(name, tmp_path):
    length, expected = PINNED[name]
    trace = run_episode(_scenario(name), RandomPolicy(), SEED, length, reflect_enabled=True)
    assert any(r.reflect and r.reflect["accepted"] for r in trace.records)
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


@pytest.mark.parametrize("name", sorted(PINNED_FIT_ONLY))
def test_fit_only_trace_bytes_match_pinned_hash(name, tmp_path):
    length, expected = PINNED_FIT_ONLY[name]
    trace = run_episode(_scenario(name), RandomPolicy(), SEED, length, reflect_enabled=False)
    assert any(r.fit_event == "applied" for r in trace.records)
    assert len({r.model_digest for r in trace.records}) > 2
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected
