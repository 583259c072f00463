"""Pinned trace bytes: episodes must serialize to fixed hashes.

Replay only checks a trace against the code that re-runs it, so a change
that shifts trace bits in every run alike passes replay.  The repair-run
hashes were recorded before the lagged-feature kernel replaced
per-candidate rollouts in reflect; the fit-only hashes before the RNG
streams were addressed by counter, the model digest was kept while the
model is unchanged and lags were looked up by position.  All five were
re-pinned once, for format 2, which drops the per-tick horizon map
(``predicted``) from every record: the format-1 bytes of each episode,
with that key deleted and the header's ``format_version`` set to 2, are
exactly the format-2 bytes.  All five moved again for format 3, where
``predict_next`` and the repair loop's residual fits sum edge effects by
the kernel's rule (each target's change from 0.0, then added to the state
once) instead of subtracting or adding each term on its own, so each
reflect block's epsilon equals its record's.  Predictions, epsilons and
residual-fit coefficients moved in the last bits; the fit-only
``break_demo`` bytes moved only in the header's ``format_version``, as a
target with one edge sums the same either way.  All five were re-pinned
for format 4, where the repair loop shares its candidate budget across the
offending dimensions, round robin, with the StructuralBreak second: only
the ``wide4`` repair run, whose budget the old order filled with its first
dimensions' edits, moved beyond its header; the other four, with the
header's ``format_version`` set back to 3, are exactly their format-3
bytes.  All five were re-pinned for format 5, where the scheduled fit and
a structural break's refit share one least-squares rule (a target the
window cannot fit keeps its coefficients, and a fit is refused only when
no target can be fitted) and a clamped delta is always a float: none of
the five has such a target or clamp, so each, with the header's
``format_version`` set back to 4, is exactly its format-4 bytes.  All five
were re-pinned for format 6, which writes each repair candidate as one
flat row, ``[kind, *fields in declaration order, score]`` (an EdgeAdd's
source as its kind and its index), and each accepted edit as the same row
without the score, in place of two nested objects that named every key:
each one's format-5 bytes, with every candidate and accepted object
rewritten as its row and the header's ``format_version`` set to 6, are
exactly its format-6 bytes; the fit-only runs, which have no reflect
block, moved only in the header.  All five were re-pinned for format 7,
which writes only what cannot be derived: no record writes ``per_dim`` or
``epsilon`` (the reader rebuilds both with ``core.loss`` from
``predicted_next`` and ``observed``), and a record writes ``model_digest``
only beside its ``model_snapshot`` (the reader carries the last
snapshot's digest forward).  Each one's format-6 bytes, with ``per_dim``
and ``epsilon`` deleted from every record, ``model_digest`` deleted from
every record without a snapshot and the header's ``format_version`` set
to 7, are exactly its format-7 bytes; so are those of all 264 traces of
``tools/trace_digests.py --seeds 1 2``.  All five were re-pinned for
format 8, where a record after tick 0 writes neither ``state`` (the reader
takes the previous record's ``observed``) nor ``delta_hat`` (it takes the
last snapshot's), and no record writes a null ``reflect``, ``fit_event``
or ``model_snapshot``.  Each one's format-7 bytes, with ``state`` and
``delta_hat`` deleted from every record after tick 0, each null
``reflect``, ``fit_event`` and ``model_snapshot`` deleted, and the
header's ``format_version`` set to 8, are exactly its format-8 bytes; so
are those of all 264 traces of ``tools/trace_digests.py --seeds 1 2``.  A
speed change must leave them alone.  If they ever need to move, the trace format moved: bump
``TRACE_FORMAT_VERSION`` and say so in CHANGES.md.
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
    "break_demo": (240, "b9a478d1fc45d7320b265deb1202b9fbbc271e687954197e031c4216d150431f"),
    "productivity": (160, "64fc4b2cee7b9e5b62ff6e2d1eaacf34f66d5b7787ada62bd0587034e01970d6"),
    "wide4": (60, "5db34754da0da0642e5b4d8ed79812dada83b7689c8f90862335a74178380cb3"),
}

# Fit-only (``reflect_enabled=False``): the model changes only at applied
# scheduled fits, so most ticks reuse the previous tick's digest.
PINNED_FIT_ONLY = {
    "break_demo": (300, "1cd780e394bea51930b5f99b7e271c0347e4ab0b68e1a4850f5c52c5ad92e1c5"),
    "wide4": (120, "acd0e486578c74605c2c4355f504c9e0861092eac9889033da45f309e8a0a28e"),
}


def _scenario(name: str) -> ScenarioConfig:
    return _wide4() if name == "wide4" else builtin_scenarios()[name]


def test_format_version_is_pinned():
    assert TRACE_FORMAT_VERSION == 8


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


def test_reflect_epsilon_is_the_record_epsilon():
    """The mismatch reflect acts on is the one the record states: both
    predictions of the triggering tick sum by one rule."""
    length, _ = PINNED["wide4"]
    trace = run_episode(_wide4(), RandomPolicy(), SEED, length, reflect_enabled=True)
    blocks = [r for r in trace.records if r.reflect is not None]
    assert len(blocks) >= 10
    for r in blocks:
        assert r.reflect["epsilon"].hex() == r.epsilon.hex(), r.tick
