"""The lagged-feature kernel against plain per-row reference loops, bit for bit.

The references below resolve every lag afresh for every row, the way
rollout, scoring and testing worked before one kernel served a whole
reflect trigger.  Results are compared as ``float.hex`` strings, so a sign
of zero or a last-place difference counts.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from causalloop.core import ActionVec, CausalTuple, StateVec, TimeIndex, Transition, loss
from causalloop.model import CausalModel, append_history, rollout
from causalloop.reflect import (
    ReflectSettings,
    StructuralBreak,
    apply_hypothesis,
    reflect,
    score_hypothesis,
)
from causalloop.reflect import test_hypothesis as holdout_test
from causalloop.world import SourceKind

from helpers import random_graph


def reference_rollout(graph, delta_hat, history, rows, lenient=False):
    by_tick = {tr.tuple.time.tick: tr.tuple for tr in history}
    scale = math.exp(-delta_hat)
    out = []
    for tr in rows:
        change = [0.0] * graph.d_state
        ok = True
        for e in graph.edges:
            tick = tr.tuple.time.tick + 1 - e.delay
            if tick < 0:
                v = 0.0
            elif tick in by_tick:
                tup = by_tick[tick]
                vec = tup.action if e.source.kind is SourceKind.ACTION else tup.state
                v = vec[e.source.index]
            elif lenient:
                continue
            else:
                ok = False
                break
            change[e.target] += e.coefficient * e.form.apply(v) * scale
        pred = StateVec(tuple(s + c for s, c in zip(tr.tuple.state.values, change)))
        out.append(pred if ok else None)
    return out


def reference_score(m, h, window):
    applied = apply_hypothesis(m, h)
    preds_h = reference_rollout(applied.graph, applied.delta_hat, m.history, window)
    preds_m = reference_rollout(m.graph, m.delta_hat, m.history, window)
    two_var = 2.0 * m.sigma_lik**2
    total = 0.0
    for tr, ph, pm in zip(window, preds_h, preds_m):
        if ph is None or pm is None:
            continue
        sq_m = sum((o - p) ** 2 for o, p in zip(tr.observed.values, pm.values))
        sq_h = sum((o - p) ** 2 for o, p in zip(tr.observed.values, ph.values))
        total += (sq_m - sq_h) / two_var
    return total


def reference_test(m, h, holdout, rho):
    applied = apply_hypothesis(m, h)
    preds_h = reference_rollout(applied.graph, applied.delta_hat, m.history, holdout)
    preds_m = reference_rollout(m.graph, m.delta_hat, m.history, holdout)
    sq_m = sq_h = 0.0
    n = 0
    for tr, ph, pm in zip(holdout, preds_h, preds_m):
        if ph is None or pm is None:
            continue
        sq_m += loss(pm, tr.observed).epsilon
        sq_h += loss(ph, tr.observed).epsilon
        n += 1
    if n == 0:
        return None
    return sq_m / n, sq_h / n


def bits(preds):
    return [None if p is None else [v.hex() for v in p.values] for p in preds]


def transitions(rng, d_state, d_action, ticks):
    out = []
    for t in ticks:
        tup = CausalTuple(
            StateVec(tuple(rng.uniform(-2.0, 2.0, size=d_state))),
            ActionVec(tuple(rng.uniform(-1.0, 1.0, size=d_action))),
            TimeIndex(t),
        )
        out.append(Transition(tup, 1, StateVec(tuple(rng.uniform(-2.0, 2.0, size=d_state)))))
    return out


def flushed_model(seed):
    """A model whose history was cut by a StructuralBreak, then grew again,
    so lags just after the cut point into a gap."""
    rng = np.random.default_rng(seed)
    d_state = int(rng.integers(1, 5))
    d_action = int(rng.integers(1, 3))
    graph = random_graph(rng, d_state, d_action, max_edges=8, max_delay=4)
    before = int(rng.integers(4, 24))
    after = int(rng.integers(4, 24))
    delta_hat = float(rng.uniform(-0.5, 0.5))
    m = CausalModel(graph=graph, delta_hat=delta_hat, fit_window=int(rng.integers(10, 30)))
    for tr in transitions(rng, d_state, d_action, range(before)):
        m = append_history(m, tr)
    m = apply_hypothesis(m, StructuralBreak(keep=int(rng.integers(0, 4))))
    for tr in transitions(rng, d_state, d_action, range(before, before + after)):
        m = append_history(m, tr)
    return m, rng


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_rollout_matches_reference_loop(seed, lenient):
    m, rng = flushed_model(seed)
    lo = int(rng.integers(0, len(m.history)))
    rows = m.history[lo:]
    got = rollout(m.graph, m.delta_hat, m.history, rows, lenient)
    assert bits(got) == bits(reference_rollout(m.graph, m.delta_hat, m.history, rows, lenient))


def test_flushed_histories_leave_gaps():
    gapped = 0
    for seed in range(20):
        m, _ = flushed_model(seed)
        gapped += None in rollout(m.graph, m.delta_hat, m.history, m.history)
    assert gapped >= 5


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reflect_scores_and_tests_match_reference(seed):
    m, _ = flushed_model(seed)
    ctx = m.history[-1]
    holdout_size = 4
    report = reflect(m, ctx, tau=0.0, settings=ReflectSettings(holdout=holdout_size))
    assert report.triggered
    window = m.history[-m.fit_window :]
    holdout = window[-holdout_size:]
    scoring = window[:-holdout_size] if len(window) > holdout_size else ()
    for hs in report.candidates:
        standalone = score_hypothesis(m, hs.hypothesis, scoring)
        assert hs.score.hex() == standalone.hex()
        assert standalone.hex() == reference_score(m, hs.hypothesis, scoring).hex()
        expected = reference_test(m, hs.hypothesis, holdout, 0.1)
        if expected is None:
            continue
        _, mse_m, mse_h = holdout_test(m, hs.hypothesis, holdout, 0.1)
        assert (mse_m.hex(), mse_h.hex()) == (expected[0].hex(), expected[1].hex())
