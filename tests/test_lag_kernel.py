"""The lagged-feature kernel against plain per-row reference loops, bit for bit.

The references below resolve every lag afresh for every row from a full
tick map, the way rollout, scoring and testing worked before one kernel
served a whole reflect trigger and lags were looked up by position.
``predict_next`` is held to ``reference_rollout``'s lenient arithmetic, the
one prediction rule, and reflect's residuals and the holdout MSE shared by
``test_hypothesis`` and the fit gate to the same references.  Results are
compared as ``float.hex`` strings, so a sign of zero or a last-place
difference counts.  Over the same random models, candidate generation is
held to its budget: it estimates nothing past it.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalloop.core import ActionVec, CausalTuple, StateVec, TimeIndex, Transition, loss
from causalloop.agent import _fit_improves
from causalloop.model import (
    CausalModel,
    _LagFeatures,
    _TickIndex,
    append_history,
    predict_next,
    rollout,
)
from causalloop.reflect import (
    ReflectSettings,
    StructuralBreak,
    apply_hypothesis,
    generate_hypotheses,
    reflect,
    score_hypothesis,
    _Baseline,
    _residuals,
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


def reference_mse(m, other, holdout):
    preds_o = reference_rollout(other.graph, other.delta_hat, m.history, holdout)
    preds_m = reference_rollout(m.graph, m.delta_hat, m.history, holdout)
    sq_m = sq_o = 0.0
    n = 0
    for tr, po, pm in zip(holdout, preds_o, preds_m):
        if po is None or pm is None:
            continue
        sq_m += loss(pm, tr.observed).epsilon
        sq_o += loss(po, tr.observed).epsilon
        n += 1
    if n == 0:
        return None
    return sq_m / n, sq_o / n


def reference_test(m, h, holdout, rho):
    return reference_mse(m, apply_hypothesis(m, h), holdout)


def reference_residuals(m, rows, target, exclude_edge):
    """Observed minus the strict reference prediction from the target's
    other edges."""
    others = tuple(
        e for i, e in enumerate(m.graph.edges) if i != exclude_edge and e.target == target
    )
    preds = reference_rollout(replace(m.graph, edges=others), m.delta_hat, m.history, rows)
    return [None if p is None else tr.observed[target] - p[target] for tr, p in zip(rows, preds)]


def bits(preds):
    return [None if p is None else hexes(p.values) for p in preds]


def hexes(values):
    return [None if v is None else v.hex() for v in values]


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
@given(st.integers(0, 2**32 - 1))
def test_rollout_matches_reference_loop(seed):
    m, rng = flushed_model(seed)
    lo = int(rng.integers(0, len(m.history)))
    rows = m.history[lo:]
    got = rollout(m.graph, m.delta_hat, m.history, rows)
    assert bits(got) == bits(reference_rollout(m.graph, m.delta_hat, m.history, rows))


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
    err = loss(predict_next(m, ctx.tuple), ctx.observed)
    report = reflect(m, ctx, err, tau=0.0, settings=ReflectSettings(holdout=holdout_size))
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_generation_stops_at_the_budget(seed, budget):
    """A budget keeps the first candidates of the unbounded order, and no
    residual fit runs once that many distinct candidates are in hand."""
    reflect_mod = importlib.import_module("causalloop.reflect")
    m, rng = flushed_model(seed)
    ctx = m.history[-1]
    err = loss(predict_next(m, ctx.tuple), ctx.observed)
    tau = float(rng.choice([0.0, rng.uniform(0.0, err.epsilon)]))
    real_candidates, real_fit = reflect_mod._candidates, reflect_mod._residual_fit
    yielded, fits_at = [], []

    def candidates(*args):
        for h in real_candidates(*args):
            yielded.append(h)
            yield h

    def residual_fit(*args):
        fits_at.append(len(set(yielded)))
        return real_fit(*args)

    with mock.patch.object(reflect_mod, "_candidates", candidates), mock.patch.object(
        reflect_mod, "_residual_fit", residual_fit
    ):
        full = generate_hypotheses(m, ctx, err, tau, ReflectSettings(budget=10**6))
        fits_full = len(fits_at)
        yielded.clear()
        fits_at.clear()
        bounded = generate_hypotheses(m, ctx, err, tau, ReflectSettings(budget=budget))
    assert bounded == full[:budget]
    assert all(n < budget for n in fits_at)
    assert len(fits_at) <= fits_full


HISTORY_KINDS = ("contiguous", "flushed", "gapped", "duplicate", "unordered")


def odd_model(seed, kind):
    """A model whose history is one run of ticks (``contiguous``, or
    ``flushed`` by a StructuralBreak), or is not: ticks missing, repeated
    with other values, or out of order."""
    if kind == "flushed":
        return flushed_model(seed)
    rng = np.random.default_rng(seed)
    d_state = int(rng.integers(1, 5))
    d_action = int(rng.integers(0, 3))
    graph = random_graph(rng, d_state, d_action, max_edges=8, max_delay=5)
    start = int(rng.choice([0, int(rng.integers(1, 40))]))
    ticks = list(range(start, start + int(rng.integers(1, 30))))
    if kind == "gapped":
        ticks = [t for t in ticks if rng.uniform() < 0.7] or ticks[-1:]
    elif kind == "duplicate":
        for _ in range(int(rng.integers(1, 4))):
            ticks.insert(int(rng.integers(0, len(ticks) + 1)), int(rng.choice(ticks)))
    elif kind == "unordered":
        rng.shuffle(ticks)
    m = CausalModel(graph=graph, delta_hat=float(rng.uniform(-0.5, 0.5)), capacity=4096)
    for tr in transitions(rng, d_state, d_action, ticks):
        m = append_history(m, tr)
    return m, rng


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(HISTORY_KINDS), st.integers(-3, 3))
def test_predict_next_matches_tick_map_reference(seed, kind, offset):
    m, rng = odd_model(seed, kind)
    g = m.graph
    # Usually the tick after the history's last one, as in the live loop;
    # otherwise a tick the history also holds or one it skips over.
    now = max(0, m.history[-1].tuple.time.tick + 1 + offset)
    current = transitions(rng, g.d_state, g.d_action, [now])[0].tuple
    got = predict_next(m, current)
    # The live loop's rule is the kernel's lenient one: the current tuple
    # is the row, and the last entry of a history, so it wins its tick.
    row = Transition(current, 1, current.state)
    expected = reference_rollout(g, m.delta_hat, m.history + (row,), [row], lenient=True)
    assert bits([got]) == bits(expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(HISTORY_KINDS))
def test_rollout_matches_reference_on_odd_histories(seed, kind):
    m, rng = odd_model(seed, kind)
    rows = m.history[int(rng.integers(0, len(m.history))) :]
    got = rollout(m.graph, m.delta_hat, m.history, rows)
    assert bits(got) == bits(reference_rollout(m.graph, m.delta_hat, m.history, rows))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 12), max_size=16),
    st.lists(st.integers(-2, 16), min_size=1, max_size=24),
    st.booleans(),
)
def test_tick_index_answers_as_the_tick_map(ticks, queries, with_extra):
    """Same tuple object as the map (last entry for a tick wins, ``extra``
    over all), in any query order, for any tick sequence."""
    rng = np.random.default_rng(len(ticks))
    history = transitions(rng, 1, 1, ticks)
    extra = transitions(rng, 1, 1, [queries[0] % 13])[0].tuple if with_extra else None
    by_tick = {tr.tuple.time.tick: tr.tuple for tr in history}
    if extra is not None:
        by_tick[extra.time.tick] = extra
    index = _TickIndex(tuple(history), extra)
    for q in queries:
        assert index.get(q) is by_tick.get(q), (ticks, q)


@pytest.mark.parametrize("kind", ["contiguous", "flushed"])
def test_one_run_of_ticks_builds_no_tick_map(kind, monkeypatch):
    import causalloop.model as model_mod

    def no_map(*args, **kwargs):
        raise AssertionError("tick map built for a history that is one run of ticks")

    monkeypatch.setattr(model_mod, "_tick_map", no_map)
    for seed in range(10):
        m, rng = odd_model(seed, kind)
        now = m.history[-1].tuple.time.tick + 1
        current = transitions(rng, m.graph.d_state, m.graph.d_action, [now])[0].tuple
        predict_next(m, current)
        rollout(m.graph, m.delta_hat, m.history, m.history)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(HISTORY_KINDS))
def test_residuals_match_reference(seed, kind):
    m, rng = odd_model(seed, kind)
    rows = m.history[-m.fit_window :]
    lo = int(rng.integers(0, len(rows)))
    lags = _LagFeatures(m.history, rows)
    _Baseline(m, lags)  # the working model's predictions, as reflect memoises them
    memo = len(lags._targets)
    for j in range(m.graph.d_state):
        got = _residuals(m, lags, lo, j, None)
        assert hexes(got) == hexes(reference_residuals(m, rows[lo:], j, None))
    assert len(lags._targets) == memo  # excluding no edge is the working model
    for j in range(m.graph.d_state):
        for i, _ in m.graph.incoming(j):
            got = _residuals(m, lags, lo, j, i)
            assert hexes(got) == hexes(reference_residuals(m, rows[lo:], j, i))


def rescaled(m, rng):
    """``m`` with every coefficient and delta_hat moved, as a fit would."""
    edges = tuple(replace(e, coefficient=e.coefficient * rng.uniform(0.5, 1.5)) for e in m.graph.edges)
    delta_hat = float(rng.choice([0.0, m.delta_hat]))
    return replace(m, graph=replace(m.graph, edges=edges), delta_hat=delta_hat)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(HISTORY_KINDS), st.integers(1, 12))
def test_holdout_mse_and_fit_gate_match_reference(seed, kind, size):
    m, rng = odd_model(seed, kind)
    other = rescaled(m, rng)
    holdout = m.history[-size:]
    expected = reference_mse(m, other, holdout)
    got = _Baseline.over(m, holdout).mse(other)
    if expected is None:
        assert got is None
        assert _fit_improves(m, other, size)
        return
    assert (got[0].hex(), got[1].hex()) == (expected[0].hex(), expected[1].hex())
    assert _fit_improves(m, other, size) == (expected[1] <= expected[0])
