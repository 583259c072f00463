"""The lagged-feature kernel against plain per-row reference loops, bit for bit.

The references below resolve every lag afresh for every row from a full
tick map, the way rollout, scoring and testing worked before one kernel
served a whole reflect trigger and lags were looked up by position, and
they add every sum left to right from 0.0.  ``predict_next`` is held to
``reference_rollout``'s lenient arithmetic, the one prediction rule, and
reflect's residuals and the holdout MSE of the fit gate to the same
references.  Results are compared as ``float.hex`` strings, so a sign of
zero or a last-place difference counts.  Over the same random models,
candidate generation is held to its budget: it estimates nothing past it.
The batch that scores and tests every candidate is held to the references
on a model and on a working model after an accepted edit, refusals
included, and the whole of ``reflect`` to ``reference_reflect``, which
ranks, tests and accepts with the references alone.  Histories are views
into shared append-only buffers: built by appends, capacity trims,
structural breaks and branches, each must read as the tuple it replaces,
and its feature columns, design rows and rollouts must match the
references.
"""

from __future__ import annotations

import importlib
import math
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalloop.core import (
    ActionVec,
    CausalTuple,
    ConfigError,
    DomainError,
    NotEnoughDataError,
    StateVec,
    TimeIndex,
    Transition,
    loss,
)
from causalloop.agent import _fit_improves
from causalloop.model import (
    CausalModel,
    History,
    _LagFeatures,
    _pack,
    append_history,
    as_history,
    fit,
    predict_next,
    rollout,
)
from causalloop.core import CausalLoopError
from causalloop.reflect import (
    CoefChange,
    DelayChange,
    EdgeAdd,
    EdgeRemove,
    ReflectSettings,
    StructuralBreak,
    apply_hypothesis,
    generate_hypotheses,
    reflect,
    score_hypothesis,
    _Baseline,
    _EditBatch,
    _residuals,
    _tie_key,
)
from causalloop.reflect import test_hypothesis as holdout_test
from causalloop.world import CausalEdge, CausalGraph, Form, SourceKind, VarRef

from helpers import random_graph


def reference_rows(graph, delta_hat, history, rows):
    """Each row's prediction from every edge whose lag is recorded, as a
    tuple of floats, and whether every lag was."""
    by_tick = {tr.tuple.time.tick: tr.tuple for tr in history}
    scale = math.exp(-delta_hat)
    out = []
    for tr in rows:
        change = [0.0] * graph.d_state
        whole = True
        for e in graph.edges:
            tick = tr.tuple.time.tick + 1 - e.delay
            if tick < 0:
                v = 0.0
            elif tick in by_tick:
                tup = by_tick[tick]
                vec = tup.action if e.source.kind is SourceKind.ACTION else tup.state
                v = vec[e.source.index]
            else:
                whole = False
                continue
            change[e.target] += e.coefficient * e.form.apply(v) * scale
        out.append((tuple(s + c for s, c in zip(tr.tuple.state.values, change)), whole))
    return out


def reference_rollout(graph, delta_hat, history, rows, lenient=False):
    preds = reference_rows(graph, delta_hat, history, rows)
    return [StateVec(p) if whole or lenient else None for p, whole in preds]


def squared_error(tr, pred):
    """The row's squared errors added over dimensions left to right from 0.0."""
    total = 0.0
    for o, p in zip(tr.observed.values, pred.values):
        total += (o - p) ** 2
    return total


def reference_score(m, h, window):
    applied = apply_hypothesis(m, h)
    preds_h = reference_rollout(applied.graph, applied.delta_hat, m.history, window)
    preds_m = reference_rollout(m.graph, m.delta_hat, m.history, window)
    two_var = 2.0 * m.sigma_lik**2
    total = 0.0
    for tr, ph, pm in zip(window, preds_h, preds_m):
        if ph is None or pm is None:
            continue
        total += (squared_error(tr, pm) - squared_error(tr, ph)) / two_var
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


def masked(values, dead):
    """A kernel's (values, dead mask) pair as the per-row list, None where dead."""
    return [None if dead is not None and dead[i] else float(v) for i, v in enumerate(values)]


def transitions(rng, d_state, d_action, ticks):
    out = []
    for t in ticks:
        tup = CausalTuple(
            StateVec(tuple(rng.uniform(-2.0, 2.0, size=d_state))),
            ActionVec(tuple(rng.uniform(-1.0, 1.0, size=d_action))),
            TimeIndex(t),
        )
        out.append(Transition(tup, StateVec(tuple(rng.uniform(-2.0, 2.0, size=d_state)))))
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


HISTORY_KINDS = ("contiguous", "flushed")
NOT_A_RUN = ("gapped", "duplicate", "unordered")


def tick_sequence(rng, kind):
    """One run of ticks from 0 or later, or, for a kind of ``NOT_A_RUN``,
    that run with ticks missing, repeated or out of order."""
    start = int(rng.choice([0, int(rng.integers(1, 40))]))
    ticks = list(range(start, start + int(rng.integers(1, 30))))
    if kind == "gapped":
        ticks = [t for t in ticks if rng.uniform() < 0.7] or ticks[-1:]
    elif kind == "duplicate":
        for _ in range(int(rng.integers(1, 4))):
            ticks.insert(int(rng.integers(0, len(ticks) + 1)), int(rng.choice(ticks)))
    elif kind == "unordered":
        rng.shuffle(ticks)
    return ticks


def odd_model(seed, kind):
    """A model whose history is one run of ticks: ``contiguous`` from tick 0
    or later, or ``flushed`` by a StructuralBreak."""
    if kind == "flushed":
        return flushed_model(seed)
    rng = np.random.default_rng(seed)
    d_state = int(rng.integers(1, 5))
    d_action = int(rng.integers(0, 3))
    graph = random_graph(rng, d_state, d_action, max_edges=8, max_delay=5)
    ticks = tick_sequence(rng, kind)
    m = CausalModel(graph=graph, delta_hat=float(rng.uniform(-0.5, 0.5)), capacity=4096)
    for tr in transitions(rng, d_state, d_action, ticks):
        m = append_history(m, tr)
    return m, rng


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(NOT_A_RUN))
def test_append_history_refuses_what_is_not_one_run(seed, kind):
    """The first tick that is not one after the last entry's is refused,
    and the history keeps the run before it; the first entry may be any
    tick."""
    rng = np.random.default_rng(seed)
    ticks = tick_sequence(rng, kind)
    bad = next((i for i in range(1, len(ticks)) if ticks[i] != ticks[i - 1] + 1), None)
    m = CausalModel(graph=random_graph(rng, 1, 1), capacity=4096)
    for i, tr in enumerate(transitions(rng, 1, 1, ticks)):
        if i == bad:
            with pytest.raises(DomainError):
                append_history(m, tr)
            break
        m = append_history(m, tr)
    assert [tr.tuple.time.tick for tr in m.history] == ticks[:bad]


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
    row = Transition(current, current.state)
    expected = reference_rollout(g, m.delta_hat, m.history + (row,), [row], lenient=True)
    assert bits([got]) == bits(expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(HISTORY_KINDS))
def test_rollout_matches_reference_on_odd_histories(seed, kind):
    m, rng = odd_model(seed, kind)
    rows = m.history[int(rng.integers(0, len(m.history))) :]
    got = rollout(m.graph, m.delta_hat, m.history, rows)
    assert bits(got) == bits(reference_rollout(m.graph, m.delta_hat, m.history, rows))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(HISTORY_KINDS))
def test_residuals_match_reference(seed, kind):
    m, rng = odd_model(seed, kind)
    rows = m.history[-m.fit_window :]
    lo = int(rng.integers(0, len(rows)))
    lags = _LagFeatures(m.history, rows)
    base = _Baseline(m, lags)  # the working model's predictions, as reflect holds them
    # Excluding no edge reads the baseline's own row: no sum.
    with mock.patch.object(_LagFeatures, "sums", side_effect=AssertionError("a residual made a sum")):
        for j in range(m.graph.d_state):
            got = masked(*_residuals(base, lo, j, None))
            assert hexes(got) == hexes(reference_residuals(m, rows[lo:], j, None))
    for j in range(m.graph.d_state):
        for i in base.members[j]:
            got = masked(*_residuals(base, lo, j, i))
            assert hexes(got) == hexes(reference_residuals(m, rows[lo:], j, i))


def rescaled(m, rng):
    """``m`` with every coefficient and delta_hat moved."""
    edges = tuple(replace(e, coefficient=e.coefficient * rng.uniform(0.5, 1.5)) for e in m.graph.edges)
    delta_hat = float(rng.choice([0.0, m.delta_hat]))
    return replace(m, graph=replace(m.graph, edges=edges), delta_hat=delta_hat)


def kernel_mses(lags, models, lo):
    """``lags.mses`` of each model in ``models``: its groups by
    ``incoming``, one model after another, each group at its model's scale."""
    groups = [group for m in models for group in lags.incoming(m.graph)]
    scale = np.repeat([math.exp(-m.delta_hat) for m in models], models[0].graph.d_state)
    return lags.mses(_pack(groups), scale, lo=lo)


def gate_verdict(expected):
    """The verdict a fit gate owes, from the reference holdout MSEs."""
    return expected is None or expected[1] <= expected[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(HISTORY_KINDS), st.integers(1, 12))
def test_holdout_mse_and_fit_gate_match_reference(seed, kind, size):
    """The gate reads the holdout, the window's last ``size`` rows, from the
    fit's own kernel over the whole window.  The MSEs of two models are
    held to the reference at any two delta_hat; the gate takes a fit's
    result, which keeps delta_hat, and owes the reference's verdict."""
    m, rng = odd_model(seed, kind)
    assume(size < m.fit_window)  # the gate's precondition: validate requires fit_window > holdout
    other = rescaled(m, rng)
    holdout = m.history[-size:]
    expected = reference_mse(m, other, holdout)
    window = _LagFeatures(m.history, m.history[-m.fit_window :])
    lo = max(0, window._n - size)
    got = kernel_mses(window, [m, other], lo)
    if expected is None:
        assert got is None
    else:
        assert (got[0].hex(), got[1].hex()) == (expected[0].hex(), expected[1].hex())
    fitted = replace(other, delta_hat=m.delta_hat)
    assert _fit_improves(window, m, fitted, size) == gate_verdict(reference_mse(m, fitted, holdout))


def fit_model(seed):
    """A model whose history, one run of ticks from 0 or later, is long
    enough for a fit over its ``fit_window`` window."""
    rng = np.random.default_rng(seed)
    d_state, d_action = int(rng.integers(1, 5)), int(rng.integers(1, 3))
    graph = random_graph(rng, d_state, d_action, max_edges=8, max_delay=5)
    m = CausalModel(graph=graph, delta_hat=float(rng.choice([0.0, rng.uniform(-0.5, 0.5)])), fit_window=24)
    start = int(rng.choice([0, int(rng.integers(1, 40))]))
    for tr in transitions(rng, d_state, d_action, range(start, start + int(rng.integers(24, 48)))):
        m = append_history(m, tr)
    return m


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_the_fit_gate_on_the_scheduled_fit_path_matches_reference(seed, size):
    """As ``run_episode`` runs them: the fit over the window's kernel, then
    the gate on that kernel and the fit's result.  The gate places no
    column, and its verdict is the reference holdout MSEs' one."""
    m = fit_model(seed)
    window = _LagFeatures(m.history, m.history[-m.fit_window :])
    fitted = fit(m, window)
    with mock.patch.object(_LagFeatures, "place", side_effect=AssertionError("the gate placed a column")):
        verdict = _fit_improves(window, m, fitted, size)
    assert verdict == gate_verdict(reference_mse(m, fitted, m.history[-size:]))


def with_twin(m):
    """``m`` with a second edge from its first edge's source to its target,
    two ticks later: one delay change of each lands both on the tick between."""
    e = m.graph.edges[0]
    return replace(m, graph=replace(m.graph, edges=m.graph.edges + (replace(e, delay=e.delay + 2),)))


def reference_refusal(history, model, rows, lo, hi):
    """DomainError when a finite prediction error of ``model`` squares
    beyond the float range on any of ``rows`` (each prediction from every
    recorded lag), or a prediction is not finite on a row of ``rows[lo:hi]``
    whose lags are all recorded; else None."""
    preds = reference_rows(model.graph, model.delta_hat, history, rows)
    for i, (tr, (pred, whole)) in enumerate(zip(rows, preds)):
        if whole and lo <= i < hi and not all(map(math.isfinite, pred)):
            return DomainError
        for o, p in zip(tr.observed.values, pred):
            try:
                (o - p) ** 2
            except OverflowError:
                return DomainError
    return None


def reference_answers(m, h, rows, split, rho):
    """``h`` scored over ``rows[:split]`` and tested over ``rows[split:]``
    against ``m`` by the references, as the batch answers it over a kernel
    on ``rows``: ``float.hex`` strings (a score, or a verdict and two MSEs),
    or the class it is refused with."""
    try:
        applied = apply_hypothesis(m, h)
    except CausalLoopError as exc:
        return (type(exc) if split else (0.0).hex()), type(exc)
    score = (0.0).hex()
    if split:
        score = reference_refusal(m.history, applied, rows, 0, split)
        score = score or reference_score(m, h, rows[:split]).hex()
    tested = reference_refusal(m.history, applied, rows, split, len(rows))
    if tested is None:
        mses = reference_test(m, h, rows[split:], rho)
        if mses is None:
            tested = NotEnoughDataError
        else:
            tested = (mses[1] <= (1.0 - rho) * mses[0], mses[0].hex(), mses[1].hex())
    return score, tested


def answer(call):
    """``call()`` as ``float.hex`` strings (a score, or a test's verdict and
    two MSEs), or the class of the error it raised."""
    try:
        result = call()
    except (CausalLoopError, OverflowError) as exc:
        return type(exc)
    if isinstance(result, float):
        return result.hex()
    ok, mse_m, mse_h = result
    return ok, mse_m.hex(), mse_h.hex()


def batch_answers(working, hs, rows, split):
    """Hold every candidate's batched score and test against ``working``,
    over a kernel on ``rows`` of its history, to :func:`reference_answers`;
    return each refusal as (its class, the candidate)."""
    batch = _EditBatch(_Baseline(working, _LagFeatures(working.history, rows)), hs, split)
    refused = []
    for i, h in enumerate(hs):
        got = answer(lambda: batch.score(i)), answer(lambda: batch.test(i, 0.1))
        assert got == reference_answers(working, h, rows, split, 0.1), h
        refused += [(r, h) for r in got if isinstance(r, type)]
    return refused


def outside_edits(m, outside):
    """A coefficient change, a delay change and a removal of the edge at an
    index ``outside`` places past ``m``'s last edge, and at one ``outside``
    places below index 0; none with ``outside`` None."""
    if outside is None:
        return []
    n = len(m.graph.plan)
    return [h for i in (n + outside, -1 - outside) for h in (CoefChange(i, 9.0), DelayChange(i, 3), EdgeRemove(i))]


def on_surviving_edges(h, surviving):
    """``h``, an edit of the model entering a trigger, as an edit of a
    working model whose edges are the original edges whose indices
    ``surviving`` lists, in order; None if its edge is gone."""
    if not isinstance(h, (CoefChange, DelayChange, EdgeRemove)):
        return h
    if h.edge_index not in surviving:
        return None
    return replace(h, edge_index=surviving.index(h.edge_index))


def edit_outcomes(seed, pick, twin, outside=None):
    """Hold every candidate's batched answers to the references on the model
    and on a working model after one accepted edit, the others moved onto
    its edges by :func:`on_surviving_edges` (the
    ``pick``-th, or with None the first edge's delay change onto its twin's
    neighbour tick), with :func:`outside_edits` of each model among them;
    return how many candidates building their model refuses."""
    m, _ = flushed_model(seed)
    if twin:
        m = with_twin(m)
    ctx = m.history[-1]
    err = loss(predict_next(m, ctx.tuple), ctx.observed)
    candidates = generate_hypotheses(m, ctx, err, 0.0, ReflectSettings(budget=1024))
    rows = m.history[-m.fit_window :]
    split = max(0, len(rows) - 4)
    refused = batch_answers(m, list(candidates) + outside_edits(m, outside), rows, split)
    edits = [h for h in candidates if not isinstance(h, StructuralBreak)]
    if pick is None:
        first = DelayChange(0, m.graph.edges[0].delay + 1)
        assert first in edits
    else:
        first = edits[pick % len(edits)]
    try:
        working = apply_hypothesis(m, first)
    except CausalLoopError:
        return len(refused)
    surviving = list(range(len(m.graph.edges)))
    if isinstance(first, EdgeRemove):
        surviving.pop(first.edge_index)
    remapped = [on_surviving_edges(h, surviving) for h in candidates if h != first]
    remapped = [h for h in remapped if h is not None] + outside_edits(working, outside)
    refused += batch_answers(working, remapped, rows, split)
    return len({h for cls, h in refused if cls in (ConfigError, DomainError)})


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.integers(0, 2**16)),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 3)),
)
def test_edits_match_the_models_they_build(seed, pick, twin, outside):
    edit_outcomes(seed, pick, twin, outside)


def test_twin_delay_changes_collide():
    """After one twin's delay change, the other's onto the same tick is a
    duplicate edge: building it raises, and the batch refuses it."""
    assert sum(edit_outcomes(seed, None, True) for seed in range(10)) >= 10


def refusing_edits(m, rng):
    """Edge edits building their model refuses, or may refuse: a duplicate
    edge, a delay or coefficient no edge may have, a source out of range,
    coefficients whose squared errors or predictions may overflow, and a
    lag before the history's first entry on every row."""
    e = m.graph.edges[0]
    j = int(rng.integers(0, len(m.graph.edges)))
    k = int(rng.integers(0, m.graph.d_state))
    state = VarRef.state(int(rng.integers(0, m.graph.d_state)))
    return (
        EdgeAdd(e.source, e.target, e.delay, Form.LINEAR, 0.5),
        EdgeAdd(VarRef.state(m.graph.d_state), 0, 1, Form.LINEAR, 0.5),
        DelayChange(j, 0),
        CoefChange(j, math.inf),
        CoefChange(j, float(rng.choice([1e150, 1e200]))),
        EdgeAdd(state, k, 5, Form.LINEAR, 1.5e308),
        EdgeAdd(VarRef.action(0), k, len(m.history) + 1, Form.LINEAR, 0.5),
    )


def overflowing(h):
    """Whether ``h`` puts a finite coefficient of 1e150 or more on an edge,
    so that its predictions or their squared errors may leave the float
    range."""
    c = h.new_coefficient if isinstance(h, CoefChange) else getattr(h, "coefficient", 0.0)
    return math.isfinite(c) and abs(c) >= 1e150


def batch_outcomes(seed, twin, holdout):
    """Hold every candidate's batched score and test, generated or one of
    :func:`refusing_edits`, to the references over the trigger's window;
    return each refusal as (its class, whether the candidate is
    :func:`overflowing`)."""
    m, rng = flushed_model(seed)
    if twin:
        m = with_twin(m)
    ctx = m.history[-1]
    err = loss(predict_next(m, ctx.tuple), ctx.observed)
    generated = generate_hypotheses(m, ctx, err, 0.0, ReflectSettings(budget=1024))
    candidates = generated + refusing_edits(m, rng)
    rows = m.history[-m.fit_window :]
    split = len(rows) - len(rows[-holdout:])
    return Counter((cls, overflowing(h)) for cls, h in batch_answers(m, candidates, rows, split))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 10))
def test_batch_matches_the_references(seed, twin, holdout):
    batch_outcomes(seed, twin, holdout)


def test_batch_refuses_as_the_per_candidate_path():
    """Each refusal of building a candidate's model is met on these seeds,
    and an edit whose predictions or squared errors overflow is refused
    with DomainError, never with Python's OverflowError."""
    refused = Counter()
    for seed in range(12):
        refused += batch_outcomes(seed, seed % 2 == 0, 1 + seed % 3)
    classes = {cls for cls, _ in refused}
    assert OverflowError not in classes
    assert {ConfigError, DomainError, NotEnoughDataError} <= classes
    assert {cls for cls, huge in refused if huge} == {DomainError}


def test_overflowing_squared_error_is_refused_with_domain_error():
    """``CoefChange(j, 1e200)`` on an edge whose source is about 1 predicts
    about 1e200, whose square leaves the float range: the batch and both
    per-candidate functions refuse it with DomainError, which reflect skips
    as it skips every other CausalLoopError.  The refusal is its row's
    alone: a candidate beside it in the batch is still scored."""
    rng = np.random.default_rng(5)
    graph = random_graph(rng, 2, 1, max_edges=4, max_delay=2)
    m = CausalModel(graph=graph, fit_window=12)
    for tr in transitions(rng, 2, 1, range(12)):
        m = append_history(m, tr)
    rows = m.history
    split = 8
    h = CoefChange(0, 1e200)
    lags = _LagFeatures(m.history, rows)
    batch = _EditBatch(_Baseline(m, lags), [h, CoefChange(0, 0.5)], split)
    assert math.isfinite(batch.score(1))
    for call in (
        lambda: batch.score(0),
        lambda: batch.test(0, 0.1),
        lambda: score_hypothesis(m, h, rows[:split]),
        lambda: holdout_test(m, h, rows[split:], 0.1),
    ):
        with pytest.raises(DomainError):
            call()


def refusal(call):
    """The class and message of the :class:`CausalLoopError` ``call()``
    raises, or None."""
    try:
        call()
    except CausalLoopError as exc:
        return type(exc), str(exc)
    return None


A0, S0, S1 = VarRef.action(0), VarRef.state(0), VarRef.state(1)
# Each edit a candidate row refuses as building its graph refuses it.
EDGE_REFUSALS = {
    "delay-change-to-0": DelayChange(0, 0),
    "edge-add-delay-0": EdgeAdd(S1, 0, 0, Form.LINEAR, 0.5),
    "edge-add-delay-0-and-inf": EdgeAdd(S1, 0, 0, Form.LINEAR, math.inf),
    "coef-change-inf": CoefChange(1, math.inf),
    "coef-change-nan": CoefChange(2, math.nan),
    "edge-add-nan": EdgeAdd(S1, 0, 1, Form.TANH, math.nan),
    "edge-add-nan-target-out": EdgeAdd(S1, 2, 1, Form.LINEAR, math.nan),
    "edge-add-target-out": EdgeAdd(S1, 2, 1, Form.LINEAR, 0.5),
    "edge-add-target-negative": EdgeAdd(S1, -1, 1, Form.LINEAR, 0.5),
    "edge-add-state-source-out": EdgeAdd(VarRef.state(2), 0, 1, Form.LINEAR, 0.5),
    "edge-add-action-source-out": EdgeAdd(VarRef.action(1), 0, 1, Form.LINEAR, 0.5),
    "edge-add-both-ends-out": EdgeAdd(VarRef.action(1), 2, 1, Form.LINEAR, 0.5),
    "edge-add-duplicate": EdgeAdd(A0, 0, 3, Form.LINEAR, 0.5),
    "edge-add-duplicate-other-form": EdgeAdd(S0, 1, 2, Form.LINEAR, 0.5),
    "delay-change-onto-twin": DelayChange(0, 3),
}


@pytest.mark.parametrize("case", sorted(EDGE_REFUSALS))
def test_candidate_rows_refuse_as_building_the_edited_graph(case):
    """``_Baseline.edit`` builds no edge, yet refuses each edit with the
    class and message that building the edited graph (``apply_hypothesis``:
    :class:`CausalEdge`, then the graph check) raises."""
    graph = CausalGraph(2, 1, (
        CausalEdge(A0, 0, delay=1, coefficient=1.0),
        CausalEdge(S0, 1, delay=2, coefficient=0.5, form=Form.TANH),
        CausalEdge(A0, 0, delay=3, coefficient=-0.5),
    ))
    m = CausalModel(graph=graph, fit_window=12)
    for tr in transitions(np.random.default_rng(3), 2, 1, range(12)):
        m = append_history(m, tr)
    h = EDGE_REFUSALS[case]
    expected = refusal(lambda: apply_hypothesis(m, h))
    assert expected is not None and expected[0] is ConfigError
    base = _Baseline.over(m, m.history)
    assert refusal(lambda: base.edit(h)) == expected
    batch = _EditBatch(base, [h], 8)
    assert refusal(lambda: batch.test(0, 0.1)) == refusal(lambda: batch.score(0)) == expected


@pytest.mark.parametrize("h", [CoefChange(3, 1.0), DelayChange(-1, 2), EdgeRemove(3)], ids=repr)
def test_candidate_rows_refuse_an_edge_index_outside_the_graph(h):
    """An edge index outside the graph has no graph to build (Python's list
    would raise IndexError, or wrap a negative index): the row refuses it
    with ConfigError, before any check of the edge it names."""
    graph = CausalGraph(1, 1, tuple(CausalEdge(A0, 0, delay=k, coefficient=1.0) for k in (1, 2, 3)))
    m = CausalModel(graph=graph, fit_window=8)
    for tr in transitions(np.random.default_rng(4), 1, 1, range(8)):
        m = append_history(m, tr)
    msg = f"edge index {h.edge_index} outside a graph of 3 edges"
    assert refusal(lambda: _Baseline.over(m, m.history).edit(h)) == (ConfigError, msg)


def test_a_score_that_is_not_finite_is_refused_with_domain_error():
    """At a tiny sigma_lik a finite squared-error difference divided by
    2 sigma_lik^2 leaves the float range: the batch refuses that score with
    DomainError, its test still stands, and the candidate that changes
    nothing still scores 0.0."""
    rng = np.random.default_rng(5)
    graph = random_graph(rng, 2, 1, max_edges=4, max_delay=2)
    m = CausalModel(graph=graph, fit_window=12, sigma_lik=1.2e-154)
    for tr in transitions(rng, 2, 1, range(12)):
        m = append_history(m, tr)
    rows, split = m.history, 8
    same = CoefChange(0, graph.edges[0].coefficient)
    batch = _EditBatch(_Baseline(m, _LagFeatures(m.history, rows)), [CoefChange(0, 0.5), same], split)
    with pytest.raises(DomainError, match="score is not finite"):
        batch.score(0)
    with pytest.raises(DomainError, match="score is not finite"):
        score_hypothesis(m, CoefChange(0, 0.5), rows[:split])
    assert batch.test(0, 0.1)[1] > 0.0
    assert batch.score(1) == 0.0


def one_edge_model(coefficient, actions):
    """A 1-dim model whose one edge reads each tick's own action, with
    ``actions`` recorded from tick 0 and every state and observation 0.0."""
    graph = CausalGraph(1, 1, (CausalEdge(A0, 0, delay=1, coefficient=coefficient),))
    m = CausalModel(graph=graph, fit_window=len(actions))
    for t, a in enumerate(actions):
        tup = CausalTuple(StateVec((0.0,)), ActionVec((a,)), TimeIndex(t))
        m = append_history(m, Transition(tup, StateVec((0.0,))))
    return m


def test_rollout_the_holdout_mses_and_a_baseline_refuse_alike():
    """The kernel's two refusals, in order: a prediction that is not finite
    on a row that is read (here the last row's, 1e308 * 2.0), then a finite
    error whose square leaves the float range (here every row's, 1e200).
    ``rollout``, the holdout MSEs of the fit gate and a repair baseline
    raise each with the same class and message; rollout squares no error.
    A baseline from a later row reads no prediction of an earlier one, but
    an error that overflows anywhere refuses it."""
    inf = one_edge_model(1e308, [1e-200] * 7 + [2.0])
    huge = one_edge_model(1e200, [1.0] * 8)
    not_finite = (DomainError, "state contains non-finite value inf")
    overflow = (DomainError, "a squared prediction error exceeds the float range")
    for m, expected in ((inf, not_finite), (huge, overflow)):
        lags = _LagFeatures(m.history, m.history)
        assert refusal(lambda: kernel_mses(lags, [m, m], 0)) == expected
        assert refusal(lambda: _Baseline(m, lags)) == expected
    assert refusal(lambda: rollout(inf.graph, 0.0, inf.history, inf.history)) == not_finite
    assert [p.values for p in rollout(huge.graph, 0.0, huge.history, huge.history)] == [(1e200,)] * 8
    first = one_edge_model(1e308, [2.0] + [1e-200] * 7)  # row 0's prediction is not finite
    base = _Baseline(first, _LagFeatures(first.history, first.history), 1)
    assert not base.finite and len(base.row_sq) == 7 and np.isfinite(base.row_sq).all()
    assert refusal(lambda: _Baseline(huge, _LagFeatures(huge.history, huge.history), 7)) == overflow


def reference_reflect(m, ctx, err, tau, settings):
    """:func:`reflect` by the references alone: the candidates of
    ``generate_hypotheses`` ranked by :func:`reference_score` and
    ``_tie_key``, then tested in that order against the working model with
    :func:`reference_test`, each moved onto its edges by
    :func:`on_surviving_edges`, and accepted with
    ``apply_hypothesis``; after an accepted StructuralBreak the holdout is
    read against the flushed history.  Returns the ranked (candidate, score)
    pairs, the accepted candidates and the updated model, or the class of
    the refusal a score raises."""
    if not m.history or m.history[-1] != ctx:
        m = append_history(m, ctx)
    window = m.history[-m.fit_window :]
    split = len(window) - len(window[-settings.holdout :])
    candidates = generate_hypotheses(m, ctx, err, tau, settings)
    scores = [reference_answers(m, h, window, split, settings.rho)[0] for h in candidates]
    refused = [s for s in scores if isinstance(s, type)]
    if refused:
        return refused[0]
    ranked = sorted(
        zip(candidates, map(float.fromhex, scores)), key=lambda c: (-c[1], _tie_key(c[0]))
    )
    working, rows, lo = m, window, split
    surviving = list(range(len(m.graph.edges)))  # the original index of each working edge
    accepted = []
    for candidate, _ in ranked:
        if len(accepted) >= settings.max_accepts:
            break
        h = on_surviving_edges(candidate, surviving)
        if h is None:
            continue
        tested = reference_answers(working, h, rows, lo, settings.rho)[1]
        if isinstance(tested, type) or not tested[0]:
            continue
        working = apply_hypothesis(working, h)
        if isinstance(h, EdgeRemove):
            surviving.pop(h.edge_index)
        accepted.append(candidate)
        if isinstance(h, StructuralBreak):
            rows, lo = window[split:], 0
        if reference_refusal(working.history, working, rows, lo, len(rows)):
            break  # the working model's own holdout prediction is refused
    return ranked, accepted, working


def assert_reflect_matches_the_reference_loop(m, tau, config):
    """:func:`reflect` of ``m``'s last history row, with the live loop's
    mismatch on it, against :func:`reference_reflect`: the same ranked
    candidates and scores (``float.hex``), accepted edits and updated
    model, or the same refusal class.  Returns the report, or None."""
    ctx = m.history[-1]
    err = loss(predict_next(m, ctx.tuple), ctx.observed)
    expected = reference_reflect(m, ctx, err, tau, config)
    try:
        report = reflect(m, ctx, err, tau, config)
    except CausalLoopError as exc:
        assert type(exc) is expected
        return None
    ranked, accepted, working = expected
    assert [(hs.hypothesis, hs.score.hex()) for hs in report.candidates] == [
        (h, score.hex()) for h, score in ranked
    ]
    assert report.accepted == tuple(accepted)
    assert report.updated_model == working
    return report


def removal_trigger():
    """A 1-dim model with a spurious a0 -> s0 edge at delay 2 (edge 0) and
    an a0 -> s0 edge at delay 3 (edge 1) whose coefficient is a third of the
    world's, over 24 ticks: its trigger accepts EdgeRemove(0), then tests
    the edits of edge 1 as edits of edge 0 of the model the removal left."""
    edges = (CausalEdge(A0, 0, delay=2, coefficient=5.0), CausalEdge(A0, 0, delay=3, coefficient=1.0))
    m = CausalModel(graph=CausalGraph(1, 1, edges), fit_window=32)
    gen = np.random.default_rng(0)
    actions = [float(gen.uniform(-2.0, 2.0)) for _ in range(24)]
    state = 0.0
    for t, a in enumerate(actions):
        observed = state + (3.0 * actions[t - 2] if t >= 2 else 0.0)
        tup = CausalTuple(StateVec((state,)), ActionVec((a,)), TimeIndex(t))
        m = append_history(m, Transition(tup, StateVec((observed,))))
        state = observed
    return m


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 10), st.integers(1, 3))
def test_reflect_matches_the_reference_loop(seed, twin, holdout, max_accepts):
    m, _ = flushed_model(seed)
    if twin:
        m = with_twin(m)
    assert_reflect_matches_the_reference_loop(m, 0.0, ReflectSettings(holdout=holdout, max_accepts=max_accepts))


@pytest.mark.parametrize("max_accepts", [2, 3])
@pytest.mark.parametrize("holdout", [4, 8])
def test_reflect_matches_the_reference_loop_past_an_accepted_removal(holdout, max_accepts):
    """The random models above never accept an EdgeRemove and then test an
    edit of a higher edge; this trigger does, every time."""
    config = ReflectSettings(holdout=holdout, max_accepts=max_accepts)
    report = assert_reflect_matches_the_reference_loop(removal_trigger(), 0.5, config)
    assert report.accepted[0] == EdgeRemove(0)
    assert [h for h in report.accepted[1:] if getattr(h, "edge_index", None) == 1]


def edgeless_model(seed):
    """A model with no edge, as repair can leave one, over a run of ticks
    from tick 0 or later."""
    rng = np.random.default_rng(seed)
    d_state, d_action = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    graph = CausalGraph(d_state, d_action, ())
    m = CausalModel(graph=graph, delta_hat=float(rng.uniform(-0.5, 0.5)), fit_window=16)
    start = int(rng.choice([0, int(rng.integers(1, 6))]))
    for tr in transitions(rng, d_state, d_action, range(start, start + int(rng.integers(2, 24)))):
        m = append_history(m, tr)
    return m, rng


@pytest.mark.parametrize("seed", range(12))
def test_an_edgeless_model_through_every_kernel_path(seed):
    """Repair can remove every edge, and then every sum of the model is
    zero slots wide (``random_graph`` always draws an edge, so no other
    test meets it).  Rollout, also over no rows, the fit, the holdout MSEs
    of its gate and the gate, and the score and test of an EdgeAdd and a
    StructuralBreak hold to the references, as ``float.hex``."""
    m, rng = edgeless_model(seed)
    g, rows = m.graph, m.history
    assert bits(rollout(g, m.delta_hat, m.history, rows)) == bits(reference_rollout(g, m.delta_hat, m.history, rows))
    assert rollout(g, m.delta_hat, m.history, rows[:0]) == []

    assert fit(m) == m  # nothing to fit
    other = replace(m, delta_hat=0.0)
    lags = _LagFeatures(m.history, m.history[-m.fit_window :])
    size = int(rng.integers(1, min(len(rows), m.fit_window - 1) + 1))  # the gate's holdout
    expected = reference_mse(m, other, rows[-size:])
    got = kernel_mses(lags, [m, other], max(0, lags._n - size))
    assert hexes(got) == hexes(expected)
    fitted = fit(m, lags)
    assert _fit_improves(lags, m, fitted, size) == gate_verdict(reference_mse(m, fitted, rows[-size:]))

    split = int(rng.integers(1, len(rows)))
    source = VarRef.state(int(rng.integers(0, g.d_state)))
    for h in (
        EdgeAdd(source, 0, int(rng.integers(1, 4)), Form.LINEAR, float(rng.uniform(-1.5, 1.5))),
        StructuralBreak(keep=int(rng.integers(0, len(rows) + 1))),
    ):
        got = score_hypothesis(m, h, rows[:split])
        assert got.hex() == reference_score(m, h, rows[:split]).hex()
        expected = reference_test(m, h, rows[split:], 0.1)
        _, mse_m, mse_h = holdout_test(m, h, rows[split:], 0.1)
        assert (mse_m.hex(), mse_h.hex()) == (expected[0].hex(), expected[1].hex())


# ---- history views ----------------------------------------------------------


def reference_column(history, rows, source, delay, form):
    """The feature column resolved row by row from a tick map: ``form`` of
    the lagged value, 0.0 before tick 0, None where the lag is unrecorded."""
    by_tick = {tr.tuple.time.tick: tr.tuple for tr in history}
    out = []
    for tr in rows:
        tick = tr.tuple.time.tick + 1 - delay
        if tick < 0:
            out.append(form.apply(0.0))
        elif tick in by_tick:
            tup = by_tick[tick]
            vec = tup.action if source.kind is SourceKind.ACTION else tup.state
            out.append(form.apply(vec[source.index]))
        else:
            out.append(None)
    return out


def assert_reads_as_tuple(h, ref, rng):
    """Length, indexing, slicing, iteration, ``+`` and ``==`` as the tuple's."""
    assert isinstance(h, History)
    assert len(h) == len(ref) and bool(h) == bool(ref)
    assert h == ref and ref == h and not h != ref
    assert tuple(h) == ref and list(reversed(h)) == list(reversed(ref))
    for i in range(-len(ref), len(ref)):
        assert h[i] is ref[i]
    for i in (len(ref), -len(ref) - 1):
        with pytest.raises(IndexError):
            h[i]
    for _ in range(6):
        a, b = (int(x) for x in rng.integers(-len(ref) - 2, len(ref) + 3, size=2))
        step = int(rng.choice([1, 1, 2, -1]))
        assert h[a:b:step] == ref[a:b:step]
        assert tuple(h[a:b:step]) == ref[a:b:step]
    assert h + ref[:1] == ref + ref[:1] and ref[:1] + h == ref[:1] + ref
    assert hash(h) == hash(ref)


def assert_kernel_matches_reference(m, ref, rng):
    """Columns, design rows and rollout over a suffix of ``m.history``, as
    a view of its buffer and as a plain tuple of rows, against the
    references over ``ref``, the same transitions as a tuple.  The
    kernel's column 0, the padding of its sums, stays all +0.0."""
    g = m.graph
    lo = int(rng.integers(0, len(ref) + 1))
    sources = [VarRef.action(i) for i in range(g.d_action)] + [VarRef.state(i) for i in range(g.d_state)]
    probes = [(e.source, e.delay, e.form) for e in g.edges] + [
        (src, int(rng.integers(1, 7)), Form(rng.choice([f.value for f in Form]))) for src in sources
    ]
    scale = float(rng.choice([1.0, rng.uniform(0.5, 1.5)]))
    for rows in (m.history[lo:], ref[lo:]):
        lags = _LagFeatures(m.history, rows)
        for source, delay, form in probes:
            expected = reference_column(ref, rows, source, delay, form)
            p = lags.place(source.kind is SourceKind.ACTION, source.index, delay, form)
            assert hexes(masked(lags.columns[p], lags.gaps.get(p))) == hexes(expected)
        layout = lags.layout(g)
        place, _ = layout.padded()
        z, dead = (lags.design(place, scale), lags.dead(place)) if rows else (None, None)  # no rows, no dimensions
        for k, members in enumerate(layout.members if rows else ()):
            edges = [g.edges[i] for i in members]
            expected = [reference_column(ref, rows, e.source, e.delay, e.form) for e in edges]
            for w, column in enumerate(expected):
                got = masked(z[k, w], lags.gaps.get(int(place[k, w])))
                assert hexes(got) == hexes([None if v is None else v * scale for v in column])
            padding = z[k, len(members) : -1].ravel().tolist()  # slots past the last edge read column 0
            assert hexes(padding) == [(0.0).hex()] * len(padding)
            unread = [any(column[r] is None for column in expected) for r in range(len(rows))]
            assert (dead[k].tolist() if dead is not None else [False] * len(rows)) == unread
            assert hexes(z[k, -1]) == hexes([tr.observed[k] - tr.tuple.state[k] for tr in rows])
        got = rollout(g, m.delta_hat, m.history, rows)
        assert bits(got) == bits(reference_rollout(g, m.delta_hat, ref, rows))
        assert hexes(lags.columns[0].tolist()) == [(0.0).hex()] * len(rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans(), st.booleans())
def test_history_views_read_as_tuples_and_match_the_references(seed, capacity, flush, branch):
    """Appends with capacity trims, structural-break flushes and branches:
    every history reads as the tuple a copying implementation would hold,
    and its kernel matches the per-row references bit for bit."""
    rng = np.random.default_rng(seed)
    d_state, d_action = int(rng.integers(1, 4)), int(rng.integers(0, 3))
    graph = random_graph(rng, d_state, d_action, max_edges=6, max_delay=5)
    m = CausalModel(graph=graph, delta_hat=float(rng.uniform(-0.5, 0.5)), capacity=capacity)
    ref: tuple = ()
    start = int(rng.integers(0, 5))
    trs = transitions(rng, d_state, d_action, range(start, start + int(rng.integers(1, 40))))
    for tr in trs:
        if branch and ref and rng.uniform() < 0.2:
            # A branch appends to the same history twice: the second append
            # finds the buffer grown, copies, and neither history changes.
            other = transitions(rng, d_state, d_action, [tr.tuple.time.tick])[0]
            sibling = append_history(m, other)
            assert sibling.history[-1] is other and m.history == ref
        m = append_history(m, tr)
        ref = (ref + (tr,))[-capacity:]
        if branch and len(ref) > 1 and rng.uniform() < 0.2:
            assert sibling_differs(m, ref)
        if flush and rng.uniform() < 0.1:
            keep = int(rng.integers(0, len(ref) + 1))
            m = apply_hypothesis(m, StructuralBreak(keep)) if keep else replace(m, history=())
            ref = ref[len(ref) - keep :]
        assert_reads_as_tuple(m.history, ref, rng)
        assert len(m.history._buf.rows) <= 2 * capacity + 1
    assert_kernel_matches_reference(m, ref, rng)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rows_given_as_a_list_read_as_the_history_slice_they_copy(seed):
    """Rows given as a list copy of a history slice are converted once into
    a buffer of their own; the kernel over them holds the slice's columns,
    gap masks and sums, compared as ``float.hex``."""
    m, rng = flushed_model(seed)
    lo = int(rng.integers(0, len(m.history)))
    hi = int(rng.integers(lo, len(m.history) + 1))
    g = m.graph
    sources = [(True, i) for i in range(g.d_action)] + [(False, i) for i in range(g.d_state)]
    probes = [(a, i, d, f) for a, i in sources for d in (1, 2, 5) for f in Form]
    kernels = [_LagFeatures(m.history, rows) for rows in (m.history[lo:hi], list(m.history[lo:hi]))]
    for reads_action, index, delay, form in probes:
        places = [lags.place(reads_action, index, delay, form) for lags in kernels]
        columns = [hexes(lags.columns[p].tolist()) for lags, p in zip(kernels, places)]
        gaps = [None if lags.gaps.get(p) is None else lags.gaps[p].tolist() for lags, p in zip(kernels, places)]
        assert places[0] == places[1] and columns[0] == columns[1] and gaps[0] == gaps[1]
    sums = []
    for lags in kernels:
        pred, dead = lags.sums(lags.layout(g).packed((g.plan,)), math.exp(-m.delta_hat))
        sums.append((hexes(pred.ravel().tolist()), None if dead is None else dead.tolist()))
    assert sums[0] == sums[1]


def sibling_differs(m, ref):
    """Appending the last row's tick again branches: the branch holds its
    own row, ``m`` still reads as ``ref``."""
    again = Transition(ref[-1].tuple, ref[-1].observed)
    base = replace(m, history=m.history[:-1])
    branch = append_history(base, again)
    return branch.history[-1] is again and m.history == ref and m.history[-1] is ref[-1]


def test_a_long_episode_holds_a_bounded_buffer():
    """A buffer copies out its live rows once its start passes the view's
    length, so a 10,000-tick history holds O(capacity) rows."""
    rng = np.random.default_rng(3)
    m = CausalModel(graph=random_graph(rng, 1, 1), capacity=64)
    for tr in transitions(rng, 1, 1, range(10_000)):
        m = append_history(m, tr)
        assert len(m.history._buf.rows) <= 2 * 64 + 1
    assert [tr.tuple.time.tick for tr in m.history] == list(range(10_000 - 64, 10_000))


@pytest.mark.parametrize("ticks", [(3, 4, 6), (3, 4, 4), (4, 3, 5)], ids=["gapped", "repeated", "unordered"])
def test_a_hand_built_history_that_is_not_one_run_is_refused(ticks):
    """A history, and a kernel's rows like it, must be one run of
    consecutive ticks: ``ticks`` as either is refused."""
    rng = np.random.default_rng(0)
    hist = tuple(transitions(rng, 1, 1, ticks))
    graph = random_graph(rng, 1, 1)
    run = tuple(transitions(rng, 1, 1, range(0, 9)))
    rows = [run[t] for t in ticks]
    for build in (
        lambda: as_history(hist),
        lambda: CausalModel(graph=graph, history=hist),
        lambda: rollout(graph, 0.0, hist, hist[-1:]),
        lambda: _LagFeatures(run, rows),
        lambda: rollout(graph, 0.0, run, rows),
    ):
        with pytest.raises(DomainError, match="not one run"):
            build()
    assert CausalModel(graph=graph, history=run).history == run
