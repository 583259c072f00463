"""Model predictions, OLS refitting, and delta inversion.

Fit tests run two independent routes: the implementation under test, and
normal equations assembled by hand from the raw transitions.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalloop.core import (
    ActionVec,
    CausalTuple,
    DimensionError,
    DomainError,
    DegenerateDataError,
    NotEnoughDataError,
    NotIdentifiableError,
    Perturbation,
    StateVec,
    TimeIndex,
    Transition,
)
from causalloop.model import (
    CausalModel,
    _LagFeatures,
    _least_squares,
    _solve,
    append_history,
    counterfactual,
    estimate_delta,
    fit,
    model_digest,
    model_from_snapshot,
    model_snapshot,
    predict,
    predict_next,
    rollout,
)
from causalloop.explain import explain_counterfactual
from causalloop.world import CausalEdge, CausalGraph, Form, VarRef

from helpers import random_graph


def row(tick, state, action, observed):
    return Transition(
        tuple=CausalTuple(
            state=StateVec(tuple(state)),
            action=ActionVec(tuple(action)),
            time=TimeIndex(tick),
        ),
        observed=StateVec(tuple(observed)),
    )


def single_edge_model(coef, delay=1, form=Form.LINEAR, **kw):
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=delay, coefficient=coef, form=form),),
    )
    return CausalModel(graph=g, **kw)


# ---- single-application prediction ----------------------------------------


def test_predict_known_values():
    m = single_edge_model(2.0)
    t = CausalTuple(state=StateVec((1.0,)), action=ActionVec((3.0,)), time=TimeIndex(0))
    p = predict(m, t)
    assert p == (t, ((1, 0, 0, True, 0, 6.0),), 1, StateVec((7.0,)))
    assert (p.tuple, p.horizon, p.state) == (t, 1, StateVec((7.0,)))


def test_counterfactual_rescales_contribution():
    m = single_edge_model(2.0)
    t = CausalTuple(state=StateVec((1.0,)), action=ActionVec((3.0,)), time=TimeIndex(0))
    p = counterfactual(m, t, math.log(2.0))
    assert p.contributions[0][-1] == pytest.approx(3.0, abs=1e-12)
    assert p.state.values[0] == pytest.approx(4.0, abs=1e-12)


def test_predict_is_counterfactual_at_own_delta():
    m = single_edge_model(1.3, delay=2)
    m = CausalModel(graph=m.graph, delta_hat=0.7)
    t = CausalTuple(state=StateVec((0.2,)), action=ActionVec((-1.1,)), time=TimeIndex(5))
    assert predict(m, t) == counterfactual(m, t, 0.7)


@pytest.mark.parametrize("delta", [-1000.0, 1000.0, 10.000000000000002, math.inf, -math.inf, math.nan])
def test_counterfactual_refuses_a_delta_out_of_range(delta):
    m = single_edge_model(2.0)
    t = CausalTuple(state=StateVec((1.0,)), action=ActionVec((3.0,)), time=TimeIndex(0))
    with pytest.raises(DomainError, match="delta out of range"):
        counterfactual(m, t, delta)
    with pytest.raises(DomainError, match="delta out of range"):
        explain_counterfactual(m, t, delta)
    for edge in (-10.0, 10.0, 0.5):  # the range's ends are in it
        assert counterfactual(m, t, edge).state.values[0] == 1.0 + 6.0 * math.exp(-edge)


def test_multi_horizon_accumulation():
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(
            CausalEdge(VarRef.action(0), 0, delay=3, coefficient=10.0),
            CausalEdge(VarRef.action(0), 0, delay=1, coefficient=1.0),
        ),
    )
    m = CausalModel(graph=g)
    t = CausalTuple(state=StateVec((0.0,)), action=ActionVec((1.0,)), time=TimeIndex(0))
    p = predict(m, t)
    assert [(k, i, v) for k, _, i, _, _, v in p.contributions] == [(1, 1, 1.0), (3, 0, 10.0)]
    assert p.horizon == 3
    assert p.state.values == (11.0,)


def test_a_graph_with_no_edge_predicts_the_state_at_horizon_1():
    m = CausalModel(graph=CausalGraph(d_state=2, d_action=1, edges=()))
    t = CausalTuple(state=StateVec((0.5, -2.0)), action=ActionVec((1.0,)), time=TimeIndex(3))
    assert predict(m, t) == (t, (), 1, t.state)


FORMS = {Form.LINEAR: lambda x: x, Form.TANH: math.tanh, Form.QUADRATIC: lambda x: x * x}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_causal_function_is_the_state_plus_every_contribution(seed):
    """Against a closed form over random graphs of mixed forms and delays,
    to the bit: each contribution is its edge's ``coefficient *
    form(source) * e^-delta'`` at the edge's delay, the horizon is the
    largest delay, and the state is the tuple's plus every contribution,
    added in (horizon, target, edge) order."""
    rng = np.random.default_rng(seed)
    d_state, d_action = int(rng.integers(1, 5)), int(rng.integers(0, 3))
    graph = random_graph(rng, d_state, d_action, max_edges=8, max_delay=6)
    m = CausalModel(graph=graph, delta_hat=float(rng.uniform(-3.0, 3.0)))
    t = CausalTuple(
        state=StateVec(tuple(rng.uniform(-5.0, 5.0, size=d_state))),
        action=ActionVec(tuple(rng.uniform(-2.0, 2.0, size=d_action))),
        time=TimeIndex(int(rng.integers(0, 500))),
    )
    delta = float(rng.uniform(-3.0, 3.0))
    want = []
    for i, e in enumerate(graph.edges):
        reads_action = e.source == VarRef.action(e.source.index)
        v = (t.action if reads_action else t.state)[e.source.index]
        value = e.coefficient * FORMS[e.form](v) * math.exp(-delta)
        want.append((e.delay, e.target, i, reads_action, e.source.index, value))
    want.sort(key=lambda c: c[:3])
    state = list(t.state.values)
    for _, target, _, _, _, value in want:
        state[target] += value
    p = counterfactual(m, t, delta)
    assert p == (t, tuple(want), max(e.delay for e in graph.edges), StateVec(tuple(state)))
    assert predict(m, t) == counterfactual(m, t, m.delta_hat)


def test_predict_checks_dimensions():
    m = single_edge_model(1.0)
    bad = CausalTuple(state=StateVec((0.0, 0.0)), action=ActionVec((1.0,)), time=TimeIndex(0))
    with pytest.raises(DimensionError):
        predict(m, bad)


# ---- lag-resolved one-step prediction -------------------------------------


def test_predict_next_resolves_lag_from_history():
    m = single_edge_model(1.0, delay=2)
    m = append_history(m, row(0, (0.0,), (5.0,), (0.0,)))
    cur = CausalTuple(state=StateVec((0.0,)), action=ActionVec((9.0,)), time=TimeIndex(1))
    # the delay-2 edge reads the action at tick 0
    assert predict_next(m, cur).values == (5.0,)


def test_predict_next_pre_episode_lag_is_zero():
    m = single_edge_model(1.0, delay=2)
    cur = CausalTuple(state=StateVec((3.0,)), action=ActionVec((9.0,)), time=TimeIndex(0))
    assert predict_next(m, cur).values == (3.0,)


def test_predict_next_uses_current_tuple_for_delay_one():
    m = single_edge_model(2.0, delay=1)
    cur = CausalTuple(state=StateVec((1.0,)), action=ActionVec((4.0,)), time=TimeIndex(0))
    assert predict_next(m, cur).values == (9.0,)


def test_rollout_leaves_out_rows_with_a_gap():
    m = single_edge_model(1.0, delay=2)
    r5 = row(5, (0.0,), (2.0,), (2.0,))
    r6 = row(6, (2.0,), (0.0,), (4.0,))
    m = append_history(append_history(m, r5), r6)
    # A gapped history is refused: tick 8 cannot follow tick 6.
    with pytest.raises(DomainError):
        append_history(m, row(8, (4.0,), (0.0,), (4.0,)))
    # The row at tick 6 needs tick 5 (recorded); the row at tick 5 needs
    # tick 4, which precedes the run, as after a history flush.
    assert rollout(m.graph, 0.0, m.history, (r5, r6)) == [None, StateVec((4.0,))]


@pytest.mark.parametrize(
    "ticks", [(5, 6, 8), (5, 6, 6), (6, 5, 7)], ids=["gapped", "repeated", "unordered"]
)
def test_lookups_refuse_a_history_that_is_not_one_run(ticks):
    """Built by hand, not by append_history: each lookup below lands on an
    entry that holds another tick."""
    m = single_edge_model(1.0, delay=3)
    hist = tuple(row(t, (0.0,), (1.0,), (1.0,)) for t in ticks)
    with pytest.raises(DomainError, match="not one run"):
        rollout(m.graph, 0.0, hist, hist[-1:])  # needs tick ticks[-1] - 2, two places back
    cur = CausalTuple(StateVec((0.0,)), ActionVec((1.0,)), TimeIndex(ticks[-1] + 1))
    with pytest.raises(DomainError, match="not one run"):
        predict_next(replace(m, history=hist), cur)  # needs tick ticks[-1] - 1, one place back


def test_rollout_applies_scale():
    m = single_edge_model(2.0, delay=1)
    r = row(0, (0.0,), (1.0,), (1.0,))
    (pred,) = rollout(m.graph, math.log(2.0), (r,), (r,))
    assert pred.values[0] == pytest.approx(1.0, abs=1e-15)


# ---- history --------------------------------------------------------------


def test_append_history_keeps_one_run_of_ticks():
    m = append_history(single_edge_model(1.0), row(7, (0.0,), (1.0,), (1.0,)))  # any first tick
    m = append_history(m, row(8, (0.0,), (1.0,), (1.0,)))
    for tick in (10, 8, 3):  # skipped, repeated, earlier
        with pytest.raises(DomainError, match=f"tick {tick} cannot follow tick 8"):
            append_history(m, row(tick, (0.0,), (1.0,), (1.0,)))
    assert [r.tuple.time.tick for r in m.history] == [7, 8]


def test_append_history_caps_capacity():
    m = single_edge_model(1.0, capacity=3)
    for t in range(5):
        m = append_history(m, row(t, (0.0,), (float(t),), (0.0,)))
    assert len(m.history) == 3
    assert [r.tuple.time.tick for r in m.history] == [2, 3, 4]


# ---- fitting --------------------------------------------------------------


def test_fit_recovers_linear_coefficient_exactly():
    m = single_edge_model(999.0, fit_window=8)
    actions = [1.0, 2.0, 3.0, -1.0, 0.5, 2.5]
    s = 0.0
    for t, a in enumerate(actions):
        nxt = s + 2.0 * a
        m = append_history(m, row(t, (s,), (a,), (nxt,)))
        s = nxt
    fitted = fit(m)
    got = fitted.graph.edges[0].coefficient
    assert got == pytest.approx(2.0, abs=1e-12)
    # independent route: normal equations on the raw data
    x = np.array([[a] for a in actions])
    y = np.array([2.0 * a for a in actions])
    beta = np.linalg.solve(x.T @ x, x.T @ y)
    assert got == pytest.approx(float(beta[0]), abs=1e-12)
    # structure, delta and history untouched
    assert fitted.graph.edges[0].delay == 1
    assert fitted.delta_hat == m.delta_hat
    assert fitted.history == m.history


def test_fit_recovers_quadratic_coefficient():
    m = single_edge_model(0.0, form=Form.QUADRATIC, fit_window=8)
    actions = [1.0, 2.0, 3.0, -1.5, 0.5]
    s = 0.0
    for t, a in enumerate(actions):
        nxt = s + 1.5 * a * a
        m = append_history(m, row(t, (s,), (a,), (nxt,)))
        s = nxt
    fitted = fit(m)
    got = fitted.graph.edges[0].coefficient
    assert got == pytest.approx(1.5, abs=1e-12)
    feats = np.array([[a * a] for a in actions])
    y = np.array([1.5 * a * a for a in actions])
    beta = np.linalg.solve(feats.T @ feats, feats.T @ y)
    assert got == pytest.approx(float(beta[0]), abs=1e-12)


def test_fit_joint_two_lags_same_target():
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(
            CausalEdge(VarRef.action(0), 0, delay=1, coefficient=0.0),
            CausalEdge(VarRef.action(0), 0, delay=2, coefficient=0.0),
        ),
    )
    m = CausalModel(graph=g, fit_window=16)
    gen = np.random.default_rng(4)
    actions = [float(gen.uniform(-2, 2)) for _ in range(10)]
    s, prev = 0.0, 0.0  # prev = action one tick back; zero before the episode
    for t, a in enumerate(actions):
        nxt = s + 2.0 * a - 3.0 * prev
        m = append_history(m, row(t, (s,), (a,), (nxt,)))
        s, prev = nxt, a
    fitted = fit(m)
    coefs = [e.coefficient for e in fitted.graph.edges]
    assert coefs[0] == pytest.approx(2.0, abs=1e-10)
    assert coefs[1] == pytest.approx(-3.0, abs=1e-10)
    # independent route with the explicit lag structure
    lagged = [0.0] + actions[:-1]
    x = np.array([[a, p] for a, p in zip(actions, lagged)])
    y = np.array([2.0 * a - 3.0 * p for a, p in zip(actions, lagged)])
    beta = np.linalg.solve(x.T @ x, x.T @ y)
    assert coefs == pytest.approx(list(beta), abs=1e-10)


def test_fit_needs_enough_history():
    m = single_edge_model(1.0, fit_window=64)
    for t in range(5):
        m = append_history(m, row(t, (0.0,), (1.0,), (1.0,)))
    with pytest.raises(NotEnoughDataError):
        fit(m)
    # Long enough, but after a flush only one row has its lag recorded.
    m = single_edge_model(1.0, delay=3, fit_window=8)
    for t, a in zip(range(10, 13), (1.0, -1.0, 2.0)):
        m = append_history(m, row(t, (0.0,), (a,), (a,)))
    with pytest.raises(NotEnoughDataError, match="usable rows"):
        fit(m)


def test_fit_rejects_constant_feature():
    m = single_edge_model(1.0, fit_window=8)
    for t in range(6):
        m = append_history(m, row(t, (0.0,), (1.0,), (1.0,)))
    with pytest.raises(DegenerateDataError):
        fit(m)


def test_fit_rejects_collinear_features():
    g = CausalGraph(
        d_state=1,
        d_action=2,
        edges=(
            CausalEdge(VarRef.action(0), 0, delay=1, coefficient=0.0),
            CausalEdge(VarRef.action(1), 0, delay=1, coefficient=0.0),
        ),
    )
    m = CausalModel(graph=g, fit_window=8)
    for t, a in enumerate([1.0, -2.0, 0.5, 3.0, -1.0, 2.0]):
        m = append_history(m, row(t, (0.0,), (a, 2.0 * a), (a,)))
    with pytest.raises(DegenerateDataError):
        fit(m)


def test_a_target_the_window_cannot_fit_keeps_its_coefficients():
    """One rule: a target with a constant or a collinear feature column
    keeps its coefficients bit for bit, the other target is fitted as it
    would be alone, and fit raises only when no target can be fitted."""
    # Action 1 is held at 0.5; action 2 is twice action 0.
    actions = [(a, 0.5, 2.0 * a) for a in (1.0, -2.0, 0.5, 3.0, -1.0, 2.0, 0.25, -0.75)]
    fitted = CausalEdge(VarRef.action(0), 0, delay=1, coefficient=0.3)
    constant = (CausalEdge(VarRef.action(1), 1, delay=1, coefficient=0.7),)
    collinear = (
        CausalEdge(VarRef.action(0), 1, delay=1, coefficient=0.7),
        CausalEdge(VarRef.action(2), 1, delay=1, coefficient=-0.1),
    )

    def fed(edges):
        m = CausalModel(graph=CausalGraph(2, 3, edges), fit_window=8)
        s = (0.0, 0.0)
        for t, a in enumerate(actions):
            nxt = (s[0] + 1.5 * a[0] + 0.01 * t * t, s[1] + a[0] - a[1])
            m = append_history(m, row(t, s, a, nxt))
            s = nxt
        return m

    (alone,) = fit(fed((fitted,))).graph.plan
    assert alone[4] != 0.3
    for refused in (constant, collinear):
        m = fed((fitted,) + refused)
        with pytest.raises(DegenerateDataError):
            fit(fed(refused))
        out = fit(m).graph.plan
        assert out[0][4].hex() == alone[4].hex()
        assert [e[4].hex() for e in out[1:]] == [e[4].hex() for e in m.graph.plan[1:]]
    both = fed((CausalEdge(VarRef.action(1), 0, delay=1, coefficient=0.3),) + collinear)
    with pytest.raises(DegenerateDataError, match="fit for dim 0: feature column 0 is constant"):
        fit(both)


def test_fit_keeps_the_structure_and_builds_plain_edges():
    m = single_edge_model(999.0, fit_window=8)
    for t, a in enumerate([1.0, 2.0, 3.0, -1.0, 0.5, 2.5]):
        m = append_history(m, row(t, (0.0,), (a,), (-0.0 * a,)))
    fitted = fit(m)
    (e,) = fitted.graph.edges
    assert type(e) is CausalEdge and type(fitted.graph) is CausalGraph
    assert e == replace(m.graph.edges[0], coefficient=e.coefficient)
    assert fitted.graph == CausalGraph(1, 1, (e,))
    assert fitted.graph.plan == ((True, 0, 1, 0, e.coefficient, Form.LINEAR),)


def test_fit_without_edges_is_identity():
    g = CausalGraph(d_state=1, d_action=0, edges=())
    m = CausalModel(graph=g)
    assert fit(m) is m


def hexes(values):
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_stacked_solve_returns_each_designs_own_lstsq_bits_and_rank(seed):
    """One gufunc call over a stack of designs of one shape returns, for
    each, the coefficients and rank ``np.linalg.lstsq`` returns for it
    alone: 1-3 columns, 3-80 rows, column scales 1e-3 to 1e3, some stacks
    rank-deficient or with a constant column."""
    rng = np.random.default_rng(seed)
    k, rows, cols = int(rng.integers(1, 7)), int(rng.integers(3, 81)), int(rng.integers(1, 4))
    x = rng.uniform(-1.0, 1.0, size=(k, rows, cols)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1, cols))
    kind = int(rng.integers(0, 3))
    if kind == 1 and cols > 1:
        x[:, :, -1] = 2.0 * x[:, :, 0]
    elif kind == 2:
        x[:, :, int(rng.integers(cols))] = 0.5
    y = rng.uniform(-1.0, 1.0, size=(k, rows)) * 10.0 ** rng.uniform(-3.0, 3.0)
    # As the fit passes them: strided views of one (designs x rows x slots) array.
    z = np.concatenate((x, y[:, :, None]), axis=2)
    ((coef, ranks),) = _solve([(z[:, :, :cols], z[:, :, -1])])
    for i in range(k):
        want, _, rank, _ = np.linalg.lstsq(x[i], y[i], rcond=None)
        assert hexes(coef[i]) == hexes(want)
        assert int(ranks[i]) == int(rank)
    if kind == 1 and cols > 1:
        assert (ranks < cols).all()


def reference_least_squares(m, lags, scale):
    """Every target solved alone by ``np.linalg.lstsq``, its columns read one
    edge at a time from the kernel's store and times ``scale``, less each
    row where one of them has a gap: the coefficients, and each refusal as
    (class, message) in target order.  A target with fewer than
    ``max(2, edges)`` rows, a constant column or a rank below its edges
    keeps its coefficients."""
    plan = m.graph.plan
    coefs = [edge[4] for edge in plan]
    refusals = []
    n = len(lags.rows)
    for j in range(m.graph.d_state if n else 0):
        members = [i for i, edge in enumerate(plan) if edge[3] == j]
        if not members:
            continue
        places = [lags.place(plan[i][0], plan[i][1], plan[i][2], plan[i][5]) for i in members]
        x = np.array([lags.columns[p] * scale if scale != 1.0 else lags.columns[p] for p in places]).T
        y = np.array([tr.observed[j] - tr.tuple.state[j] for tr in lags.rows])
        keep = ~np.array([lags.gaps.get(p, np.zeros(n, dtype=bool)) for p in places]).any(axis=0)
        x, y = x[keep], y[keep]
        if len(x) < max(2, len(members)):
            message = f"fit for dim {j}: only {len(x)} usable rows for {len(members)} edges"
            refusals.append((NotEnoughDataError, message))
            continue
        flat = (x.max(axis=0) - x.min(axis=0)) == 0.0
        if flat.any():
            message = f"fit for dim {j}: feature column {int(np.argmax(flat))} is constant over the window"
            refusals.append((DegenerateDataError, message))
            continue
        coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
        if rank < len(members):
            refusals.append((DegenerateDataError, f"fit for dim {j}: design matrix rank {rank} < {len(members)}"))
            continue
        for i, c in zip(members, coef.tolist()):
            coefs[i] = c
    return coefs, refusals


def refused(refusals):
    return [(type(e), str(e)) for e in refusals]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_least_squares_keeps_each_targets_own_lstsq_bits(seed):
    """The fit's stacked solves against every target solved alone, over
    gapped windows (a history that starts after tick 0 leaves the first
    rows' longer lags unrecorded), variable scales 1e-3 to 1e3, an action
    held constant or twice another (a rank-deficient design where both
    feed one target at one delay), and feature scales other than 1."""
    rng = np.random.default_rng(seed)
    d_state, d_action = int(rng.integers(1, 5)), 3
    sources = [(index, delay) for index in range(d_action) for delay in (1, 2)] + [(0, 3)]
    edges = []
    for target in range(d_state):
        for k in rng.choice(len(sources), size=int(rng.integers(0, 4)), replace=False):
            index, delay = sources[int(k)]
            form = Form(rng.choice(["linear", "linear", "quadratic", "tanh"]))
            coef = float(rng.uniform(-1.0, 1.0))
            edges.append(CausalEdge(VarRef.action(index), target, delay=delay, coefficient=coef, form=form))
    order = rng.permutation(len(edges))
    graph = CausalGraph(d_state=d_state, d_action=d_action, edges=tuple(edges[int(i)] for i in order))
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=d_action)
    held = int(rng.integers(0, 3))  # action 1: free, held constant, or twice action 0
    start, length = int(rng.integers(0, 4)), int(rng.integers(3, 8 if rng.uniform() < 0.3 else 81))
    window = length if rng.uniform() < 0.6 else int(rng.integers(3, length + 1))
    m = CausalModel(graph=graph, fit_window=window)
    for t in range(start, start + length):
        a = rng.uniform(-1.0, 1.0, size=d_action) * scales
        if held == 1:
            a[1] = 0.5 * scales[1]
        elif held == 2:
            a[1] = 2.0 * a[0]
        s = rng.uniform(-1.0, 1.0, size=d_state)
        m = append_history(m, row(t, s, a, s + rng.uniform(-1.0, 1.0, size=d_state) * 10.0 ** rng.uniform(-3, 3)))
    scale = 1.0 if rng.uniform() < 0.5 else math.exp(-float(rng.uniform(-1.0, 1.0)))
    lags = _LagFeatures(m.history, m.history[-m.fit_window :])
    fitted, refusals = _least_squares(m, lags, scale)
    coefs, want = reference_least_squares(m, lags, scale)
    assert hexes(edge[4] for edge in fitted.graph.plan) == hexes(coefs)
    assert refused(refusals) == want


def test_refusals_keep_target_order_and_messages_whatever_the_edge_order():
    """Five targets, their edges listed out of target order: dims 0 and 4
    are fitted as each would be alone; dim 1 has a constant second
    column, dim 2 a collinear design, dim 3 one usable row.  The refusals
    come in target order with the per-target messages, and each refused
    target keeps its coefficients bit for bit."""
    a = VarRef.action
    edges = (
        CausalEdge(a(0), 3, delay=10, coefficient=0.9),
        CausalEdge(a(2), 4, delay=2, coefficient=-0.3),
        CausalEdge(a(2), 2, delay=1, coefficient=0.4),
        CausalEdge(a(0), 0, delay=1, coefficient=0.3),
        CausalEdge(a(0), 1, delay=2, coefficient=-0.2),
        CausalEdge(a(1), 1, delay=1, coefficient=0.6),
        CausalEdge(a(0), 2, delay=1, coefficient=0.7),
        CausalEdge(a(0), 4, delay=1, coefficient=0.1),
    )
    m = CausalModel(graph=CausalGraph(5, 3, edges), fit_window=10)
    rng = np.random.default_rng(5)
    for t in range(20, 30):  # after tick 0: dim 3's lag of 10 is recorded only for tick 29
        a0 = float(rng.uniform(-1.0, 1.0))
        s = rng.uniform(-1.0, 1.0, size=5)
        m = append_history(m, row(t, s, (a0, 0.5, 2.0 * a0), s + rng.uniform(-1.0, 1.0, size=5)))
    lags = _LagFeatures(m.history, m.history)
    fitted, refusals = _least_squares(m, lags, 1.0)
    assert refused(refusals) == [
        (DegenerateDataError, "fit for dim 1: feature column 1 is constant over the window"),
        (DegenerateDataError, "fit for dim 2: design matrix rank 1 < 2"),
        (NotEnoughDataError, "fit for dim 3: only 1 usable rows for 1 edges"),
    ]
    coefs, want = reference_least_squares(m, lags, 1.0)
    assert refused(refusals) == want
    got = [edge[4] for edge in fitted.graph.plan]
    assert hexes(got) == hexes(coefs)
    assert [got[i] == edges[i].coefficient for i in range(len(edges))] == [
        True, False, True, False, True, True, True, False,
    ]
    assert fit(m, lags).graph.plan == fitted.graph.plan


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_design_that_is_not_finite_still_raises_linalgerror():
    """A quadratic feature of a finite action can overflow to inf; the
    stacked solve raises what ``np.linalg.lstsq`` raises for it."""
    m = single_edge_model(1.0, form=Form.QUADRATIC, fit_window=8)
    for t, a in enumerate([1.0, 2.0, 1e200, -1.0, 0.5, 3.0, -2.0, 1.5]):
        m = append_history(m, row(t, (0.0,), (a,), (a,)))
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge in Linear Least Squares$"):
        fit(m)
    x = np.array([[1.0, 2.0], [np.inf, 1.0], [3.0, 4.0]])
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.lstsq(x, np.ones(3), rcond=None)
    with pytest.raises(np.linalg.LinAlgError) as got:
        _solve([(x[None], np.ones((1, 3)))])
    assert str(got.value) == str(want.value)


# ---- delta inversion ------------------------------------------------------


def test_estimate_delta_log_ratio():
    m = single_edge_model(1.0)
    assert estimate_delta(m, 2.0, 1.0).delta == pytest.approx(math.log(2.0), abs=1e-15)
    assert estimate_delta(m, 1.0, 2.0).delta == pytest.approx(-math.log(2.0), abs=1e-15)
    assert estimate_delta(m, -2.0, -1.0).delta == pytest.approx(math.log(2.0), abs=1e-15)


def test_estimate_delta_round_trips_scale():
    m = single_edge_model(1.0)
    for true_delta in (-3.0, -0.4, 0.0, 1.2, 7.5):
        pred = 1.7
        obs = pred * math.exp(-true_delta)
        assert estimate_delta(m, pred, obs).delta == pytest.approx(true_delta, abs=1e-9)


def test_estimate_delta_clamps():
    """A ratio too small for a double underflows to 0.0, whose log is
    -inf: the clamp takes it to -delta_max, as it takes an overflow to
    +delta_max."""
    m = single_edge_model(1.0)
    assert estimate_delta(m, 1.0, 1e-30).delta == 10.0
    assert estimate_delta(m, 1e-30, 1.0).delta == -10.0
    assert estimate_delta(m, 1e-300, 1e300) == Perturbation(-10.0)
    assert estimate_delta(m, -1e-300, -1e300) == Perturbation(-10.0)
    assert estimate_delta(m, 1e300, 1e-300) == Perturbation(10.0)


def test_estimate_delta_unidentifiable_cases():
    m = single_edge_model(1.0)
    with pytest.raises(NotIdentifiableError):
        estimate_delta(m, 0.0, 1.0)
    with pytest.raises(NotIdentifiableError):
        estimate_delta(m, 1.0, 0.0)
    with pytest.raises(NotIdentifiableError):
        estimate_delta(m, 1.0, -1.0)


# ---- snapshots ------------------------------------------------------------


def test_snapshot_round_trip_preserves_digest():
    m = single_edge_model(1.25, delay=3, fit_window=32)
    m2 = model_from_snapshot(model_snapshot(m))
    assert model_digest(m2) == model_digest(m)
    assert m2.graph == m.graph


def test_digest_ignores_history():
    m = single_edge_model(1.0)
    with_history = append_history(m, row(0, (0.0,), (1.0,), (1.0,)))
    assert model_digest(with_history) == model_digest(m)


def test_digest_tracks_model_changes():
    m = single_edge_model(1.0)
    assert model_digest(CausalModel(graph=m.graph, delta_hat=0.5)) != model_digest(m)
    m2 = single_edge_model(1.0001)
    assert model_digest(m2) != model_digest(m)
