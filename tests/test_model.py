"""Model predictions, OLS refitting, and delta inversion.

Fit tests run two independent routes: the implementation under test, and
normal equations assembled by hand from the raw transitions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from causalloop.core import (
    ActionVec,
    CausalTuple,
    DimensionError,
    DegenerateDataError,
    NotEnoughDataError,
    NotIdentifiableError,
    StateVec,
    TimeIndex,
    Transition,
)
from causalloop.model import (
    CausalModel,
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
from causalloop.world import CausalEdge, CausalGraph, Form, VarRef


def row(tick, state, action, observed):
    return Transition(
        tuple=CausalTuple(
            state=StateVec(tuple(state)),
            action=ActionVec(tuple(action)),
            time=TimeIndex(tick),
        ),
        horizon=1,
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
    assert p.horizon_states == {1: StateVec((7.0,))}
    (c,) = p.contributions
    assert (c.edge_index, c.horizon, c.target, c.value) == (0, 1, 0, 6.0)


def test_counterfactual_rescales_contribution():
    m = single_edge_model(2.0)
    t = CausalTuple(state=StateVec((1.0,)), action=ActionVec((3.0,)), time=TimeIndex(0))
    p = counterfactual(m, t, math.log(2.0))
    assert p.horizon_states[1].values[0] == pytest.approx(4.0, abs=1e-12)


def test_predict_is_counterfactual_at_own_delta():
    m = single_edge_model(1.3, delay=2)
    m = CausalModel(graph=m.graph, delta_hat=0.7)
    t = CausalTuple(state=StateVec((0.2,)), action=ActionVec((-1.1,)), time=TimeIndex(5))
    assert predict(m, t) == counterfactual(m, t, 0.7)


def test_multi_horizon_accumulation():
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(
            CausalEdge(VarRef.action(0), 0, delay=1, coefficient=1.0),
            CausalEdge(VarRef.action(0), 0, delay=3, coefficient=10.0),
        ),
    )
    m = CausalModel(graph=g)
    t = CausalTuple(state=StateVec((0.0,)), action=ActionVec((1.0,)), time=TimeIndex(0))
    p = predict(m, t)
    assert sorted(p.horizon_states) == [1, 3]
    assert p.horizon_states[1].values == (1.0,)
    assert p.horizon_states[3].values == (11.0,)


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
    # history records tick 5 only; the row at tick 6 needs tick 5 (present),
    # the row at tick 8 needs tick 7 (missing)
    r5 = row(5, (0.0,), (2.0,), (2.0,))
    r6 = row(6, (2.0,), (0.0,), (4.0,))
    r8 = row(8, (4.0,), (0.0,), (4.0,))
    hist = (r5, r6, r8)
    strict = rollout(m.graph, 0.0, hist, (r6, r8))
    assert strict[0].values == (4.0,)
    assert strict[1] is None


def test_rollout_applies_scale():
    m = single_edge_model(2.0, delay=1)
    r = row(0, (0.0,), (1.0,), (1.0,))
    (pred,) = rollout(m.graph, math.log(2.0), (r,), (r,))
    assert pred.values[0] == pytest.approx(1.0, abs=1e-15)


# ---- history --------------------------------------------------------------


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


def test_fit_without_edges_is_identity():
    g = CausalGraph(d_state=1, d_action=0, edges=())
    m = CausalModel(graph=g)
    assert fit(m) is m


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
    m = single_edge_model(1.0)
    assert estimate_delta(m, 1.0, 1e-30).delta == 10.0
    assert estimate_delta(m, 1e-30, 1.0).delta == -10.0


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
