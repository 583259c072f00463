"""Repair loop: triggering, candidate generation, scoring, acceptance.

The end-to-end cases inject a single known fault into an otherwise clean
history and check that the loop lands on the matching repair.
"""

from __future__ import annotations

import math
import types

import numpy as np
import pytest

import causalloop
from causalloop.core import (
    ActionVec,
    CausalTuple,
    DegenerateDataError,
    PredictionError,
    StateVec,
    TimeIndex,
    Transition,
    loss,
)
from causalloop.model import CausalModel, append_history, fit, predict_next
from causalloop.reflect import (
    CoefChange,
    DelayChange,
    DeltaShift,
    EdgeAdd,
    EdgeRemove,
    ReflectSettings,
    StructuralBreak,
    anomalous_suffix,
    apply_hypothesis,
    detect_mismatch,
    generate_hypotheses,
    reflect,
    score_hypothesis,
)
from causalloop.reflect import test_hypothesis as holdout_test
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


def one_edge_model(coef=1.0, delay=1, **kw):
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=delay, coefficient=coef),),
    )
    return CausalModel(graph=g, **kw)


def mismatch(m, ctx):
    """The live loop's mismatch on ``ctx``, the last row of ``m``'s history."""
    return loss(predict_next(m, ctx.tuple), ctx.observed)


def feed_effect_rows(m, effects, actions, start_tick=0, start_state=0.0):
    """Append rows where observed change at tick t is effects[t](action)."""
    s = start_state
    last = None
    for i, (eff, a) in enumerate(zip(effects, actions)):
        nxt = s + eff(a)
        last = row(start_tick + i, (s,), (a,), (nxt,))
        m = append_history(m, last)
        s = nxt
    return m, last


# ---- trigger --------------------------------------------------------------


def test_package_attribute_is_the_reflect_module():
    assert isinstance(causalloop.reflect, types.ModuleType)


def test_detect_mismatch_is_strict():
    err = PredictionError(epsilon=1.0, per_dim=(1.0,))
    assert not detect_mismatch(err, 1.0)
    assert detect_mismatch(err, 0.999999)


# ---- applying hypotheses --------------------------------------------------


def test_apply_each_kind():
    m = one_edge_model(coef=2.0, delay=3)
    assert apply_hypothesis(m, DeltaShift(0.5)).delta_hat == 0.5
    assert apply_hypothesis(m, CoefChange(0, -1.0)).graph.edges[0].coefficient == -1.0
    assert apply_hypothesis(m, DelayChange(0, 5)).graph.edges[0].delay == 5
    assert apply_hypothesis(m, EdgeRemove(0)).graph.edges == ()
    added = apply_hypothesis(m, EdgeAdd(VarRef.state(0), 0, 2, Form.TANH, 0.3))
    assert len(added.graph.edges) == 2
    assert added.graph.edges[1].form is Form.TANH
    # original untouched throughout
    assert m.graph.edges[0].coefficient == 2.0 and m.delta_hat == 0.0


def test_apply_delta_shift_clamps():
    m = one_edge_model()
    assert apply_hypothesis(m, DeltaShift(99.0)).delta_hat == 10.0
    assert apply_hypothesis(m, DeltaShift(-99.0)).delta_hat == -10.0


def test_structural_break_flushes_and_refits():
    m = one_edge_model(coef=1.0, fit_window=32)
    # 6 stale rows (coef 1), then 4 fresh rows behaving like coef 4
    effects = [lambda a: a] * 6 + [lambda a: 4.0 * a] * 4
    actions = [1.0, -0.5, 2.0, 0.7, -1.2, 0.4, 1.0, -0.8, 1.5, 0.6]
    m, _ = feed_effect_rows(m, effects, actions)
    out = apply_hypothesis(m, StructuralBreak(keep=4))
    assert len(out.history) == 4
    assert out.graph.edges[0].coefficient == pytest.approx(4.0, abs=1e-9)


# ---- anomalous suffix -----------------------------------------------------


def test_structural_break_refit_is_best_effort():
    # The refit runs at the model's scale, fits a constant feature column
    # that fit() refuses, and leaves a coefficient alone when the kept
    # suffix is too short to estimate it.
    m = one_edge_model(coef=1.0, fit_window=16, delta_hat=math.log(2.0))
    m, _ = feed_effect_rows(m, [lambda a: 3.0 * a] * 6, [1.0] * 6)
    with pytest.raises(DegenerateDataError):
        fit(m)
    assert apply_hypothesis(m, StructuralBreak(keep=4)).graph.edges[0].coefficient == pytest.approx(6.0)
    assert apply_hypothesis(m, StructuralBreak(keep=1)).graph.edges[0].coefficient == 1.0
    # Collinear features: both coefficients stay where fit() would refuse.
    g = CausalGraph(
        d_state=1,
        d_action=2,
        edges=(
            CausalEdge(VarRef.action(0), 0, delay=1, coefficient=1.0),
            CausalEdge(VarRef.action(1), 0, delay=1, coefficient=0.5),
        ),
    )
    m = CausalModel(graph=g, fit_window=16)
    for t, a in enumerate([1.0, -2.0, 0.5, 3.0]):
        m = append_history(m, row(t, (0.0,), (a, 2.0 * a), (a,)))
    with pytest.raises(DegenerateDataError):
        fit(m)
    out = apply_hypothesis(m, StructuralBreak(keep=4))
    assert [e.coefficient for e in out.graph.edges] == [1.0, 0.5]


def test_anomalous_suffix_counts_trailing_misses():
    m = one_edge_model(coef=1.0, fit_window=32)
    effects = [lambda a: a] * 4 + [lambda a: 2.0 * a] * 2
    actions = [1.0] * 6
    m, _ = feed_effect_rows(m, effects, actions)
    # trailing rows miss by 1.0 each (squared), earlier rows are exact
    assert anomalous_suffix(m, floor=0.25) == 2
    assert anomalous_suffix(m, floor=1.5) == 0


# ---- scoring --------------------------------------------------------------


def test_score_worked_example():
    m = one_edge_model(coef=1.0)
    r = row(0, (0.0,), (1.0,), (3.0,))
    m = append_history(m, r)
    # current model predicts 1, the edit predicts 3, observation is 3:
    # (4 - 0) / (2 * 1^2) = 2
    assert score_hypothesis(m, CoefChange(0, 3.0), [r]) == pytest.approx(2.0, abs=1e-12)


def test_score_of_do_nothing_edit_is_zero():
    m = one_edge_model(coef=1.0)
    m, _ = feed_effect_rows(m, [lambda a: a] * 4, [1.0, 2.0, -1.0, 0.5])
    assert score_hypothesis(m, DeltaShift(m.delta_hat), m.history) == 0.0


def test_score_scales_with_sigma_lik():
    m1 = one_edge_model(coef=1.0, sigma_lik=1.0)
    m2 = one_edge_model(coef=1.0, sigma_lik=2.0)
    r = row(0, (0.0,), (1.0,), (3.0,))
    m1 = append_history(m1, r)
    m2 = append_history(m2, r)
    s1 = score_hypothesis(m1, CoefChange(0, 3.0), [r])
    s2 = score_hypothesis(m2, CoefChange(0, 3.0), [r])
    assert s1 == pytest.approx(4.0 * s2, abs=1e-12)


def test_empty_window_scores_zero():
    m = one_edge_model()
    assert score_hypothesis(m, CoefChange(0, 2.0), []) == 0.0


# ---- holdout testing ------------------------------------------------------


def test_holdout_accepts_clear_improvement():
    m = one_edge_model(coef=1.0)
    r = row(0, (0.0,), (1.0,), (0.0,))  # no true effect
    m = append_history(m, r)
    ok, mse_m, mse_h = holdout_test(m, CoefChange(0, 0.5), [r], rho=0.1)
    assert ok and mse_m == 1.0 and mse_h == 0.25


def test_holdout_rejects_marginal_improvement():
    m = one_edge_model(coef=1.0)
    r = row(0, (0.0,), (1.0,), (0.0,))
    m = append_history(m, r)
    ok, _, mse_h = holdout_test(m, CoefChange(0, 0.99), [r], rho=0.1)
    assert not ok
    assert mse_h == pytest.approx(0.9801, abs=1e-12)


# ---- candidate generation -------------------------------------------------


def test_candidates_respect_budget_and_determinism():
    m = one_edge_model(coef=1.0, fit_window=32)
    effects = [lambda a: a] * 10 + [lambda a: 3.0 * a] * 6
    gen = np.random.default_rng(0)
    actions = [float(gen.uniform(0.5, 2.0)) for _ in range(16)]
    m, last = feed_effect_rows(m, effects, actions)
    err = PredictionError(epsilon=4.0, per_dim=(4.0,))
    a = generate_hypotheses(m, last, err, tau=0.5, settings=ReflectSettings(budget=4))
    b = generate_hypotheses(m, last, err, tau=0.5, settings=ReflectSettings(budget=4))
    assert a == b
    assert len(a) <= 4
    full = generate_hypotheses(m, last, err, tau=0.5)
    assert len(full) == len(set(full))  # no duplicates
    assert any(isinstance(h, StructuralBreak) for h in full)


def test_delay_candidates_stay_in_range():
    m = one_edge_model(coef=1.0, delay=1, fit_window=32)
    effects = [lambda a: 2.0 * a] * 8
    m, last = feed_effect_rows(m, effects, [1.0, -1.0, 0.5, 2.0, 1.5, -0.5, 1.0, 0.8])
    err = PredictionError(epsilon=4.0, per_dim=(4.0,))
    hyps = generate_hypotheses(m, last, err, tau=0.5, settings=ReflectSettings(k_max=3))
    delays = [h.new_delay for h in hyps if isinstance(h, DelayChange)]
    assert delays and all(1 <= k <= 3 for k in delays)
    assert 1 not in delays  # current delay is not a candidate


def test_candidates_from_empty_history():
    # No recorded rows: estimates have nothing to read, so refits and new
    # edges drop out, and the break keeps the minimum of one row.
    m = one_edge_model(coef=1.0)
    ctx = row(0, (0.0,), (1.0,), (3.0,))
    err = PredictionError(epsilon=9.0, per_dim=(9.0,))
    assert generate_hypotheses(m, ctx, err, tau=0.5) == (
        CoefChange(0, -1.0),
        CoefChange(0, 0.5),
        CoefChange(0, 2.0),
        DelayChange(0, 2),
        DelayChange(0, 3),
        EdgeRemove(0),
        StructuralBreak(keep=1),
    )


# ---- end-to-end repairs ---------------------------------------------------


def test_coefficient_break_repaired_by_coef_change():
    m = one_edge_model(coef=1.0, fit_window=32)
    gen = np.random.default_rng(1)
    # sign-varying actions: keeps the state near zero, so state level cannot
    # masquerade as the explanation for the changed coefficient
    actions = [
        float(gen.uniform(0.5, 2.0)) * (1.0 if gen.uniform() < 0.5 else -1.0)
        for _ in range(32)
    ]
    effects = [lambda a: a] * 24 + [lambda a: 3.0 * a] * 8
    m, last = feed_effect_rows(m, effects, actions)
    report = reflect(m, last, mismatch(m, last), tau=0.5)
    assert report.triggered
    assert report.accepted
    # the first acceptance is a decay-stable parameter edit, possibly a grid
    # half-step; the acceptance sequence as a whole lands on the new regime
    assert isinstance(report.accepted[0], (CoefChange, StructuralBreak))
    assert report.updated_model.graph.edges[0].coefficient == pytest.approx(3.0, rel=0.05)
    assert report.updated_model.delta_hat == 0.0


def test_delay_fault_repaired_by_delay_change():
    m = one_edge_model(coef=2.0, delay=1, fit_window=32)
    # true lag is 3: the observed change at tick t follows the action at t-2
    gen = np.random.default_rng(2)
    actions = [float(gen.uniform(-2.0, 2.0)) for _ in range(24)]
    s = 0.0
    last = None
    for t, a in enumerate(actions):
        lagged = actions[t - 2] if t >= 2 else 0.0
        nxt = s + 2.0 * lagged
        last = row(t, (s,), (a,), (nxt,))
        m = append_history(m, last)
        s = nxt
    report = reflect(m, last, mismatch(m, last), tau=0.5)
    assert report.triggered
    assert DelayChange(0, 3) in report.accepted
    assert report.updated_model.graph.edges[0].delay == 3


def test_missing_edge_repaired_by_edge_add():
    g = CausalGraph(
        d_state=2,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=1, coefficient=1.0),),
    )
    m = CausalModel(graph=g, fit_window=32)
    gen = np.random.default_rng(3)
    s = [0.0, 0.0]
    last = None
    for t in range(24):
        a = float(gen.uniform(0.5, 2.0))
        nxt = [s[0] + a, s[1] + 0.7 * a]  # second dimension is unmodeled
        last = row(t, tuple(s), (a,), tuple(nxt))
        m = append_history(m, last)
        s = nxt
    report = reflect(m, last, mismatch(m, last), tau=0.1)
    assert report.triggered
    adds = [h for h in report.accepted if isinstance(h, EdgeAdd)]
    assert adds
    add = adds[0]
    assert add.source == VarRef.action(0) and add.target == 1 and add.delay == 1
    assert add.coefficient == pytest.approx(0.7, rel=0.05)
    assert len(report.updated_model.graph.edges) == 2


def test_spurious_edge_neutralized():
    m = one_edge_model(coef=5.0, fit_window=32)
    gen = np.random.default_rng(4)
    actions = [float(gen.uniform(0.5, 2.0)) for _ in range(16)]
    m, last = feed_effect_rows(m, [lambda a: 0.0] * 16, actions)  # no true effect
    report = reflect(m, last, mismatch(m, last), tau=0.5)
    assert report.triggered
    kinds = {type(h) for h in report.accepted}
    assert kinds <= {CoefChange, EdgeRemove}
    final = report.updated_model.graph
    # either the edge is gone or its coefficient collapsed to ~0
    assert not final.edges or abs(final.edges[0].coefficient) < 1e-6


def test_max_accepts_bounds_acceptances():
    m = one_edge_model(coef=1.0, fit_window=32)
    gen = np.random.default_rng(5)
    actions = [float(gen.uniform(0.5, 2.0)) for _ in range(32)]
    effects = [lambda a: a] * 24 + [lambda a: 3.0 * a] * 8
    m, last = feed_effect_rows(m, effects, actions)
    report = reflect(m, last, mismatch(m, last), tau=0.5, settings=ReflectSettings(max_accepts=1))
    assert len(report.accepted) <= 1


def test_candidates_are_rank_ordered():
    m = one_edge_model(coef=1.0, fit_window=32)
    gen = np.random.default_rng(6)
    actions = [float(gen.uniform(0.5, 2.0)) for _ in range(32)]
    effects = [lambda a: a] * 24 + [lambda a: 3.0 * a] * 8
    m, last = feed_effect_rows(m, effects, actions)
    report = reflect(m, last, mismatch(m, last), tau=0.5)
    scores = [hs.score for hs in report.candidates]
    assert scores == sorted(scores, reverse=True)
