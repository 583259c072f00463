"""Repair loop: triggering, candidate generation, scoring, acceptance.

The end-to-end cases inject a single known fault into an otherwise clean
history and check that the loop lands on the matching repair.
"""

from __future__ import annotations

import json
import math
import types
from typing import get_args

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import causalloop
from causalloop.core import (
    ActionVec,
    CausalTuple,
    ConfigError,
    DegenerateDataError,
    DomainError,
    PredictionError,
    StateVec,
    TimeIndex,
    Transition,
    loss,
)
from causalloop.model import CausalModel, append_history, fit, predict_next
from causalloop.explain import _HYPOTHESIS_PHRASES, explain_reflection, is_grounded
from causalloop.reflect import (
    CoefChange,
    DelayChange,
    DeltaShift,
    EdgeAdd,
    EdgeRemove,
    Hypothesis,
    ReflectSettings,
    StructuralBreak,
    anomalous_suffix,
    apply_hypothesis,
    detect_mismatch,
    generate_hypotheses,
    hypothesis_from_row,
    hypothesis_to_dict,
    hypothesis_to_row,
    reflect,
    score_hypothesis,
)
from causalloop.reflect import test_hypothesis as holdout_test
from causalloop.world import CausalEdge, CausalGraph, Form, SourceKind, VarRef


def row(tick, state, action, observed):
    return Transition(
        tuple=CausalTuple(
            state=StateVec(tuple(state)),
            action=ActionVec(tuple(action)),
            time=TimeIndex(tick),
        ),
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


@pytest.mark.parametrize("at_end", [True, False], ids=["len-plan", "minus-1"])
@pytest.mark.parametrize("kind", ["coef", "delay", "remove"])
def test_an_edit_of_an_edge_outside_the_graph_is_refused_as_the_batch_refuses_it(kind, at_end):
    """``apply_hypothesis`` and the batch take an edge edit from one rule:
    an index past the last edge or below 0 is refused by both, with the
    same ConfigError and message."""
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(
            CausalEdge(VarRef.action(0), 0, delay=1, coefficient=1.0),
            CausalEdge(VarRef.state(0), 0, delay=1, coefficient=0.5),
        ),
    )
    m, _ = feed_effect_rows(CausalModel(graph=g), [lambda a: a] * 8, [1.0, -0.5, 2.0, 0.7, -1.2, 0.4, 1.0, -0.8])
    i = 2 if at_end else -1
    h = {"coef": CoefChange(i, 9.0), "delay": DelayChange(i, 3), "remove": EdgeRemove(i)}[kind]
    message = f"edge index {i} outside a graph of 2 edges"
    with pytest.raises(ConfigError, match=message):
        apply_hypothesis(m, h)
    with pytest.raises(ConfigError, match=message):
        score_hypothesis(m, h, m.history)
    with pytest.raises(ConfigError, match=message):
        holdout_test(m, h, m.history[-4:], 0.1)


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
    # The refit follows fit()'s one rule: a constant feature column keeps
    # its coefficient, as does one the kept suffix is too short to estimate.
    m = one_edge_model(coef=1.0, fit_window=16, delta_hat=math.log(2.0))
    m, _ = feed_effect_rows(m, [lambda a: 3.0 * a] * 6, [1.0] * 6)
    with pytest.raises(DegenerateDataError):
        fit(m)
    assert apply_hypothesis(m, StructuralBreak(keep=4)).graph.edges[0].coefficient == 1.0
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


def test_structural_break_refit_runs_at_the_model_scale():
    # Effects of 3a under delta_hat = ln 2 (scale 1/2) refit to 6, where
    # fit(), at scale 1.0, gives 3.
    m = one_edge_model(coef=1.0, fit_window=16, delta_hat=math.log(2.0))
    m, _ = feed_effect_rows(m, [lambda a: 3.0 * a] * 6, [1.0, -2.0, 0.5, 3.0, -1.0, 2.0])
    assert fit(m).graph.edges[0].coefficient == pytest.approx(3.0)
    assert apply_hypothesis(m, StructuralBreak(keep=4)).graph.edges[0].coefficient == pytest.approx(6.0)


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
    # edges drop out, and the break keeps the minimum of one row.  The
    # break comes right after the (here unidentifiable) DeltaShift, before
    # the one offending dimension's edits.
    m = one_edge_model(coef=1.0)
    ctx = row(0, (0.0,), (1.0,), (3.0,))
    err = PredictionError(epsilon=9.0, per_dim=(9.0,))
    assert generate_hypotheses(m, ctx, err, tau=0.5) == (
        StructuralBreak(keep=1),
        CoefChange(0, -1.0),
        CoefChange(0, 0.5),
        CoefChange(0, 2.0),
        DelayChange(0, 2),
        DelayChange(0, 3),
        EdgeRemove(0),
    )


def test_offending_dimensions_share_the_budget_round_robin():
    # Three dimensions with one action edge each; dimension 0 does not
    # offend.  Dimensions 1 and 2 tie on error and take turns in index
    # order, one edit each per round, until the budget stops them.
    g = CausalGraph(
        d_state=3,
        d_action=1,
        edges=tuple(CausalEdge(VarRef.action(0), k, delay=1, coefficient=1.0) for k in range(3)),
    )
    ctx = row(0, (0.0, 0.0, 0.0), (1.0,), (3.0, 3.0, 3.0))
    err = PredictionError(epsilon=6.0, per_dim=(0.0, 9.0, 9.0))
    assert generate_hypotheses(CausalModel(graph=g), ctx, err, tau=0.5, settings=ReflectSettings(budget=7)) == (
        StructuralBreak(keep=1),
        CoefChange(1, -1.0),
        CoefChange(2, -1.0),
        CoefChange(1, 0.5),
        CoefChange(2, 0.5),
        CoefChange(1, 2.0),
        CoefChange(2, 2.0),
    )
    # The worst dimension leads each round.
    err = PredictionError(epsilon=6.0, per_dim=(0.0, 4.0, 9.0))
    assert generate_hypotheses(CausalModel(graph=g), ctx, err, tau=0.5, settings=ReflectSettings(budget=3))[1:] == (
        CoefChange(2, -1.0),
        CoefChange(1, -1.0),
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


def twin_delay_model():
    """Edges a0 -> s0 at delays 1 and 3 over a world whose one edge is
    a0 -> s0 at delay 2: either delay change onto 2 fits."""
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(
            CausalEdge(VarRef.action(0), 0, delay=1, coefficient=2.0),
            CausalEdge(VarRef.action(0), 0, delay=3, coefficient=2.0),
        ),
    )
    m = CausalModel(graph=g, fit_window=32)
    gen = np.random.default_rng(0)
    actions = [float(gen.uniform(-2.0, 2.0)) for _ in range(24)]
    effects = [lambda a: 0.0] + [lambda a, t=t: 2.0 * actions[t - 1] for t in range(1, 24)]
    return feed_effect_rows(m, effects, actions)


def test_colliding_delay_change_is_skipped(monkeypatch):
    m, last = twin_delay_model()
    working = apply_hypothesis(m, DelayChange(0, 2))
    holdout = working.history[-8:]
    with pytest.raises(ConfigError):
        apply_hypothesis(working, DelayChange(1, 2))
    with pytest.raises(ConfigError):
        holdout_test(working, DelayChange(1, 2), holdout, 0.1)
    with pytest.raises(ConfigError):
        score_hypothesis(working, DelayChange(1, 2), working.history[-32:-8])

    # Every test is read from a batch: log them.
    reflect_mod = causalloop.reflect
    real_batch_test = reflect_mod._EditBatch.test
    tested = []

    def logged_batch_test(batch, i, rho):
        h = batch.hs[i]
        try:
            result = real_batch_test(batch, i, rho)
        except ConfigError:
            tested.append((h, "ConfigError"))
            raise
        tested.append((h, result[0]))
        return result

    monkeypatch.setattr(reflect_mod._EditBatch, "test", logged_batch_test)
    report = reflect(m, last, mismatch(m, last), tau=0.5)
    assert tested[:2] == [(DelayChange(0, 2), True), (DelayChange(1, 2), "ConfigError")]
    assert report.accepted == (DelayChange(0, 2), EdgeRemove(1))


def test_reflect_scores_and_tests_only_in_batches(monkeypatch):
    """reflect never calls the per-candidate functions, and a trigger builds
    one batch, then one more per acceptance that leaves a candidate to
    test: at most max_accepts."""
    reflect_mod = causalloop.reflect

    def per_candidate(*args, **kwargs):
        raise AssertionError("reflect scored or tested one candidate alone")

    monkeypatch.setattr(reflect_mod, "score_hypothesis", per_candidate)
    monkeypatch.setattr(reflect_mod, "test_hypothesis", per_candidate)
    real_batch, real_reflect = reflect_mod._EditBatch, reflect_mod.reflect
    batches, triggers = [], []

    class CountedBatch(real_batch):
        def __init__(self, *args):
            batches.append(args)
            super().__init__(*args)

    def counted_reflect(*args):
        batches.clear()
        report = real_reflect(*args)
        triggers.append((len(batches), len(report.accepted)))
        return report

    monkeypatch.setattr(reflect_mod, "_EditBatch", CountedBatch)
    monkeypatch.setattr(causalloop.agent, "reflect", counted_reflect)
    sc = causalloop.resolve_scenario("break_demo")
    causalloop.run_episode(sc, causalloop.RandomPolicy(), seed=2, length=260)
    assert triggers
    assert all(1 <= built <= min(sc.max_accepts, 1 + accepted) for built, accepted in triggers)
    assert any(built == sc.max_accepts for built, _ in triggers)


def test_no_model_is_built_per_candidate(monkeypatch):
    """Scoring and testing edit the working model's predictions: only an
    accepted edit, or a StructuralBreak's refit, builds a model."""
    reflect_mod = causalloop.reflect
    real_apply = reflect_mod.apply_hypothesis
    built = []

    def counted(m, h):
        built.append(h)
        return real_apply(m, h)

    monkeypatch.setattr(reflect_mod, "apply_hypothesis", counted)
    sc = causalloop.resolve_scenario("break_demo")
    trace = causalloop.run_episode(sc, causalloop.RandomPolicy(), seed=2, length=260)
    kinds = [row[0] for r in trace.records if r.reflect is not None for row in r.reflect["accepted"]]
    edits = [kind for kind in kinds if kind != StructuralBreak.kind]
    assert len(edits) >= 5
    assert len([h for h in built if not isinstance(h, StructuralBreak)]) == len(edits)


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


def test_ctx_is_the_last_entry_or_the_tick_after_it():
    m = one_edge_model(coef=1.0, fit_window=32)
    m, last = feed_effect_rows(m, [lambda a: a] * 16, [1.0, -0.5, 2.0, 0.7] * 4)
    tick, s = last.tuple.time.tick, last.observed[0]
    nxt = row(tick + 1, (s,), (1.0,), (s + 3.0,))
    assert reflect(m, nxt, mismatch(m, nxt), tau=0.5).updated_model.history[-1] == nxt
    skip = row(tick + 2, (s,), (1.0,), (s + 3.0,))
    with pytest.raises(DomainError, match=f"tick {tick + 2} cannot follow tick {tick}"):
        reflect(m, skip, mismatch(m, skip), tau=0.5)


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**53), 2**53).map(float)
INTS = st.integers(-(2**63), 2**63)
# Every edit of one kind, in its class's field order.
EDITS = {
    DeltaShift: st.builds(DeltaShift, FLOATS),
    CoefChange: st.builds(CoefChange, INTS, FLOATS),
    DelayChange: st.builds(DelayChange, INTS, INTS),
    EdgeRemove: st.builds(EdgeRemove, INTS),
    EdgeAdd: st.builds(
        EdgeAdd, st.builds(VarRef, st.sampled_from(SourceKind), INTS), INTS, INTS, st.sampled_from(Form), FLOATS
    ),
    StructuralBreak: st.builds(StructuralBreak, INTS),
}


@pytest.mark.parametrize("cls", list(EDITS), ids=[cls.kind for cls in EDITS])
@given(data=st.data())
def test_every_edit_kind_reads_back_from_its_row(cls, data):
    """The row is the kind, then each field's entries in declaration order
    (an EdgeAdd's source as its kind and index), and the labelled view
    names each entry of it; the row reader gives the edit back, every float
    to the bit."""
    h = data.draw(EDITS[cls])
    row = hypothesis_to_row(h)
    text = json.dumps(row, allow_nan=False)
    back = hypothesis_from_row(json.loads(text))
    assert back == h and json.dumps(hypothesis_to_row(back)) == text
    entries = [
        e for v in h.__dict__.values() for e in ((v.kind.value, v.index) if isinstance(v, VarRef) else (v,))
    ]
    assert row == [cls.kind] + [e.value if isinstance(e, Form) else e for e in entries]
    labelled = hypothesis_to_dict(h)
    assert list(labelled) == ["kind", *h.__dict__]
    flat = [e for v in labelled.values() for e in (v.values() if isinstance(v, dict) else (v,))]
    assert flat == row


def test_every_edit_class_states_its_kind_rank_phrase_and_record():
    """Each member of the Hypothesis union has a distinct record kind, a
    phrase in explain, a round trip through the row writer and reader, and
    a tie rank in the acceptance order on score ties."""
    samples = {
        DeltaShift: DeltaShift(-0.25),
        CoefChange: CoefChange(3, 1.5),
        DelayChange: DelayChange(1, 4),
        EdgeRemove: EdgeRemove(0),
        EdgeAdd: EdgeAdd(VarRef.action(1), 2, 3, Form.QUADRATIC, -0.5),
        StructuralBreak: StructuralBreak(keep=6),
    }
    members = get_args(Hypothesis)
    assert set(samples) == set(members) == set(_HYPOTHESIS_PHRASES)
    assert len({cls.kind for cls in members}) == len(members)
    for cls, h in samples.items():
        row = json.loads(json.dumps(hypothesis_to_row(h)))
        assert row[0] == hypothesis_to_dict(h)["kind"] == cls.kind
        assert hypothesis_from_row(row) == h
        report = {"triggered": True, "epsilon": 1.0, "tau": 0.5, "candidates": [], "accepted": [row]}
        e = explain_reflection(7, report)
        assert e.text.endswith(f" Accepted: {_HYPOTHESIS_PHRASES[cls](h)}.")
        assert is_grounded(e)
    ranked = sorted(members, key=lambda cls: cls.rank)
    assert ranked == [CoefChange, DeltaShift, DelayChange, EdgeRemove, EdgeAdd, StructuralBreak]
    assert [cls.rank for cls in ranked] == list(range(len(members)))
