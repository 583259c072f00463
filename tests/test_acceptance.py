"""Acceptance suite: every criterion as one test with a printed verdict.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``)
carrying the measured margin and wall time, then asserts.  Tolerances and
time budgets are fixed in this file; nothing is tunable from outside.

Oracles are computed in-test and independently of the package internals
they judge: closed-form sums for the world, normal equations for refits,
exhaustive enumeration for repair search.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from causalloop.agent import (
    RandomPolicy,
    ScriptedPolicy,
    initial_model,
    replay,
    run_episode,
)
from causalloop.cli import _model_entering_tick
from causalloop.core import (
    ActionVec,
    CausalTuple,
    Perturbation,
    StateVec,
    TimeIndex,
    Transition,
    loss,
    scale_factor,
)
from causalloop.evaluate import evaluate_trace
from causalloop.explain import (
    explain_counterfactual,
    explain_reflection,
    explain_transition,
    is_grounded,
)
from causalloop.model import CausalModel, append_history, estimate_delta, rollout
from causalloop.reflect import (
    apply_hypothesis,
    generate_hypotheses,
    reflect,
    score_hypothesis,
)
from causalloop.scenario import builtin_scenarios
from causalloop.trace import read_trace, write_trace
from causalloop.world import CausalEdge, CausalGraph, Form, VarRef

from helpers import random_scenario


def verdict(ok: bool, label: str, detail: str, elapsed: float, budget: float) -> None:
    in_time = elapsed <= budget
    status = "PASS" if ok and in_time else "FAIL"
    print(f"{status} {label}: {detail} [{elapsed:.2f}s / {budget:g}s budget]")
    assert ok, f"{label}: {detail}"
    assert in_time, f"{label}: exceeded time budget ({elapsed:.2f}s > {budget:g}s)"


# ---------------------------------------------------------------------------
# 1. Perturbation scale algebra
# ---------------------------------------------------------------------------


def test_criterion_1_scale_algebra():
    start = time.perf_counter()
    tol = 1e-12
    worst = 0.0
    ok = scale_factor(0.0) == 1.0
    grid = np.linspace(-10.0, 10.0, 20001)
    scales = np.array([scale_factor(d) for d in grid])
    ok &= bool(np.all(np.diff(scales) < 0.0))  # strictly decreasing
    ok &= bool(np.all(scales[grid > 0] < 1.0)) and bool(np.all(scales[grid < 0] > 1.0))
    for d in grid[::10]:
        worst = max(worst, abs(scale_factor(d) * scale_factor(-d) - 1.0))
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b = rng.uniform(-5.0, 5.0, size=2)
        combined = scale_factor(a + b)
        worst = max(worst, abs(combined - scale_factor(a) * scale_factor(b)) / combined)
    ok &= worst <= tol
    verdict(
        ok,
        "criterion 1 (scale algebra)",
        f"max relative identity error {worst:.3g} <= {tol:g}",
        time.perf_counter() - start,
        budget=1.0,
    )


# ---------------------------------------------------------------------------
# 2. With the true graph the model mirrors the world
# ---------------------------------------------------------------------------


def test_criterion_2_true_graph_mirrors_world():
    start = time.perf_counter()
    tol = 1e-9
    worst = 0.0
    for seed in range(20):
        sc = random_scenario(seed, noise_sigma=0.0, name="mirror")
        trace = run_episode(sc, RandomPolicy(), seed=seed, length=200)
        worst = max(worst, max(r.epsilon for r in trace.records))
    verdict(
        worst <= tol,
        "criterion 2 (noise-free mirror)",
        f"worst per-tick error {worst:.3g} <= {tol:g} over 20 scenarios x 200 ticks",
        time.perf_counter() - start,
        budget=10.0,
    )


# ---------------------------------------------------------------------------
# 3. Candidate ranking ignores the hypothesis-independent score term
# ---------------------------------------------------------------------------


def _mismatch_stream(case_seed: int, tau: float):
    """Yield (model, context, error) mismatch situations from a scripted
    episode whose observations follow a coefficient the model lacks."""
    rng = np.random.default_rng(case_seed)
    delay = int(rng.integers(1, 4))
    coef = float(rng.uniform(0.6, 1.4)) * (1 if rng.random() < 0.5 else -1)
    factor = float(rng.uniform(1.6, 2.6))
    true_coef = coef * (-factor if rng.random() < 0.25 else factor)
    g = CausalGraph(
        d_state=1,
        d_action=2,
        edges=(CausalEdge(VarRef.action(0), 0, delay=delay, coefficient=coef),),
    )
    m = CausalModel(graph=g)
    actions = rng.uniform(-1.0, 1.0, size=(40, 2))
    s = 0.0
    for t in range(40):
        u = t + 1 - delay
        effect = true_coef * actions[u][0] if u >= 0 else 0.0
        tr = Transition(
            tuple=CausalTuple(StateVec((s,)), ActionVec(tuple(actions[t])), TimeIndex(t)),
            horizon=1,
            observed=StateVec((s + effect,)),
        )
        m = append_history(m, tr)
        if t >= 10:
            pred = rollout(m.graph, m.delta_hat, m.history, [tr])[0]
            err = loss(pred, tr.observed)
            if err.epsilon > tau:
                yield m, tr, err
        s += effect


def test_criterion_3_ranking_invariance():
    start = time.perf_counter()
    tau = 0.04
    tol = 1e-9
    contexts = 0
    worst = 0.0
    case_seed = 0
    while contexts < 1000:
        for m, ctx, err in _mismatch_stream(case_seed, tau):
            candidates = generate_hypotheses(m, ctx, err, tau)
            rows = m.history[-20:-8]
            if len(rows) < 4 or len(candidates) < 2:
                continue
            full = np.array([score_hypothesis(m, h, rows) for h in candidates])
            # Independent route with the hypothesis-independent term zeroed:
            # score'(h) = -sum |obs - pred_h|^2 / (2 sigma^2), same skip rule.
            preds_m = rollout(m.graph, m.delta_hat, m.history, rows)
            two_var = 2.0 * m.sigma_lik**2
            alt = []
            for h in candidates:
                applied = apply_hypothesis(m, h)
                preds_h = rollout(applied.graph, applied.delta_hat, m.history, rows)
                total = 0.0
                for tr, ph, pm in zip(rows, preds_h, preds_m):
                    if ph is None or pm is None:
                        continue
                    total -= sum((o - p) ** 2 for o, p in zip(tr.observed.values, ph.values))
                alt.append(total / two_var)
            alt = np.array(alt)
            # Pairwise score gaps must be identical, hence identical rankings.
            gap_full = full[:, None] - full[None, :]
            gap_alt = alt[:, None] - alt[None, :]
            worst = max(worst, float(np.max(np.abs(gap_full - gap_alt))))
            order = np.argsort(-full)
            if full[order[0]] - full[order[1]] > tol:  # unique winner
                assert int(np.argmax(alt)) == int(order[0])
            contexts += 1
        case_seed += 1
    verdict(
        worst <= tol,
        "criterion 3 (ranking invariance)",
        f"{contexts} mismatch contexts, worst pairwise-gap discrepancy {worst:.3g} <= {tol:g}",
        time.perf_counter() - start,
        budget=30.0,
    )


# ---------------------------------------------------------------------------
# 4. Repair search matches exhaustive single-edit search
# ---------------------------------------------------------------------------
# Protocol: a random clean system develops a single fault (an action-edge
# coefficient rescale, a delay shift of one or two ticks, or a brand-new
# edge); the repair loop runs once on a window of post-fault transitions.
# The oracle refits every possible single structural edit by least squares
# and keeps the lowest-MSE one.  The repaired model must be
# prediction-equivalent to the oracle winner: same pruned structure and
# matching effective coefficients (coefficient x e^-delta_hat -- the
# model's perturbation estimate is a pure scale gauge on every edge).


def _form_value(form: Form, v: float) -> float:
    if form is Form.TANH:
        return math.tanh(v)
    if form is Form.QUADRATIC:
        return v * v
    return v


def _lagged(states, acts, ref: VarRef, t: int) -> float:
    if t < 0:
        return 0.0
    return acts[t][ref.index] if ref.kind.value == "action" else states[t][ref.index]


def _pruned(g: CausalGraph) -> CausalGraph:
    return replace(g, edges=tuple(e for e in g.edges if abs(e.coefficient) > 1e-9))


def _effective_match(ga, delta_a, gb, delta_b, rtol, atol) -> bool:
    def eff(g, d):
        return {
            (e.source, e.target, e.delay, e.form): e.coefficient * math.exp(-d)
            for e in _pruned(g).edges
        }

    ea, eb = eff(ga, delta_a), eff(gb, delta_b)
    if set(ea) != set(eb):
        return False
    return all(abs(ea[k] - eb[k]) <= atol + rtol * abs(eb[k]) for k in ea)


def _fault_case(seed: int):
    """A random clean graph and a copy with one structural fault."""
    rng = np.random.default_rng(seed)
    d_state = int(rng.integers(1, 4))
    d_action = int(rng.integers(1, 3))
    action_pairs = [(VarRef.action(i), j) for i in range(d_action) for j in range(d_state)]
    state_pairs = [(VarRef.state(i), j) for i in range(d_state) for j in range(d_state)]

    def make_edge(src, tgt):
        delay = int(rng.integers(1, 4))
        if src.kind.value == "action":
            sign = 1 if rng.random() < 0.5 else -1
            return CausalEdge(src, tgt, delay=delay, coefficient=sign * float(rng.uniform(0.6, 1.4)))
        return CausalEdge(
            src, tgt, delay=delay, coefficient=float(rng.uniform(0.15, 0.3)), form=Form.TANH
        )

    first = action_pairs[int(rng.integers(len(action_pairs)))]
    pool = [p for p in action_pairs + state_pairs if p != first]
    rng.shuffle(pool)
    n_extra = min(int(rng.integers(1, 4)), len(pool))
    edges = [make_edge(*first)] + [make_edge(*p) for p in pool[:n_extra]]
    base = CausalGraph(d_state=d_state, d_action=d_action, edges=tuple(edges))

    existing = {(e.source, e.target) for e in base.edges}
    free = [p for p in action_pairs + state_pairs if p not in existing]
    free_action = [p for p in free if p[0].kind.value == "action"]
    kind = ("coef", "delay", "add")[int(rng.integers(3))]
    if kind == "add" and not free:
        kind = "coef"
    action_indices = [i for i, e in enumerate(base.edges) if e.source.kind.value == "action"]

    new_edges = list(base.edges)
    if kind == "coef":
        i = action_indices[int(rng.integers(len(action_indices)))]
        factor = float(rng.uniform(1.5, 3.0))
        new_edges[i] = replace(new_edges[i], coefficient=new_edges[i].coefficient * factor)
    elif kind == "delay":
        i = action_indices[int(rng.integers(len(action_indices)))]
        shifts = [1, -1, 2, -2]
        rng.shuffle(shifts)
        k = next(new_edges[i].delay + s for s in shifts if 1 <= new_edges[i].delay + s <= 5)
        new_edges[i] = replace(new_edges[i], delay=k)
    else:
        src, tgt = (free_action or free)[int(rng.integers(len(free_action or free)))]
        sign = 1 if rng.random() < 0.5 else -1
        new_edges.append(
            CausalEdge(src, tgt, delay=int(rng.integers(1, 3)), coefficient=sign * float(rng.uniform(0.6, 1.2)))
        )
    broken = CausalGraph(d_state=d_state, d_action=d_action, edges=tuple(new_edges))
    return base, broken


def _simulate(graph: CausalGraph, rng, length: int):
    """Noise-free forward simulation from a random start (a nonzero start
    keeps every state dimension observable, even ones nothing feeds)."""
    acts = [list(map(float, rng.uniform(-1.0, 1.0, size=graph.d_action))) for _ in range(length)]
    states = [list(map(float, rng.uniform(-0.5, 0.5, size=graph.d_state)))]
    for t in range(length):
        nxt = list(states[t])
        for e in graph.edges:
            nxt[e.target] += e.coefficient * _form_value(
                e.form, _lagged(states, acts, e.source, t + 1 - e.delay)
            )
        states.append(nxt)
    return states, acts


def _oracle_best_edit(states, acts, base: CausalGraph, eval_ticks: range):
    """Exhaustively refit every single structural edit of ``base`` on the
    rows; return (best graph, best MSE).  Pure numpy, no model code."""

    def refit_and_mse(edges):
        coefs = [e.coefficient for e in edges]
        for j in range(base.d_state):
            incoming = [(i, e) for i, e in enumerate(edges) if e.target == j]
            if not incoming:
                continue
            x = np.array(
                [
                    [_form_value(e.form, _lagged(states, acts, e.source, t + 1 - e.delay)) for _, e in incoming]
                    for t in eval_ticks
                ]
            )
            y = np.array([states[t + 1][j] - states[t][j] for t in eval_ticks])
            sol, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
            if rank == x.shape[1]:
                for (i, _), c in zip(incoming, sol):
                    coefs[i] = float(c)
        fitted = tuple(replace(e, coefficient=c) for e, c in zip(edges, coefs))
        sq = 0.0
        for t in eval_ticks:
            for j in range(base.d_state):
                pred = states[t][j] + sum(
                    e.coefficient * _form_value(e.form, _lagged(states, acts, e.source, t + 1 - e.delay))
                    for e in fitted
                    if e.target == j
                )
                sq += (pred - states[t + 1][j]) ** 2 / base.d_state
        return fitted, sq / len(eval_ticks)

    structures = [tuple(base.edges)]
    for i, e in enumerate(base.edges):
        for k in range(1, 6):
            if k != e.delay:
                structures.append(
                    tuple(replace(x, delay=k) if n == i else x for n, x in enumerate(base.edges))
                )
    for i in range(len(base.edges)):
        structures.append(tuple(x for n, x in enumerate(base.edges) if n != i))
    existing = {(e.source, e.target) for e in base.edges}
    all_pairs = [
        (VarRef.action(i), j) for i in range(base.d_action) for j in range(base.d_state)
    ] + [(VarRef.state(i), j) for i in range(base.d_state) for j in range(base.d_state)]
    for src, tgt in all_pairs:
        if (src, tgt) in existing:
            continue
        for delay in (1, 2):
            structures.append(
                tuple(base.edges) + (CausalEdge(src, tgt, delay=delay, coefficient=0.0),)
            )

    best_edges, best_mse = None, math.inf
    for edges in structures:
        fitted, mse = refit_and_mse(edges)
        if mse < best_mse - 1e-15:
            best_edges, best_mse = fitted, mse
    return replace(base, edges=best_edges), best_mse


def test_criterion_4_exhaustive_repair_oracle():
    start = time.perf_counter()
    need, total = 95, 100
    tau = 1e-6
    window = 40
    passes = 0
    failures = []
    for seed in range(total):
        base, broken = _fault_case(seed)
        rng = np.random.default_rng(seed + 10_000)
        for _ in range(5):  # rare: last action too weak to trip the fault
            states, acts = _simulate(broken, rng, window)
            rows = [
                Transition(
                    tuple=CausalTuple(
                        StateVec(tuple(states[t])), ActionVec(tuple(acts[t])), TimeIndex(t)
                    ),
                    horizon=1,
                    observed=StateVec(tuple(states[t + 1])),
                )
                for t in range(window)
            ]
            m = CausalModel(graph=base)
            for tr in rows:
                m = append_history(m, tr)
            pred = rollout(m.graph, m.delta_hat, m.history, [rows[-1]])[0]
            err = loss(pred, rows[-1].observed)
            if err.epsilon > 1e-3:
                break
        report = reflect(m, rows[-1], err, tau)
        updated = report.updated_model

        best_graph, best_mse = _oracle_best_edit(states, acts, base, range(window))
        oracle_sane = best_mse <= 1e-9 and _effective_match(best_graph, 0.0, broken, 0.0, 1e-6, 1e-6)
        struct_ok = _effective_match(updated.graph, updated.delta_hat, best_graph, 0.0, 1e-3, 1e-6)
        preds = rollout(updated.graph, updated.delta_hat, m.history, rows[-20:])
        gap = 0.0
        for tr, p in zip(rows[-20:], preds):
            t = tr.tuple.time.tick
            for j in range(base.d_state):
                oracle_p = states[t][j] + sum(
                    e.coefficient * _form_value(e.form, _lagged(states, acts, e.source, t + 1 - e.delay))
                    for e in best_graph.edges
                    if e.target == j
                )
                gap = max(gap, abs(p[j] - oracle_p))
        holdout_mse = float(
            np.mean(
                [
                    np.mean([(p[j] - tr.observed[j]) ** 2 for j in range(base.d_state)])
                    for tr, p in zip(rows[-8:], preds[-8:])
                ]
            )
        )
        ok_case = (
            report.triggered
            and report.accepted
            and oracle_sane
            and struct_ok
            and gap <= 1e-6
            and holdout_mse <= 1e-9
        )
        if ok_case:
            passes += 1
        else:
            failures.append(
                (seed, bool(report.accepted), oracle_sane, struct_ok, round(gap, 9), holdout_mse)
            )
    verdict(
        passes >= need,
        "criterion 4 (exhaustive-search oracle)",
        f"{passes}/{total} repaired models match the brute-force best single edit "
        f"(need >= {need}); failures: {failures[:5]}",
        time.perf_counter() - start,
        budget=60.0,
    )


# ---------------------------------------------------------------------------
# 5. Structural-break recovery beats the fit-only baseline
# ---------------------------------------------------------------------------


def test_criterion_5_break_recovery():
    start = time.perf_counter()
    # Benchmark protocol: the bundled break scenario with a stricter repair
    # gate.  In a one-dimensional world a second acceptance within the same
    # trigger can only compensate the first or soak noise, and while the
    # holdout still straddles the break a marginal improvement is weak
    # evidence -- so the benchmark takes one repair per trigger and demands a
    # 20% holdout gain.  Recovery speed must survive the stricter gate.
    sc = replace(builtin_scenarios()["break_demo"], rho=0.2, max_accepts=1)
    within_50 = faster = shd_zero = 0
    n = 20
    for seed in range(n):
        # Uniform symmetric actions, except the break-tick action is bounded
        # away from zero: a near-zero draw there would leave the rolling RMSE
        # quiet at the break index and both recovery clocks would read a
        # vacuous 0, turning "strictly faster" into a coin that cannot land.
        arng = np.random.default_rng(1_000 + seed)
        acts = list(arng.uniform(-1.0, 1.0, size=400))
        acts[200] = math.copysign(arng.uniform(0.6, 1.0), acts[200])
        policy = ScriptedPolicy(actions=tuple((float(a),) for a in acts))
        tr_r = run_episode(sc, policy, seed=seed, length=400)
        tr_b = run_episode(sc, policy, seed=seed, length=400, reflect_enabled=False)
        rec_r = evaluate_trace(tr_r, sc)
        rec_b = evaluate_trace(tr_b, sc)
        rr = rec_r.breaks[0].recovery
        rb = rec_b.breaks[0].recovery
        if rr is not None and rr <= 50:
            within_50 += 1
            if rb is None or rr < rb:
                faster += 1
        if rec_r.shd[-1] == 0:
            shd_zero += 1
    ok = within_50 >= 18 and faster >= 15 and shd_zero >= 15
    verdict(
        ok,
        "criterion 5 (break recovery)",
        f"recovered<=50: {within_50}/20 (need 18), strictly faster than baseline: "
        f"{faster}/20 (need 15), final graph exact: {shd_zero}/20 (need 15)",
        time.perf_counter() - start,
        budget=120.0,
    )


# ---------------------------------------------------------------------------
# 6. A well-modeled calm world never triggers repairs
# ---------------------------------------------------------------------------


def test_criterion_6_calm_stability():
    start = time.perf_counter()
    sc = builtin_scenarios()["calm"]
    ok = True
    for seed in range(3):
        tr_r = run_episode(sc, RandomPolicy(), seed=seed, length=200)
        tr_b = run_episode(sc, RandomPolicy(), seed=seed, length=200, reflect_enabled=False)
        ok &= all(r.reflect is None for r in tr_r.records)
        ok &= tr_r.records == tr_b.records
    verdict(
        ok,
        "criterion 6 (calm stability)",
        "repair-enabled and fit-only traces bit-identical over 3 seeds x 200 ticks",
        time.perf_counter() - start,
        budget=5.0,
    )


# ---------------------------------------------------------------------------
# 7. Record / replay bit-exactness through serialization
# ---------------------------------------------------------------------------


def test_criterion_7_record_replay(tmp_path):
    start = time.perf_counter()
    ok = True
    for seed in range(10):
        sigma = 0.05 if seed % 2 else 0.0
        sc = random_scenario(seed, noise_sigma=sigma, name="rr")
        trace = run_episode(sc, RandomPolicy(), seed=seed, length=100)
        path = tmp_path / f"rr_{seed}.jsonl"
        write_trace(trace, str(path))
        back = read_trace(str(path))
        ok &= back == trace
        replay(back, sc)  # raises on any bit difference
    verdict(
        ok,
        "criterion 7 (record/replay)",
        "10 scenarios x 100 ticks round-trip and replay bit-exactly",
        time.perf_counter() - start,
        budget=30.0,
    )


# ---------------------------------------------------------------------------
# 8. Every generated explanation is numerically grounded
# ---------------------------------------------------------------------------


def test_criterion_8_explanation_grounding():
    start = time.perf_counter()
    sc = builtin_scenarios()["break_demo"]
    trace = run_episode(sc, RandomPolicy(), seed=0, length=260)
    checked = 0
    ok = True
    for r in trace.records:
        m = replace(_model_entering_tick(trace, r.tick), delta_hat=r.delta_hat)
        tup = CausalTuple(r.state, r.action, TimeIndex(r.tick), Perturbation(r.delta_hat))
        ok &= is_grounded(explain_transition(m, tup))
        ok &= is_grounded(explain_counterfactual(m, tup, 0.0))
        checked += 2
        if r.reflect is not None:
            ok &= is_grounded(explain_reflection(r.tick, r.reflect))
            checked += 1
    verdict(
        ok and checked >= 100,
        "criterion 8 (explanation grounding)",
        f"{checked} explanations audited, every numeral grounded",
        time.perf_counter() - start,
        budget=5.0,
    )


# ---------------------------------------------------------------------------
# 9. Perturbation inversion round-trips
# ---------------------------------------------------------------------------


def test_criterion_9_delta_inversion():
    start = time.perf_counter()
    tol = 1e-9
    m = initial_model(builtin_scenarios()["calm"].materialized())
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        pred = float(rng.uniform(0.001, 1000.0)) * (1 if rng.random() < 0.5 else -1)
        delta = float(rng.uniform(-9.5, 9.5))
        obs = pred * math.exp(-delta)
        est = estimate_delta(m, pred, obs).delta
        worst = max(worst, abs(pred * math.exp(-est) - obs) / max(1.0, abs(obs)))
    clamps = (
        estimate_delta(m, 1.0, 1e-6).delta == 10.0 and estimate_delta(m, 1e-6, 1.0).delta == -10.0
    )
    verdict(
        worst <= tol and clamps,
        "criterion 9 (delta inversion)",
        f"1000 round-trips, worst relative error {worst:.3g} <= {tol:g}; clamps at +/-10",
        time.perf_counter() - start,
        budget=1.0,
    )
