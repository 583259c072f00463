"""Simulator semantics: delays, forms, breaks, perturbations, noise."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalloop import rng as clrng
from causalloop.core import ActionVec, ConfigError, DimensionError, DomainError
from causalloop.scenario import ScenarioConfig
from causalloop.world import (
    CausalEdge,
    CausalGraph,
    Form,
    GaussianWalk,
    NoPerturbation,
    ScheduledBreak,
    SourceKind,
    Spike,
    VarRef,
    _sample_delta,
    active_graph,
    world_init,
    world_step,
)

from helpers import random_graph


def one_edge_scenario(coef=2.0, delay=1, form=Form.LINEAR, **kw):
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=delay, coefficient=coef, form=form),),
    )
    defaults = dict(name="t", d_state=1, d_action=1, initial_state=(0.0,), graph=g)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def drive(scenario, seed, actions):
    """Step through ``actions``; returns (observations, deltas, final world)."""
    w = world_init(scenario, seed)
    obs, deltas = [], []
    for a in actions:
        w, o, d = world_step(w, ActionVec(tuple(a)))
        obs.append(o)
        deltas.append(d)
    return obs, deltas, w


# ---- basic effect arithmetic ----------------------------------------------


def test_unit_effect_lands_next_tick():
    obs, deltas, w = drive(one_edge_scenario(), seed=0, actions=[(1.0,)])
    assert obs[0].values == (2.0,)
    assert deltas == [0.0]
    assert w.tick == 1


def test_effects_accumulate_additively():
    obs, _, _ = drive(one_edge_scenario(), seed=0, actions=[(1.0,), (1.0,), (-1.0,)])
    # running sum of 2*a with delay 1: 2, 4, 2
    assert [o.values for o in obs] == [(2.0,), (4.0,), (2.0,)]


def test_delay_three_lands_exactly_three_ticks_later():
    obs, _, _ = drive(
        one_edge_scenario(delay=3), seed=0, actions=[(1.0,), (0.0,), (0.0,), (0.0,)]
    )
    assert [o.values for o in obs] == [(0.0,), (0.0,), (2.0,), (2.0,)]


def test_tanh_form():
    obs, _, _ = drive(
        one_edge_scenario(coef=1.0, form=Form.TANH), seed=0, actions=[(2.0,)]
    )
    assert obs[0].values == (math.tanh(2.0),)


def test_quadratic_form():
    obs, _, _ = drive(
        one_edge_scenario(coef=1.5, form=Form.QUADRATIC), seed=0, actions=[(3.0,)]
    )
    assert obs[0].values == (13.5,)


def test_state_source_reads_cause_tick_value():
    g = CausalGraph(
        d_state=2,
        d_action=0,
        edges=(CausalEdge(VarRef.state(0), 1, delay=1, coefficient=1.0),),
    )
    sc = ScenarioConfig(
        name="t", d_state=2, d_action=0, initial_state=(0.7, 0.0), graph=g
    )
    obs, _, _ = drive(sc, seed=0, actions=[(), ()])
    assert obs[0].values == (0.7, 0.7)
    assert obs[1].values == (0.7, 1.4)


def test_spike_scales_effect_by_exp_minus_delta():
    sc = one_edge_scenario(perturbation=Spike(prob=1.0, magnitude=math.log(2.0)))
    obs, deltas, _ = drive(sc, seed=0, actions=[(1.0,)])
    # coefficient 2 * action 1 * e^-ln2 = 1
    assert obs[0].values == (1.0,)
    assert deltas[0] == math.log(2.0)


def test_negative_delta_amplifies():
    sc = one_edge_scenario(perturbation=Spike(prob=1.0, magnitude=-math.log(3.0)))
    obs, _, _ = drive(sc, seed=0, actions=[(1.0,)])
    assert obs[0].values[0] == pytest.approx(6.0, rel=1e-12)


def test_break_applies_to_effects_caused_after_it():
    new = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=1, coefficient=5.0),),
    )
    sc = one_edge_scenario(coef=1.0, breaks=(ScheduledBreak(at_tick=2, graph=new),))
    obs, _, _ = drive(sc, seed=0, actions=[(1.0,)] * 4)
    # caused at ticks 0,1 with coef 1; at 2,3 with coef 5
    assert [o.values for o in obs] == [(1.0,), (2.0,), (7.0,), (12.0,)]


def test_superposition_of_action_edges():
    e1 = CausalEdge(VarRef.action(0), 0, delay=1, coefficient=0.5)
    e2 = CausalEdge(VarRef.action(1), 0, delay=2, coefficient=-1.5)
    both = ScenarioConfig(
        name="t",
        d_state=1,
        d_action=2,
        initial_state=(0.0,),
        graph=CausalGraph(d_state=1, d_action=2, edges=(e1, e2)),
    )
    only1 = ScenarioConfig(
        name="t",
        d_state=1,
        d_action=2,
        initial_state=(0.0,),
        graph=CausalGraph(d_state=1, d_action=2, edges=(e1,)),
    )
    only2 = ScenarioConfig(
        name="t",
        d_state=1,
        d_action=2,
        initial_state=(0.0,),
        graph=CausalGraph(d_state=1, d_action=2, edges=(e2,)),
    )
    actions = [(1.0, 0.5), (-0.25, 1.0), (2.0, -1.0), (0.0, 0.0)]
    o_both, _, _ = drive(both, 0, actions)
    o_1, _, _ = drive(only1, 0, actions)
    o_2, _, _ = drive(only2, 0, actions)
    for b, x, y in zip(o_both, o_1, o_2):
        assert b.values[0] == pytest.approx(x.values[0] + y.values[0], abs=1e-15)


# ---- noise and perturbation processes -------------------------------------


def test_noise_touches_observation_not_process_state():
    noisy = one_edge_scenario(noise_sigma=0.25)
    clean = one_edge_scenario(noise_sigma=0.0)
    actions = [(1.0,)] * 5
    wn = world_init(noisy, seed=9)
    wc = world_init(clean, seed=9)
    saw_noise = False
    for a in actions:
        wn, on, _ = world_step(wn, ActionVec(a))
        wc, oc, _ = world_step(wc, ActionVec(a))
        assert wn.current.values == wc.current.values
        if on.values != oc.values:
            saw_noise = True
    assert saw_noise


def test_gaussian_walk_matches_manual_replay():
    sigma = 0.3
    sc = one_edge_scenario(perturbation=GaussianWalk(sigma_delta=sigma))
    _, deltas, _ = drive(sc, seed=5, actions=[(0.0,)] * 8)
    prev = 0.0
    for t, got in enumerate(deltas):
        step = clrng.stream(5, clrng.STREAM_WORLD, t).normal(0.0, sigma)
        prev = max(-10.0, min(10.0, prev + step))
        assert got == prev


def test_spike_draw_matches_manual_replay():
    sc = one_edge_scenario(perturbation=Spike(prob=0.4, magnitude=1.5))
    _, deltas, _ = drive(sc, seed=11, actions=[(0.0,)] * 20
    )
    for t, got in enumerate(deltas):
        u = clrng.stream(11, clrng.STREAM_WORLD, t).uniform()
        assert got == (1.5 if u < 0.4 else 0.0)
    assert any(d != 0.0 for d in deltas)
    assert any(d == 0.0 for d in deltas)


def test_walk_is_clamped():
    sc = one_edge_scenario(perturbation=GaussianWalk(sigma_delta=50.0))
    _, deltas, _ = drive(sc, seed=1, actions=[(0.0,)] * 10)
    assert all(-10.0 <= d <= 10.0 for d in deltas)
    assert any(abs(d) == 10.0 for d in deltas)


@pytest.mark.parametrize("sigma", [-1.0, -5e-324, math.nan, math.inf])
def test_walk_step_must_be_finite_and_non_negative(sigma):
    with pytest.raises(ConfigError, match="gaussian_walk sigma_delta must be finite and >= 0"):
        GaussianWalk(sigma_delta=sigma)
    assert GaussianWalk(sigma_delta=0).sigma_delta == 0.0
    # numpy refuses a scale of -0.0, so the walk holds +0.0
    assert math.copysign(1.0, GaussianWalk(sigma_delta=-0.0).sigma_delta) == 1.0


def test_same_seed_reproduces_episode():
    sc = one_edge_scenario(noise_sigma=0.1, perturbation=GaussianWalk(0.2))
    a = drive(sc, seed=3, actions=[(0.5,)] * 6)
    b = drive(sc, seed=3, actions=[(0.5,)] * 6)
    assert [o.values for o in a[0]] == [o.values for o in b[0]]
    assert a[1] == b[1]


def test_step_is_pure():
    sc = one_edge_scenario(noise_sigma=0.1)
    w = world_init(sc, seed=2)
    r1 = world_step(w, ActionVec((1.0,)))
    r2 = world_step(w, ActionVec((1.0,)))
    assert r1[0].current.values == r2[0].current.values
    assert r1[1].values == r2[1].values


# ---- structure and validation ---------------------------------------------


def test_active_graph_picks_latest_passed_break():
    g0 = CausalGraph(d_state=1, d_action=0, edges=())
    g1 = CausalGraph(
        d_state=1, d_action=0, edges=(CausalEdge(VarRef.state(0), 0, delay=1, coefficient=1.0),)
    )
    g2 = CausalGraph(
        d_state=1, d_action=0, edges=(CausalEdge(VarRef.state(0), 0, delay=2, coefficient=1.0),)
    )
    breaks = (ScheduledBreak(3, g1), ScheduledBreak(7, g2))
    assert active_graph(g0, breaks, 0) is g0
    assert active_graph(g0, breaks, 2) is g0
    assert active_graph(g0, breaks, 3) is g1
    assert active_graph(g0, breaks, 6) is g1
    assert active_graph(g0, breaks, 7) is g2
    assert active_graph(g0, breaks, 100) is g2


def test_graph_rejects_duplicate_edge():
    e = CausalEdge(VarRef.action(0), 0, delay=1, coefficient=1.0)
    dup = CausalEdge(VarRef.action(0), 0, delay=1, coefficient=2.0)
    with pytest.raises(ConfigError):
        CausalGraph(d_state=1, d_action=1, edges=(e, dup))


def test_graph_rejects_out_of_range_refs():
    with pytest.raises(ConfigError):
        CausalGraph(
            d_state=1,
            d_action=1,
            edges=(CausalEdge(VarRef.action(0), 1, delay=1, coefficient=1.0),),
        )
    with pytest.raises(ConfigError):
        CausalGraph(
            d_state=1,
            d_action=1,
            edges=(CausalEdge(VarRef.state(3), 0, delay=1, coefficient=1.0),),
        )


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_with_coefficients_is_the_graph_its_constructors_build(seed, data):
    g = random_graph(np.random.default_rng(seed), d_state=3, d_action=2)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    coefs = data.draw(st.lists(finite, min_size=len(g.edges), max_size=len(g.edges)))
    built = CausalGraph(
        g.d_state,
        g.d_action,
        tuple(CausalEdge(e.source, e.target, e.delay, c, e.form) for e, c in zip(g.edges, coefs)),
    )
    got = g.with_coefficients(coefs)
    assert got == built and hash(got) == hash(built)
    assert got.plan == built.plan
    assert all(type(e) is CausalEdge for e in got.edges)
    assert [math.copysign(1.0, e.coefficient) for e in got.edges] == [math.copysign(1.0, c) for c in coefs]
    assert [e.coefficient.hex() for e in got.edges] == [float(c).hex() for c in coefs]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_with_coefficients_refuses_a_coefficient_that_is_not_finite(bad):
    g = one_edge_scenario().graph
    with pytest.raises(ConfigError, match="edge coefficient must be finite"):
        g.with_coefficients([bad])
    assert g.with_coefficients([-0.0]).edges[0].coefficient.hex() == "-0x0.0p+0"


def reference_graph_dict(g):
    """A graph's record written from its edge objects, as the writer did
    before a graph held only its plan."""
    return {
        "d_state": g.d_state,
        "d_action": g.d_action,
        "edges": [
            {
                "source": {"kind": e.source.kind.value, "index": e.source.index},
                "target": e.target,
                "delay": e.delay,
                "coefficient": e.coefficient,
                "form": e.form.value,
            }
            for e in g.edges
        ],
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 3), st.data())
def test_every_construction_of_a_graph_is_one_graph(seed, d_state, d_action, data):
    """A graph built from its edges, from its plan, through
    ``dataclasses.replace`` and through ``with_coefficients`` is one graph:
    equal, of equal hash, with the same edges back, pickling to itself, and
    writing the record its edge objects write.  A -0.0 coefficient equals
    0.0 and keeps its sign; a coefficient that is not finite is refused."""
    import dataclasses
    import pickle

    from causalloop.scenario import canonical_json, graph_to_dict

    g = random_graph(np.random.default_rng(seed), d_state, d_action, max_edges=12)
    edges = g.edges
    assert all(type(e) is CausalEdge for e in edges)
    zeros = data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=len(edges), max_size=len(edges)))
    signed = tuple(CausalEdge(e.source, e.target, e.delay, z, e.form) for e, z in zip(edges, zeros))
    unsigned = tuple(dataclasses.replace(e, coefficient=0.0) for e in edges)
    for built, coefficients in ((edges, [e.coefficient for e in edges]), (signed, zeros)):
        graphs = [
            CausalGraph(d_state, d_action, built),
            CausalGraph(d_state=d_state, d_action=d_action, edges=list(built)),
            CausalGraph.from_plan(d_state, d_action, CausalGraph(d_state, d_action, built).plan),
            dataclasses.replace(g, edges=built),
            g.with_coefficients(coefficients),
            pickle.loads(pickle.dumps(CausalGraph(d_state, d_action, built))),
        ]
        for other in graphs:
            assert other == graphs[0] and hash(other) == hash(graphs[0])
            assert other.edges == built
            assert [math.copysign(1.0, e.coefficient) for e in other.edges] == [
                math.copysign(1.0, c) for c in coefficients
            ]
            assert canonical_json(graph_to_dict(other)) == canonical_json(reference_graph_dict(other))
            assert list(graph_to_dict(other)) == list(reference_graph_dict(other))
    zeroed, signed_graph = CausalGraph(d_state, d_action, unsigned), CausalGraph(d_state, d_action, signed)
    assert signed_graph == zeroed and hash(signed_graph) == hash(zeroed) and zeroed != g
    assert g != CausalGraph(d_state + 1, d_action, edges)
    for bad in (math.nan, math.inf, -math.inf):
        at = data.draw(st.integers(0, len(edges) - 1))
        coefficients = [e.coefficient for e in edges]
        coefficients[at] = bad
        with pytest.raises(ConfigError, match=f"edge coefficient must be finite, got {bad!r}"):
            g.with_coefficients(coefficients)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
        world_init(one_edge_scenario(), seed=seed)


def test_largest_seed_steps():
    w = world_init(one_edge_scenario(), seed=2**64 - 1)
    w, obs, _ = world_step(w, ActionVec((1.0,)))
    assert w.tick == 1 and len(obs) == 1


def test_edge_rejects_zero_delay():
    with pytest.raises(ConfigError):
        CausalEdge(VarRef.action(0), 0, delay=0, coefficient=1.0)


def test_action_dimension_checked():
    w = world_init(one_edge_scenario(), seed=0)
    with pytest.raises(DimensionError):
        world_step(w, ActionVec((1.0, 2.0)))


def test_divergence_raises():
    g = CausalGraph(
        d_state=1,
        d_action=0,
        edges=(
            CausalEdge(VarRef.state(0), 0, delay=1, coefficient=1.0, form=Form.QUADRATIC),
        ),
    )
    sc = ScenarioConfig(name="t", d_state=1, d_action=0, initial_state=(1e160,), graph=g)
    w = world_init(sc, seed=0)
    with pytest.raises(DomainError):
        for _ in range(4):
            w, _, _ = world_step(w, ActionVec(()))


def test_varref_sort_key_orders_actions_before_states():
    refs = [VarRef.state(0), VarRef.action(1), VarRef.state(2), VarRef.action(0)]
    ordered = sorted(refs, key=VarRef.sort_key)
    assert ordered == [
        VarRef.action(0),
        VarRef.action(1),
        VarRef.state(0),
        VarRef.state(2),
    ]
    assert ordered[0].kind is SourceKind.ACTION


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=30))
def test_stepping_matches_closed_form_sum(seed, n):
    """Linear single-edge world == initial + sum of lagged scaled actions."""
    sc = one_edge_scenario(coef=0.7, delay=2)
    gen = np.random.default_rng(seed)
    actions = [(float(gen.uniform(-2, 2)),) for _ in range(n)]
    obs, _, _ = drive(sc, seed=0, actions=actions)
    for t in range(n):
        # obs[t] is the state at tick t+1; causes k land at k+2 <= t+1 -> k <= t-1
        expected = sum(0.7 * actions[k][0] for k in range(t))
        assert obs[t].values[0] == pytest.approx(expected, abs=1e-12)


def reference_step(w, action):
    """One tick as a per-edge queue over ``CausalEdge`` attributes: each
    edge's ``coefficient * form.apply(v) * scale`` is queued in edge order,
    and the effects due next tick land in queue order.  Returns the new
    state's values, the queue left, the observation's values and delta_t."""
    sc = w.scenario
    gen = clrng.stream(w.seed, clrng.STREAM_WORLD, w.tick)
    delta_t = _sample_delta(sc.perturbation, w.delta, gen, sc.delta_max)
    scale = math.exp(-delta_t)
    pending = list(w.pending)
    for e in active_graph(sc.graph, sc.breaks, w.tick).edges:
        v = action[e.source.index] if e.source.kind is SourceKind.ACTION else w.current[e.source.index]
        pending.append((w.tick + e.delay, e.target, e.coefficient * e.form.apply(v) * scale))
    values = list(w.current.values)
    remaining = []
    for due, target, value in pending:
        if due == w.tick + 1:
            values[target] += value
        else:
            remaining.append((due, target, value))
    observed = values
    if sc.noise_sigma > 0.0:
        noise = gen.normal(0.0, sc.noise_sigma, size=sc.d_state)
        observed = [v + float(x) for v, x in zip(values, noise)]
    return values, remaining, observed, delta_t


def hexes(values):
    return [float(v).hex() for v in values]


PROCESSES = {
    "none": lambda rng: NoPerturbation(),
    "spike": lambda rng: Spike(prob=float(rng.uniform(0.1, 0.6)), magnitude=float(rng.uniform(-1.0, 1.0))),
    "walk": lambda rng: GaussianWalk(sigma_delta=float(rng.uniform(0.05, 0.4))),
}


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(PROCESSES)),
    st.booleans(),
    st.integers(1, 40),
)
def test_world_step_matches_a_per_edge_reference_queue(seed, process, noisy, n):
    """The graph's plan drives the same arithmetic, in the same order, as a
    loop over the edges themselves: every state, queued effect, observation
    and delta equal in ``float.hex``, across a scheduled break."""
    rng = np.random.default_rng(seed)
    d_state, d_action = int(rng.integers(1, 5)), int(rng.integers(0, 3))
    before = random_graph(rng, d_state, d_action, max_edges=8, max_delay=4)
    after = random_graph(rng, d_state, d_action, max_edges=8, max_delay=4)
    sc = ScenarioConfig(
        name="plan",
        d_state=d_state,
        d_action=d_action,
        initial_state=tuple(rng.uniform(-1.0, 1.0, size=d_state).tolist()),
        graph=before,
        breaks=(ScheduledBreak(at_tick=int(rng.integers(1, n + 1)), graph=after),),
        perturbation=PROCESSES[process](rng),
        noise_sigma=0.05 if noisy else 0.0,
    )
    w = world_init(sc, seed=int(rng.integers(0, 2**63)))
    for _ in range(n):
        action = ActionVec(tuple(rng.uniform(-1.0, 1.0, size=d_action).tolist()))
        values, remaining, observed, delta_t = reference_step(w, action)
        w, obs, got_delta = world_step(w, action)
        assert hexes(w.current.values) == hexes(values)
        assert [(due, k, v.hex()) for due, k, v in w.pending] == [(due, k, v.hex()) for due, k, v in remaining]
        assert hexes(obs.values) == hexes(observed)
        assert got_delta.hex() == delta_t.hex() and w.delta.hex() == delta_t.hex()
