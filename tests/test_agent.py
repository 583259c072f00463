"""Episode loop: determinism, policies, snapshots, replay verification."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from causalloop.agent import (
    CyclicPolicy,
    ProbePolicy,
    RandomPolicy,
    ScriptedPolicy,
    initial_model,
    policy_action,
    policy_from_dict,
    policy_to_dict,
    replay,
    run_episode,
)
from causalloop.core import ConfigError, ReplayError
from causalloop.model import model_from_snapshot
from causalloop.scenario import ScenarioConfig, builtin_scenarios, scenario_digest
from causalloop.trace import record_to_dict, trace_to_lines
from causalloop.world import CausalEdge, CausalGraph, VarRef

CALM = builtin_scenarios()["calm"]
BREAK = builtin_scenarios()["break_demo"]


# ---- policies --------------------------------------------------------------


def test_random_policy_is_tick_addressed():
    a0 = policy_action(RandomPolicy(), seed=3, tick=0, d_action=2)
    a0_again = policy_action(RandomPolicy(), seed=3, tick=0, d_action=2)
    a1 = policy_action(RandomPolicy(), seed=3, tick=1, d_action=2)
    assert a0.values == a0_again.values
    assert a0.values != a1.values
    assert all(-1.0 <= v < 1.0 for v in a0.values)


def test_cyclic_policy_repeats():
    p = CyclicPolicy(vectors=((1.0,), (2.0,), (3.0,)))
    got = [policy_action(p, 0, t, 1).values[0] for t in range(7)]
    assert got == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]


def test_probe_policy_one_hot():
    p = ProbePolicy(magnitude=2.5)
    assert policy_action(p, 0, 0, 3).values == (2.5, 0.0, 0.0)
    assert policy_action(p, 0, 1, 3).values == (0.0, 2.5, 0.0)
    assert policy_action(p, 0, 5, 3).values == (0.0, 0.0, 2.5)


def test_scripted_policy_overrun_raises():
    p = ScriptedPolicy(actions=((1.0,),))
    assert policy_action(p, 0, 0, 1).values == (1.0,)
    with pytest.raises(ConfigError):
        policy_action(p, 0, 1, 1)


def test_policy_dict_round_trip():
    policies = [
        RandomPolicy(low=-0.5, high=0.5),
        CyclicPolicy(vectors=((1.0, 0.0),)),
        ProbePolicy(magnitude=3.0),
        ScriptedPolicy(actions=((0.0,), (1.0,))),
    ]
    for p in policies:
        assert policy_from_dict(policy_to_dict(p)) == p
    with pytest.raises(ConfigError):
        policy_from_dict({"kind": "mystery"})


@pytest.mark.parametrize(
    "d",
    [
        {"kind": "random", "low": "0.5", "high": 1.0},
        {"kind": "random", "low": -1.0, "high": True},
        {"kind": "probe", "magnitude": None},
        {"kind": "cyclic", "vectors": [["1"]]},
        {"kind": "cyclic", "vectors": "1"},
        {"kind": "scripted", "actions": [[1.0], [True]]},
        {"kind": "scripted", "actions": {"0": [1.0]}},
    ],
)
def test_policy_fields_must_have_their_json_type(d):
    with pytest.raises(ConfigError, match=f"malformed {d['kind']} policy"):
        policy_from_dict(d)


@pytest.mark.parametrize("low, high", [(-1.0, 1.0), (0.25, 0.5), (2.0, 2.0), (-1e300, 1e300)])
def test_random_policy_draws_as_generator_uniform(low, high):
    """``low + (high - low) * x`` over the stream's doubles is what
    ``Generator.uniform`` computes: the same actions, in ``float.hex``."""
    from causalloop import rng

    for tick in range(200):
        got = policy_action(RandomPolicy(low, high), 7, tick, 3).values
        expected = rng.stream(7, rng.STREAM_POLICY, tick).uniform(low, high, size=3).tolist()
        assert [v.hex() for v in got] == [v.hex() for v in expected]


@pytest.mark.parametrize("low, high", [(-1e308, 1e308), (3.0, -2.0), (0.0, float("inf"))])
def test_a_random_policy_range_that_is_not_a_finite_interval_is_refused(low, high):
    """``Generator.uniform`` refused these with a raw OverflowError or
    ValueError; the policy refuses them when it is built."""
    with pytest.raises(ConfigError, match="not a finite interval"):
        RandomPolicy(low, high)
    if math.isfinite(high):
        with pytest.raises(ConfigError, match="not a finite interval"):
            policy_from_dict({"kind": "random", "low": low, "high": high})


# ---- episode determinism ---------------------------------------------------


def test_same_inputs_identical_trace():
    a = run_episode(CALM, RandomPolicy(), seed=5, length=30)
    b = run_episode(CALM, RandomPolicy(), seed=5, length=30)
    assert a.header == b.header
    assert [record_to_dict(r) for r in a.records] == [record_to_dict(r) for r in b.records]


def test_different_seeds_differ():
    a = run_episode(CALM, RandomPolicy(), seed=5, length=10)
    b = run_episode(CALM, RandomPolicy(), seed=6, length=10)
    assert [r.observed.values for r in a.records] != [r.observed.values for r in b.records]


def test_an_episode_between_two_runs_changes_nothing():
    """Episodes A, B, then A again in one process record the same A: each
    tick re-addresses the shared random generators, so B's draws leave no
    trace in the second A."""
    a = trace_to_lines(run_episode(BREAK, RandomPolicy(), seed=4, length=60))
    run_episode(builtin_scenarios()["productivity"], RandomPolicy(), seed=9, length=45)
    assert trace_to_lines(run_episode(BREAK, RandomPolicy(), seed=4, length=60)) == a


def test_header_describes_episode():
    tr = run_episode(CALM, RandomPolicy(), seed=2, length=8, reflect_enabled=False)
    assert tr.header.scenario_name == "calm"
    assert tr.header.scenario_digest == scenario_digest(CALM.materialized())
    assert tr.header.seed == 2
    assert tr.header.length == 8 == len(tr.records)
    assert tr.header.reflect_enabled is False
    assert tr.header.generator["name"] == "philox4x64"


def test_length_must_be_positive():
    with pytest.raises(ConfigError):
        run_episode(CALM, RandomPolicy(), seed=0, length=0)


# ---- snapshots in the record stream ---------------------------------------


def test_snapshot_exactly_when_digest_changes():
    tr = run_episode(BREAK, RandomPolicy(), seed=0, length=260)
    assert tr.records[0].model_snapshot is not None
    prev = None
    for r in tr.records:
        if prev is not None:
            changed = r.model_digest != prev
            assert (r.model_snapshot is not None) == changed, f"tick {r.tick}"
        prev = r.model_digest
    # the scheduled break must have forced at least one model change
    assert sum(1 for r in tr.records if r.model_snapshot is not None) > 1


def test_snapshot_reconstructs_digest():
    tr = run_episode(BREAK, RandomPolicy(), seed=0, length=40)
    r0 = tr.records[0]
    m = model_from_snapshot(r0.model_snapshot)
    from causalloop.model import model_digest

    assert model_digest(m) == r0.model_digest


@pytest.mark.parametrize("reflect_enabled", [False, True])
def test_digest_computed_only_when_the_model_may_have_changed(monkeypatch, reflect_enabled):
    import causalloop.agent as agent_mod
    import causalloop.model as model_mod

    calls, snapshots = [], []
    real, real_snapshot = agent_mod.model_digest, model_mod.model_snapshot
    monkeypatch.setattr(agent_mod, "model_digest", lambda m, *snapshot: calls.append(m) or real(m, *snapshot))
    # Counted under both names: ``model_digest`` builds one itself when it
    # is not handed one.
    for module in (agent_mod, model_mod):
        monkeypatch.setattr(module, "model_snapshot", lambda m: snapshots.append(m) or real_snapshot(m))
    tr = run_episode(BREAK, RandomPolicy(), seed=0, length=260, reflect_enabled=reflect_enabled)
    distinct = len({r.model_digest for r in tr.records})
    assert distinct > 1
    if not reflect_enabled:
        # delta_hat stays 0.0, so only the first tick and applied fits digest.
        applied = sum(r.fit_event == "applied" for r in tr.records)
        assert len(calls) == 1 + applied
    assert distinct <= len(calls) < len(tr.records)
    assert snapshots == calls  # one snapshot per digest, of the model digested
    snap = None
    for r in tr.records:
        snap = r.model_snapshot or snap
        assert real(model_from_snapshot(snap)) == r.model_digest, f"tick {r.tick}"


# ---- one model application per tick -----------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("run_episode must not apply the causal function at a point")


def test_run_episode_applies_no_counterfactual(monkeypatch):
    import causalloop.agent as agent_mod
    import causalloop.model as model_mod

    monkeypatch.setattr(agent_mod, "predict", _refuse)
    monkeypatch.setattr(model_mod, "counterfactual", _refuse)
    tr = run_episode(BREAK, RandomPolicy(), seed=7, length=240, reflect_enabled=True)
    assert any(r.reflect and r.reflect["accepted"] for r in tr.records)
    assert not any("predicted" in record_to_dict(r) for r in tr.records)


def test_trace_rebuilds_every_prediction(monkeypatch, tmp_path):
    """The prediction the live model would have given each tick -- every
    contribution, the farthest horizon and the state there -- is the one
    explain recomputes from the written trace: the snapshot entering the
    tick with the record's delta_hat."""
    import causalloop.agent as agent_mod
    from causalloop.cli import _model_entering_tick
    from causalloop.core import CausalTuple, Perturbation, TimeIndex
    from causalloop.model import predict
    from causalloop.trace import read_trace, write_trace

    def hexes(p):
        contributions = [(*c[:5], c[5].hex()) for c in p.contributions]
        return contributions, p.horizon, [v.hex() for v in p.state.values]

    live = {}
    real = agent_mod.predict_next

    def capture(m, tup):
        live[tup.time.tick] = hexes(predict(m, tup))
        return real(m, tup)

    monkeypatch.setattr(agent_mod, "predict_next", capture)
    # productivity's 24-tick delays put every farthest horizon past 1.
    sc = builtin_scenarios()["productivity"]
    tr = run_episode(sc, RandomPolicy(), seed=7, length=160, reflect_enabled=True)
    assert sum(r.model_snapshot is not None for r in tr.records) > 1
    path = tmp_path / "t.jsonl"
    write_trace(tr, str(path))
    back = read_trace(str(path))
    assert len(live) == len(back.records) == 160
    assert all(horizon > 1 for _, horizon, _ in live.values())

    for r in back.records:
        m = dataclasses.replace(_model_entering_tick(back, r.tick), delta_hat=r.delta_hat)
        tup = CausalTuple(r.state, r.action, TimeIndex(r.tick), Perturbation(r.delta_hat))
        assert hexes(predict(m, tup)) == live[r.tick], f"tick {r.tick}"


def test_baseline_never_reflects():
    tr = run_episode(BREAK, RandomPolicy(), seed=1, length=250, reflect_enabled=False)
    assert all(r.reflect is None for r in tr.records)


def test_reflect_reports_cluster_at_break():
    tr = run_episode(BREAK, RandomPolicy(), seed=1, length=250, reflect_enabled=True)
    reporting = [r.tick for r in tr.records if r.reflect is not None]
    pre = [t for t in reporting if t < 200]
    post = [t for t in reporting if t >= 200]
    assert post, "the scheduled break must trigger the repair loop"
    # rare noise spikes may trigger pre-break, but the holdout gate keeps
    # them from changing the model
    assert len(pre) <= 2
    for r in tr.records:
        if r.tick < 200 and r.reflect is not None:
            assert not r.reflect["accepted"], f"noise-only trigger accepted an edit at {r.tick}"


def test_fit_events_on_schedule():
    tr = run_episode(CALM, RandomPolicy(), seed=3, length=40)
    for r in tr.records:
        if (r.tick + 1) % CALM.fit_every == 0:
            assert r.fit_event is not None
        else:
            assert r.fit_event is None


def test_a_held_action_leaves_its_target_unfit_and_fits_the_rest():
    """Action 1 is held at 0.5, so target 1's only feature column is
    constant over every window.  That target keeps its coefficient and
    every scheduled fit still refits target 0."""
    g = CausalGraph(2, 2, (
        CausalEdge(VarRef.action(0), 0, delay=1, coefficient=0.8),
        CausalEdge(VarRef.action(1), 1, delay=1, coefficient=1.0),
    ))
    sc = ScenarioConfig(name="held", d_state=2, d_action=2, initial_state=(0.0, 0.0), graph=g, noise_sigma=0.05)
    policy = CyclicPolicy(((1.0, 0.5), (-0.5, 0.5), (0.25, 0.5)))
    trace = run_episode(sc, policy, seed=5, length=96, reflect_enabled=False)
    assert [r.fit_event for r in trace.records if r.fit_event is not None] == ["applied"] * 6
    snapshots = [r.model_snapshot for r in trace.records if r.model_snapshot is not None]
    assert len(snapshots) == 7
    assert {s["graph"]["edges"][1]["coefficient"] for s in snapshots} == {1.0}
    assert len({s["graph"]["edges"][0]["coefficient"] for s in snapshots}) == 7


# ---- replay ----------------------------------------------------------------


def test_replay_round_trip():
    tr = run_episode(BREAK, RandomPolicy(), seed=4, length=120)
    fresh = replay(tr, BREAK)
    assert [record_to_dict(r) for r in fresh.records] == [
        record_to_dict(r) for r in tr.records
    ]


def test_replay_rejects_wrong_scenario():
    tr = run_episode(CALM, RandomPolicy(), seed=4, length=10)
    with pytest.raises(ReplayError):
        replay(tr, BREAK)


def test_replay_rejects_tampered_record():
    tr = run_episode(CALM, RandomPolicy(), seed=4, length=10)
    doctored = list(tr.records)
    doctored[5] = dataclasses.replace(doctored[5], epsilon=doctored[5].epsilon + 1e-9)
    bad = dataclasses.replace(tr, records=tuple(doctored))
    with pytest.raises(ReplayError) as exc_info:
        replay(bad, CALM)
    assert "5" in str(exc_info.value)


def test_replay_rejects_truncated_trace():
    tr = run_episode(CALM, RandomPolicy(), seed=4, length=10)
    bad = dataclasses.replace(tr, records=tr.records[:-1])
    with pytest.raises(ReplayError):
        replay(bad, CALM)


def test_replay_rejects_foreign_generator():
    tr = run_episode(CALM, RandomPolicy(), seed=4, length=5)
    bad_header = dataclasses.replace(tr.header, generator={"name": "other", "scheme": 1})
    with pytest.raises(ReplayError):
        replay(dataclasses.replace(tr, header=bad_header), CALM)


# ---- the initial model ----------------------------------------------------


def test_initial_model_mirrors_scenario():
    sc = BREAK.materialized()
    m = initial_model(sc)
    assert m.graph == sc.agent_graph
    assert m.delta_hat == 0.0
    assert m.fit_window == sc.fit_window
    assert m.capacity == sc.history_capacity


def test_each_state_is_validated_once_per_tick():
    """The loop checks each new action, world state, observation and
    prediction finite once: the converting constructor (``float()`` and a
    check per element) runs a fixed number of times per episode, not per
    tick, and every vector of a record still holds finite Python floats."""
    import math
    from unittest import mock

    from causalloop import core

    counts = []
    for length in (20, 40):
        with mock.patch.object(core, "_as_float_tuple", wraps=core._as_float_tuple) as spy:
            trace = run_episode(BREAK, RandomPolicy(), seed=4, length=length, reflect_enabled=False)
        counts.append(spy.call_count)
        for r in trace.records:
            for vec in (r.state, r.action, r.observed, r.predicted_next):
                assert all(type(v) is float and math.isfinite(v) for v in vec.values)
    assert counts[0] == counts[1]


def test_a_scheduled_fit_builds_one_kernel():
    """The fit and its holdout gate read one lagged-feature kernel: a
    fit-only episode builds one per scheduled fit, whatever its outcome."""
    from unittest import mock

    from causalloop import model

    init = model._LagFeatures.__init__
    with mock.patch.object(model._LagFeatures, "__init__", autospec=True, side_effect=init) as spy:
        trace = run_episode(BREAK, RandomPolicy(), seed=4, length=200, reflect_enabled=False)
    events = [r.fit_event for r in trace.records if r.fit_event is not None]
    assert len(events) == 200 // BREAK.fit_every
    assert "applied" in events
    assert spy.call_count == len(events)


def test_a_fit_that_lacks_rows_builds_no_kernel():
    """A scheduled fit checks the history's length before it builds its
    kernel.  Fitting every 4 ticks, ``break_demo``'s fits at ticks 4, 8
    and 12 lack the 16 rows a fit needs and are skipped: a fit-only episode
    builds one kernel per fit that reaches its design, and none for those."""
    from unittest import mock

    from causalloop import model

    sc = dataclasses.replace(BREAK, fit_every=4)
    init, design = model._LagFeatures.__init__, model._LagFeatures.design
    with mock.patch.object(model._LagFeatures, "__init__", autospec=True, side_effect=init) as built, \
            mock.patch.object(model._LagFeatures, "design", autospec=True, side_effect=design) as designed:
        trace = run_episode(sc, RandomPolicy(), seed=4, length=40, reflect_enabled=False)
    events = [r.fit_event for r in trace.records if r.fit_event is not None]
    assert events[:3] == ["skipped: NotEnoughDataError"] * 3
    assert len(events) == 10
    assert built.call_count == designed.call_count == 7


@pytest.mark.parametrize("sc", [CALM, BREAK], ids=["calm", "break_demo"])
def test_a_scheduled_fit_places_each_column_once(monkeypatch, sc):
    """The scheduled fit and its gate are reached through ``agent``'s
    names.  The fit places each edge's column at most once, and the gate
    reads the places the fit resolved: no ``place`` call from the fit's
    return to the gate's verdict."""
    import causalloop.agent as agent_mod
    from causalloop import model

    placed, fits, gates = [], [], []
    place, real_fit, real_gate = model._LagFeatures.place, agent_mod.fit, agent_mod._fit_improves
    monkeypatch.setattr(model._LagFeatures, "place", lambda self, *key: placed.append(key) or place(self, *key))

    def fit(m, lags):
        before = len(placed)
        try:
            return real_fit(m, lags)
        finally:
            fits.append((len(placed) - before, len(m.graph.plan)))

    def gate(*args):
        before = len(placed)
        verdict = real_gate(*args)
        gates.append(len(placed) - before)
        return verdict

    monkeypatch.setattr(agent_mod, "fit", fit)
    monkeypatch.setattr(agent_mod, "_fit_improves", gate)
    trace = run_episode(sc, RandomPolicy(), seed=4, length=200, reflect_enabled=False)
    events = [r.fit_event for r in trace.records if r.fit_event is not None]
    assert len(fits) == len(events) == 200 // sc.fit_every
    assert all(calls <= edges for calls, edges in fits)
    assert len(gates) == events.count("applied") + events.count("rejected") > 0
    assert gates == [0] * len(gates)


def test_a_delta_clamped_to_an_int_delta_max_is_recorded_as_a_float(monkeypatch):
    """A directly built model's int ``delta_max`` stays an int (a scenario
    stores its own as a float), but a delta clamped to it is a float: the
    record's (the tick's tuple holds it as ``Perturbation``'s own
    constructor does), each model snapshot's and each DeltaShift's.
    ``productivity`` at seed 23 clamps within 200 ticks (``break_demo`` has
    no perturbation and never does)."""
    import causalloop.agent

    sc = dataclasses.replace(builtin_scenarios()["productivity"], delta_max=1)
    assert type(sc.delta_max) is float

    def int_delta_max_model(scenario):
        return dataclasses.replace(initial_model(scenario), delta_max=1)

    assert type(int_delta_max_model(sc).delta_max) is int
    monkeypatch.setattr(causalloop.agent, "initial_model", int_delta_max_model)
    trace = run_episode(sc, RandomPolicy(), seed=23, length=200)
    assert all(type(r.delta_hat) is float for r in trace.records)
    assert 1.0 in {abs(r.delta_hat) for r in trace.records}
    # The clamp itself gives a float, so the written snapshots and DeltaShift
    # candidates hold JSON floats too, and snapshots keep the fast reader.
    records = [json.loads(line) for line in trace_to_lines(trace)[1:]]
    snapshots = [r["model_snapshot"]["delta_hat"] for r in records if "model_snapshot" in r]
    shifts = [
        row[1]
        for r in records
        if "reflect" in r
        for row in r["reflect"]["candidates"] + r["reflect"]["accepted"]
        if row[0] == "delta_shift"
    ]
    assert 1.0 in map(abs, snapshots) and 1.0 in map(abs, shifts)
    assert all(type(v) is float for v in snapshots + shifts)
