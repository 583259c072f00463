"""Scenario configs: validation, serialization, digests, file handling."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalloop.core import ConfigError, InputError
from causalloop.model import CausalModel, model_snapshot, read_snapshot
from causalloop.scenario import (
    ScenarioConfig,
    builtin_scenarios,
    canonical_json,
    graph_from_dict,
    graph_plan_from_dict,
    graph_to_dict,
    load_scenario,
    resolve_scenario,
    save_scenario,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
)
from causalloop.world import CausalEdge, CausalGraph, GaussianWalk, ScheduledBreak, SourceKind, Spike, VarRef

from helpers import random_graph


def tiny(**kw):
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=1, coefficient=1.0),),
    )
    defaults = dict(name="tiny", d_state=1, d_action=1, initial_state=(0.0,), graph=g)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


# ---- validation ------------------------------------------------------------


def test_valid_config_passes():
    tiny().validate()


def test_initial_state_length_checked():
    with pytest.raises(ConfigError):
        tiny(initial_state=(0.0, 0.0)).validate()


def test_delay_must_fit_history():
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=300, coefficient=1.0),),
    )
    with pytest.raises(ConfigError):
        tiny(graph=g).validate()


def test_breaks_must_increase():
    g = tiny().graph
    bad = (ScheduledBreak(5, g), ScheduledBreak(5, g))
    with pytest.raises(ConfigError):
        tiny(breaks=bad).validate()


def test_rho_must_be_a_proper_fraction():
    with pytest.raises(ConfigError):
        tiny(rho=1.0).validate()
    with pytest.raises(ConfigError):
        tiny(rho=0.0).validate()


def test_negative_noise_rejected():
    with pytest.raises(ConfigError):
        tiny(noise_sigma=-0.1).validate()


def test_default_tau_tracks_noise():
    assert tiny().default_tau() == pytest.approx(0.04)
    assert tiny(noise_sigma=0.05).default_tau() == pytest.approx(4 * (0.0025 + 0.01))
    assert tiny(tau=1.5).effective_tau() == 1.5


def test_materialized_resolves_tau_and_agent_graph():
    sc = tiny().materialized()
    assert sc.tau == pytest.approx(0.04)
    assert sc.agent_graph == sc.graph


# ---- serialization ---------------------------------------------------------


def test_dict_round_trip_all_builtins():
    for name, sc in builtin_scenarios().items():
        back = scenario_from_dict(scenario_to_dict(sc))
        assert scenario_digest(back) == scenario_digest(sc), name
        assert back.materialized() == sc.materialized(), name


def test_round_trip_covers_breaks_and_perturbations():
    g = tiny().graph
    g2 = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=2, coefficient=-0.5),),
    )
    for pert in (GaussianWalk(sigma_delta=0.2), Spike(prob=0.1, magnitude=1.0)):
        sc = tiny(breaks=(ScheduledBreak(10, g2),), perturbation=pert, noise_sigma=0.02)
        back = scenario_from_dict(scenario_to_dict(sc))
        assert back.breaks == sc.breaks
        assert back.perturbation == sc.perturbation
        assert scenario_digest(back) == scenario_digest(sc)


def test_digest_ignores_json_key_order():
    d = scenario_to_dict(tiny())
    shuffled = json.loads(json.dumps(d))  # dict order preserved; reorder manually
    shuffled = dict(reversed(list(shuffled.items())))
    assert canonical_json(d) == canonical_json(shuffled)


def test_digest_tracks_content():
    a = scenario_digest(tiny())
    assert scenario_digest(tiny(noise_sigma=0.01)) != a
    assert scenario_digest(tiny(name="other")) != a
    assert scenario_digest(tiny()) == a


def fresh_digest(sc):
    return hashlib.sha256(canonical_json(scenario_to_dict(sc)).encode()).hexdigest()


@pytest.mark.parametrize("sc", [tiny(), tiny(tau=0.5), *builtin_scenarios().values()], ids=lambda sc: sc.name)
def test_the_cached_digest_is_the_canonical_sha256(sc):
    assert scenario_digest(sc) == fresh_digest(sc)
    m = sc.materialized()
    assert m.digest == fresh_digest(sc)
    assert scenario_digest(sc) == m.digest  # read back from the cache


def test_materialized_of_a_materialized_scenario_is_itself():
    sc = tiny()
    m = sc.materialized()
    assert m is not sc and m == sc.materialized()
    assert m.materialized() is m
    assert tiny(tau=0.5).materialized() is not tiny(tau=0.5)  # agent_graph still unset
    for b in builtin_scenarios().values():
        assert b.materialized() is b


def test_a_replaced_scenario_gets_its_own_digest():
    sc = tiny().materialized()
    before = sc.digest
    noisier = dataclasses.replace(sc, noise_sigma=0.25)
    assert noisier.digest != before
    assert noisier.digest == fresh_digest(noisier)
    assert sc.digest == before
    # Not a field: the cache leaves equality and hashing alone.
    assert "digest" not in {f.name for f in dataclasses.fields(ScenarioConfig)}
    same = dataclasses.replace(sc)
    assert "digest" not in vars(same)
    assert same == sc and hash(same) == hash(sc)


def test_an_int_twin_is_equal_has_the_digest_and_replays():
    """A float field given an int is stored as a float, in Python and from
    JSON, so a scenario equal to calm has calm's digest and a trace of it
    replays against calm."""
    from causalloop.agent import RandomPolicy, replay, run_episode

    calm = builtin_scenarios()["calm"]
    twin = dataclasses.replace(calm, sigma_lik=1, delta_max=10)
    assert twin == calm and twin.digest == calm.digest
    assert replay(run_episode(twin, RandomPolicy(), seed=3, length=20), calm).records
    doc = json.loads(json.dumps(scenario_to_dict(calm)))
    doc.update(sigma_lik=1, delta_max=10)
    from_json = scenario_from_dict(doc)
    assert from_json == calm and from_json.digest == calm.digest
    assert (type(from_json.sigma_lik), type(from_json.delta_max)) == (float, float)


def test_float_fields_are_stored_as_floats():
    sc = tiny(noise_sigma=0, tau=1, sigma_lik=2, rho=0, delta_max=5)
    assert [type(getattr(sc, f)) for f in ("noise_sigma", "tau", "sigma_lik", "rho", "delta_max")] == [float] * 5
    assert tiny().tau is None
    edge = CausalEdge(VarRef.action(0), 0, delay=1, coefficient=2)
    assert type(edge.coefficient) is float
    assert type(CausalGraph(1, 1, (edge,)).plan[0][4]) is float
    assert [type(v) for v in (GaussianWalk(1).sigma_delta, Spike(1, -2).prob, Spike(1, -2).magnitude)] == [float] * 3
    assert scenario_digest(tiny(perturbation=Spike(1, -2))) == scenario_digest(tiny(perturbation=Spike(1.0, -2.0)))


def test_unknown_keys_rejected():
    d = scenario_to_dict(tiny())
    d["surprise"] = 1
    with pytest.raises(InputError):
        scenario_from_dict(d)


def test_missing_required_key_rejected():
    d = scenario_to_dict(tiny())
    del d["graph"]
    with pytest.raises(InputError):
        scenario_from_dict(d)


def test_noise_too_large_to_derive_tau_rejected():
    d = scenario_to_dict(tiny())
    d["noise_sigma"] = 1e200  # its square, and so the default tau, overflows
    del d["tau"]
    with pytest.raises(InputError, match="invalid scenario: noise_sigma 1e[+]200 squares past a float"):
        scenario_from_dict(d)


# ---- graph records -----------------------------------------------------------

# calm's graph: edge 0 is action[0] -> 0 (delay 1, linear), edge 1 is
# state[0] -> 1 (delay 2, tanh); d_state 2, d_action 1.
GRAPH = graph_to_dict(builtin_scenarios()["calm"].graph)


def doctored(*edits):
    """A copy of ``GRAPH`` with each edit applied to it in turn."""
    d = copy.deepcopy(GRAPH)
    for edit in edits:
        edit(d)
    return d


def top(**fields):
    return lambda d: d.update(fields)


def edge(i, **fields):
    return lambda d: d["edges"][i].update(fields)


def source(i, **fields):
    return lambda d: d["edges"][i]["source"].update(fields)


def drop(*path):
    def edit(d):
        node = d
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]

    return edit


def dup(i):
    return lambda d: d["edges"].append(copy.deepcopy(d["edges"][i]))


EDGE = "malformed edge record: "
GRAPH_RECORD = "malformed graph record: "
A0 = "VarRef(kind=<SourceKind.ACTION: 'action'>, index=0)"
HUGE = 10**400

# Each malformed graph record, and the class and message it is refused
# with: the parser's refusals in the order it checks, edge by edge in edge
# order and every edge before the graph's dimensions, ranges and duplicates.
MALFORMED_GRAPHS = {
    "duplicate edge": (doctored(dup(0)), ConfigError, f"duplicate edge (source={A0}, target=0, delay=1)"),
    "target past d_state": (doctored(edge(0, target=2)), ConfigError, "edge target 2 out of range for d_state=2"),
    "target negative": (doctored(edge(1, target=-1)), ConfigError, "edge target -1 out of range for d_state=2"),
    "action source out of range": (doctored(source(0, index=1)), ConfigError, "edge source action[1] out of range"),
    "state source out of range": (doctored(source(1, index=2)), ConfigError, "edge source state[2] out of range"),
    "state source negative": (doctored(source(1, index=-1)), ConfigError, "edge source state[-1] out of range"),
    "delay 0": (doctored(edge(1, delay=0)), ConfigError, "edge delay must be >= 1, got 0"),
    "delay true": (doctored(edge(0, delay=True)), InputError, EDGE + "delay is True of type bool, expected int"),
    "delay float": (doctored(edge(0, delay=1.0)), InputError, EDGE + "delay is 1.0 of type float, expected int"),
    "coefficient true": (
        doctored(edge(0, coefficient=True)),
        InputError,
        EDGE + "coefficient is True of type bool, expected int or finite float",
    ),
    "coefficient string": (
        doctored(edge(0, coefficient="0.8")),
        InputError,
        EDGE + "coefficient is '0.8' of type str, expected int or finite float",
    ),
    "coefficient past a float": (
        doctored(edge(0, coefficient=HUGE)),
        InputError,
        EDGE + f"coefficient is {HUGE} of type int, expected int or finite float",
    ),
    "kind unknown": (doctored(source(0, kind="bogus")), InputError, EDGE + "'bogus' is not a valid SourceKind"),
    "kind list": (doctored(source(0, kind=["action"])), InputError, EDGE + "['action'] is not a valid SourceKind"),
    "kind dict": (doctored(source(0, kind={})), InputError, EDGE + "{} is not a valid SourceKind"),
    "form unknown": (doctored(edge(1, form="cubic")), InputError, EDGE + "'cubic' is not a valid Form"),
    "form list": (doctored(edge(1, form=["tanh"])), InputError, EDGE + "['tanh'] is not a valid Form"),
    "form dict": (doctored(edge(1, form={})), InputError, EDGE + "{} is not a valid Form"),
    "d_state 0": (doctored(top(d_state=0)), ConfigError, "d_state must be >= 1, got 0"),
    "d_action -1": (doctored(top(d_action=-1)), ConfigError, "d_action must be >= 0, got -1"),
    "d_state true": (
        doctored(top(d_state=True)),
        InputError,
        GRAPH_RECORD + "d_state is True of type bool, expected int",
    ),
    "d_state 0, target out of range": (
        doctored(top(d_state=0), edge(0, target=5)),
        ConfigError,
        "d_state must be >= 1, got 0",
    ),
    "d_state 0, delay 0": (doctored(top(d_state=0), edge(1, delay=0)), ConfigError, "edge delay must be >= 1, got 0"),
    "d_action -1, form unknown": (
        doctored(top(d_action=-1), edge(0, form="cubic")),
        InputError,
        EDGE + "'cubic' is not a valid Form",
    ),
    "d_action -1, duplicate edge": (doctored(top(d_action=-1), dup(1)), ConfigError, "d_action must be >= 0, got -1"),
    "delay 0, then a bad kind": (
        doctored(edge(0, delay=0), source(1, kind="x")),
        ConfigError,
        "edge delay must be >= 1, got 0",
    ),
    "bad kind, then delay 0": (
        doctored(source(0, kind="x"), edge(1, delay=0)),
        InputError,
        EDGE + "'x' is not a valid SourceKind",
    ),
    "bad form and delay 0 in one edge": (
        doctored(edge(0, delay=0, form="cubic")),
        InputError,
        EDGE + "'cubic' is not a valid Form",
    ),
    "target out of range, duplicate": (
        doctored(dup(0), edge(2, target=9)),
        ConfigError,
        "edge target 9 out of range for d_state=2",
    ),
    "missing d_state": (doctored(drop("d_state")), InputError, GRAPH_RECORD + "'d_state'"),
    "missing d_action": (doctored(drop("d_action")), InputError, GRAPH_RECORD + "'d_action'"),
    "missing edges": (doctored(drop("edges")), InputError, GRAPH_RECORD + "'edges'"),
    "missing source": (doctored(drop("edges", 0, "source")), InputError, EDGE + "'source'"),
    "missing kind": (doctored(drop("edges", 0, "source", "kind")), InputError, EDGE + "'kind'"),
    "missing index": (doctored(drop("edges", 1, "source", "index")), InputError, EDGE + "'index'"),
    "missing target": (doctored(drop("edges", 0, "target")), InputError, EDGE + "'target'"),
    "missing delay": (doctored(drop("edges", 0, "delay")), InputError, EDGE + "'delay'"),
    "missing coefficient": (doctored(drop("edges", 1, "coefficient")), InputError, EDGE + "'coefficient'"),
    "missing form": (doctored(drop("edges", 1, "form")), InputError, EDGE + "'form'"),
    "graph a list": ([], InputError, GRAPH_RECORD + "list indices must be integers or slices, not str"),
    "graph null": (None, InputError, GRAPH_RECORD + "'NoneType' object is not subscriptable"),
    "edges an object": (doctored(top(edges={})), InputError, GRAPH_RECORD + "edges is {} of type dict, expected list"),
    "edge a number": (doctored(top(edges=[5])), InputError, EDGE + "'int' object is not subscriptable"),
    "edge a string": (doctored(top(edges=["edge"])), InputError, EDGE + "string indices must be integers, not 'str'"),
    "source a string": (
        doctored(edge(0, source="action")),
        InputError,
        EDGE + "source is 'action' of type str, expected dict",
    ),
    "source a list": (doctored(edge(0, source=[0])), InputError, EDGE + "source is [0] of type list, expected dict"),
}


@pytest.mark.parametrize("case", list(MALFORMED_GRAPHS))
def test_a_malformed_graph_record_is_refused_with_its_class_and_message(case):
    record, error, message = MALFORMED_GRAPHS[case]
    with pytest.raises(error) as info:
        graph_from_dict(record)
    assert type(info.value) is error
    assert str(info.value) == message


SNAPSHOT = model_snapshot(CausalModel(graph=builtin_scenarios()["calm"].graph))


@pytest.mark.parametrize("case", list(MALFORMED_GRAPHS))
def test_the_reader_evaluate_uses_refuses_a_malformed_graph_alike(case):
    """The one graph-record reader, alone and inside a model snapshot as
    evaluation reads it, refuses each record as :func:`graph_from_dict`."""
    record, error, message = MALFORMED_GRAPHS[case]
    for read in (graph_plan_from_dict, lambda r: read_snapshot({**SNAPSHOT, "graph": r})):
        with pytest.raises(error) as info:
            read(record)
        assert type(info.value) is error
        assert str(info.value) == message


def derived_plan(g):
    """The plan of ``g`` as its edges give it, field by field."""
    return tuple(
        (e.source.kind is SourceKind.ACTION, e.source.index, e.delay, e.target, e.coefficient, e.form)
        for e in g.edges
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(0, 3))
def test_a_graph_record_reads_back_to_the_graph(seed, d_state, d_action):
    g = random_graph(np.random.default_rng(seed), d_state, d_action, max_edges=12)
    record = json.loads(json.dumps(graph_to_dict(g)))
    back = graph_from_dict(record)
    assert graph_plan_from_dict(record) == (d_state, d_action, g.plan)
    assert back == g and hash(back) == hash(g)
    assert back.plan == derived_plan(back) == derived_plan(g) == g.plan
    assert [type(e.coefficient) for e in back.edges] == [float] * len(g.edges)


# ---- files -----------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    sc = builtin_scenarios()["break_demo"]
    path = tmp_path / "b.json"
    save_scenario(sc, str(path))
    back = load_scenario(str(path))
    assert scenario_digest(back) == scenario_digest(sc)


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",\n  broken\n}')
    with pytest.raises(InputError) as exc_info:
        load_scenario(str(path))
    assert "line" in str(exc_info.value)


def test_load_refuses_an_int_too_long_to_convert(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario_to_dict(tiny())).replace('"budget": 32', '"budget": ' + "9" * 5000))
    with pytest.raises(InputError, match="s.json: Exceeds the limit"):
        load_scenario(str(path))


@pytest.mark.parametrize("sigma_lik", [1e-200, 1e200])
def test_load_refuses_a_sigma_lik_whose_variance_leaves_the_float_range(tmp_path, sigma_lik):
    """2 * sigma_lik**2 divides every repair score: 0.0 at 1e-200, and past
    a float at 1e200."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**scenario_to_dict(tiny()), "sigma_lik": sigma_lik}))
    with pytest.raises(InputError, match="sigma_lik"):
        load_scenario(str(path))


def test_load_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_scenario(str(tmp_path / "absent.json"))


def test_resolve_by_name_and_path(tmp_path):
    by_name = resolve_scenario("calm")
    assert by_name.name == "calm"
    path = tmp_path / "c.json"
    save_scenario(by_name, str(path))
    assert scenario_digest(resolve_scenario(str(path))) == scenario_digest(by_name)
    with pytest.raises(InputError):
        resolve_scenario("no_such_scenario")


def test_builtins_validate_and_have_distinct_digests():
    scs = builtin_scenarios()
    assert set(scs) == {"productivity", "break_demo", "calm"}
    digests = set()
    for sc in scs.values():
        sc.validate()
        digests.add(scenario_digest(sc))
    assert len(digests) == 3


def test_bundled_scenario_files_match_builtins():
    root = Path(__file__).resolve().parent.parent / "scenarios"
    builtins = builtin_scenarios()
    files = sorted(p.stem for p in root.glob("*.json"))
    assert files == sorted(builtins)
    for name, sc in builtins.items():
        from_file = load_scenario(str(root / f"{name}.json"))
        assert from_file == sc, name
        assert scenario_digest(from_file) == scenario_digest(sc), name
