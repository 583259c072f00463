"""Scenario configs: validation, serialization, digests, file handling."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import NamedTuple

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
    read_fields,
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


# ---- resolving and checking when built ------------------------------------


def refused(message, **kw):
    """Build ``tiny(**kw)``, which must raise :class:`ConfigError` with exactly ``message``."""
    with pytest.raises(ConfigError) as info:
        tiny(**kw)
    assert type(info.value) is ConfigError
    assert str(info.value) == message


def test_valid_config_passes():
    sc = tiny()
    assert sc.validate() is None and sc.materialized() is sc


def test_initial_state_length_checked():
    refused("initial_state has 2 dims, d_state is 1", initial_state=(0.0, 0.0))


def test_delay_must_fit_history():
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=300, coefficient=1.0),),
    )
    refused("graph edge delay 300 exceeds history_capacity 256", graph=g)
    refused("agent_graph edge delay 300 exceeds history_capacity 256", agent_graph=g)


def test_breaks_must_increase():
    g = tiny().graph
    bad = (ScheduledBreak(5, g), ScheduledBreak(5, g))
    refused("breaks must have strictly increasing at_tick >= 1", breaks=bad)


def test_rho_must_be_a_proper_fraction():
    refused("rho must be in (0, 1), got 1.0", rho=1.0)
    refused("rho must be in (0, 1), got 0.0", rho=0.0)


def test_negative_noise_rejected():
    refused("noise_sigma must be finite and >= 0, got -0.1", noise_sigma=-0.1)


def test_default_tau_tracks_noise():
    assert tiny().default_tau() == pytest.approx(0.04)
    assert tiny(noise_sigma=0.05).default_tau() == pytest.approx(4 * (0.0025 + 0.01))


def test_a_scenario_is_resolved_when_built():
    """Built with ``tau`` or ``agent_graph`` None, a scenario holds
    ``default_tau()`` or its initial graph; given, it holds what it was given."""
    sc = tiny()
    assert sc.tau == sc.default_tau() == pytest.approx(0.04) and type(sc.tau) is float
    assert sc.agent_graph is sc.graph
    other = CausalGraph(1, 1, (CausalEdge(VarRef.action(0), 0, delay=2, coefficient=0.5),))
    given = tiny(tau=1.5, agent_graph=other)
    assert (given.tau, given.agent_graph) == (1.5, other)
    assert scenario_to_dict(sc)["tau"] == sc.tau and scenario_from_dict(scenario_to_dict(sc)) == sc


def test_replace_derives_tau_again_only_when_asked():
    """``replace(sc, tau=None)`` derives ``tau`` from the new scenario;
    replacing another field keeps the resolved ``tau``, as it does for a
    loaded or bundled scenario, which states its ``tau``."""
    sc = tiny()
    noisier = dataclasses.replace(sc, noise_sigma=0.25)
    assert noisier.tau == sc.tau
    assert dataclasses.replace(noisier, tau=None).tau == noisier.default_tau() == pytest.approx(0.29)
    for b in builtin_scenarios().values():
        assert dataclasses.replace(b, noise_sigma=0.25).tau == b.tau


def test_a_scenario_built_directly_runs_as_its_loaded_file(tmp_path):
    """Resolved when built, a scenario records, evaluates and replays as the
    file it saves to, and as that file with ``tau`` and ``agent_graph`` left
    out, each loaded back."""
    from causalloop.agent import RandomPolicy, replay, run_episode
    from causalloop.evaluate import evaluate_trace, report_tsv
    from causalloop.trace import trace_to_lines

    g = tiny().graph
    after = CausalGraph(1, 1, (CausalEdge(VarRef.action(0), 0, delay=1, coefficient=2.5),))
    sc = tiny(breaks=(ScheduledBreak(20, after),), perturbation=Spike(prob=0.2, magnitude=0.3), noise_sigma=0.05)
    assert (sc.tau, sc.agent_graph) == (sc.default_tau(), g)
    saved, bare = tmp_path / "saved.json", tmp_path / "bare.json"
    save_scenario(sc, str(saved))
    doc = scenario_to_dict(sc)
    del doc["tau"], doc["agent_graph"]
    bare.write_text(json.dumps(doc))
    trace = run_episode(sc, RandomPolicy(), seed=5, length=40)
    report = evaluate_trace(trace, sc)
    for path in (saved, bare):
        twin = load_scenario(str(path))
        assert twin == sc and twin.digest == sc.digest
        twin_trace = run_episode(twin, RandomPolicy(), seed=5, length=40)
        assert trace_to_lines(twin_trace) == trace_to_lines(trace)
        twin_report = evaluate_trace(twin_trace, twin)
        assert report_tsv(twin_report, twin_trace) == report_tsv(report, trace)
        assert twin_report.to_dict() == report.to_dict()
        assert trace_to_lines(replay(trace, twin)) == trace_to_lines(trace)


# ---- serialization ---------------------------------------------------------


def test_dict_round_trip_all_builtins():
    for name, sc in builtin_scenarios().items():
        back = scenario_from_dict(scenario_to_dict(sc))
        assert scenario_digest(back) == scenario_digest(sc), name
        assert back == sc, name


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
    assert sc.digest == fresh_digest(sc)
    assert scenario_digest(sc) == sc.digest  # read back from the cache


def test_a_replaced_scenario_gets_its_own_digest():
    sc = tiny()
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
    sc = tiny(noise_sigma=0, tau=1, sigma_lik=2, delta_max=5)
    assert [type(getattr(sc, f)) for f in ("noise_sigma", "tau", "sigma_lik", "delta_max")] == [float] * 4
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


TAU_OVERFLOW = "noise_sigma 1e+200 squares past a float, so tau cannot be derived"


def test_noise_too_large_to_derive_tau_rejected(tmp_path):
    d = scenario_to_dict(tiny())
    d["noise_sigma"] = 1e200  # its square, and so the default tau, overflows
    del d["tau"]
    with pytest.raises(ConfigError) as info:
        scenario_from_dict(d)
    assert type(info.value) is ConfigError and str(info.value) == TAU_OVERFLOW
    path = tmp_path / "s.json"
    path.write_text(json.dumps(d))
    with pytest.raises(InputError) as info:
        load_scenario(str(path))
    assert str(info.value) == f"{path}: {TAU_OVERFLOW}"


def test_a_replaced_scenario_whose_tau_cannot_be_derived_is_refused():
    refused(TAU_OVERFLOW, noise_sigma=1e200)
    with pytest.raises(ConfigError) as info:
        dataclasses.replace(builtin_scenarios()["calm"], tau=None, noise_sigma=1e200)
    assert type(info.value) is ConfigError and str(info.value) == TAU_OVERFLOW


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_a_format_version_that_is_not_a_json_int_is_refused(version):
    d = {**scenario_to_dict(tiny()), "format_version": version}
    with pytest.raises(InputError, match=f"^invalid scenario: format_version is {version!r} of type "):
        scenario_from_dict(d)


def test_an_unknown_format_version_is_refused():
    with pytest.raises(InputError, match="^unsupported scenario format_version 2$"):
        scenario_from_dict({**scenario_to_dict(tiny()), "format_version": 2})


class Reading(NamedTuple):
    count: int
    weight: float
    label: str | None


def test_read_fields_reads_a_named_tuple_in_declaration_order_and_refuses_by_field_name():
    got = read_fields(Reading, {"label": None, "weight": 2, "count": 3})
    assert list(got.items()) == [("count", 3), ("weight", 2.0), ("label", None)]
    assert type(got["weight"]) is float and Reading(**got) == (3, 2.0, None)
    assert read_fields(Reading, {"label": "x"}, ("label",)) == {"label": "x"}
    # The first field refused in declaration order names the refusal.
    with pytest.raises(TypeError, match="^weight is True of type bool, expected "):
        read_fields(Reading, {"label": 5, "weight": True, "count": 1})
    with pytest.raises(TypeError, match="^label is 5 of type int, expected str or NoneType$"):
        read_fields(Reading, {"label": 5, "weight": 1.0, "count": 1})
    with pytest.raises(KeyError, match="label"):
        read_fields(Reading, {"weight": 1.0, "count": 1})


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
