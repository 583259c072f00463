"""Template explanations, numeral grounding, and the optional LLM adapter.

Template wording is pinned exactly: downstream consumers (and the
faithfulness audit) treat these strings as a stable output format.
"""

from __future__ import annotations

import http.server
import json
import math
import re
import threading
from dataclasses import replace

import numpy as np
import pytest

from causalloop.agent import RandomPolicy, run_episode
from causalloop.cli import main
from causalloop.core import (
    ActionVec,
    CausalTuple,
    ConfigError,
    DomainError,
    InputError,
    Perturbation,
    StateVec,
    TimeIndex,
)
from causalloop.explain import (
    INSTRUCTION,
    SYSTEM_PREAMBLE,
    Explanation,
    ExplanationKind,
    explain_counterfactual,
    explain_reflection,
    explain_transition,
    extract_numerals,
    fmt,
    fmt_vec,
    grounded_numerals,
    is_grounded,
    llm_configured,
    narrate_via_llm,
    render_prompt,
)
from causalloop.model import CausalModel, counterfactual, model_from_snapshot, predict
from causalloop.reflect import (
    CoefChange,
    DelayChange,
    DeltaShift,
    EdgeAdd,
    EdgeRemove,
    StructuralBreak,
    hypothesis_to_dict,
    hypothesis_to_row,
)
from causalloop.scenario import builtin_scenarios, canonical_json
from causalloop.trace import TraceRecord, trace_from_lines, trace_to_lines
from causalloop.world import CausalEdge, CausalGraph, Form, VarRef

from helpers import random_graph


def one_edge_model(coef=1.0, delay=1, delta_hat=0.0):
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=delay, coefficient=coef),),
    )
    return CausalModel(graph=g, delta_hat=delta_hat)


def tup(state, action, tick=0):
    return CausalTuple(
        state=StateVec(tuple(state)), action=ActionVec(tuple(action)), time=TimeIndex(tick)
    )


# ---- formatting and numeral auditing --------------------------------------


def test_fmt_is_six_significant_digits():
    assert fmt(0.1) == "0.1"
    assert fmt(1 / 3) == "0.333333"
    assert fmt(1234567.0) == "1.23457e+06"
    assert fmt(-2.5) == "-2.5"
    assert fmt(1e-17) == "1e-17"


def test_fmt_collapses_negative_zero():
    assert fmt(-0.0) == "0"


def test_fmt_vec():
    assert fmt_vec((1.0, -0.25)) == "[1, -0.25]"
    assert fmt_vec(StateVec((3.0,))) == "[3]"


def test_extract_numerals_strips_exponent_notation_sign():
    assert extract_numerals("e^-0.5 = 0.6065") == ["0.5", "0.6065"]


def test_extract_numerals_keeps_real_signs():
    assert extract_numerals("a -3.2 drop and a 1e-5 rise") == ["-3.2", "1e-5"]
    assert extract_numerals("-7 leads") == ["-7"]
    assert extract_numerals("roughly 2e+06 events") == ["2e+06"]


def test_grounded_numerals_walks_nested_values():
    grounding = {"a": 2.5, "b": [1, {"c": -0.0}], "vec": StateVec((3.0,)), "flag": True}
    got = grounded_numerals(grounding)
    assert {"2.5", "1", "0", "3", "3.0", "-0.0"} <= got
    assert "True" not in got


def test_is_grounded_rejects_invented_numbers():
    bad = Explanation(ExplanationKind.CAUSAL, "value 42 appeared", {"x": 41})
    assert not is_grounded(bad)
    good = Explanation(ExplanationKind.CAUSAL, "value 41 appeared", {"x": 41})
    assert is_grounded(good)


# ---- causal template ------------------------------------------------------


def test_transition_sentence_exact():
    m = one_edge_model(coef=3.0, delay=1)
    e = explain_transition(m, tup((0.0,), (1.0,), tick=5))
    assert e.kind is ExplanationKind.CAUSAL
    assert e.text == (
        "At tick 5, action[0] is predicted to change state dimension 0 by 3 "
        "after a delay of 1 ticks, scaled by perturbation factor e^-0 = 1."
    )
    assert is_grounded(e)


def test_transition_sentence_with_perturbation():
    m = one_edge_model(coef=2.0, delay=2, delta_hat=math.log(4.0))
    e = explain_transition(m, tup((0.0,), (1.0,)))
    assert e.text == (
        "At tick 0, action[0] is predicted to change state dimension 0 by 0.5 "
        "after a delay of 2 ticks, scaled by perturbation factor e^-1.38629 = 0.25."
    )
    assert is_grounded(e)


def test_transition_names_a_state_source():
    g = CausalGraph(
        d_state=2,
        d_action=1,
        edges=(CausalEdge(VarRef.state(0), 1, delay=2, coefficient=0.5, form=Form.TANH),),
    )
    e = explain_transition(CausalModel(graph=g), tup((1.0, 0.0), (0.9,), tick=10))
    assert e.text == (
        f"At tick 10, state[0] is predicted to change state dimension 1 by {fmt(0.5 * math.tanh(1.0))} "
        "after a delay of 2 ticks, scaled by perturbation factor e^-0 = 1."
    )
    assert e.grounding["contributions"] == [
        {"source": "state", "source_index": 0, "target": 1, "delay": 2, "effect": 0.5 * math.tanh(1.0)}
    ]
    assert is_grounded(e)


# One contribution sentence: its source, its target and its delay.
CONTRIBUTION = re.compile(
    r"At tick \d+, (action|state)\[(\d+)\] is predicted to change state dimension (\d+) "
    r"by \S+ after a delay of (\d+) ticks"
)


def assert_attributed(m, t):
    """Every source a sentence names is an edge source of ``m``'s plan: the
    sentences name each edge once, by its source, target and delay."""
    e = explain_transition(m, t)
    named = [
        (kind == "action", int(index), int(delay), int(target))
        for kind, index, target, delay in CONTRIBUTION.findall(e.text)
    ]
    assert sorted(named) == sorted(edge[:4] for edge in m.graph.plan)
    sources = {(reads_action, index) for reads_action, index, *_ in m.graph.plan}
    assert {(kind == "action", int(i)) for kind, i in re.findall(r"\b(action|state)\[(\d+)\]", e.text)} <= sources
    assert is_grounded(e)


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_every_source_a_sentence_names_is_an_edge_source_of_the_model(name):
    trace = run_episode(builtin_scenarios()[name], RandomPolicy(), seed=3, length=120)
    snapshot = trace.records[0].model_snapshot
    for r in trace.records:
        m = replace(model_from_snapshot(snapshot), delta_hat=r.delta_hat)
        assert_attributed(m, CausalTuple(r.state, r.action, TimeIndex(r.tick), Perturbation(r.delta_hat)))
        if r.model_snapshot is not None:
            snapshot = r.model_snapshot


def test_a_four_dimensional_graph_attributes_each_state_edge_to_its_source():
    edges = (
        CausalEdge(VarRef.state(0), 1, delay=1, coefficient=0.3, form=Form.TANH),
        CausalEdge(VarRef.state(1), 2, delay=2, coefficient=-0.4),
        CausalEdge(VarRef.state(3), 0, delay=1, coefficient=0.2, form=Form.QUADRATIC),
        CausalEdge(VarRef.state(2), 2, delay=3, coefficient=0.1, form=Form.TANH),
        CausalEdge(VarRef.action(1), 3, delay=2, coefficient=1.5),
        CausalEdge(VarRef.action(0), 1, delay=1, coefficient=-0.7),
    )
    m = CausalModel(graph=CausalGraph(d_state=4, d_action=2, edges=edges), delta_hat=0.4)
    rng = np.random.default_rng(44)
    for tick in range(40):
        assert_attributed(m, tup(rng.uniform(-3.0, 3.0, size=4), rng.uniform(-1.0, 1.0, size=2), tick=tick))


def test_transition_without_edges_reports_persistence():
    m = CausalModel(graph=CausalGraph(d_state=1, d_action=1, edges=()))
    e = explain_transition(m, tup((0.0,), (0.5,), tick=2))
    assert e.text == (
        "At tick 2, action [0.5] has no modeled causal effect; "
        "the state is predicted to persist."
    )
    assert is_grounded(e)


# ---- counterfactual template ----------------------------------------------


def test_counterfactual_contrast_exact():
    m = one_edge_model(coef=1.0, delay=1, delta_hat=math.log(2.0))
    e = explain_counterfactual(m, tup((0.0,), (4.0,)), 0.0)
    assert e.kind is ExplanationKind.COUNTERFACTUAL
    assert e.text == (
        "Had perturbation δ=0.693147 not occurred, the model predicts the system "
        "would have transitioned to state [4] instead of [2]."
    )
    assert is_grounded(e)


def test_counterfactual_no_difference():
    m = one_edge_model(coef=1.0, delay=1, delta_hat=0.25)
    e = explain_counterfactual(m, tup((0.0,), (4.0,)), Perturbation(0.25))
    assert e.text == (
        "Had the perturbation been δ'=0.25 instead of δ=0.25, the model predicts no difference: "
        f"state [{fmt(4.0 * math.exp(-0.25))}] either way."
    )
    assert "either way." in e.text
    assert is_grounded(e)


def test_counterfactual_names_the_delta_it_was_asked_for():
    m = one_edge_model(coef=1.0, delay=1, delta_hat=math.log(2.0))
    e = explain_counterfactual(m, tup((0.0,), (4.0,)), -math.log(2.0))
    assert e.text == (
        "Had the perturbation been δ'=-0.693147 instead of δ=0.693147, the model predicts "
        "the system would have transitioned to state [8] instead of [2]."
    )
    assert is_grounded(e)
    assert explain_counterfactual(m, tup((0.0,), (4.0,)), -0.0).text.startswith(
        "Had perturbation δ=0.693147 not occurred,"
    )


def test_counterfactual_uses_farthest_horizon():
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(
            CausalEdge(VarRef.action(0), 0, delay=1, coefficient=1.0),
            CausalEdge(VarRef.action(0), 0, delay=3, coefficient=10.0),
        ),
    )
    m = CausalModel(graph=g, delta_hat=math.log(2.0))
    e = explain_counterfactual(m, tup((0.0,), (1.0,)), 0.0)
    assert e.grounding["horizon"] == 3
    # at horizon 3 both edges have landed: 11 raw vs 5.5 damped
    assert "state [11] instead of [5.5]" in e.text


def refusal(fn):
    with pytest.raises(DomainError) as info:
        fn()
    return str(info.value)


def test_a_state_that_is_not_finite_is_refused_as_predict_refuses_it():
    """Explain refuses a point whose farthest state is not finite as
    predict and counterfactual do, naming that state's first non-finite
    value: here inf + -inf, nan, though horizon 1 alone would hold inf."""
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(
            CausalEdge(VarRef.action(0), 0, delay=1, coefficient=1e300),
            CausalEdge(VarRef.action(0), 0, delay=2, coefficient=-1e300),
        ),
    )
    m = CausalModel(graph=g)
    t = tup((0.0,), (1e10,))
    assert refusal(lambda: predict(m, t)) == "state contains non-finite value nan"
    assert refusal(lambda: explain_transition(m, t)) == "state contains non-finite value nan"
    assert refusal(lambda: explain_counterfactual(m, t, 0.0)) == "state contains non-finite value nan"
    # Only the counterfactual's state leaves the float range: 1e308 * e.
    m = one_edge_model(coef=1e300)
    t = tup((0.0,), (1e8,))
    assert predict(m, t).state.values == (1e308,)
    assert explain_transition(m, t).grounding["contributions"][0]["effect"] == 1e308
    want = refusal(lambda: counterfactual(m, t, -1.0))
    assert want == "state contains non-finite value inf"
    assert refusal(lambda: explain_counterfactual(m, t, -1.0)) == want


# ---- reflection template --------------------------------------------------


def test_reflection_summary_exact():
    report = {
        "triggered": True,
        "epsilon": 0.5,
        "tau": 0.04,
        "candidates": [hypothesis_to_row(StructuralBreak(keep=i)) + [0.1 * i] for i in range(7)],
        "accepted": [
            hypothesis_to_row(CoefChange(edge_index=0, new_coefficient=2.5)),
            hypothesis_to_row(StructuralBreak(keep=12)),
        ],
    }
    e = explain_reflection(200, report)
    assert e.kind is ExplanationKind.REFLECTION_SUMMARY
    assert e.text == (
        "At tick 200, prediction error 0.5 exceeded the threshold 0.04; "
        "7 candidate repairs were scored and 2 accepted. "
        "Accepted: edge 0 took coefficient 2.5. "
        "Accepted: a structural break was declared, keeping the last 12 transitions."
    )
    assert is_grounded(e)


def test_reflection_summary_phrases_cover_every_kind():
    accepted = [
        hypothesis_to_row(DeltaShift(new_delta=0.3)),
        hypothesis_to_row(CoefChange(edge_index=0, new_coefficient=-1.5)),
        hypothesis_to_row(DelayChange(edge_index=0, new_delay=3)),
        hypothesis_to_row(EdgeRemove(edge_index=1)),
        hypothesis_to_row(
            EdgeAdd(source=VarRef.action(0), target=1, delay=2, coefficient=0.7, form=Form.LINEAR)
        ),
        hypothesis_to_row(StructuralBreak(keep=8)),
    ]
    report = {"triggered": True, "epsilon": 1.0, "tau": 0.5, "candidates": [], "accepted": accepted}
    e = explain_reflection(10, report)
    assert "the perturbation estimate was set to 0.3" in e.text
    assert "edge 0 took coefficient -1.5" in e.text
    assert "edge 0 took delay 3" in e.text
    assert "edge 1 was removed" in e.text
    assert (
        "a action[0] link to state dimension 1 was added with delay 2 "
        "and coefficient 0.7" in e.text
    )
    assert "keeping the last 8 transitions" in e.text
    assert is_grounded(e)


# ---- faithfulness across random models ------------------------------------


def test_every_template_output_is_grounded():
    rng = np.random.default_rng(20260825)
    for _ in range(60):
        graph = random_graph(rng, d_state=int(rng.integers(1, 4)), d_action=int(rng.integers(1, 3)))
        m = CausalModel(graph=graph, delta_hat=float(rng.uniform(-3.0, 3.0)))
        t = tup(
            rng.uniform(-5.0, 5.0, size=graph.d_state),
            rng.uniform(-2.0, 2.0, size=graph.d_action),
            tick=int(rng.integers(0, 500)),
        )
        assert is_grounded(explain_transition(m, t))
        assert is_grounded(explain_counterfactual(m, t, float(rng.uniform(-2.0, 2.0))))


# ---- prompt bundle and the LLM adapter ------------------------------------


@pytest.fixture()
def record():
    trace = run_episode(builtin_scenarios()["calm"], RandomPolicy(), seed=0, length=3)
    return trace.records[0]


FACTS_EDITS = [
    EdgeAdd(source=VarRef.state(1), target=0, delay=2, form=Form.LINEAR, coefficient=0.7),
    CoefChange(edge_index=0, new_coefficient=-1.5),
    StructuralBreak(keep=8),
]
FACTS_BLOCK = {
    "triggered": True,
    "epsilon": 0.5,
    "tau": 0.1,
    "candidates": [hypothesis_to_row(h) + [score] for h, score in zip(FACTS_EDITS, (2.5, 1.0, -0.25))],
    "accepted": [hypothesis_to_row(FACTS_EDITS[1])],
}


LABELLED_BLOCK = {
    "triggered": True,
    "epsilon": 0.5,
    "tau": 0.1,
    "candidates": [
        {
            "kind": "edge_add",
            "source": {"kind": "state", "index": 1},
            "target": 0,
            "delay": 2,
            "form": "linear",
            "coefficient": 0.7,
            "score": 2.5,
        },
        {"kind": "coef_change", "edge_index": 0, "new_coefficient": -1.5, "score": 1.0},
        {"kind": "structural_break", "keep": 8, "score": -0.25},
    ],
    "accepted": [{"kind": "coef_change", "edge_index": 0, "new_coefficient": -1.5}],
}


def test_render_prompt_flattens_facts(record):
    """The facts are the record.  The trace's rows become labelled objects
    there, in the record's one reflect block: each candidate its edit's
    kind and field names with its score, each accepted edit the same
    without one."""
    bundle = render_prompt(record)
    flat = bundle.flatten()
    assert flat.startswith(SYSTEM_PREAMBLE)
    assert flat.endswith(INSTRUCTION)
    assert "FACTS:" in flat
    assert canonical_json(bundle.facts) in flat
    assert set(bundle.facts) == {"record"}
    assert bundle.facts["record"]["reflect"] is None

    record = record._replace(reflect=FACTS_BLOCK)
    with_block = render_prompt(record)
    assert set(with_block.facts) == {"record"}
    assert with_block.facts["record"]["reflect"] == LABELLED_BLOCK
    flat = with_block.flatten()
    assert canonical_json(with_block.facts) in flat
    assert flat.count(canonical_json(LABELLED_BLOCK)) == flat.count('"candidates"') == 1
    assert record.reflect == FACTS_BLOCK  # the record itself keeps its rows


def test_render_prompt_states_every_field_of_a_later_record():
    """A trace line after tick 0 writes neither the state nor the delta
    estimate, so the facts come from the record read back: every field by
    name, in declaration order, vectors as lists.  Ticks 5 and 47 of this
    run; the loop's delta estimate is nonzero from tick 46 on."""
    sc = builtin_scenarios()["productivity"]
    trace = trace_from_lines(trace_to_lines(run_episode(sc, RandomPolicy(), seed=1, length=60)))
    assert trace.records[47].delta_hat != 0.0
    for tick in (5, 47):
        record = trace.records[tick]
        facts = render_prompt(record).facts["record"]
        assert list(facts) == list(TraceRecord._fields)
        assert facts["state"] == list(record.state.values) == list(trace.records[tick - 1].observed.values)
        assert facts["delta_hat"] == record.delta_hat
        assert facts["per_dim"] == list(record.per_dim) and facts["model_digest"] == record.model_digest


@pytest.mark.parametrize(
    "candidate",
    [["coef_change", 0, -1.5], ["edge_add", "state", 1, 0, 2, "linear", 0.7], ["coef_change", 0, -1.5, "x"]],
    ids=["no-score", "edge_add-no-score", "score-string"],
)
def test_render_prompt_refuses_a_candidate_row_it_cannot_label(record, candidate):
    record = record._replace(reflect={**FACTS_BLOCK, "candidates": [candidate]})
    with pytest.raises(InputError, match=f"tick {record.tick}: malformed reflect block"):
        render_prompt(record)


def test_llm_unconfigured(monkeypatch, record):
    monkeypatch.delenv("EXPLAIN_LLM_URL", raising=False)
    assert not llm_configured()
    with pytest.raises(ConfigError):
        narrate_via_llm(render_prompt(record))


POST = "causalloop.explain._post_json"


def test_llm_round_trip(monkeypatch, record):
    monkeypatch.setenv("EXPLAIN_LLM_URL", "http://example.invalid/narrate")
    monkeypatch.delenv("EXPLAIN_LLM_KEY", raising=False)
    seen = {}

    def fake_post(url, payload, headers, timeout):
        seen.update(url=url, json=payload, headers=headers, timeout=timeout)
        return 200, b'{"text": "All calm."}'

    monkeypatch.setattr(POST, fake_post)
    bundle = render_prompt(record)
    assert llm_configured()
    assert narrate_via_llm(bundle, max_tokens=64) == "All calm."
    assert seen["url"] == "http://example.invalid/narrate"
    assert seen["json"] == {"prompt": bundle.flatten(), "max_tokens": 64}
    assert "Authorization" not in seen["headers"]


def test_llm_sends_bearer_key(monkeypatch, record):
    monkeypatch.setenv("EXPLAIN_LLM_URL", "http://example.invalid/narrate")
    monkeypatch.setenv("EXPLAIN_LLM_KEY", "sekrit")
    seen = {}

    def fake_post(url, payload, headers, timeout):
        seen["headers"] = headers
        return 200, b'{"text": "ok"}'

    monkeypatch.setattr(POST, fake_post)
    narrate_via_llm(render_prompt(record))
    assert seen["headers"]["Authorization"] == "Bearer sekrit"


@pytest.mark.parametrize(
    "response",
    [
        (500, b'{"text": "nope"}'),
        (200, b"not json"),
        (200, b'{"output": "wrong key"}'),
        (200, b'{"text": 7}'),
    ],
)
def test_llm_rejects_bad_responses(monkeypatch, record, response):
    monkeypatch.setenv("EXPLAIN_LLM_URL", "http://example.invalid/narrate")

    monkeypatch.setattr(POST, lambda *a, **k: response)
    with pytest.raises(InputError):
        narrate_via_llm(render_prompt(record))


def test_post_json_over_http(monkeypatch, record, tmp_path, capsys):
    """The stdlib POST against a local server: body, headers, status.  Then
    ``causalloop explain --llm`` against it, at a tick with a reflect
    block: the prompt it posts names each candidate row once."""
    seen = {}

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            seen.update(json=json.loads(body), auth=self.headers.get("Authorization"))
            self.send_response(200 if self.path == "/ok" else 503)
            self.end_headers()
            self.wfile.write(b'{"text": "over the wire"}')

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        monkeypatch.setenv("EXPLAIN_LLM_URL", base + "/ok")
        monkeypatch.setenv("EXPLAIN_LLM_KEY", "sekrit")
        bundle = render_prompt(record)
        assert narrate_via_llm(bundle, max_tokens=8) == "over the wire"
        assert seen == {"json": {"prompt": bundle.flatten(), "max_tokens": 8}, "auth": "Bearer sekrit"}
        monkeypatch.setenv("EXPLAIN_LLM_URL", base + "/down")
        with pytest.raises(InputError, match="status 503"):
            narrate_via_llm(bundle)

        path = tmp_path / "t.jsonl"
        assert main(["run", "calm", "--seed", "0", "--length", "4", "--trace", str(path)]) == 0
        lines = path.read_text().splitlines()
        lines[3] = json.dumps({**json.loads(lines[3]), "reflect": FACTS_BLOCK})  # tick 2
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setenv("EXPLAIN_LLM_URL", base + "/ok")
        capsys.readouterr()
        assert main(["explain", str(path), "--tick", "2", "--llm"]) == 0
        assert capsys.readouterr().out == "over the wire\n"
        prompt = seen["json"]["prompt"]
        for row in LABELLED_BLOCK["candidates"]:
            assert prompt.count(canonical_json(row)) == 1, row
        assert prompt.count('"candidates"') == 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    with pytest.raises(InputError, match="cannot reach"):
        narrate_via_llm(bundle, timeout=2.0)
