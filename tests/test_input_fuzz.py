"""The input boundary under fuzzing: one field of a valid trace line,
model snapshot or scenario dict replaced by an arbitrary JSON value, and
the bytes of a valid trace or scenario file damaged (truncated, a byte
changed, bytes that are not UTF-8 put in, trace lines dropped, repeated or
swapped).

Only :class:`CausalLoopError` subclasses may escape ``read_trace``,
``evaluate_trace``, ``model_from_snapshot``, ``load_scenario``,
``scenario_from_dict`` and a scenario's ``validate``, only
:class:`ConfigError` may escape ``policy_from_dict``, which reads a trace
header's policy for replay, and a CLI command that reads the refused input
exits 2.  A reflect block, with a row of
every edit kind among its candidates and accepted edits, is refused only
with :class:`InputError`, by evaluate and explain alike.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalloop.agent import (
    CyclicPolicy,
    ProbePolicy,
    RandomPolicy,
    ScriptedPolicy,
    policy_from_dict,
    policy_to_dict,
    run_episode,
)
from causalloop.cli import main
from causalloop.core import CausalLoopError, ConfigError, DomainError, InputError
from causalloop.evaluate import evaluate_trace
from causalloop.explain import explain_reflection
from causalloop.model import model_from_snapshot
from causalloop.reflect import (
    CoefChange,
    DelayChange,
    DeltaShift,
    EdgeAdd,
    EdgeRemove,
    StructuralBreak,
    hypothesis_to_row,
)
from causalloop.scenario import builtin_scenarios, load_scenario, scenario_from_dict, scenario_to_dict
from causalloop.trace import read_trace, trace_from_lines, trace_to_lines
from causalloop.world import Form, ScheduledBreak, Spike, VarRef

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(2**1024), 2**63])
    | st.floats()
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

CALM = builtin_scenarios()["calm"]
TRACE_LINES = [json.loads(ln) for ln in trace_to_lines(run_episode(CALM, RandomPolicy(), seed=0, length=3))]
# Every reader of a scenario: breaks, a spike perturbation and an agent graph.
SCENARIO = json.loads(
    json.dumps(
        scenario_to_dict(
            replace(
                CALM,
                breaks=(ScheduledBreak(5, CALM.graph),),
                perturbation=Spike(prob=0.1, magnitude=0.5),
            )
        )
    )
)


def paths(value, prefix=()):
    """Every place in a JSON value that one field could be replaced at."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# A top-level field half the time, any place the other half.
TRACE_PATHS = st.sampled_from([(i, key) for i, line in enumerate(TRACE_LINES) for key in line]) | st.sampled_from(
    [(i,) + p for i, line in enumerate(TRACE_LINES) for p in paths(line)]
)
SCENARIO_PATHS = st.sampled_from([(key,) for key in SCENARIO]) | st.sampled_from(list(paths(SCENARIO)))


@settings(max_examples=150, deadline=None)
@given(TRACE_PATHS, JSON_VALUES)
def test_only_causalloop_errors_escape_read_trace(path, value):
    lines = list(TRACE_LINES)
    lines[path[0]] = replaced(lines[path[0]], path[1:], value)
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "t.jsonl")
        with open(file, "w") as fh:
            fh.write("\n".join(json.dumps(ln) for ln in lines) + "\n")
        try:
            read_trace(file)
        except CausalLoopError:
            assert main(["evaluate", file, "calm"]) == 2


# The tick-0 record's model snapshot: the trace reader checks only that it
# is an object, so its contents are read by evaluate and explain.
SNAPSHOT = TRACE_LINES[1]["model_snapshot"]
SNAPSHOT_PATHS = st.sampled_from([(key,) for key in SNAPSHOT]) | st.sampled_from(list(paths(SNAPSHOT)))


@settings(max_examples=150, deadline=None)
@given(SNAPSHOT_PATHS, JSON_VALUES, st.booleans())
def test_only_causalloop_errors_escape_reading_a_model_snapshot(path, value, later):
    """The doctored snapshot is tick 0's, or (``later``) tick 2's, which
    evaluate must read too; tick 2 takes tick 0's digest beside it.
    Evaluate refuses exactly what explain's snapshot reader refuses, and a
    snapshot graph whose dimensions are not the scenario's.  Ticks 1 and 2
    take tick 0's delta_hat, so the trace reader refuses one they cannot
    take; no record takes tick 2's."""
    lines = list(TRACE_LINES)
    at = 3 if later else 1
    digest = TRACE_LINES[1]["model_digest"]
    lines[at] = {**lines[at], "model_digest": digest, "model_snapshot": replaced(SNAPSHOT, path, value)}
    text = [json.dumps(ln) for ln in lines]
    try:
        trace = trace_from_lines(text)
    except InputError as exc:
        assert not later and path == ("delta_hat",) and "the last model snapshot's delta_hat" in str(exc)
        with tempfile.TemporaryDirectory() as tmp:
            file = os.path.join(tmp, "t.jsonl")
            with open(file, "w") as fh:
                fh.write("\n".join(text) + "\n")
            for argv in (["evaluate", file, "calm"], ["explain", file, "--tick", "0"]):
                assert main(argv) == 2, argv
        return
    readers = {
        "evaluate": lambda: evaluate_trace(trace, CALM),
        "explain": lambda: model_from_snapshot(trace.records[at - 1].model_snapshot),
    }
    refused, read = [], {}
    for command, reader in readers.items():
        try:
            read[command] = reader()
        except CausalLoopError:
            refused.append(command)
    if "explain" not in refused:
        graph = read["explain"].graph
        assert ("evaluate" in refused) == ((graph.d_state, graph.d_action) != (CALM.d_state, CALM.d_action))
    else:
        assert "evaluate" in refused
    if later and "explain" in refused:
        refused.remove("explain")  # ``causalloop explain --tick 0`` reads tick 0's snapshot
    if refused:
        with tempfile.TemporaryDirectory() as tmp:
            file = os.path.join(tmp, "t.jsonl")
            with open(file, "w") as fh:
                fh.write("\n".join(text) + "\n")
            for command in refused:
                argv = [command, file, "calm"] if command == "evaluate" else [command, file, "--tick", "0"]
                assert main(argv) == 2, argv


# A reflect block with a row of every edit kind, set on tick 1's record: the
# trace reader checks only that it is an object, so evaluate and explain
# read its contents.
EDITS = [
    DeltaShift(0.25),
    CoefChange(0, -1.5),
    DelayChange(0, 2),
    EdgeRemove(0),
    EdgeAdd(VarRef.state(0), 0, 2, Form.LINEAR, 0.5),
    StructuralBreak(4),
]
BLOCK = {
    "triggered": True,
    "epsilon": 0.5,
    "tau": 0.1,
    "candidates": [hypothesis_to_row(h) + [1.0 - i] for i, h in enumerate(EDITS)],
    "accepted": list(map(hypothesis_to_row, EDITS)),
}
BLOCK_PATHS = st.sampled_from([(key,) for key in BLOCK]) | st.sampled_from(list(paths(BLOCK)))


def test_the_reflect_block_the_fuzzer_spoils_is_read(tmp_path, capsys):
    lines = list(TRACE_LINES)
    lines[2] = {**lines[2], "reflect": BLOCK}
    file = tmp_path / "t.jsonl"
    file.write_text("\n".join(map(json.dumps, lines)) + "\n")
    assert main(["evaluate", str(file), "calm"]) == 0
    assert main(["explain", str(file), "--tick", "1"]) == 0
    assert "6 candidate repairs were scored and 6 accepted" in capsys.readouterr().out


@settings(max_examples=200, deadline=None)
@given(BLOCK_PATHS, JSON_VALUES)
def test_only_input_errors_escape_reading_a_reflect_block(path, value):
    """Evaluate and explain read a reflect block through one reader, so
    they refuse the same blocks, each with InputError, and the CLI exits 2
    for each refused one."""
    lines = list(TRACE_LINES)
    lines[2] = {**lines[2], "reflect": replaced(BLOCK, path, value)}
    text = [json.dumps(ln) for ln in lines]
    trace = trace_from_lines(text)
    readers = {
        "evaluate": lambda: evaluate_trace(trace, CALM),
        "explain": lambda: explain_reflection(1, trace.records[1].reflect),
    }
    refused = []
    for command, reader in readers.items():
        try:
            reader()
        except InputError:
            refused.append(command)
    assert refused in ([], list(readers))
    if refused:
        with tempfile.TemporaryDirectory() as tmp:
            file = os.path.join(tmp, "t.jsonl")
            with open(file, "w") as fh:
                fh.write("\n".join(text) + "\n")
            assert main(["evaluate", file, "calm"]) == 2
            assert main(["explain", file, "--tick", "1"]) == 2


@settings(max_examples=150, deadline=None)
@given(SCENARIO_PATHS, JSON_VALUES)
def test_only_causalloop_errors_escape_scenario_from_dict(path, value):
    doc = replaced(SCENARIO, path, value)
    try:
        scenario_from_dict(doc)
    except CausalLoopError:
        with tempfile.TemporaryDirectory() as tmp:
            file = os.path.join(tmp, "s.json")
            with open(file, "w") as fh:
                json.dump(doc, fh)
            assert main(["run", file, "--seed", "0", "--length", "2"]) == 2


# A trace header's policy of every kind: only replay reads it.
POLICIES = [
    policy_to_dict(p)
    for p in (RandomPolicy(-0.5, 0.5), CyclicPolicy(((1.0,), (-1.0,))), ProbePolicy(2.0), ScriptedPolicy(((0.5,),) * 3))
]


@st.composite
def damaged_policies(draw):
    """A policy of one kind with its kind or one other place replaced by an
    arbitrary JSON value, often another kind's name or a value of another
    kind's field."""
    policy = draw(st.sampled_from(POLICIES))
    path = draw(st.just(("kind",)) | st.sampled_from(list(paths(policy))))
    other = draw(st.sampled_from(POLICIES))
    return replaced(policy, path, draw(JSON_VALUES | st.sampled_from(list(other.values()))))


@settings(max_examples=150, deadline=None)
@given(damaged_policies())
@example({"kind": ["random"], "low": -1.0, "high": 1.0})
@example({"kind": {"random": 1}, "low": -1.0, "high": 1.0})
@example({"kind": 1, "magnitude": 1.0})
def test_only_config_errors_escape_reading_a_header_policy(policy):
    lines = [{**TRACE_LINES[0], "policy": policy}] + TRACE_LINES[1:]
    try:
        policy_from_dict(policy)
    except ConfigError:
        refused = True
    else:
        refused = False
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "t.jsonl")
        with open(file, "w") as fh:
            fh.write("\n".join(json.dumps(ln) for ln in lines) + "\n")
        assert main(["replay", file, "calm"]) in ((2,) if refused else (0, 2))


TRACE_BYTES = "".join(ln + "\n" for ln in trace_to_lines(run_episode(CALM, RandomPolicy(), seed=0, length=3))).encode()
SCENARIO_BYTES = json.dumps(SCENARIO, indent=2).encode()
NOT_UTF8 = [b"\xff", b"\xfe\xff", b"\xc3", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82", b"\xf4\x90\x80\x80"]


@st.composite
def damaged(draw, data):
    """``data`` with one kind of damage done to it."""
    how = draw(st.sampled_from(["truncate", "byte", "not_utf8", "drop", "repeat", "swap"]))
    at = draw(st.integers(0, len(data) - 1))
    if how == "truncate":
        return data[:at]
    if how == "byte":
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1 :]
    if how == "not_utf8":
        return data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    lines = data.splitlines(keepends=True)
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    if how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[j])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)


@settings(max_examples=150, deadline=None)
@given(damaged(TRACE_BYTES))
def test_only_causalloop_errors_escape_reading_damaged_trace_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "t.jsonl")
        with open(file, "wb") as fh:
            fh.write(data)
        try:
            read_trace(file)
        except CausalLoopError:
            for argv in (["evaluate", file, "calm"], ["replay", file, "calm"], ["explain", file, "--tick", "0"]):
                assert main(argv) == 2, argv
        else:
            assert main(["evaluate", file, "calm"]) in (0, 2)


@settings(max_examples=100, deadline=None)
@given(damaged(SCENARIO_BYTES))
def test_only_causalloop_errors_escape_loading_damaged_scenario_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "s.json")
        with open(file, "wb") as fh:
            fh.write(data)
        try:
            load_scenario(file)
        except CausalLoopError:
            assert main(["run", file, "--seed", "0", "--length", "2"]) == 2
        else:
            assert main(["run", file, "--seed", "0", "--length", "2"]) == 0


# ---------------------------------------------------------------------------
# Trace format 7: the refusals of what the reader rebuilds.
# ---------------------------------------------------------------------------


@st.composite
def format_7_damage(draw):
    """``TRACE_LINES`` with one record's snapshot, digest, rebuilt values or
    loss inputs damaged: a snapshot dropped with its digest, a digest dropped
    or set to any JSON value, ``epsilon`` or ``per_dim`` written, a
    prediction or observation of another length, or one whose squared error
    is near or beyond the float range."""
    lines = json.loads(json.dumps(TRACE_LINES))
    d = lines[draw(st.integers(1, len(lines) - 1))]
    how = draw(st.sampled_from(["bare", "drop_digest", "digest", "rebuilt", "length", "overflow"]))
    if how == "bare":
        d.pop("model_digest", None)
        d.pop("model_snapshot", None)
    elif how == "drop_digest":
        d.pop("model_digest", None)
    elif how == "digest":
        d["model_digest"] = draw(JSON_VALUES)
    elif how == "rebuilt":
        d[draw(st.sampled_from(["epsilon", "per_dim"]))] = draw(JSON_VALUES)
    elif how == "length":
        d[draw(st.sampled_from(["predicted_next", "observed"]))] = draw(st.lists(st.floats(-1e3, 1e3), max_size=4))
    else:
        big = draw(st.floats(1e150, 1e308))
        d["predicted_next"], d["observed"] = [big, draw(st.floats(-1e308, 1e308))], [-big, 0.0]
    return lines


@settings(max_examples=100, deadline=None)
@given(format_7_damage())
def test_only_input_and_domain_errors_escape_reading_what_format_7_rebuilds(lines):
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "t.jsonl")
        with open(file, "w") as fh:
            fh.write("\n".join(json.dumps(ln) for ln in lines) + "\n")
        try:
            read_trace(file)
        except (InputError, DomainError):
            for argv in (["evaluate", file, "calm"], ["replay", file, "calm"], ["explain", file, "--tick", "0"]):
                assert main(argv) == 2, argv
        else:
            assert main(["evaluate", file, "calm"]) == 0


@st.composite
def format_8_damage(draw):
    """``TRACE_LINES`` with one record's taken or left-out fields damaged: a
    state or delta estimate dropped from tick 0 or written on a later
    record, a null optional field written, or tick 0's snapshot delta
    estimate, which ticks 1 and 2 take, dropped or replaced."""
    lines = json.loads(json.dumps(TRACE_LINES))
    i = draw(st.integers(1, len(lines) - 1))
    d = lines[i]
    how = draw(st.sampled_from(["drop_first", "add_later", "null", "snapshot_delta"]))
    if how == "drop_first":
        del lines[1][draw(st.sampled_from(["state", "delta_hat"]))]
    elif how == "add_later":
        d[draw(st.sampled_from(["state", "delta_hat"]))] = draw(JSON_VALUES | st.floats(-11.0, 11.0))
    elif how == "null":
        d[draw(st.sampled_from(["reflect", "fit_event", "model_snapshot"]))] = None
    elif draw(st.booleans()):
        del lines[1]["model_snapshot"]["delta_hat"]
    else:
        lines[1]["model_snapshot"]["delta_hat"] = draw(
            JSON_VALUES | st.floats() | st.sampled_from([10.0, -10.000000000000002, 11, 10**400, True])
        )
    return lines


@settings(max_examples=100, deadline=None)
@given(format_8_damage())
def test_only_input_and_domain_errors_escape_reading_what_format_8_rebuilds(lines):
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "t.jsonl")
        with open(file, "w") as fh:
            fh.write("\n".join(json.dumps(ln) for ln in lines) + "\n")
        try:
            read_trace(file)
        except (InputError, DomainError):
            for argv in (["evaluate", file, "calm"], ["replay", file, "calm"], ["explain", file, "--tick", "0"]):
                assert main(argv) == 2, argv
        else:
            assert main(["evaluate", file, "calm"]) == 0


# ---------------------------------------------------------------------------
# Every accepted scenario runs: damaged numeric fields and perturbations of
# the bundled scenarios that the reader and ``validate`` accept.
# ---------------------------------------------------------------------------


BUNDLED = [json.loads(json.dumps(scenario_to_dict(sc))) for sc in builtin_scenarios().values()]
NUMBERS = (
    st.sampled_from([0, 1, -1, 2, 0.0, -0.0, -0.5, 0.5, 1e-300, -1e-9, 3.0, 10.0, 11.0, 1e6, 1e300, -1e300, 2**31])
    | st.floats(-1e3, 1e3)
    | st.integers(-5, 300)
)
PERTURBATIONS = (
    st.just({"kind": "none"})
    | st.builds(lambda s: {"kind": "gaussian_walk", "sigma_delta": s}, NUMBERS | st.floats())
    | st.builds(lambda p, m: {"kind": "spike", "prob": p, "magnitude": m}, st.floats(0, 1) | NUMBERS, NUMBERS)
)


def _numeric_paths(doc):
    def value(path):
        node = doc
        for key in path:
            node = node[key]
        return node

    # Dimensions and the format are left alone: a change to one is refused.
    return [p for p in paths(doc) if type(value(p)) in (int, float) and p[-1] not in _FIXED]


_FIXED = {"format_version", "d_state", "d_action"}


@st.composite
def damaged_scenarios(draw):
    """A bundled scenario with up to two numeric fields replaced, and
    sometimes its perturbation, each by a number at the edge of a range."""
    doc = json.loads(json.dumps(draw(st.sampled_from(BUNDLED))))
    for _ in range(draw(st.integers(0, 2))):
        doc = replaced(doc, draw(st.sampled_from(_numeric_paths(doc))), draw(NUMBERS))
    if draw(st.booleans()):
        doc["perturbation"] = draw(PERTURBATIONS)
    return doc


@settings(max_examples=80, deadline=None)
@given(damaged_scenarios(), st.integers(0, 2**16))
@example({**BUNDLED[0], "perturbation": {"kind": "gaussian_walk", "sigma_delta": -1.0}}, 0)
def test_only_causalloop_errors_escape_running_an_accepted_scenario(doc, seed):
    """A scenario that ``scenario_from_dict`` accepts (built, so checked) runs a
    short episode with and without reflect, then ``evaluate_trace``, and
    only a :class:`CausalLoopError` may end it."""
    try:
        sc = scenario_from_dict(doc)
    except CausalLoopError:
        return
    for reflect in (False, True):
        try:
            evaluate_trace(run_episode(sc, RandomPolicy(), seed, 30, reflect), sc)
        except CausalLoopError:
            pass
