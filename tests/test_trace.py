"""Trace serialization: bit-exact floats, JSONL framing, atomic writes."""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

from causalloop.agent import RandomPolicy, run_episode
from causalloop.core import ActionVec, DomainError, InputError, StateVec
from causalloop.scenario import builtin_scenarios
from causalloop.trace import (
    TRACE_FORMAT_VERSION,
    TraceRecord,
    read_trace,
    record_from_dict,
    record_to_dict,
    trace_to_lines,
    write_trace,
)


def awkward_record():
    # values chosen for ugly binary representations
    return TraceRecord(
        tick=3,
        state=StateVec((0.1, 1.0 / 3.0)),
        action=ActionVec((1e-17,)),
        delta_hat=0.30000000000000004,
        true_delta=-2.2250738585072014e-308,
        predicted_next=StateVec((0.30000000000000004, 0.2857142857142857)),
        observed=StateVec((-0.0, 3.141592653589793)),
        epsilon=1.2345678901234567e-5,
        per_dim=(1e-300, 2.4691357802469134e-5),
        reflect=None,
        fit_event=None,
        model_digest="abcd",
        model_snapshot=None,
    )


def test_record_round_trip_is_bit_exact():
    rec = awkward_record()
    line = json.dumps(record_to_dict(rec))
    back = record_from_dict(json.loads(line))
    assert record_to_dict(back) == record_to_dict(rec)
    assert back.state.values == rec.state.values
    assert back.true_delta == rec.true_delta
    assert back.predicted_next.values == rec.predicted_next.values


def test_record_constructor_takes_exactly_the_fields():
    names = [f.name for f in dataclasses.fields(TraceRecord)]
    assert list(inspect.signature(TraceRecord).parameters) == names
    rec = awkward_record()
    values = [getattr(rec, name) for name in names]
    positional = TraceRecord(*values)
    assert positional == rec and repr(positional) == repr(rec) and hash(positional) == hash(rec)
    assert record_to_dict(positional) == record_to_dict(rec)
    assert dataclasses.replace(rec, tick=4) == TraceRecord(4, *values[1:])
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.tick = 4
    with pytest.raises(TypeError):
        TraceRecord(*values[:-1])


@pytest.mark.parametrize("bad", [10.000000000000002, -11, 1e308])
def test_record_delta_hat_beyond_delta_max_is_refused(bad):
    d = json.loads(json.dumps(record_to_dict(awkward_record())))
    d["delta_hat"] = bad
    with pytest.raises(InputError, match="malformed trace record: delta_hat is .* beyond DELTA_MAX"):
        record_from_dict(d)
    for edge in (10, -10.0):  # the range's ends are in it
        d["delta_hat"] = edge
        assert record_from_dict(d).delta_hat == edge


@pytest.mark.parametrize("field", ["state", "action", "predicted_next", "observed"])
@pytest.mark.parametrize("text", ["[NaN]", "[1.0, Infinity]"])
def test_record_state_elements_must_be_finite(field, text):
    d = json.loads(json.dumps(record_to_dict(awkward_record())))
    d[field] = json.loads(text)
    with pytest.raises(DomainError, match="non-finite value"):
        record_from_dict(d)


@pytest.mark.parametrize("field", ["state", "action", "predicted_next", "observed", "per_dim"])
@pytest.mark.parametrize("bad", ["12", {"0": 1.0}, 3.0, ["1"], [True], [None], [10**400]])
def test_record_vectors_must_be_lists(field, bad):
    d = json.loads(json.dumps(record_to_dict(awkward_record())))
    d[field] = bad
    with pytest.raises(InputError, match="malformed trace record"):
        record_from_dict(d)


@pytest.mark.parametrize("text", ["[NaN, Infinity]", "[1e-300, -Infinity]", "[NaN]"])
def test_record_per_dim_elements_must_be_finite(text):
    d = json.loads(json.dumps(record_to_dict(awkward_record())))
    d["per_dim"] = json.loads(text)  # Python's JSON parser accepts NaN and Infinity
    with pytest.raises(InputError, match="malformed trace record: per_dim element is not finite"):
        record_from_dict(d)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("tick", "1"),
        ("tick", 1.0),
        ("tick", True),
        ("delta_hat", "0.5"),
        ("delta_hat", None),
        ("true_delta", False),
        ("epsilon", "0.5"),
        ("epsilon", float("nan")),
        ("epsilon", 10**400),
        ("fit_event", 5),
        ("fit_event", ["applied"]),
        ("model_digest", None),
        ("model_digest", 12),
    ],
)
def test_record_scalars_must_have_their_json_type(field, bad):
    d = json.loads(json.dumps(record_to_dict(awkward_record())))
    d[field] = bad
    with pytest.raises(InputError, match=f"malformed trace record: {field} is"):
        record_from_dict(d)


def test_record_numbers_may_be_json_ints():
    d = json.loads(json.dumps(record_to_dict(awkward_record())))
    d.update(delta_hat=0, true_delta=-1, epsilon=2, fit_event="applied")
    back = record_from_dict(d)
    assert (back.delta_hat, back.true_delta, back.epsilon) == (0.0, -1.0, 2.0)
    assert type(back.epsilon) is float
    assert back.fit_event == "applied"


def test_read_refuses_an_int_too_long_to_convert(tmp_path):
    sc = builtin_scenarios()["calm"]
    lines = trace_to_lines(run_episode(sc, RandomPolicy(), seed=1, length=2))
    lines[1] = lines[1].replace('"tick": 0', '"tick": ' + "9" * 5000)
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="line 2"):
        read_trace(str(path))


def test_write_read_round_trip(tmp_path):
    sc = builtin_scenarios()["calm"]
    trace = run_episode(sc, RandomPolicy(), seed=1, length=25)
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    back = read_trace(str(path))
    assert back.header == trace.header
    assert len(back.records) == 25
    for a, b in zip(trace.records, back.records):
        assert record_to_dict(a) == record_to_dict(b)


def test_trace_lines_start_with_header():
    sc = builtin_scenarios()["calm"]
    trace = run_episode(sc, RandomPolicy(), seed=1, length=3)
    lines = trace_to_lines(trace)
    assert len(lines) == 4
    head = json.loads(lines[0])
    assert head["format_version"] == TRACE_FORMAT_VERSION
    assert head["scenario_name"] == "calm"
    assert json.loads(lines[1])["kind"] == "record"


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(InputError):
        read_trace(str(path))


def test_read_reports_bad_line(tmp_path):
    sc = builtin_scenarios()["calm"]
    trace = run_episode(sc, RandomPolicy(), seed=1, length=3)
    lines = trace_to_lines(trace)
    lines[2] = "{not json"
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError) as exc_info:
        read_trace(str(path))
    assert "line 3" in str(exc_info.value)


def test_read_rejects_unknown_format_version(tmp_path):
    sc = builtin_scenarios()["calm"]
    trace = run_episode(sc, RandomPolicy(), seed=1, length=2)
    lines = trace_to_lines(trace)
    head = json.loads(lines[0])
    path = tmp_path / "t.jsonl"
    # 1: records that still carry the horizon map; 2: predictions that sum
    # edge effects onto the state one by one
    for version in (1, 2, 99):
        head["format_version"] = version
        lines[0] = json.dumps(head)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=f"format_version {version}"):
            read_trace(str(path))


def test_write_replaces_existing_file_atomically(tmp_path):
    sc = builtin_scenarios()["calm"]
    trace = run_episode(sc, RandomPolicy(), seed=1, length=2)
    path = tmp_path / "t.jsonl"
    path.write_text("stale junk\n")
    write_trace(trace, str(path))
    back = read_trace(str(path))
    assert len(back.records) == 2
    # no temp droppings left behind
    assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]
