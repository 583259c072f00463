"""Trace serialization: bit-exact floats, JSONL framing, atomic writes."""

from __future__ import annotations

import json

import pytest

from causalloop.agent import RandomPolicy, run_episode
from causalloop.core import ActionVec, InputError, StateVec
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


@pytest.mark.parametrize("field", ["state", "action", "predicted_next", "observed", "per_dim"])
@pytest.mark.parametrize("bad", ["12", {"0": 1.0}, 3.0, ["1"], [True], [None], [10**400]])
def test_record_vectors_must_be_lists(field, bad):
    d = json.loads(json.dumps(record_to_dict(awkward_record())))
    d[field] = bad
    with pytest.raises(InputError, match="malformed trace record"):
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
