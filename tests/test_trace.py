"""Trace serialization: bit-exact floats, JSONL framing, atomic writes."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import math
import re
from types import NoneType
from typing import get_args

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import random_scenario
from test_input_fuzz import JSON_VALUES, paths, replaced

from causalloop.agent import RandomPolicy, run_episode
import causalloop.trace as trace_mod
from causalloop.core import (
    DELTA_MAX,
    ActionVec,
    CausalLoopError,
    DimensionError,
    DomainError,
    InputError,
    StateVec,
    loss,
)
from causalloop.reflect import Hypothesis
from causalloop.scenario import builtin_scenarios, json_number, json_typed
from causalloop.trace import (
    TRACE_FORMAT_VERSION,
    TraceRecord,
    read_trace,
    record_from_dict,
    record_to_dict,
    trace_from_lines,
    trace_to_lines,
    write_trace,
)


def awkward_record():
    # values chosen for ugly binary representations; tick 0, the one record
    # that writes its state and delta estimate; a snapshot, so the record
    # gives its own digest
    predicted_next = StateVec((0.30000000000000004, 0.2857142857142857))
    observed = StateVec((-0.0, 3.141592653589793))
    err = loss(predicted_next, observed)
    return TraceRecord(
        tick=0,
        state=StateVec((0.1, 1.0 / 3.0)),
        action=ActionVec((1e-17,)),
        delta_hat=0.30000000000000004,
        true_delta=-2.2250738585072014e-308,
        predicted_next=predicted_next,
        observed=observed,
        epsilon=err.epsilon,
        per_dim=err.per_dim,
        reflect=None,
        fit_event=None,
        model_digest="abcd",
        model_snapshot={"delta_hat": 0.30000000000000004},
    )


def test_record_round_trip_is_bit_exact():
    rec = awkward_record()
    line = json.dumps(record_to_dict(rec))
    back = record_from_dict(json.loads(line))
    assert back == rec
    assert record_to_dict(back) == record_to_dict(rec)
    assert back.state.values == rec.state.values
    assert back.true_delta == rec.true_delta
    assert back.predicted_next.values == rec.predicted_next.values
    # A later record takes the previous record's observation and the last
    # snapshot's delta estimate.
    later = dataclasses.replace(rec, tick=4, state=rec.observed, model_snapshot=None)
    assert set(record_to_dict(later)) == {"kind", "tick", "action", "true_delta", "predicted_next", "observed"}
    back = record_from_dict(json.loads(json.dumps(record_to_dict(later))), rec, rec.model_snapshot)
    assert back == later and back.state is rec.observed


def test_record_constructor_takes_exactly_the_fields():
    names = [f.name for f in dataclasses.fields(TraceRecord)]
    assert list(inspect.signature(TraceRecord).parameters) == names
    rec = dataclasses.replace(awkward_record(), model_snapshot=None)  # a snapshot, a dict, does not hash
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


# A record holds no per_dim: one that holds any is refused.
@pytest.mark.parametrize("field", ["state", "action", "predicted_next", "observed", "per_dim"])
@pytest.mark.parametrize("bad", ["12", {"0": 1.0}, 3.0, ["1"], [True], [None], [10**400]])
def test_record_vectors_must_be_lists(field, bad):
    d = json.loads(json.dumps(record_to_dict(awkward_record())))
    d[field] = bad
    with pytest.raises(InputError, match="malformed trace record"):
        record_from_dict(d)


@pytest.mark.parametrize("text", ["[NaN, Infinity]", "[1e-300, -Infinity]", "[NaN]"])
def test_record_per_dim_elements_must_be_finite(text):
    """A record does not hold per_dim: one that does is refused whatever its
    elements, and the per_dim rebuilt from the prediction is finite, or the
    record is refused naming its tick."""
    d = json.loads(json.dumps(record_to_dict(awkward_record())))
    d["per_dim"] = json.loads(text)  # Python's JSON parser accepts NaN and Infinity
    with pytest.raises(
        InputError,
        match=r"^malformed trace record: per_dim is \[.*(nan|inf)\], but a record does not hold it: it is rebuilt",
    ):
        record_from_dict(d)
    del d["per_dim"]
    d["observed"] = [-1e200, 0.0]
    d["predicted_next"] = [1e200, 0.0]
    with pytest.raises(
        InputError, match=r"^malformed trace record: tick 0: a squared prediction error exceeds the float range$"
    ):
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
    at = "tick 0: " if field == "model_digest" else ""  # read after the fields, naming the tick
    with pytest.raises(InputError, match=f"malformed trace record: {at}{field} is"):
        record_from_dict(d)


def test_record_numbers_may_be_json_ints():
    d = json.loads(json.dumps(record_to_dict(awkward_record())))
    d.update(delta_hat=0, true_delta=-1, predicted_next=[2, 3], observed=[0, 3], fit_event="applied")
    back = record_from_dict(d)
    assert (back.delta_hat, back.true_delta, back.epsilon, back.per_dim) == (0.0, -1.0, 2.0, (4.0, 0.0))
    assert [type(x) for x in (back.delta_hat, back.true_delta, back.epsilon, *back.per_dim)] == [float] * 5
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
    # edge effects onto the state one by one; 4: a scheduled fit skipped
    # whole when any one target could not be fitted; 5: candidates and
    # accepted edits written as objects; 6: records that write per_dim,
    # epsilon and a model digest on every record; 7: records that write
    # every state, delta estimate and null field
    for version in (1, 2, 4, 5, 6, 7, 99):
        head["format_version"] = version
        lines[0] = json.dumps(head)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=f"format_version {version} "):
            read_trace(str(path))


def test_the_module_docstring_states_each_edit_kinds_row():
    """The row schema in the docstring is the codec's: each kind, then its
    fields in declaration order, an EdgeAdd's source as kind and index."""
    rows = [re.findall(r"\w+", line) for line in trace_mod.__doc__.splitlines() if line.startswith('    ["')]
    stated = {kind: names for kind, *names in rows}
    written = {
        cls.kind: [
            entry
            for f in dataclasses.fields(cls)
            for entry in (["source_kind", "source_index"] if f.name == "source" else [f.name])
        ]
        for cls in get_args(Hypothesis)
    }
    assert len(rows) == len(stated) == len(written) and stated == written


def test_a_refused_format_names_the_one_this_reader_reads():
    trace = run_episode(builtin_scenarios()["calm"], RandomPolicy(), seed=1, length=2)
    lines = trace_to_lines(trace)
    lines[0] = json.dumps({**json.loads(lines[0]), "format_version": TRACE_FORMAT_VERSION - 1})
    with pytest.raises(InputError) as exc_info:
        trace_from_lines(lines)
    assert str(exc_info.value) == (
        f"unsupported trace format_version {TRACE_FORMAT_VERSION - 1} "
        f"(this reader reads format {TRACE_FORMAT_VERSION})"
    )


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


# ---------------------------------------------------------------------------
# The one-pass reader refuses exactly what the field-by-field reader it
# replaced refused, with the same error, and reads the rest to the same bits.
# ---------------------------------------------------------------------------


def _reference_vector(v, name):
    for x in json_typed(v, list, name=name):
        if type(x) is not float:
            json_typed(x, int, float, name=f"{name} element")
    return v


def _reference_delta_hat(v):
    d = json_number(v, name="delta_hat")
    if abs(d) > DELTA_MAX:
        raise ValueError(f"delta_hat is {d!r}, beyond DELTA_MAX {DELTA_MAX}")
    return d


def _reference_carried_delta_hat(tick, snapshot):
    name = "the last model snapshot's delta_hat"
    try:
        v = snapshot["delta_hat"]
    except KeyError as exc:
        raise ValueError(f"tick {tick}: the last model snapshot holds no delta_hat") from exc
    try:
        d = json_number(v, name=name)
    except TypeError as exc:
        raise ValueError(f"tick {tick}: {exc}") from exc
    if abs(d) > DELTA_MAX:
        raise ValueError(f"tick {tick}: {name} is {d!r}, beyond DELTA_MAX {DELTA_MAX}")
    return d


TAKEN = {
    "state": "a later record's state is the previous record's observed",
    "delta_hat": "a later record's delta_hat is the last model snapshot's",
}


def reference_record_from_dict(d, previous=None, snapshot=None):
    """The reader field by field: each field checked and converted on its
    own, each vector checked again by its constructor; a later record's
    state and delta estimate taken from ``previous`` and ``snapshot``; then
    the digest, and the loss rebuilt by ``core.loss``."""
    try:
        if isinstance(d, dict):
            for name in ("epsilon", "per_dim"):
                if name in d:
                    raise ValueError(
                        f"{name} is {d[name]!r}, but a record does not hold it: it is rebuilt from"
                        " predicted_next and observed"
                    )
            for name in ("reflect", "fit_event", "model_snapshot"):
                if name in d and d[name] is None:
                    raise ValueError(f"{name} is null: a record leaves a null field out")
            if "model_digest" in d and "model_snapshot" not in d:
                raise ValueError(
                    f"model_digest is {d['model_digest']!r} on a record without a model snapshot:"
                    " it is written only beside one"
                )
        tick = json_typed(d["tick"], int, name="tick")
        for name, taken in TAKEN.items():
            if tick == 0 and name not in d:
                raise ValueError(f"tick 0: the first record holds no {name}")
            if tick != 0 and name in d:
                raise ValueError(f"tick {tick}: {name} is {d[name]!r}, but only the first record holds it: {taken}")
        if tick == 0:
            state = StateVec(_reference_vector(d["state"], "state"))
            action = ActionVec(_reference_vector(d["action"], "action"))
            delta_hat = _reference_delta_hat(d["delta_hat"])
        else:
            state = None if previous is None else previous.observed
            action = ActionVec(_reference_vector(d["action"], "action"))
            delta_hat = None if snapshot is None else _reference_carried_delta_hat(tick, snapshot)
        true_delta = json_number(d["true_delta"], name="true_delta")
        predicted_next = StateVec(_reference_vector(d["predicted_next"], "predicted_next"))
        observed = StateVec(_reference_vector(d["observed"], "observed"))
        reflect = json_typed(d["reflect"], dict, NoneType, name="reflect") if "reflect" in d else None
        fit_event = json_typed(d["fit_event"], str, NoneType, name="fit_event") if "fit_event" in d else None
        model_snapshot = (
            json_typed(d["model_snapshot"], dict, NoneType, name="model_snapshot") if "model_snapshot" in d else None
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed trace record: {exc}") from exc
    except DomainError as exc:
        raise DomainError(f"malformed trace record: {exc}") from exc
    try:
        if model_snapshot is not None:
            if "model_digest" not in d:
                raise ValueError("a model snapshot without a model_digest")
            digest = json_typed(d["model_digest"], str, name="model_digest")
        else:
            digest = "" if previous is None else previous.model_digest
        err = loss(predicted_next, observed)
    except (TypeError, ValueError, DimensionError, DomainError) as exc:
        raise InputError(f"malformed trace record: tick {tick}: {exc}") from exc
    return TraceRecord(
        tick, state, action, delta_hat, true_delta, predicted_next, observed, err.epsilon, err.per_dim,
        reflect, fit_event, digest, model_snapshot,
    )


def bits(value):
    """``value`` with every float as its bit pattern, so -0.0 differs from 0.0."""
    if type(value) is float:
        return ("float", value.hex() if math.isfinite(value) else repr(value), math.copysign(1.0, value))
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    return value


def outcome(reader, d):
    """The record ``reader`` makes of ``d``, or its refusal's class and message."""
    try:
        return reader(copy.deepcopy(d))
    except CausalLoopError as exc:
        return type(exc), str(exc)


@st.composite
def records(draw, numbers, deltas):
    """A record as format 8 writes it: state and delta estimate at tick 0
    only, null fields left out, a prediction and an observation of one
    length, mostly, and a digest only beside a snapshot."""
    vectors = st.lists(numbers, max_size=4)
    size = draw(st.integers(0, 4))
    outcomes = st.lists(numbers, min_size=size, max_size=size) | vectors
    tick = draw(st.just(0) | st.integers(-5, 2**70))
    d = {"kind": "record", "tick": tick}
    if tick == 0:
        d["state"] = draw(vectors)
    d["action"] = draw(vectors)
    if tick == 0:
        d["delta_hat"] = draw(deltas)
    d |= draw(st.fixed_dictionaries({"true_delta": numbers, "predicted_next": outcomes, "observed": outcomes}))
    optional = {
        "reflect": st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=2),
        "fit_event": st.text(max_size=8),
        "model_snapshot": st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=2),
    }
    for name, values in optional.items():
        if draw(st.booleans()):
            if name == "model_snapshot":
                d["model_digest"] = draw(st.text(max_size=8))
            d[name] = draw(values)
    return d


# Floats only, as written records hold them, or JSON ints among them.
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
DELTAS = st.floats(-DELTA_MAX, DELTA_MAX)
RECORDS = records(FLOATS, DELTAS) | records(
    FLOATS | st.integers(-(2**70), 2**70), DELTAS | st.integers(-10, 10)
)


# Values at the edge of what a field takes, beside arbitrary JSON values.
EDGES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 10.000000000000002, -11.0, 11, 1e308, 10**400, -(2**1024), 2**63,
     True, False, None, "1", "", [], {}, [1.0], [math.nan], {"0": 1.0}]
)
# What trace_from_lines carries to a record: the record before, or none
# (the first line), and the last snapshot, or none before the first.
PREVIOUS = st.none() | st.builds(
    lambda observed, digest: dataclasses.replace(awkward_record(), observed=StateVec(tuple(observed)),
                                                 model_digest=digest),
    st.lists(FLOATS, max_size=4),
    st.text(max_size=8),
)
SNAPSHOTS = (
    st.none()
    | st.builds(lambda v: {"delta_hat": v}, DELTAS | st.integers(-10, 10) | EDGES | JSON_VALUES | st.floats())
    | st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=2)
)


@st.composite
def spoiled_records(draw):
    """A record with, mostly, one field, vector element or nested value
    replaced by an edge value, an arbitrary JSON value or a float; sometimes
    a field dropped, a field the reader rebuilds or a null optional field
    added, the record itself replaced, or nothing changed."""
    d = draw(RECORDS)
    how = draw(st.sampled_from(["replace", "replace", "replace", "replace", "drop", "add", "whole", "none"]))
    if how == "add":
        name = draw(st.sampled_from(["epsilon", "per_dim", "model_digest", "state", "delta_hat", "reflect",
                                     "fit_event", "model_snapshot"]))
        d[name] = draw(st.none() | EDGES | JSON_VALUES | st.floats())
    if how == "replace":
        elements = [(key, i) for key, v in d.items() if type(v) is list for i in range(len(v))]
        path = draw(
            st.sampled_from([(key,) for key in d])
            | st.sampled_from(elements or [("tick",)])
            | st.sampled_from(sorted(paths(d), key=repr))
        )
        return replaced(d, path, draw(EDGES | JSON_VALUES | st.floats()))
    if how == "drop":
        del d[draw(st.sampled_from(sorted(d)))]
    if how == "whole":
        return draw(JSON_VALUES)
    return d


@settings(max_examples=300, deadline=None)
@given(spoiled_records(), PREVIOUS, SNAPSHOTS)
def test_reader_refuses_and_reads_as_the_field_by_field_reader(d, previous, snapshot):
    """``previous`` and ``snapshot`` are what the records before carry forward."""
    got = outcome(lambda d: record_from_dict(d, previous, snapshot), d)
    want = outcome(lambda d: reference_record_from_dict(d, previous, snapshot), d)
    if isinstance(want, TraceRecord):
        assert isinstance(got, TraceRecord), got
        assert got == want
        assert bits(dataclasses.astuple(got)) == bits(dataclasses.astuple(want))
        assert [type(getattr(got, f.name)) for f in dataclasses.fields(got)] == [
            type(getattr(want, f.name)) for f in dataclasses.fields(want)
        ]
        assert got.state is want.state or got.tick == 0
    else:
        assert got == want


@pytest.mark.parametrize(
    "field, bad, error",
    [
        ("state", [1.0, float("nan")], DomainError),  # before the tick is read
        ("state", [0, float("nan")], DomainError),  # an int beside it
        ("per_dim", [float("inf")], InputError),
        ("per_dim", [float("nan"), 0], InputError),
        ("tick", "0", InputError),
    ],
)
def test_the_first_refused_field_in_record_order_names_the_refusal(field, bad, error):
    d = json.loads(json.dumps(record_to_dict(awkward_record())))
    d[field] = bad
    d["model_snapshot"] = 5  # refused too, but read last
    assert outcome(record_from_dict, d) == outcome(reference_record_from_dict, d)
    with pytest.raises(error, match=field if error is InputError else "state"):
        record_from_dict(d)


def test_json_ints_are_read_as_floats_where_a_record_holds_floats():
    d = json.loads(json.dumps(record_to_dict(awkward_record())))
    d.update(state=[1, -0.0], action=[0], predicted_next=[2, 3.5], observed=[0, -1])
    back = record_from_dict(d)
    assert back.state.values == (1.0, -0.0) and math.copysign(1.0, back.state[1]) == -1.0
    assert (back.epsilon, back.per_dim) == (12.125, (4.0, 20.25))
    assert [type(x) for x in back.state.values + back.action.values + back.per_dim] == [float] * 5
    assert back == reference_record_from_dict(d)


@pytest.mark.parametrize("reflect", [False, True])
def test_lines_read_back_to_the_trace_bit_for_bit(reflect):
    sc = builtin_scenarios()["productivity"]
    trace = run_episode(sc, RandomPolicy(), seed=3, length=120, reflect_enabled=reflect)
    back = trace_from_lines(trace_to_lines(trace))
    assert back == trace
    assert bits([dataclasses.astuple(r) for r in back.records]) == bits(
        [dataclasses.astuple(r) for r in trace.records]
    )
    assert any(r.model_snapshot is not None for r in back.records)
    assert any(r.reflect is not None for r in back.records) == reflect


def _calm_lines(length=6):
    return trace_to_lines(run_episode(builtin_scenarios()["calm"], RandomPolicy(), seed=1, length=length))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda ls: ls[:3] + ls[4:], "line 4 holds tick 3, expected 2"),  # tick 2 dropped
        (lambda ls: ls[:3] + ls[2:], "line 4 holds tick 1, expected 2"),  # tick 1 twice
        (lambda ls: ls[:2] + [ls[3], ls[2]] + ls[4:], "line 3 holds tick 2, expected 1"),  # swapped
        (lambda ls: ls[:1] + ls[2:], "line 2 holds tick 1, expected 0"),  # tick 0 dropped
    ],
)
def test_a_record_off_its_ticks_line_is_refused(edit, message):
    with pytest.raises(InputError, match=f"^src: {message}$"):
        trace_from_lines(edit(_calm_lines()), "src")


def test_a_trace_that_stops_early_is_read():
    lines = _calm_lines()
    back = trace_from_lines(lines[:4])
    assert [r.tick for r in back.records] == [0, 1, 2]
    assert back.header.length == 6  # replay, not the reader, holds a trace to its length


def test_record_errors_come_before_tick_order():
    """Every line is read as a record before any tick is checked, so a
    refusal the field-by-field reader made still wins over a tick out of
    place earlier in the file."""
    lines = _calm_lines()
    lines[1], lines[2] = lines[2], lines[1]
    d = json.loads(lines[5])
    d["observed"] = [float("nan")]
    lines[5] = json.dumps(d)
    with pytest.raises(DomainError, match="state contains non-finite value nan"):
        trace_from_lines(lines)


def test_read_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes("\n".join(_calm_lines()).encode() + b"\n\xff\xfe\n")
    with pytest.raises(InputError, match=f"^{path}: trace file is not UTF-8: "):
        read_trace(str(path))


def _with_a_blank_line(tmp_path, lines):
    """A file holding ``lines`` with a blank line after the first record,
    so each later line is one further down the file than in ``lines``."""
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
    return str(path)


def test_a_refusal_counts_blank_lines(tmp_path):
    lines = _calm_lines(length=5)
    lines[4] = "{bad"  # tick 3, on file line 6
    with pytest.raises(InputError, match=r"t\.jsonl: line 6: Expecting property name"):
        read_trace(_with_a_blank_line(tmp_path, lines))


def test_a_record_off_its_line_is_named_by_its_file_line(tmp_path):
    lines = _calm_lines(length=5)
    lines[2], lines[3] = lines[3], lines[2]  # tick 2 onto file line 4
    with pytest.raises(InputError, match=r"t\.jsonl: line 4 holds tick 2, expected 1$"):
        read_trace(_with_a_blank_line(tmp_path, lines))
    with pytest.raises(InputError, match="^src: line 4 holds tick 2, expected 1$"):
        trace_from_lines(lines[:2] + [" "] + lines[2:], "src")


def test_read_skips_blank_lines_and_reads_crlf(tmp_path):
    lines = _calm_lines()
    path = tmp_path / "t.jsonl"
    path.write_bytes(("\r\n".join(lines[:2]) + "\r\n \r\n\n" + "\n".join(lines[2:])).encode())
    assert read_trace(str(path)) == trace_from_lines(lines)


# ---------------------------------------------------------------------------
# Formats 7 and 8: what a record does not write, the reader rebuilds.
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["calm", "break_demo", "productivity", "random"]), st.booleans(), st.integers(0, 2**16))
def test_read_back_loss_and_digest_are_the_loops(name, reflect, seed):
    """Fit-only and repair runs, on the bundled scenarios and on a random
    graph of up to four dimensions: every record read back has, in
    ``float.hex``, the epsilon and per_dim of ``core.loss`` of its own
    prediction and observation and of the loop, and the loop's digest."""
    sc = random_scenario(seed, noise_sigma=0.05) if name == "random" else builtin_scenarios()[name]
    trace = run_episode(sc, RandomPolicy(), seed=seed, length=80, reflect_enabled=reflect)
    back = trace_from_lines(trace_to_lines(trace))
    assert back == trace
    for r, held in zip(back.records, trace.records, strict=True):
        err = loss(r.predicted_next, r.observed)
        for rebuilt in (err, held):
            assert r.epsilon.hex() == rebuilt.epsilon.hex(), r.tick
            assert [x.hex() for x in r.per_dim] == [x.hex() for x in rebuilt.per_dim], r.tick
        assert r.model_digest == held.model_digest, r.tick


def test_a_record_without_a_snapshot_takes_the_last_snapshots_digest():
    sc = builtin_scenarios()["break_demo"]
    trace = run_episode(sc, RandomPolicy(), seed=7, length=120, reflect_enabled=False)
    lines = trace_to_lines(trace)
    written = [json.loads(ln) for ln in lines[1:]]
    assert [("model_digest" in d) for d in written] == [("model_snapshot" in d) for d in written]
    assert 2 <= sum("model_snapshot" in d for d in written) < len(written) // 2
    last = None
    for d, r in zip(written, trace_from_lines(lines).records, strict=True):
        last = d.get("model_digest", last)
        assert r.model_digest == last
        assert not {"epsilon", "per_dim"} & d.keys()


def _lines_with(edit):
    """A calm trace's lines as JSON values, one of them edited by ``edit``."""
    lines = [json.loads(ln) for ln in _calm_lines()]
    edit(lines)
    return [json.dumps(ln) for ln in lines]


def _bare(d):
    """``d`` without its snapshot and digest."""
    d.pop("model_digest")
    d.pop("model_snapshot")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda ls: _bare(ls[1]), "src: line 2: the first record carries no model snapshot, so no digest"),
        (lambda ls: ls[1].pop("model_digest"),
         "src: line 2: malformed trace record: tick 0: a model snapshot without a model_digest"),
        (lambda ls: ls[1].update(model_digest=None),
         "src: line 2: malformed trace record: tick 0: model_digest is None of type NoneType, expected str"),
        (lambda ls: ls[1].update(model_digest=12),
         "src: line 2: malformed trace record: tick 0: model_digest is 12 of type int, expected str"),
        (lambda ls: ls[2].update(predicted_next=[0.5, 0.5, 0.5]),
         "src: line 3: malformed trace record: tick 1: predicted has 3 dims, observed has 2"),
        (lambda ls: ls[2].update(predicted_next=[], observed=[]),
         "src: line 3: malformed trace record: tick 1: predicted has 0 dims, observed has 0"),
        (lambda ls: ls[2].update(predicted_next=[1e200, 0.0], observed=[-1e200, 0.0]),
         "src: line 3: malformed trace record: tick 1: a squared prediction error exceeds the float range"),
        (lambda ls: ls[2].update(predicted_next=[1e308, 0.0], observed=[-1e308, 0.0]),
         "src: line 3: malformed trace record: tick 1: a squared prediction error exceeds the float range"),
        (lambda ls: ls[2].update(predicted_next=[1.3e154, 1.3e154], observed=[0.0, 0.0]),
         "src: line 3: malformed trace record: tick 1: a squared prediction error exceeds the float range"),
        (lambda ls: ls[2].update(epsilon=0.5),
         "src: line 3: malformed trace record: epsilon is 0.5, but a record does not hold it: it is rebuilt"),
        (lambda ls: ls[2].update(per_dim=[0.5]),
         "src: line 3: malformed trace record: per_dim is \\[0.5\\], but a record does not hold it: it is rebuilt"),
        (lambda ls: ls[2].update(model_digest="abcd"),
         "src: line 3: malformed trace record: model_digest is 'abcd' on a record without a model snapshot"),
    ],
    ids=["first-bare", "snapshot-no-digest", "digest-null", "digest-int", "lengths", "no-dims", "overflow",
         "difference-overflow",
         "sum-overflow", "epsilon", "per_dim", "digest-no-snapshot"],
)
def test_each_format_7_refusal(edit, message):
    lines = _lines_with(edit)
    assert "model_snapshot" not in json.loads(_calm_lines()[2])  # tick 1 takes tick 0's digest
    with pytest.raises(InputError, match=f"^{message}"):
        trace_from_lines(lines, "src")


def test_a_bare_first_record_is_refused_after_the_ticks():
    """A trace whose tick 0 was dropped is refused for that, not for the
    snapshot tick 0 held."""
    lines = _calm_lines()
    with pytest.raises(InputError, match="^src: line 2 holds tick 1, expected 0$"):
        trace_from_lines(lines[:1] + lines[2:], "src")


def test_a_format_7_trace_is_refused_naming_format_8():
    """Format 7 wrote every record's state and delta estimate and its null
    fields."""
    trace = run_episode(builtin_scenarios()["calm"], RandomPolicy(), seed=1, length=3)
    lines = [json.dumps({**json.loads(trace_to_lines(trace)[0]), "format_version": 7})]
    for r in trace.records:
        d = {"kind": "record", "tick": r.tick, "state": list(r.state.values), "action": list(r.action.values),
             "delta_hat": r.delta_hat, "true_delta": r.true_delta, "predicted_next": list(r.predicted_next.values),
             "observed": list(r.observed.values), "reflect": r.reflect, "fit_event": r.fit_event}
        if r.model_snapshot is not None:
            d["model_digest"] = r.model_digest
        lines.append(json.dumps({**d, "model_snapshot": r.model_snapshot}))
    with pytest.raises(InputError) as exc_info:
        trace_from_lines(lines)
    assert str(exc_info.value) == "unsupported trace format_version 7 (this reader reads format 8)"


# ---------------------------------------------------------------------------
# Format 8: a later record takes its state and delta estimate.
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["calm", "break_demo", "productivity", "random"]), st.booleans(), st.integers(0, 2**16))
@example("productivity", True, 1)  # a nonzero delta estimate from tick 46 on
def test_a_later_record_holds_the_last_observation_and_snapshot_delta(name, reflect, seed):
    """The loop's two rules that format 8 rests on, in the trace recorded
    and in the one read back: each record after the first has as its state
    the previous record's observation itself, and, in ``float.hex``, the
    delta estimate of the last snapshot at or before the previous record."""
    sc = random_scenario(seed, noise_sigma=0.05) if name == "random" else builtin_scenarios()[name]
    trace = run_episode(sc, RandomPolicy(), seed=seed, length=80, reflect_enabled=reflect)
    back = trace_from_lines(trace_to_lines(trace))
    assert back == trace
    for records in (trace.records, back.records):
        snapshot = records[0].model_snapshot
        for previous, r in zip(records, records[1:]):
            assert r.state is previous.observed, r.tick
            assert r.delta_hat.hex() == snapshot["delta_hat"].hex(), r.tick
            if r.model_snapshot is not None:
                snapshot = r.model_snapshot


def test_only_tick_0_writes_its_state_and_delta_and_no_record_writes_null():
    trace = run_episode(builtin_scenarios()["productivity"], RandomPolicy(), seed=1, length=60)
    written = [json.loads(ln) for ln in trace_to_lines(trace)[1:]]
    assert [("state" in d, "delta_hat" in d) for d in written] == [(d["tick"] == 0,) * 2 for d in written]
    assert not any(v is None for d in written for v in d.values())
    assert any("fit_event" in d for d in written) and any("reflect" in d for d in written)
    keys = ["kind", "tick", "state", "action", "delta_hat", "true_delta", "predicted_next", "observed", "reflect",
            "fit_event", "model_digest", "model_snapshot"]
    for d in written:
        assert list(d) == [k for k in keys if k in d]


def _snapshot_delta(value):
    """An edit that sets tick 0's snapshot delta estimate, which ticks 1 and
    after take, to ``value``."""
    return lambda ls: ls[1]["model_snapshot"].update(delta_hat=value)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda ls: ls[1].pop("state"),
         "src: line 2: malformed trace record: tick 0: the first record holds no state$"),
        (lambda ls: ls[1].pop("delta_hat"),
         "src: line 2: malformed trace record: tick 0: the first record holds no delta_hat$"),
        (lambda ls: ls[2].update(state=ls[1]["observed"]),
         r"src: line 3: malformed trace record: tick 1: state is \[.*\], but only the first record holds it:"
         " a later record's state is the previous record's observed$"),
        (lambda ls: ls[3].update(delta_hat=0.0),
         "src: line 4: malformed trace record: tick 2: delta_hat is 0.0, but only the first record holds it:"
         " a later record's delta_hat is the last model snapshot's$"),
        (lambda ls: ls[2].update(reflect=None),
         "src: line 3: malformed trace record: reflect is null: a record leaves a null field out$"),
        (lambda ls: ls[2].update(fit_event=None),
         "src: line 3: malformed trace record: fit_event is null: a record leaves a null field out$"),
        (lambda ls: ls[1].update(model_snapshot=None),
         "src: line 2: malformed trace record: model_snapshot is null: a record leaves a null field out$"),
        (lambda ls: ls[1]["model_snapshot"].pop("delta_hat"),
         "src: line 3: malformed trace record: tick 1: the last model snapshot holds no delta_hat$"),
        (_snapshot_delta("0.0"),
         "src: line 3: malformed trace record: tick 1: the last model snapshot's delta_hat is '0.0' of type str,"
         " expected int or finite float$"),
        (_snapshot_delta(float("nan")),
         "src: line 3: malformed trace record: tick 1: the last model snapshot's delta_hat is nan of type float"),
        (_snapshot_delta(10**400), "src: line 3: malformed trace record: tick 1: the last model snapshot's delta_hat"
         " is 1000*0 of type int, expected int or finite float$"),
        (_snapshot_delta(-10.000000000000002),
         "src: line 3: malformed trace record: tick 1: the last model snapshot's delta_hat is -10.000000000000002,"
         " beyond DELTA_MAX 10.0$"),
        (_snapshot_delta(True),
         "src: line 3: malformed trace record: tick 1: the last model snapshot's delta_hat is True of type bool"),
    ],
    ids=["first-no-state", "first-no-delta_hat", "later-state", "later-delta_hat", "reflect-null", "fit_event-null",
         "snapshot-null", "snapshot-no-delta_hat", "snapshot-delta_hat-string", "snapshot-delta_hat-nan",
         "snapshot-delta_hat-huge-int", "snapshot-delta_hat-beyond", "snapshot-delta_hat-bool"],
)
def test_each_format_8_refusal(edit, message):
    with pytest.raises(InputError, match=f"^{message}"):
        trace_from_lines(_lines_with(edit), "src")


def test_a_snapshot_delta_is_read_as_the_snapshot_reader_reads_it():
    """A JSON int is taken as a float; the range's ends are in it; and the
    last record's snapshot, which no record takes, is not read here."""
    lines = _calm_lines(length=3)
    for value in (0, -10, 10.0):
        back = trace_from_lines(_lines_with(_snapshot_delta(value)))
        assert [type(r.delta_hat) for r in back.records] == [float] * 6
        assert [r.delta_hat for r in back.records[1:]] == [float(value)] * 5
    d = json.loads(lines[3])
    lines[3] = json.dumps({**d, "model_digest": "abcd", "model_snapshot": {"delta_hat": "x"}})
    assert trace_from_lines(lines).records[2].model_snapshot == {"delta_hat": "x"}


def test_a_record_refused_is_named_by_its_file_line(tmp_path):
    """Every record refusal names the file's line, blank lines counted."""
    lines = _calm_lines(length=5)
    d = json.loads(lines[3])
    lines[3] = json.dumps({**d, "fit_event": 5})  # tick 2, on file line 5
    with pytest.raises(InputError, match=r"t\.jsonl: line 5: malformed trace record: fit_event is 5 of type int"):
        read_trace(_with_a_blank_line(tmp_path, lines))
    lines[3] = json.dumps({**d, "action": [float("nan")]})
    with pytest.raises(DomainError, match=r"t\.jsonl: line 5: malformed trace record: action contains non-finite"):
        read_trace(_with_a_blank_line(tmp_path, lines))
