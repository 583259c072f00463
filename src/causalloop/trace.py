"""Episode traces: one JSONL file per run, bit-exact on round-trip.

Line 1 is a header (format and artifact versions, the RNG scheme, the
scenario digest, seed, policy, length); every following line is one tick's
record.  Floats serialize via Python's shortest-round-trip repr, so a
parsed trace compares equal to the in-memory original and replay can
demand bit-identity rather than tolerances.

A record line holds only what cannot be derived from the trace: its kind
and tick, the action and true delta, the one-step prediction (only a model
re-run could rebuild it) and the observation; at tick 0 only, the state
and delta estimate; and only when not null, the full reflect report (every
candidate and its score), the fit event, and a model snapshot whenever the
model's digest changed that tick, with that digest just before it.  The
reader rebuilds the rest, so a record read back equals the one recorded:
``epsilon`` and ``per_dim`` by :func:`causalloop.core.loss` of the
prediction and the observation; a later record's ``state`` as the previous
record's ``observed`` (the agent acts on what it last observed) and its
``delta_hat`` as the last snapshot's (the model entering a tick is the one
leaving the tick before); ``model_digest`` of a record without a snapshot
as the last snapshot's; and a field left out as None.  The snapshots are
what let evaluation and explanation reconstruct the agent's model at any
tick without re-running anything.  The causal function's contributions
and farthest state at a tick are not recorded: explanation recomputes them
(:func:`causalloop.model.counterfactual`) from the snapshot and the
record's delta_hat.

A report's edits are flat rows, written and read by
:func:`causalloop.reflect.hypothesis_to_row` and
:func:`causalloop.reflect.hypothesis_from_row`: the kind, then each field
in its class's declaration order.  An accepted edit is its row; a
candidate is its row with its score appended.  The rows of each kind::

    ["delta_shift", new_delta]
    ["coef_change", edge_index, new_coefficient]
    ["delay_change", edge_index, new_delay]
    ["edge_add", source_kind, source_index, target, delay, form, coefficient]
    ["edge_remove", edge_index]
    ["structural_break", keep]

``source_kind`` is ``"action"`` or ``"state"`` and ``form`` one of
``"linear"``, ``"tanh"`` and ``"quadratic"``; indices, delays and ``keep``
are JSON ints, the rest finite numbers.  Every ``edge_index`` of a report,
an accepted row's too, names an edge of the model entering the trigger,
the edit as generated: an edit accepted after an accepted ``edge_remove``
of a lower index was applied one index below the one its row names.

:func:`read_trace` decodes the file as UTF-8 and hands its lines to
:func:`trace_from_lines`, the inverse of :func:`trace_to_lines`, which
skips blank lines but counts them, so a refusal names the file's line.
Every other line is parsed first; then the header, then each record in one
pass that checks each value once (:func:`record_from_dict`), carrying the
record before and the last snapshot forward.  Refused, with
:class:`InputError` unless noted: a file that cannot be read or is not
UTF-8; a line that is not JSON; a malformed header or a format other than
``TRACE_FORMAT_VERSION``; a record field missing or of the wrong JSON
type, an optional field written as null, a number that is not finite, a
``delta_hat`` beyond ``DELTA_MAX``, a non-finite state, action, prediction
or observation (:class:`DomainError`); a record that holds a value the
reader rebuilds; a tick-0 record without its state or delta estimate, a
later one with either, a snapshot delta estimate a later record takes that
is no finite number within ``DELTA_MAX``, a snapshot without a string
digest, and a prediction and observation of different lengths or whose
squared error overflows, each naming its tick; a first record without a
snapshot; and a record off its tick's line: the *i*-th record must hold
tick *i*.  A record refusal names the line, as ``<source>: line <n>:
malformed trace record: ...``.  A trace that stops early is read; replay
holds it to the header's length.  A header or record field of the wrong
JSON type is refused in the words of
:func:`causalloop.scenario.read_fields`, which scenario files, model
snapshots, edge records and policies share: ``<field> is <value> of type
<type>, expected <types>``, or ``<field> element is ...`` for an element
of an array, such as a state's.
A record's reflect block is read only when evaluate or explain reads it
(:func:`reflect_block_from_dict`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Any, NamedTuple, get_type_hints

from .core import DELTA_MAX, ActionVec, DimensionError, DomainError, InputError, StateVec, loss
from .reflect import EDIT_KINDS, Hypothesis, ReflectReport, hypothesis_from_row, hypothesis_to_row
from .rng import GENERATOR_NAME, SCHEME_VERSION
from .scenario import atomic_write_text, json_number, json_types, json_typed, read_fields, read_text

TRACE_FORMAT_VERSION = 8


@dataclass(frozen=True)
class TraceHeader:
    scenario_digest: str
    scenario_name: str
    seed: int
    length: int
    policy: dict[str, Any]
    reflect_enabled: bool
    artifact_version: str
    format_version: int = TRACE_FORMAT_VERSION
    generator: dict[str, Any] = field(
        default_factory=lambda: {"name": GENERATOR_NAME, "scheme": SCHEME_VERSION}
    )


class TraceRecord(NamedTuple):
    """One tick of an episode.  ``state`` is the previous tick's
    ``observed`` (the scenario's initial state at tick 0) and ``delta_hat``
    the delta estimate of the model entering the tick, the last snapshot's.
    ``epsilon`` and ``per_dim`` are :func:`causalloop.core.loss` of
    ``predicted_next`` against ``observed``, and ``model_digest`` is the
    digest of the model leaving the tick, whose ``model_snapshot`` is
    recorded only at a tick where the digest changed.  A trace line writes
    the state and delta estimate only at tick 0, neither loss field, the
    digest only beside a snapshot and no null field: the reader rebuilds
    them (:func:`record_from_dict`).

    A named tuple, as :class:`ReflectBlock` is: one is built every tick and
    every line read, and its constructor takes values already of their
    fields' types and checks nothing (:func:`record_from_dict` checks what
    it reads, and an episode builds checked values).  Edit one with
    ``_replace``."""

    tick: int
    state: StateVec
    action: ActionVec
    delta_hat: float
    true_delta: float
    predicted_next: StateVec
    observed: StateVec
    epsilon: float
    per_dim: tuple[float, ...]
    reflect: dict[str, Any] | None
    fit_event: str | None
    model_digest: str
    model_snapshot: dict[str, Any] | None


@dataclass(frozen=True)
class EpisodeTrace:
    header: TraceHeader
    records: tuple[TraceRecord, ...]


# ---------------------------------------------------------------------------
# Reflect report serialization
# ---------------------------------------------------------------------------


def report_to_dict(r: ReflectReport) -> dict[str, Any]:
    """Serialized report; the updated model travels separately as a snapshot."""
    return {
        "triggered": r.triggered,
        "epsilon": r.epsilon,
        "tau": r.tau,
        "candidates": [hypothesis_to_row(hs.hypothesis) + [hs.score] for hs in r.candidates],
        "accepted": [hypothesis_to_row(h) for h in r.accepted],
    }


class ReflectBlock(NamedTuple):
    """What the readers of a record's reflect block read of it.  A named
    tuple, not a frozen dataclass: evaluate and explain read a block on
    every call, and a tuple builds in about a third of the time."""

    epsilon: float
    tau: float
    candidates: list[list[Any]]  # rows: only each one's kind is read yet
    accepted: tuple[Hypothesis, ...]


def reflect_block_from_dict(tick: int, d: dict[str, Any]) -> ReflectBlock:
    """A record's reflect block as :func:`report_to_dict` writes it:
    ``triggered`` true, finite ``epsilon`` and ``tau``, a list of candidate
    rows, each an array that starts with a known edit kind, and each
    accepted row read by :func:`hypothesis_from_row`.  Anything else raises
    :class:`InputError` naming the tick.  A candidate's entries past its
    kind are not read: evaluate and explain read only how many there are."""
    try:
        if d["triggered"] is not True:
            raise ValueError(f"triggered is {d['triggered']!r}, expected true")
        candidates = json_typed(d["candidates"], list, name="candidates")
        try:
            # Entry 0 of anything but a non-empty array is not a kind: a
            # string's is one character, an object has no key 0.
            known = EDIT_KINDS.issuperset(map(itemgetter(0), candidates))
        except (IndexError, KeyError, TypeError):
            known = False
        if not known:
            raise ValueError("a candidate is not an array that starts with a known edit kind")
        accepted = json_typed(d["accepted"], list, name="accepted")
        return ReflectBlock(
            json_number(d["epsilon"], name="epsilon"),
            json_number(d["tau"], name="tau"),
            candidates,
            tuple(map(hypothesis_from_row, accepted)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        msg = f"tick {tick}: malformed reflect block ({type(exc).__name__}: {exc})"
        raise InputError(msg) from exc


# ---------------------------------------------------------------------------
# Record serialization
# ---------------------------------------------------------------------------


def header_to_dict(h: TraceHeader) -> dict[str, Any]:
    return {
        "kind": "header",
        "format_version": h.format_version,
        "artifact_version": h.artifact_version,
        "generator": h.generator,
        "scenario_digest": h.scenario_digest,
        "scenario_name": h.scenario_name,
        "seed": h.seed,
        "length": h.length,
        "policy": h.policy,
        "reflect_enabled": h.reflect_enabled,
    }


def header_from_dict(d: Any) -> TraceHeader:
    if type(d) is not dict:
        raise InputError(f"first trace line is a JSON {type(d).__name__}, not a header object")
    try:
        if d["kind"] != "header":
            raise InputError(f"first trace line has kind {d['kind']!r}, expected 'header'")
        return TraceHeader(**read_fields(TraceHeader, d))
    except KeyError as exc:
        raise InputError(f"trace header missing key {exc}") from exc
    except TypeError as exc:
        raise InputError(f"malformed trace header: {exc}") from exc


def record_to_dict(r: TraceRecord) -> dict[str, Any]:
    """The record as a trace line holds it: its fields in declaration order
    but what the reader rebuilds.  ``state`` and ``delta_hat`` are written
    only at tick 0: a later record's state is the previous record's
    observation, and its delta estimate the last snapshot's.  ``epsilon``
    and ``per_dim`` are never written; ``reflect`` and ``fit_event`` only
    when not null; ``model_digest`` only just before a ``model_snapshot``,
    which is written only at a tick where the digest changed."""
    if r.tick == 0:
        d = {
            "kind": "record",
            "tick": 0,
            "state": list(r.state.values),
            "action": list(r.action.values),
            "delta_hat": r.delta_hat,
            "true_delta": r.true_delta,
            "predicted_next": list(r.predicted_next.values),
            "observed": list(r.observed.values),
        }
    else:
        d = {
            "kind": "record",
            "tick": r.tick,
            "action": list(r.action.values),
            "true_delta": r.true_delta,
            "predicted_next": list(r.predicted_next.values),
            "observed": list(r.observed.values),
        }
    if r.reflect is not None:
        d["reflect"] = r.reflect
    if r.fit_event is not None:
        d["fit_event"] = r.fit_event
    if r.model_snapshot is not None:
        d["model_digest"] = r.model_digest
        d["model_snapshot"] = r.model_snapshot
    return d


# The keys every record line holds, those only tick 0's holds (with what a
# later record takes in their place), and those a line holds only when not
# null.
_REQUIRED = ("kind", "tick", "action", "true_delta", "predicted_next", "observed")
_required = itemgetter(*_REQUIRED)
_TAKEN = {
    "state": "a later record's state is the previous record's observed",
    "delta_hat": "a later record's delta_hat is the last model snapshot's",
}
_first = itemgetter(*_TAKEN)
_OPTIONAL = ("reflect", "fit_event", "model_snapshot")
_WRITTEN = frozenset((*_REQUIRED, *_TAKEN, *_OPTIONAL, "model_digest"))
_FLOAT = frozenset({float})
# Every combination of the JSON types that tick, reflect, fit_event and
# model_snapshot may have.
_hints = get_type_hints(TraceRecord)
_SCALAR_TYPES = frozenset(product(*(json_types(_hints[name]) for name in ("tick", *_OPTIONAL))))


def _refuse_keys(d: Any) -> None:
    """KeyError if the record ``d`` holds no ``kind``, ValueError if one
    other than ``"record"``, a value the reader rebuilds (``epsilon`` or
    ``per_dim``, or ``model_digest`` without a snapshot), any other key
    :func:`record_to_dict` never writes, or an optional field as null,
    which a record leaves out.  A record that states a rebuilt value could
    contradict the value rebuilt."""
    if type(d) is not dict:
        return
    if d["kind"] != "record":
        raise ValueError(f"kind is {d['kind']!r}, expected 'record'")
    for name in ("epsilon", "per_dim"):
        if name in d:
            raise ValueError(f"{name} is {d[name]!r}, but a record does not hold it: it is rebuilt from"
                             " predicted_next and observed")
    for name in d:
        if name not in _WRITTEN:
            raise ValueError(f"unknown key {name!r}")
    for name in _OPTIONAL:
        if name in d and d[name] is None:
            raise ValueError(f"{name} is null: a record leaves a null field out")
    if "model_digest" in d and "model_snapshot" not in d:
        raise ValueError(f"model_digest is {d['model_digest']!r} on a record without a model snapshot:"
                         " it is written only beside one")


def _refuse_first_keys(d: dict[str, Any], tick: int) -> None:
    """ValueError if tick 0's record ``d`` lacks ``state`` or ``delta_hat``,
    or a later one holds either."""
    for name, taken in _TAKEN.items():
        if tick == 0 and name not in d:
            raise ValueError(f"tick 0: the first record holds no {name}")
        if tick != 0 and name in d:
            raise ValueError(f"tick {tick}: {name} is {d[name]!r}, but only the first record holds it: {taken}")


def _within_delta_max(value: float, name: str) -> float:
    if abs(value) > DELTA_MAX:
        # an episode keeps it within DELTA_MAX: it is a Perturbation every tick
        raise ValueError(f"{name} is {value!r}, beyond DELTA_MAX {DELTA_MAX}")
    return value


def _carried_delta_hat(tick: int, snapshot: dict[str, Any] | None) -> float | None:
    """The delta estimate a later record takes: the last snapshot's, read as
    :func:`causalloop.model.read_snapshot` reads it, within DELTA_MAX; None
    when no snapshot came before, which :func:`trace_from_lines` refuses."""
    if snapshot is None:
        return None
    name = "the last model snapshot's delta_hat"
    try:
        value = snapshot["delta_hat"]
    except KeyError as exc:
        raise ValueError(f"tick {tick}: the last model snapshot holds no delta_hat") from exc
    try:
        return _within_delta_max(json_number(value, name=name), name)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"tick {tick}: {exc}") from exc


def record_from_dict(
    d: Any, previous: TraceRecord | None = None, snapshot: dict[str, Any] | None = None
) -> TraceRecord:
    """The record a trace line's JSON value holds, read in one pass.

    The line holds what :func:`record_to_dict` writes; the reader rebuilds
    the rest, so the record equals the one written.  ``epsilon`` and
    ``per_dim`` are :func:`causalloop.core.loss` of the checked
    ``predicted_next`` and ``observed``.  A record without a snapshot takes
    ``previous``'s ``model_digest``.  A record of a tick other than 0 takes
    ``previous``'s ``observed`` itself as its ``state``, and as its
    ``delta_hat`` the one of ``snapshot``, the last model snapshot, read as
    :func:`causalloop.model.read_snapshot` reads it and held within
    ``DELTA_MAX`` as a written one is.  :func:`trace_from_lines` carries
    both forward.  Where there is none to take (the defaults, as for the
    first line), a record takes None, or ``""`` as its digest:
    :func:`trace_from_lines` refuses such a trace after its ticks, as its
    first record is off tick 0 or carries no snapshot.

    Written records hold JSON floats in every numeric field, so one pass
    checks them all at once: the keys by their count, the kind, the four
    non-numeric fields' types in one set lookup, every number's type and
    finiteness in one pass each over all of them, and ``delta_hat``'s range.
    Anything else, a refusal or a JSON int where a float goes, is read field
    by field in record order by :func:`read_fields`, ``delta_hat``'s range
    checked in its place: the first field refused names the refusal
    (:class:`InputError`, or :class:`DomainError` for a non-finite state or
    action), and JSON ints are read as floats.  Every refusal says
    ``malformed trace record: ...``.  Before any field, a record whose
    ``kind`` is missing or not ``"record"``, or that holds ``epsilon``,
    ``per_dim``, another key :func:`record_to_dict` never writes,
    ``model_digest`` without a snapshot, or a null ``reflect``,
    ``fit_event`` or ``model_snapshot`` is refused; after the tick, with
    :class:`InputError` naming it, a tick-0 record without ``state`` or
    ``delta_hat`` and a later one with either; in ``delta_hat``'s place, a
    snapshot delta estimate that is no finite number within ``DELTA_MAX``;
    after the fields, a snapshot with no digest or one that is not a string,
    and a ``predicted_next`` and ``observed`` whose loss cannot be rebuilt
    (of different lengths, or a squared error beyond the float range).
    """
    try:
        kind, tick, action, true_delta, predicted_next, observed = _required(d)
        get = d.get
        reflect, fit_event, model_snapshot = get("reflect"), get("fit_event"), get("model_snapshot")
        # Every key the record must hold is read, so a count that matches
        # leaves room for no other key and for no null optional one.
        size = 6 + (reflect is not None) + (fit_event is not None)
        if model_snapshot is None:
            model_digest = previous.model_digest
        else:
            model_digest = d["model_digest"]
            size += 2
        # A list plus anything but a list is a TypeError.
        if tick == 0:
            state, delta_hat = _first(d)
            numbers = [delta_hat, true_delta] + state + action + predicted_next + observed
            size += 2
        else:
            state, delta_hat = previous.observed, snapshot["delta_hat"]
            numbers = [delta_hat, true_delta] + action + predicted_next + observed
        if (
            len(d) == size
            and kind == "record"
            and (type(tick), type(reflect), type(fit_event), type(model_snapshot)) in _SCALAR_TYPES
            and type(model_digest) is str
            and _FLOAT.issuperset(map(type, numbers))
            and all(map(math.isfinite, numbers))
            and -DELTA_MAX <= delta_hat <= DELTA_MAX
        ):
            predicted, obs = StateVec.checked(tuple(predicted_next)), StateVec.checked(tuple(observed))
            if tick == 0:
                state = StateVec.checked(tuple(state))
            err = loss(predicted, obs)
            return TraceRecord(
                tick, state, ActionVec.checked(tuple(action)), delta_hat, true_delta, predicted, obs,
                err.epsilon, err.per_dim, reflect, fit_event, model_digest, model_snapshot,
            )
    except (AttributeError, KeyError, TypeError, DimensionError, DomainError):
        pass
    return _record_by_field(d, previous, snapshot)


def _record_by_field(d: Any, previous: TraceRecord | None, snapshot: dict[str, Any] | None) -> TraceRecord:
    """:func:`record_from_dict` for a line its one pass did not take: each
    field read and checked on its own, in record order."""
    try:
        _refuse_keys(d)
        tick = read_fields(TraceRecord, d, ("tick",))["tick"]
        _refuse_first_keys(d, tick)
        if tick == 0:
            fields = read_fields(TraceRecord, d, ("state", "action", "delta_hat"))
            _within_delta_max(fields["delta_hat"], "delta_hat")
        else:
            fields = read_fields(TraceRecord, d, ("action",))
            fields["state"] = None if previous is None else previous.observed
            fields["delta_hat"] = _carried_delta_hat(tick, snapshot)
        fields |= read_fields(TraceRecord, d, ("true_delta", "predicted_next", "observed"))
        fields |= dict.fromkeys(_OPTIONAL)
        fields |= read_fields(TraceRecord, d, [name for name in _OPTIONAL if name in d])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed trace record: {exc}") from exc
    except DomainError as exc:
        raise DomainError(f"malformed trace record: {exc}") from exc
    try:
        if fields["model_snapshot"] is None:
            digest = "" if previous is None else previous.model_digest
        elif "model_digest" not in d:
            raise ValueError("a model snapshot without a model_digest")
        else:
            digest = read_fields(TraceRecord, d, ("model_digest",))["model_digest"]
        err = loss(fields["predicted_next"], fields["observed"])
    except (TypeError, ValueError, DimensionError, DomainError) as exc:
        raise InputError(f"malformed trace record: tick {tick}: {exc}") from exc
    return TraceRecord(tick=tick, **fields, epsilon=err.epsilon, per_dim=err.per_dim, model_digest=digest)


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------


# What ``json.dumps(obj, allow_nan=False)`` and ``json.loads(s)`` build or
# look up on every call, built once.
_ENCODER = json.JSONEncoder(allow_nan=False)
_DECODER = json.JSONDecoder()


def trace_to_lines(trace: EpisodeTrace) -> list[str]:
    """JSON lines; a record JSON cannot hold (an infinite score) raises DomainError naming its tick."""
    encode = _ENCODER.encode
    lines = [encode(header_to_dict(trace.header))]
    for r in trace.records:
        try:
            lines.append(encode(record_to_dict(r)))
        except ValueError as exc:
            raise DomainError(f"tick {r.tick}: the trace record cannot be written: {exc}") from exc
    return lines


def write_trace(trace: EpisodeTrace, path: str) -> None:
    atomic_write_text(path, "\n".join(trace_to_lines(trace)) + "\n")


def trace_from_lines(lines: list[str], source: str = "trace") -> EpisodeTrace:
    """The trace that ``lines`` hold, the inverse of :func:`trace_to_lines`.

    Blank lines (empty or whitespace only) are skipped but counted, so a
    refusal names the line of ``lines`` it found, counted from 1.  Every
    other line is parsed, then the header read, then every record, and only
    then are the ticks checked, so each refusal the readers make wins over a
    record out of place.  The *i*-th record must hold tick *i*: a trace with
    a record dropped, repeated or moved is refused; one that stops early is
    not.  Each record is read with the record before it and the last model
    snapshot, which give a later record its state, its delta estimate and,
    without a snapshot of its own, its digest (:func:`record_from_dict`);
    so the first record must carry a snapshot, and the tick check is what
    keeps a record from taking another's state.  A line that is not JSON, a
    record off its tick's line and a first record without a snapshot raise
    :class:`InputError` naming ``source`` and the line; a record refused by
    :func:`record_from_dict` raises its class with ``source`` and the line
    before its message; :func:`header_from_dict` raises its own.
    """
    numbers = [n for n, ln in enumerate(lines, start=1) if ln and not ln.isspace()]
    if not numbers:
        raise InputError(f"{source}: empty trace file")
    if len(numbers) < len(lines):
        lines = [lines[n - 1] for n in numbers]
    decode = _DECODER.decode
    parsed = []
    for n, ln in zip(numbers, lines):
        try:
            parsed.append(decode(ln))
        except ValueError as exc:  # a JSONDecodeError, or an int too long to convert
            raise InputError(f"{source}: line {n}: {exc}") from exc
    header = header_from_dict(parsed[0])
    if header.format_version != TRACE_FORMAT_VERSION:
        raise InputError(
            f"unsupported trace format_version {header.format_version}"
            f" (this reader reads format {TRACE_FORMAT_VERSION})"
        )
    records: list[TraceRecord] = []
    previous = snapshot = None  # carried forward: the record before and the last snapshot
    try:
        for d in parsed[1:]:
            previous = record_from_dict(d, previous, snapshot)
            records.append(previous)
            if previous.model_snapshot is not None:
                snapshot = previous.model_snapshot
    except (InputError, DomainError) as exc:
        raise type(exc)(f"{source}: line {numbers[len(records) + 1]}: {exc}") from exc
    for i, r in enumerate(records):
        if r.tick != i:
            raise InputError(f"{source}: line {numbers[i + 1]} holds tick {r.tick}, expected {i}")
    if records and records[0].model_snapshot is None:
        raise InputError(f"{source}: line {numbers[1]}: the first record carries no model snapshot, so no digest")
    return EpisodeTrace(header=header, records=tuple(records))


def read_trace(path: str) -> EpisodeTrace:
    """The trace in the UTF-8 file at ``path`` (:func:`trace_from_lines`):
    blank lines are skipped, and a refusal names the file's line, blank
    lines counted."""
    return trace_from_lines(read_text(path, "trace").splitlines(), path)
