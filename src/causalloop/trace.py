"""Episode traces: one JSONL file per run, bit-exact on round-trip.

Line 1 is a header (format and artifact versions, the RNG scheme, the
scenario digest, seed, policy, length); every following line is one tick's
record.  Floats serialize via Python's shortest-round-trip repr, so a
parsed trace compares equal to the in-memory original and replay can
demand bit-identity rather than tolerances.

Records carry the one-step prediction, the full reflect report (every
candidate and its score) and a model snapshot whenever the model's digest
changed that tick, which is what lets evaluation and explanation
reconstruct the agent's model at any tick without re-running anything.
Horizon predictions are not recorded: explanation recomputes them from
the snapshot and the record's delta_hat.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import NoneType
from typing import Any

from .core import ActionVec, DomainError, InputError, StateVec
from .reflect import Hypothesis, ReflectReport, hypothesis_from_dict, hypothesis_to_dict
from .rng import GENERATOR_NAME, SCHEME_VERSION
from .scenario import atomic_write_text, json_number, json_typed

TRACE_FORMAT_VERSION = 3


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


@dataclass(frozen=True)
class TraceRecord:
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
        "candidates": [
            {"hypothesis": hypothesis_to_dict(hs.hypothesis), "score": hs.score}
            for hs in r.candidates
        ],
        "accepted": [hypothesis_to_dict(h) for h in r.accepted],
    }


@dataclass(frozen=True)
class ReflectBlock:
    """What the readers of a record's reflect block read of it."""

    epsilon: float
    tau: float
    candidates: list[dict[str, Any]]  # contents not read yet
    accepted: tuple[Hypothesis, ...]


def reflect_block_from_dict(tick: int, d: dict[str, Any]) -> ReflectBlock:
    """A record's reflect block as :func:`report_to_dict` writes it:
    ``triggered`` true, finite ``epsilon`` and ``tau``, a list of candidate
    objects and each accepted edit read by :func:`hypothesis_from_dict`.
    Anything else raises :class:`InputError` naming the tick."""
    try:
        if d["triggered"] is not True:
            raise ValueError(f"triggered is {d['triggered']!r}, expected true")
        candidates = json_typed(d["candidates"], list, name="candidates")
        if not all(type(c) is dict for c in candidates):
            raise TypeError("candidates are not all objects")
        accepted = json_typed(d["accepted"], list, name="accepted")
        return ReflectBlock(
            epsilon=json_number(d["epsilon"], name="epsilon"),
            tau=json_number(d["tau"], name="tau"),
            candidates=candidates,
            accepted=tuple(map(hypothesis_from_dict, accepted)),
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
        return TraceHeader(
            scenario_digest=json_typed(d["scenario_digest"], str, name="scenario_digest"),
            scenario_name=json_typed(d["scenario_name"], str, name="scenario_name"),
            seed=json_typed(d["seed"], int, name="seed"),
            length=json_typed(d["length"], int, name="length"),
            policy=json_typed(d["policy"], dict, name="policy"),
            reflect_enabled=json_typed(d["reflect_enabled"], bool, name="reflect_enabled"),
            artifact_version=json_typed(d["artifact_version"], str, name="artifact_version"),
            format_version=json_typed(d["format_version"], int, name="format_version"),
            generator=json_typed(d["generator"], dict, name="generator"),
        )
    except KeyError as exc:
        raise InputError(f"trace header missing key {exc}") from exc
    except TypeError as exc:
        raise InputError(f"malformed trace header: {exc}") from exc


def record_to_dict(r: TraceRecord) -> dict[str, Any]:
    return {
        "kind": "record",
        "tick": r.tick,
        "state": list(r.state.values),
        "action": list(r.action.values),
        "delta_hat": r.delta_hat,
        "true_delta": r.true_delta,
        "predicted_next": list(r.predicted_next.values),
        "observed": list(r.observed.values),
        "epsilon": r.epsilon,
        "per_dim": list(r.per_dim),
        "reflect": r.reflect,
        "fit_event": r.fit_event,
        "model_digest": r.model_digest,
        "model_snapshot": r.model_snapshot,
    }


def _vector(v: Any) -> list:
    """A record's vector field, which JSON carries as a list of numbers.

    Anything else is refused: read as a vector, a string or a dict would
    quietly yield its characters or keys, and ``float`` would turn the
    element ``"1"`` or ``true`` into 1.0, or overflow on a huge int.
    """
    if type(v) is not list:
        raise TypeError(f"vector field is {type(v).__name__}, not a list")
    for x in v:
        if type(x) is not float:  # floats, nearly every element, cost one check
            json_typed(x, int, float, name="vector element")
    return v


def _finite(v: list, name: str) -> tuple[float, ...]:
    """A vector field's elements as floats, refusing the ``NaN`` and
    ``Infinity`` that Python's JSON parser accepts."""
    out = tuple(map(float, v))
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{name} element is not finite: {list(out)}")
    return out


def record_from_dict(d: dict[str, Any]) -> TraceRecord:
    try:
        return TraceRecord(
            tick=json_typed(d["tick"], int, name="tick"),
            state=StateVec(_vector(d["state"])),
            action=ActionVec(_vector(d["action"])),
            delta_hat=json_number(d["delta_hat"], name="delta_hat"),
            true_delta=json_number(d["true_delta"], name="true_delta"),
            predicted_next=StateVec(_vector(d["predicted_next"])),
            observed=StateVec(_vector(d["observed"])),
            epsilon=json_number(d["epsilon"], name="epsilon"),
            per_dim=_finite(_vector(d["per_dim"]), name="per_dim"),
            reflect=json_typed(d["reflect"], dict, NoneType, name="reflect"),
            fit_event=json_typed(d["fit_event"], str, NoneType, name="fit_event"),
            model_digest=json_typed(d["model_digest"], str, name="model_digest"),
            model_snapshot=json_typed(d["model_snapshot"], dict, NoneType, name="model_snapshot"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed trace record: {exc}") from exc


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------


# What ``json.dumps(obj, allow_nan=False)`` builds on every call, built once.
_ENCODER = json.JSONEncoder(allow_nan=False)


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


def read_trace(path: str) -> EpisodeTrace:
    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise InputError(f"cannot read trace file {path}: {exc}") from exc
    if not lines:
        raise InputError(f"{path}: empty trace file")
    parsed = []
    for i, ln in enumerate(lines, start=1):
        try:
            parsed.append(json.loads(ln))
        except ValueError as exc:  # a JSONDecodeError, or an int too long to convert
            raise InputError(f"{path}: line {i}: {exc}") from exc
    header = header_from_dict(parsed[0])
    if header.format_version != TRACE_FORMAT_VERSION:
        raise InputError(f"unsupported trace format_version {header.format_version}")
    records = tuple(record_from_dict(d) for d in parsed[1:])
    return EpisodeTrace(header=header, records=records)
