"""Deterministic explanations whose every number is checkable.

The template backend turns a model application into fixed-format prose:
one sentence per predicted contribution, naming the edge's source
variable; an optional counterfactual contrast, naming the delta asked
for; and a short summary of a repair event, which phrases each accepted
edit from its class (the edit objects the reflect block reader returns,
never their records).  Each explanation carries a ``grounding`` dict
holding every quantity the text mentions; the anti-hallucination contract
is that every numeral extracted from the text appears among the grounded
values, formatted the same way (six significant digits, trailing zeros
trimmed).

An LLM may optionally render the same facts as free text, but only
through :func:`narrate_via_llm`, which is inert unless the
``EXPLAIN_LLM_URL`` environment variable is set.  Nothing else in the
package ever talks to a network.
"""

from __future__ import annotations

import enum
import json
import math
import os
import re
from dataclasses import dataclass, replace
from typing import Any

from .core import ActionVec, CausalTuple, ConfigError, InputError, Perturbation, StateVec, TimeIndex
from .model import CausalModel, counterfactual, model_from_snapshot
from .reflect import (
    CoefChange,
    DelayChange,
    DeltaShift,
    EdgeAdd,
    EdgeRemove,
    StructuralBreak,
    hypothesis_from_row,
    hypothesis_to_dict,
)
from .scenario import canonical_json, json_number
from .trace import EpisodeTrace, TraceRecord, reflect_block_from_dict
from .world import SourceKind

ENV_LLM_URL = "EXPLAIN_LLM_URL"
ENV_LLM_KEY = "EXPLAIN_LLM_KEY"


# ---------------------------------------------------------------------------
# Number formatting and numeral auditing
# ---------------------------------------------------------------------------


def fmt(v: float) -> str:
    """Canonical numeric rendering: <= 6 significant digits, no trailing zeros."""
    v = float(v)
    if v == 0.0:
        v = 0.0  # collapse -0.0
    return format(v, ".6g")


def fmt_vec(values) -> str:
    vals = values.values if hasattr(values, "values") else values
    return "[" + ", ".join(fmt(v) for v in vals) + "]"


_NUMERAL = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def extract_numerals(text: str) -> list[str]:
    """Every numeric token in the text.

    A minus immediately preceded by ``^`` belongs to template notation
    (the ``e^-x`` factor), not to the numeral's sign.
    """
    out = []
    for match in _NUMERAL.finditer(text):
        token = match.group(0)
        if token.startswith("-") and match.start() > 0 and text[match.start() - 1] == "^":
            token = token[1:]
        out.append(token)
    return out


def _collect(value: Any, into: set[str]) -> None:
    if isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)):
        into.add(fmt(value))
        into.add(str(value))
    elif isinstance(value, (list, tuple)):
        for v in value:
            _collect(v, into)
    elif isinstance(value, dict):
        for v in value.values():
            _collect(v, into)
    elif not isinstance(value, str) and hasattr(value, "values"):
        _collect(value.values, into)


def grounded_numerals(grounding: dict[str, Any]) -> set[str]:
    out: set[str] = set()
    _collect(grounding, out)
    return out


class ExplanationKind(enum.Enum):
    CAUSAL = "causal"
    COUNTERFACTUAL = "counterfactual"
    REFLECTION_SUMMARY = "reflection_summary"


@dataclass(frozen=True)
class Explanation:
    kind: ExplanationKind
    text: str
    grounding: dict[str, Any]


def is_grounded(expl: Explanation) -> bool:
    """True iff every numeral in the text appears among the grounded values."""
    return set(extract_numerals(expl.text)) <= grounded_numerals(expl.grounding)


# ---------------------------------------------------------------------------
# Template backend
# ---------------------------------------------------------------------------


def explain_transition(m: CausalModel, t: CausalTuple) -> Explanation:
    """One sentence per modeled contribution of this action/state point,
    naming the edge's source variable."""
    effects = counterfactual(m, t, m.delta_hat).contributions
    scale = math.exp(-m.delta_hat)
    tick = t.time.tick
    scaled = f"scaled by perturbation factor e^-{fmt(m.delta_hat)} = {fmt(scale)}."
    sentences = []
    contribs = []
    for delay, target, _, reads_action, index, value in effects:
        kind = (SourceKind.ACTION if reads_action else SourceKind.STATE).value
        sentences.append(
            f"At tick {tick}, {kind}[{index}] is predicted to change state dimension "
            f"{target} by {fmt(value)} after a delay of {delay} ticks, {scaled}"
        )
        contribs.append({"source": kind, "source_index": index, "target": target, "delay": delay, "effect": value})
    if not sentences:
        sentences.append(
            f"At tick {tick}, action {fmt_vec(t.action)} has no modeled causal effect; "
            "the state is predicted to persist."
        )
    grounding = {
        "tick": tick,
        "action": list(t.action.values),
        "state": list(t.state.values),
        "delta_hat": m.delta_hat,
        "scale": scale,
        "contributions": contribs,
    }
    return Explanation(ExplanationKind.CAUSAL, " ".join(sentences), grounding)


def explain_counterfactual(
    m: CausalModel, t: CausalTuple, delta_prime: float | Perturbation
) -> Explanation:
    """Contrast the factual prediction with one under an alternative delta.

    The contrast is drawn at the farthest modeled horizon, where every
    contribution has landed.  A delta of 0 reads as the perturbation not
    having occurred; any other names both deltas.
    """
    d_prime = delta_prime.delta if isinstance(delta_prime, Perturbation) else float(delta_prime)
    _, _, horizon, s_factual = counterfactual(m, t, m.delta_hat)
    s_contrary = counterfactual(m, t, d_prime).state
    if d_prime == 0.0:
        had = f"Had perturbation δ={fmt(m.delta_hat)} not occurred"
    else:
        had = f"Had the perturbation been δ'={fmt(d_prime)} instead of δ={fmt(m.delta_hat)}"
    if s_contrary == s_factual:
        text = f"{had}, the model predicts no difference: state {fmt_vec(s_factual)} either way."
    else:
        text = (
            f"{had}, the model predicts the system would have transitioned to state "
            f"{fmt_vec(s_contrary)} instead of {fmt_vec(s_factual)}."
        )
    grounding = {
        "tick": t.time.tick,
        "delta_hat": m.delta_hat,
        "delta_prime": d_prime,
        "horizon": horizon,
        "factual": list(s_factual.values),
        "counterfactual": list(s_contrary.values),
    }
    return Explanation(ExplanationKind.COUNTERFACTUAL, text, grounding)


_HYPOTHESIS_PHRASES = {
    DeltaShift: lambda h: f"the perturbation estimate was set to {fmt(h.new_delta)}",
    CoefChange: lambda h: f"edge {h.edge_index} took coefficient {fmt(h.new_coefficient)}",
    DelayChange: lambda h: f"edge {h.edge_index} took delay {h.new_delay}",
    EdgeRemove: lambda h: f"edge {h.edge_index} was removed",
    EdgeAdd: lambda h: (
        f"a {h.source.kind.value}[{h.source.index}] link to state dimension "
        f"{h.target} was added with delay {h.delay} and coefficient {fmt(h.coefficient)}"
    ),
    StructuralBreak: lambda h: (
        f"a structural break was declared, keeping the last {h.keep} transitions"
    ),
}


def explain_reflection(tick: int, report: dict[str, Any]) -> Explanation:
    """Summarize a repair event from its serialized report.

    The report is read by :func:`causalloop.trace.reflect_block_from_dict`,
    which raises :class:`InputError` for a malformed one.
    """
    block = reflect_block_from_dict(tick, report)
    accepted = block.accepted
    parts = [
        f"At tick {tick}, prediction error {fmt(block.epsilon)} exceeded the threshold "
        f"{fmt(block.tau)}; {len(block.candidates)} candidate repairs were scored and "
        f"{len(accepted)} accepted."
    ]
    parts += [f"Accepted: {_HYPOTHESIS_PHRASES[type(h)](h)}." for h in accepted]
    grounding = {
        "tick": tick,
        "epsilon": block.epsilon,
        "tau": block.tau,
        "candidates": len(block.candidates),
        "accepted_count": len(accepted),
        "accepted": [hypothesis_to_dict(h) for h in accepted],
    }
    return Explanation(ExplanationKind.REFLECTION_SUMMARY, " ".join(parts), grounding)


def model_entering_tick(trace: EpisodeTrace, tick: int) -> tuple[CausalModel, CausalTuple]:
    """The agent's model as it stood when ``tick``'s prediction was made,
    and the causal tuple it predicted at; what the transition and
    counterfactual explanations of the tick read.

    Record i holds tick i, as a trace read or run holds them.  The model is
    the last snapshot recorded before the tick (tick 0 takes its own) with
    the record's ``delta_hat``, which is authoritative at prediction time;
    the tuple is the record's state, action, tick and ``delta_hat``.  A tick
    the trace has no record for, or no snapshot to take, raises
    :class:`InputError`."""
    records = trace.records
    if not 0 <= tick < len(records):
        raise InputError(f"trace has no record for tick {tick}")
    r = records[tick]
    before = (records[i].model_snapshot for i in range(tick - 1, -1, -1))
    snapshot = next((s for s in before if s is not None), r.model_snapshot)
    if snapshot is None:
        raise InputError("trace carries no model snapshot")
    m = replace(model_from_snapshot(snapshot), delta_hat=r.delta_hat)
    return m, CausalTuple(r.state, r.action, TimeIndex(r.tick), Perturbation(r.delta_hat))


# ---------------------------------------------------------------------------
# Prompt bundle and the optional LLM path
# ---------------------------------------------------------------------------

SYSTEM_PREAMBLE = (
    "You are narrating one tick of a logged causal simulation. The facts block "
    "below is the complete and only source of truth."
)
INSTRUCTION = (
    "Write a short plain-language explanation of what the model predicted and why. "
    "Every number you mention must appear verbatim in the facts block; do not "
    "introduce any quantity, cause, or event not present in the facts."
)


@dataclass(frozen=True)
class PromptBundle:
    system_preamble: str
    facts: dict[str, Any]
    instruction: str

    def flatten(self) -> str:
        return f"{self.system_preamble}\n\nFACTS:\n{canonical_json(self.facts)}\n\n{self.instruction}"


def _labelled(tick: int, report: dict[str, Any]) -> dict[str, Any]:
    """``report`` with each candidate and accepted row as its edit's
    labelled object (:func:`causalloop.reflect.hypothesis_to_dict`), a
    candidate's with its ``score``, so the facts name every entry.  Read
    by :func:`causalloop.trace.reflect_block_from_dict`, then each
    candidate by :func:`causalloop.reflect.hypothesis_from_row`; a
    malformed report raises :class:`InputError` naming the tick."""
    block = reflect_block_from_dict(tick, report)
    try:
        candidates = [
            {**hypothesis_to_dict(hypothesis_from_row(row[:-1])), "score": json_number(row[-1], name="score")}
            for row in block.candidates
        ]
    except (TypeError, ValueError) as exc:
        raise InputError(f"tick {tick}: malformed reflect block ({type(exc).__name__}: {exc})") from exc
    return {**report, "candidates": candidates, "accepted": list(map(hypothesis_to_dict, block.accepted))}


def _fact(value: Any) -> Any:
    """A record field's value as a fact: a vector or tuple as a list."""
    if isinstance(value, (StateVec, ActionVec)):
        return list(value.values)
    return list(value) if type(value) is tuple else value


def render_prompt(record: TraceRecord) -> PromptBundle:
    """The facts of ``record``: every field by name, in declaration order,
    with its reflect block's rows labelled (:func:`_labelled`).  Built from
    the record, not from its trace line, which leaves out what the reader
    rebuilds, such as a later tick's state and delta estimate."""
    facts: dict[str, Any] = {"record": {name: _fact(value) for name, value in zip(TraceRecord._fields, record)}}
    if record.reflect is not None:
        facts["record"]["reflect"] = _labelled(record.tick, record.reflect)
    return PromptBundle(system_preamble=SYSTEM_PREAMBLE, facts=facts, instruction=INSTRUCTION)


def llm_configured() -> bool:
    return bool(os.environ.get(ENV_LLM_URL))


def _post_json(
    url: str, payload: dict[str, Any], headers: dict[str, str], timeout: float
) -> tuple[int, bytes]:
    """POST ``payload`` as JSON; the response's status code and body.

    An HTTP error status is returned like any other; a failure to reach the
    endpoint at all raises :class:`InputError`.
    """
    import urllib.error  # only here: the import costs ~2 MB of resident memory
    import urllib.request

    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **headers},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (OSError, ValueError) as exc:  # URLError and timeouts are OSErrors
        raise InputError(f"cannot reach LLM endpoint {url}: {exc}") from exc


def narrate_via_llm(bundle: PromptBundle, max_tokens: int = 256, timeout: float = 10.0) -> str:
    """POST the bundle to the configured endpoint; only called explicitly.

    The endpoint contract is JSON in, JSON out: {"prompt", "max_tokens"}
    -> {"text"}.  Raises :class:`ConfigError` when no endpoint is
    configured and :class:`InputError` on a malformed response.
    """
    url = os.environ.get(ENV_LLM_URL)
    if not url:
        raise ConfigError(f"{ENV_LLM_URL} is not set; the template backend is the only path")
    headers = {}
    key = os.environ.get(ENV_LLM_KEY)
    if key:
        headers["Authorization"] = f"Bearer {key}"
    status, body = _post_json(
        url, {"prompt": bundle.flatten(), "max_tokens": max_tokens}, headers, timeout
    )
    if status != 200:
        raise InputError(f"LLM endpoint returned status {status}")
    try:
        text = json.loads(body)["text"]
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"LLM endpoint returned malformed payload: {exc}") from exc
    if not isinstance(text, str):
        raise InputError("LLM endpoint 'text' field is not a string")
    return text
