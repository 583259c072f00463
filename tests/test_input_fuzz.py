"""The input boundary under fuzzing: one field of a valid trace line or
scenario dict replaced by an arbitrary JSON value.

Only :class:`CausalLoopError` subclasses may escape ``read_trace``,
``scenario_from_dict`` and a scenario's ``validate``, and a CLI command
that reads the refused input exits 2.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from causalloop.agent import RandomPolicy, run_episode
from causalloop.cli import main
from causalloop.core import CausalLoopError
from causalloop.scenario import builtin_scenarios, scenario_from_dict, scenario_to_dict
from causalloop.trace import read_trace, trace_to_lines
from causalloop.world import ScheduledBreak, Spike

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


@settings(max_examples=150, deadline=None)
@given(SCENARIO_PATHS, JSON_VALUES)
def test_only_causalloop_errors_escape_scenario_from_dict(path, value):
    doc = replaced(SCENARIO, path, value)
    try:
        scenario_from_dict(doc).validate()
    except CausalLoopError:
        with tempfile.TemporaryDirectory() as tmp:
            file = os.path.join(tmp, "s.json")
            with open(file, "w") as fh:
                json.dump(doc, fh)
            assert main(["run", file, "--seed", "0", "--length", "2"]) == 2
