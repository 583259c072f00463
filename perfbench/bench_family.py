"""Seeded width-scaled scenario family for the benchmark.

A family member has ``d`` state dimensions and ``max(1, d // 2)`` action
dimensions.  Every state dimension ``j`` is driven by a linear, delay-1
edge from action ``j mod d_action`` with gain magnitude in [0.6, 1.2]; the
even dimensions ``j`` feed ``j + 1`` (mod d) through a tanh edge with delay
1-3 and |gain| <= 0.4.  That bound on state->state gains is the rule that
keeps feedback tame in the test suite's random graphs: each tick moves the
state by a bounded amount, so long episodes never diverge.  The topology is
fixed per width and the seed draws gains, signs, delays and the initial
state, so members of one width cost the same to simulate and differ only in
how the agent's repair loop responds.

With ``break_at`` set, from that tick on every action edge flips sign and
doubles (coefficient * -2).  Delay-1 action edges make the break visible in
the record of the break tick itself, so recovery clocks start at the break.

``hide_edge`` drops the first state->state edge from the agent's starting
graph.  A fit-only agent re-estimates coefficients but never adds an edge,
so its final structural distance stays at least 1.

This module does not import the test suite's helpers, so edits to the
tests cannot shift the benchmark's inputs.
"""

from __future__ import annotations

import numpy as np

from causalloop.scenario import ScenarioConfig
from causalloop.world import CausalEdge, CausalGraph, Form, ScheduledBreak, SourceKind, VarRef

ACTION_GAIN = (0.6, 1.2)
STATE_GAIN_MAX = 0.4
BREAK_FACTOR = -2.0
NOISE_SIGMA = 0.05


def _sign(rng: np.random.Generator) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def width_scenario(
    rng: np.random.Generator,
    d: int,
    break_at: int | None = None,
    hide_edge: bool = False,
    name: str = "width",
) -> ScenarioConfig:
    """One family member drawn from ``rng``; see the module docstring."""
    d_action = max(1, d // 2)
    action_edges = [
        CausalEdge(
            VarRef.action(j % d_action),
            j,
            delay=1,
            coefficient=_sign(rng) * float(rng.uniform(*ACTION_GAIN)),
        )
        for j in range(d)
    ]
    state_edges = [
        CausalEdge(
            VarRef.state(j),
            (j + 1) % d,
            delay=int(rng.integers(1, 4)),
            coefficient=_sign(rng) * float(rng.uniform(0.1, STATE_GAIN_MAX)),
            form=Form.TANH,
        )
        for j in range(0, d, 2)
    ]
    graph = CausalGraph(d, d_action, tuple(action_edges + state_edges))
    breaks: tuple[ScheduledBreak, ...] = ()
    if break_at is not None:
        flipped = tuple(
            CausalEdge(e.source, e.target, e.delay, BREAK_FACTOR * e.coefficient, e.form)
            if e.source.kind is SourceKind.ACTION
            else e
            for e in graph.edges
        )
        breaks = (ScheduledBreak(break_at, CausalGraph(d, d_action, flipped)),)
    agent_graph = None
    if hide_edge:
        agent_graph = CausalGraph(d, d_action, tuple(action_edges + state_edges[1:]))
    return ScenarioConfig(
        name=name,
        d_state=d,
        d_action=d_action,
        initial_state=tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=d)),
        graph=graph,
        breaks=breaks,
        noise_sigma=NOISE_SIGMA,
        agent_graph=agent_graph,
    ).materialized()
