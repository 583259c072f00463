"""Ground-truth simulator: piecewise-constant causal laws over discrete ticks.

A world is a vector state advanced one tick at a time.  Each edge of the
active causal graph reads one source variable (a state or action
component), pushes ``coefficient * form(source) * exp(-delta_t)`` into a
queue, and that contribution lands additively on its target dimension
``delay`` ticks later.  Scheduled breaks swap the whole graph at fixed
ticks, which is how "the laws changed" is realized.  The per-tick scalar
``delta_t`` comes from a perturbation process the agent never sees; only
the noisy observation and (for scoring purposes) the trace know it.

The per-tick edge representation is a graph's ``plan``: one plain tuple
per edge, ``(reads_action, source_index, delay, target, coefficient,
form)`` in edge order, built once per graph.  ``world_step`` and the
model's ``predict_next`` loop over it and read the vectors' values
directly, with no attribute chain or method call per edge.

``world_step`` is pure: it returns a new :class:`WorldState` and never
mutates its input, so stepping the same state twice gives the same result.
All randomness is addressed by (seed, tick) -- see :mod:`causalloop.rng`.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import (
    ActionVec,
    ConfigError,
    DimensionError,
    DomainError,
    StateVec,
    check_finite,
)
from . import rng as _rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .scenario import ScenarioConfig


# ---------------------------------------------------------------------------
# Graph structure
# ---------------------------------------------------------------------------


class Form(enum.Enum):
    """Functional form applied to an edge's source value."""

    LINEAR = "linear"
    TANH = "tanh"
    QUADRATIC = "quadratic"

    def apply(self, v: float) -> float:
        if self is Form.LINEAR:
            return v
        if self is Form.TANH:
            return math.tanh(v)
        return v * v


class SourceKind(enum.Enum):
    ACTION = "action"
    STATE = "state"


@dataclass(frozen=True)
class VarRef:
    """Reference to one scalar variable: an action or state component."""

    kind: SourceKind
    index: int

    @staticmethod
    def action(index: int) -> VarRef:
        return VarRef(SourceKind.ACTION, index)

    @staticmethod
    def state(index: int) -> VarRef:
        return VarRef(SourceKind.STATE, index)

    def sort_key(self) -> tuple[str, int]:
        # "action" < "state" alphabetically; that is the canonical ordering.
        return (self.kind.value, self.index)


@dataclass(frozen=True)
class CausalEdge:
    """One directed influence: source variable -> state dimension ``target``."""

    source: VarRef
    target: int
    delay: int
    coefficient: float
    form: Form = Form.LINEAR

    def __post_init__(self) -> None:
        if self.delay < 1:
            raise ConfigError(f"edge delay must be >= 1, got {self.delay}")
        if not math.isfinite(self.coefficient):
            raise ConfigError(f"edge coefficient must be finite, got {self.coefficient!r}")


# One edge as the per-tick loops read it (:attr:`CausalGraph.plan`).
EdgePlan = tuple[bool, int, int, int, float, Form]


@dataclass(frozen=True)
class CausalGraph:
    """Edge set plus the dimensions it is defined over."""

    d_state: int
    d_action: int
    edges: tuple[CausalEdge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.d_state < 1:
            raise ConfigError(f"d_state must be >= 1, got {self.d_state}")
        if self.d_action < 0:
            raise ConfigError(f"d_action must be >= 0, got {self.d_action}")
        seen: set[tuple[VarRef, int, int]] = set()
        for e in self.edges:
            self.check_in_range(e)
            key = (e.source, e.target, e.delay)
            if key in seen:
                raise ConfigError(f"duplicate edge (source={e.source}, target={e.target}, delay={e.delay})")
            seen.add(key)

    def check_in_range(self, e: CausalEdge) -> None:
        """Raise :class:`ConfigError` unless ``e``'s target and source are
        dimensions of this graph."""
        if not 0 <= e.target < self.d_state:
            raise ConfigError(f"edge target {e.target} out of range for d_state={self.d_state}")
        bound = self.d_action if e.source.kind is SourceKind.ACTION else self.d_state
        if not 0 <= e.source.index < bound:
            raise ConfigError(f"edge source {e.source.kind.value}[{e.source.index}] out of range")

    def incoming(self, target: int) -> tuple[tuple[int, CausalEdge], ...]:
        """(index, edge) pairs for edges landing on ``target``."""
        return tuple((i, e) for i, e in enumerate(self.edges) if e.target == target)

    @functools.cached_property
    def plan(self) -> tuple[EdgePlan, ...]:
        """The edges as plain tuples, in edge order, for the per-tick loops:
        ``(reads_action, source_index, delay, target, coefficient, form)``.

        Computed on first use and kept in the instance's ``__dict__``, so it
        is not a field: equality, hashing and ``dataclasses.replace`` ignore
        it, and a replaced graph computes its own.
        """
        return tuple(
            (e.source.kind is SourceKind.ACTION, e.source.index, e.delay, e.target, e.coefficient, e.form)
            for e in self.edges
        )


@dataclass(frozen=True)
class ScheduledBreak:
    """From ``at_tick`` onward the world follows ``graph`` instead."""

    at_tick: int
    graph: CausalGraph


def active_graph(initial: CausalGraph, breaks: tuple[ScheduledBreak, ...], tick: int) -> CausalGraph:
    """The graph in force at ``tick`` under a sorted break schedule."""
    current = initial
    for b in breaks:
        if tick >= b.at_tick:
            current = b.graph
        else:
            break
    return current


# ---------------------------------------------------------------------------
# Perturbation processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoPerturbation:
    """delta_t = 0 forever."""


@dataclass(frozen=True)
class GaussianWalk:
    """delta_t follows a clamped random walk with step stddev ``sigma_delta``."""

    sigma_delta: float


@dataclass(frozen=True)
class Spike:
    """delta_t = ``magnitude`` with probability ``prob``, else 0; memoryless."""

    prob: float
    magnitude: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ConfigError(f"spike prob must be in [0, 1], got {self.prob}")


PerturbationProcess = NoPerturbation | GaussianWalk | Spike


def _sample_delta(process: PerturbationProcess, prev: float, gen, delta_max: float) -> float:
    if isinstance(process, NoPerturbation):
        return 0.0
    if isinstance(process, GaussianWalk):
        nxt = prev + gen.normal(0.0, process.sigma_delta)
        return max(-delta_max, min(delta_max, nxt))
    u = gen.uniform()
    if u < process.prob:
        return max(-delta_max, min(delta_max, process.magnitude))
    return 0.0


# ---------------------------------------------------------------------------
# World state and stepping
# ---------------------------------------------------------------------------


# A queued effect: lands on state[target] when the world reaches due_tick.
PendingEffect = tuple[int, int, float]  # (due_tick, target, value)


@dataclass(frozen=True)
class WorldState:
    """Everything the simulator needs to take its next step."""

    scenario: "ScenarioConfig"
    seed: int
    tick: int
    current: StateVec
    pending: tuple[PendingEffect, ...] = ()
    delta: float = 0.0  # perturbation process state (previous delta_t)


def check_seed(seed: int) -> None:
    """Raise :class:`ConfigError` unless ``seed`` fits the 64-bit word that
    keys every random stream (:mod:`causalloop.rng`)."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")


def world_init(scenario: "ScenarioConfig", seed: int) -> WorldState:
    """Validated initial world at tick 0."""
    scenario.validate()
    check_seed(seed)
    return WorldState(
        scenario=scenario,
        seed=seed,
        tick=0,
        current=StateVec(tuple(scenario.initial_state)),
    )


def world_step(w: WorldState, action: ActionVec) -> tuple[WorldState, StateVec, float]:
    """Advance one tick; returns (new world, noisy observation, true delta_t).

    Effects caused at tick t land at t + delay; the graph and delta in
    force at the *cause* tick are what get baked into the queued value.
    Observation noise touches only the returned observation, never the
    internal state.
    """
    sc = w.scenario
    if len(action) != sc.d_action:
        raise DimensionError(f"action has {len(action)} dims, scenario wants {sc.d_action}")

    gen = _rng.shared_stream(w.seed, _rng.STREAM_WORLD, w.tick)
    delta_t = _sample_delta(sc.perturbation, w.delta, gen, sc.delta_max)
    scale = math.exp(-delta_t)

    # Effects already queued land first, in queue order, then this tick's
    # in edge order: a delay-1 effect lands at once, the rest are queued.
    tick = w.tick
    new_tick = tick + 1
    states = w.current.values
    values = list(states)
    remaining: list[PendingEffect] = []
    for due, target, value in w.pending:
        if due == new_tick:
            values[target] += value
        else:
            remaining.append((due, target, value))
    actions = action.values
    plan = active_graph(sc.graph, sc.breaks, tick).plan
    linear, tanh = Form.LINEAR, Form.TANH
    for reads_action, index, delay, target, coefficient, form in plan:
        v = (actions if reads_action else states)[index]
        if form is not linear:
            v = math.tanh(v) if form is tanh else v * v
        if delay == 1:
            values[target] += coefficient * v * scale
        else:
            remaining.append((tick + delay, target, coefficient * v * scale))
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise DomainError(f"state diverged to {bad!r} at tick {new_tick}")
    # Each value was just checked: wrap them without a second pass.
    new_state = StateVec.checked(tuple(values))

    if sc.noise_sigma > 0.0:
        noise = gen.normal(0.0, sc.noise_sigma, size=sc.d_state).tolist()
        observed = StateVec.checked(check_finite(tuple(map(operator.add, values, noise)), "state"))
    else:
        observed = new_state

    # The constructor, not ``dataclasses.replace``, which costs more per tick.
    new_world = WorldState(
        scenario=sc,
        seed=w.seed,
        tick=new_tick,
        current=new_state,
        pending=tuple(remaining),
        delta=delta_t,
    )
    return new_world, observed, delta_t
