"""Ground-truth simulator: piecewise-constant causal laws over discrete ticks.

A world is a vector state advanced one tick at a time.  Each edge of the
active causal graph reads one source variable (a state or action
component), pushes ``coefficient * form(source) * exp(-delta_t)`` into a
queue, and that contribution lands additively on its target dimension
``delay`` ticks later.  Scheduled breaks swap the whole graph at fixed
ticks, which is how "the laws changed" is realized.  The per-tick scalar
``delta_t`` comes from a perturbation process the agent never sees; only
the noisy observation and (for scoring purposes) the trace know it.

A graph is its ``plan``: one plain tuple per edge, ``(reads_action,
source_index, delay, target, coefficient, form)`` in edge order, with its
two dimensions.  ``world_step`` and the model's ``predict_next`` loop over
it and read the vectors' values directly, with no attribute chain or
method call per edge.  The graph check, equality, serialization, the fit
and repair read it too, and a graph record is parsed and checked straight
into it (:func:`causalloop.scenario.graph_plan_from_dict`).  Edge objects
(:class:`CausalEdge`, :class:`VarRef`) are the public way to state a graph
and to read one back (:attr:`CausalGraph.edges`); no per-tick path builds
them.

``world_step`` is pure: it returns a new :class:`WorldState` and never
mutates its input, so stepping the same state twice gives the same result.
All randomness is addressed by (seed, tick) -- see :mod:`causalloop.rng`.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Iterable

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
        _check_edge(self.delay, self.coefficient)
        object.__setattr__(self, "coefficient", float(self.coefficient))


# One edge as the per-tick loops read it (:attr:`CausalGraph.plan`).
EdgePlan = tuple[bool, int, int, int, float, Form]


def _edge_plan(e: CausalEdge) -> EdgePlan:
    return (e.source.kind is SourceKind.ACTION, e.source.index, e.delay, e.target, e.coefficient, e.form)


def _check_edge(delay: int, coefficient: float) -> None:
    """Raise :class:`ConfigError` unless an edge's delay is at least 1 and
    its coefficient finite, as :class:`CausalEdge` checks them."""
    if delay < 1:
        raise ConfigError(f"edge delay must be >= 1, got {delay}")
    if not math.isfinite(coefficient):
        raise ConfigError(f"edge coefficient must be finite, got {coefficient!r}")


def _check_ends(d_state: int, d_action: int, reads_action: bool, index: int, target: int) -> None:
    """Raise :class:`ConfigError` unless an edge's target and source are
    dimensions of a ``d_state`` by ``d_action`` graph."""
    if not 0 <= target < d_state:
        raise ConfigError(f"edge target {target} out of range for d_state={d_state}")
    if not 0 <= index < (d_action if reads_action else d_state):
        kind = SourceKind.ACTION if reads_action else SourceKind.STATE
        raise ConfigError(f"edge source {kind.value}[{index}] out of range")


def _duplicate(reads_action: bool, index: int, target: int, delay: int) -> ConfigError:
    """The refusal of a second edge with this source, target and delay,
    naming the source's :class:`VarRef`, built only here."""
    source = VarRef(SourceKind.ACTION if reads_action else SourceKind.STATE, index)
    return ConfigError(f"duplicate edge (source={source}, target={target}, delay={delay})")


def _check_plan(d_state: int, d_action: int, plan: tuple[EdgePlan, ...]) -> None:
    """The one graph check: raise :class:`ConfigError` unless ``d_state`` is
    at least 1, ``d_action`` at least 0, and each edge of ``plan``, in
    order, has its target and source among the graph's dimensions and no
    earlier edge the same source, target and delay.  Edges are checked as
    tuples; a refusal names the edge's :class:`VarRef`, built only then."""
    if d_state < 1:
        raise ConfigError(f"d_state must be >= 1, got {d_state}")
    if d_action < 0:
        raise ConfigError(f"d_action must be >= 0, got {d_action}")
    seen: set[tuple[bool, int, int, int]] = set()
    for reads_action, index, delay, target, _, _ in plan:
        if not (0 <= target < d_state and 0 <= index < (d_action if reads_action else d_state)):
            _check_ends(d_state, d_action, reads_action, index, target)
        key = (reads_action, index, target, delay)
        if key in seen:
            raise _duplicate(reads_action, index, target, delay)
        seen.add(key)


@dataclass(frozen=True, init=False)
class CausalGraph:
    """Edge set plus the dimensions it is defined over, held as its plan:
    one :data:`EdgePlan` tuple per edge, in edge order.

    ``CausalGraph(d_state, d_action, edges)`` takes :class:`CausalEdge`
    objects and runs the one graph check; ``dataclasses.replace(g,
    edges=...)`` builds through it.  :attr:`edges` gives the edges back,
    built on each read.  Equality and the hash are those of ``(d_state,
    d_action, plan)``, which compare as the edges would, ``-0.0 == 0.0``
    included.
    """

    d_state: int
    d_action: int
    plan: tuple[EdgePlan, ...] = field(init=False)

    def __init__(self, d_state: int, d_action: int, edges: Iterable[CausalEdge]) -> None:
        plan = tuple(map(_edge_plan, edges))
        _check_plan(d_state, d_action, plan)
        object.__setattr__(self, "d_state", d_state)
        object.__setattr__(self, "d_action", d_action)
        object.__setattr__(self, "plan", plan)

    @staticmethod
    def from_plan(d_state: int, d_action: int, plan: tuple[EdgePlan, ...]) -> CausalGraph:
        """The graph of ``plan``, which must already have passed
        :func:`_check_plan` with these dimensions, with each delay at least
        1 and each coefficient a finite number, as :class:`CausalEdge`
        would check (:func:`causalloop.scenario.graph_plan_from_dict` reads
        a graph record so).  Nothing is checked again."""
        graph = object.__new__(CausalGraph)
        object.__setattr__(graph, "d_state", d_state)
        object.__setattr__(graph, "d_action", d_action)
        object.__setattr__(graph, "plan", plan)
        return graph

    @property
    def edges(self) -> tuple[CausalEdge, ...]:
        """The edges as :class:`CausalEdge` objects, built from the plan on
        each read, for the public API; no per-tick path reads them."""
        action, state = SourceKind.ACTION, SourceKind.STATE
        return tuple(
            CausalEdge(VarRef(action if reads_action else state, index), target, delay, coefficient, form)
            for reads_action, index, delay, target, coefficient, form in self.plan
        )

    def with_coefficients(self, coefficients: list[float]) -> CausalGraph:
        """This graph with edge ``i``'s coefficient ``coefficients[i]``,
        each kept bit for bit (-0.0 included).

        The structure is this graph's and was checked when it was built, so
        only the new coefficients are: one that is not finite raises
        :class:`ConfigError`, as :class:`CausalEdge` does.
        """
        for c in coefficients:
            if not math.isfinite(c):
                raise ConfigError(f"edge coefficient must be finite, got {c!r}")
        plan = tuple(
            (reads_action, index, delay, target, c, form)
            for (reads_action, index, delay, target, _, form), c in zip(self.plan, coefficients, strict=True)
        )
        return CausalGraph.from_plan(self.d_state, self.d_action, plan)


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


# Each process class states its ``kind``, the record kind a scenario writes
# it under (:func:`causalloop.scenario.tagged_to_dict`), once.


@dataclass(frozen=True)
class NoPerturbation:
    """delta_t = 0 forever."""

    kind: ClassVar[str] = "none"


@dataclass(frozen=True)
class GaussianWalk:
    """delta_t follows a clamped random walk with step stddev ``sigma_delta``."""

    kind: ClassVar[str] = "gaussian_walk"
    sigma_delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma_delta < math.inf:
            raise ConfigError(f"gaussian_walk sigma_delta must be finite and >= 0, got {self.sigma_delta}")
        # + 0.0: numpy refuses a scale of -0.0 as negative
        object.__setattr__(self, "sigma_delta", float(self.sigma_delta) + 0.0)


@dataclass(frozen=True)
class Spike:
    """delta_t = ``magnitude`` with probability ``prob``, else 0; memoryless."""

    kind: ClassVar[str] = "spike"
    prob: float
    magnitude: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ConfigError(f"spike prob must be in [0, 1], got {self.prob}")
        object.__setattr__(self, "prob", float(self.prob))
        object.__setattr__(self, "magnitude", float(self.magnitude))


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

    # The constructor with positional arguments (the fields' order), not
    # ``dataclasses.replace`` nor keywords, which cost more per tick.
    return WorldState(sc, w.seed, new_tick, new_state, tuple(remaining), delta_t), observed, delta_t
