"""Scenario configuration: the single source of truth for an experiment.

A scenario pins everything that defines a run except the seed and the
policy: dimensions, initial state, the causal graph and its scheduled
breaks, the perturbation process, observation noise, and every agent
hyperparameter.  Configs serialize to human-editable JSON; the canonical
form (sorted keys, compact separators, defaults materialized) defines the
scenario digest that trace headers and the evaluator use to refuse
mismatched inputs.

Serialization helpers for graphs/edges live here too, shared by trace
records and model snapshots.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace
from types import NoneType
from typing import Any

from .core import ConfigError, InputError, DELTA_MAX
from .world import (
    CausalEdge,
    CausalGraph,
    Form,
    GaussianWalk,
    NoPerturbation,
    PerturbationProcess,
    ScheduledBreak,
    SourceKind,
    Spike,
    VarRef,
)

FORMAT_VERSION = 1
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    d_state: int
    d_action: int
    initial_state: tuple[float, ...]
    graph: CausalGraph
    breaks: tuple[ScheduledBreak, ...] = ()
    perturbation: PerturbationProcess = field(default_factory=NoPerturbation)
    perturbation_label: str = ""
    noise_sigma: float = 0.0
    tick_label: str = "tick"
    # Agent-side knobs.  agent_graph None means "start from the scenario's
    # initial graph"; tau None means "derive from noise_sigma on load".
    agent_graph: CausalGraph | None = None
    tau: float | None = None
    fit_window: int = 64
    history_capacity: int = 256
    holdout: int = 8
    budget: int = 32
    max_accepts: int = 2
    fit_every: int = 16
    sigma_lik: float = 1.0
    rho: float = 0.1
    k_max: int = 8
    delta_max: float = DELTA_MAX

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_state", tuple(float(v) for v in self.initial_state))
        object.__setattr__(self, "breaks", tuple(self.breaks))

    # -- derived -----------------------------------------------------------

    def default_tau(self) -> float:
        """Mismatch threshold when none is configured: generous enough that
        observation noise alone almost never trips it."""
        try:
            return 4.0 * (self.noise_sigma**2 + 0.01)
        except OverflowError:
            msg = f"noise_sigma {self.noise_sigma!r} squares past a float, so tau cannot be derived"
            raise OverflowError(msg) from None

    def effective_tau(self) -> float:
        return self.tau if self.tau is not None else self.default_tau()

    def effective_agent_graph(self) -> CausalGraph:
        return self.agent_graph if self.agent_graph is not None else self.graph

    def materialized(self) -> ScenarioConfig:
        """Copy with every defaultable field made explicit."""
        return replace(self, tau=self.effective_tau(), agent_graph=self.effective_agent_graph())

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        if self.d_state < 1:
            raise ConfigError(f"d_state must be >= 1, got {self.d_state}")
        if self.d_action < 0:
            raise ConfigError(f"d_action must be >= 0, got {self.d_action}")
        if len(self.initial_state) != self.d_state:
            raise ConfigError(
                f"initial_state has {len(self.initial_state)} dims, d_state is {self.d_state}"
            )
        for label, g in self._graphs():
            if g.d_state != self.d_state or g.d_action != self.d_action:
                raise ConfigError(f"{label} dimensions differ from the scenario's")
            for e in g.edges:
                if e.delay > self.history_capacity:
                    raise ConfigError(
                        f"{label} edge delay {e.delay} exceeds history_capacity {self.history_capacity}"
                    )
        prev = 0
        for b in self.breaks:
            if b.at_tick <= prev:
                raise ConfigError("breaks must have strictly increasing at_tick >= 1")
            prev = b.at_tick
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.tau is not None and not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.holdout < 1:
            raise ConfigError("holdout must be >= 1")
        if self.fit_window <= self.holdout:
            raise ConfigError("fit_window must exceed holdout")
        if self.history_capacity < self.fit_window:
            raise ConfigError("history_capacity must be >= fit_window")
        if self.budget < 1 or self.max_accepts < 1 or self.fit_every < 1 or self.k_max < 1:
            raise ConfigError("budget, max_accepts, fit_every and k_max must be >= 1")
        try:  # every repair score divides by it
            two_var = 2.0 * self.sigma_lik**2
        except OverflowError:
            two_var = math.inf
        if not (self.sigma_lik > 0.0 and 0.0 < two_var < math.inf):
            raise ConfigError(f"sigma_lik {self.sigma_lik!r}: 2 * sigma_lik**2 must be a positive float")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must be in (0, 1), got {self.rho}")
        if not 0.0 < self.delta_max <= DELTA_MAX:
            raise ConfigError(f"delta_max must be in (0, {DELTA_MAX}], got {self.delta_max}")

    def _graphs(self) -> list[tuple[str, CausalGraph]]:
        out = [("graph", self.graph)]
        out += [(f"break@{b.at_tick} graph", b.graph) for b in self.breaks]
        if self.agent_graph is not None:
            out.append(("agent_graph", self.agent_graph))
        return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def edge_to_dict(e: CausalEdge) -> dict[str, Any]:
    return {
        "source": {"kind": e.source.kind.value, "index": e.source.index},
        "target": e.target,
        "delay": e.delay,
        "coefficient": e.coefficient,
        "form": e.form.value,
    }


def edge_from_dict(d: dict[str, Any]) -> CausalEdge:
    try:
        source = json_typed(d["source"], dict, name="source")
        return CausalEdge(
            source=VarRef(SourceKind(source["kind"]), json_typed(source["index"], int, name="index")),
            target=json_typed(d["target"], int, name="target"),
            delay=json_typed(d["delay"], int, name="delay"),
            coefficient=json_number(d["coefficient"], name="coefficient"),
            form=Form(d["form"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed edge record: {exc}") from exc


def graph_to_dict(g: CausalGraph) -> dict[str, Any]:
    return {
        "d_state": g.d_state,
        "d_action": g.d_action,
        "edges": [edge_to_dict(e) for e in g.edges],
    }


def graph_from_dict(d: dict[str, Any]) -> CausalGraph:
    try:
        return CausalGraph(
            d_state=json_typed(d["d_state"], int, name="d_state"),
            d_action=json_typed(d["d_action"], int, name="d_action"),
            edges=tuple(edge_from_dict(e) for e in json_typed(d["edges"], list, name="edges")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph record: {exc}") from exc


def perturbation_to_dict(p: PerturbationProcess) -> dict[str, Any]:
    if isinstance(p, NoPerturbation):
        return {"kind": "none"}
    if isinstance(p, GaussianWalk):
        return {"kind": "gaussian_walk", "sigma_delta": p.sigma_delta}
    return {"kind": "spike", "prob": p.prob, "magnitude": p.magnitude}


def perturbation_from_dict(d: dict[str, Any]) -> PerturbationProcess:
    kind = d.get("kind")
    if kind == "none":
        return NoPerturbation()
    if kind == "gaussian_walk":
        return GaussianWalk(sigma_delta=json_number(d["sigma_delta"], name="sigma_delta"))
    if kind == "spike":
        return Spike(
            prob=json_number(d["prob"], name="prob"),
            magnitude=json_number(d["magnitude"], name="magnitude"),
        )
    raise InputError(f"unknown perturbation kind {kind!r}")


# Each scalar field and the JSON types it may hold (null: derive tau on load).
_SCALAR_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "d_state": (int,),
    "d_action": (int,),
    "perturbation_label": (str,),
    "noise_sigma": (int, float),
    "tick_label": (str,),
    "tau": (int, float, NoneType),
    "fit_window": (int,),
    "history_capacity": (int,),
    "holdout": (int,),
    "budget": (int,),
    "max_accepts": (int,),
    "fit_every": (int,),
    "sigma_lik": (int, float),
    "rho": (int, float),
    "k_max": (int,),
    "delta_max": (int, float),
}


def json_typed(v: Any, *types: type, name: str = "value") -> Any:
    """``v`` if JSON gave it one of ``types`` exactly, and finite as a
    float if a float is among them; TypeError otherwise.  So ``true`` is
    no int, nor is ``2.5`` or ``1e300``; the ``NaN`` Python's parser
    accepts is no number, nor is an int too large for a float."""
    t = type(v)
    number = t is float or (t is int and float in types)
    if t not in types or (number and not -_FLOAT_MAX <= v <= _FLOAT_MAX):
        want = " or ".join("finite float" if w is float else w.__name__ for w in types)
        raise TypeError(f"{name} is {v!r} of type {t.__name__}, expected {want}")
    return v


def json_number(v: Any, name: str = "value") -> float:
    """A JSON int or finite float as a float; TypeError for anything else."""
    return float(json_typed(v, int, float, name=name))


def scenario_to_dict(sc: ScenarioConfig) -> dict[str, Any]:
    """Fully explicit dict form (defaults materialized)."""
    sc = sc.materialized()
    out: dict[str, Any] = {"format_version": FORMAT_VERSION}
    for name in _SCALAR_FIELDS:
        out[name] = getattr(sc, name)
    out["initial_state"] = list(sc.initial_state)
    out["graph"] = graph_to_dict(sc.graph)
    out["breaks"] = [{"at_tick": b.at_tick, "graph": graph_to_dict(b.graph)} for b in sc.breaks]
    out["perturbation"] = perturbation_to_dict(sc.perturbation)
    out["agent_graph"] = graph_to_dict(sc.agent_graph)  # materialized, never None
    return out


_REQUIRED_KEYS = {"name", "d_state", "d_action", "initial_state", "graph"}
_KNOWN_KEYS = set(_SCALAR_FIELDS) | {
    "format_version",
    "initial_state",
    "graph",
    "breaks",
    "perturbation",
    "agent_graph",
}


def scenario_from_dict(d: dict[str, Any]) -> ScenarioConfig:
    if not isinstance(d, dict):
        raise InputError(f"scenario must be an object, got {type(d).__name__}")
    unknown = set(d) - _KNOWN_KEYS
    if unknown:
        raise InputError(f"unknown scenario keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(d)
    if missing:
        raise InputError(f"missing scenario keys: {sorted(missing)}")
    version = d.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported scenario format_version {version!r}")
    try:
        kwargs = {k: json_typed(d[k], *t, name=k) for k, t in _SCALAR_FIELDS.items() if k in d}
        kwargs["initial_state"] = [
            json_typed(v, int, float, name="initial_state element")
            for v in json_typed(d["initial_state"], list, name="initial_state")
        ]
        kwargs["graph"] = graph_from_dict(d["graph"])
        kwargs["breaks"] = [
            ScheduledBreak(json_typed(b["at_tick"], int, name="at_tick"), graph_from_dict(b["graph"]))
            for b in json_typed(d.get("breaks", []), list, name="breaks")
        ]
        if "perturbation" in d:
            perturbation = json_typed(d["perturbation"], dict, name="perturbation")
            kwargs["perturbation"] = perturbation_from_dict(perturbation)
        if d.get("agent_graph") is not None:
            kwargs["agent_graph"] = graph_from_dict(d["agent_graph"])
        return ScenarioConfig(**kwargs).materialized()  # overflows if noise_sigma squares past a float
    except KeyError as exc:
        raise InputError(f"invalid scenario: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"invalid scenario: {exc}") from exc


# What ``json.dumps`` would build on every call with these options, built once.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(obj: Any) -> str:
    """Sorted-keys, compact JSON; float repr is Python's shortest round-trip."""
    return _CANONICAL.encode(obj)


def scenario_digest(sc: ScenarioConfig) -> str:
    return hashlib.sha256(canonical_json(scenario_to_dict(sc)).encode()).hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename; readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_scenario(sc: ScenarioConfig, path: str) -> None:
    sc.validate()
    atomic_write_text(path, json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n")


def load_scenario(path: str) -> ScenarioConfig:
    """Parse, validate, and materialize a scenario file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an int too long to convert
        raise InputError(f"{path}: {exc}") from exc
    sc = scenario_from_dict(data)
    try:
        sc.validate()
    except ConfigError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return sc


# ---------------------------------------------------------------------------
# Bundled demo scenarios
# ---------------------------------------------------------------------------


def _productivity() -> ScenarioConfig:
    """One observed dimension (productivity), one action (unplanned meetings).

    Each meeting hour lowers productivity one-for-one a full day later, and
    a "lack of sleep" spike (negative delta) amplifies whatever lands while
    it is active.  Ticks are hours.
    """
    graph = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(
            CausalEdge(source=VarRef.action(0), target=0, delay=24, coefficient=-1.0),
        ),
    )
    return ScenarioConfig(
        name="productivity",
        d_state=1,
        d_action=1,
        initial_state=(10.0,),
        graph=graph,
        perturbation=Spike(prob=0.08, magnitude=-0.7),
        perturbation_label="lack of sleep",
        noise_sigma=0.02,
        tick_label="1 tick = 1 hour",
        k_max=32,
    ).materialized()


def _break_demo() -> ScenarioConfig:
    """Single linear edge whose coefficient jumps 1.0 -> 3.0 at tick 200."""
    before = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(source=VarRef.action(0), target=0, delay=1, coefficient=1.0),),
    )
    after = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(source=VarRef.action(0), target=0, delay=1, coefficient=3.0),),
    )
    return ScenarioConfig(
        name="break_demo",
        d_state=1,
        d_action=1,
        initial_state=(0.0,),
        graph=before,
        breaks=(ScheduledBreak(at_tick=200, graph=after),),
        noise_sigma=0.05,
    ).materialized()


def _calm() -> ScenarioConfig:
    """Stable two-dimensional world the default agent tracks without drama."""
    graph = CausalGraph(
        d_state=2,
        d_action=1,
        edges=(
            CausalEdge(source=VarRef.action(0), target=0, delay=1, coefficient=0.8),
            CausalEdge(source=VarRef.state(0), target=1, delay=2, coefficient=0.5, form=Form.TANH),
        ),
    )
    return ScenarioConfig(
        name="calm",
        d_state=2,
        d_action=1,
        initial_state=(0.0, 0.0),
        graph=graph,
        noise_sigma=0.01,
    ).materialized()


def builtin_scenarios() -> dict[str, ScenarioConfig]:
    return {
        "productivity": _productivity(),
        "break_demo": _break_demo(),
        "calm": _calm(),
    }


def resolve_scenario(name_or_path: str) -> ScenarioConfig:
    """A path to a scenario file, or the name of a bundled scenario."""
    if os.path.exists(name_or_path):
        return load_scenario(name_or_path)
    builtins = builtin_scenarios()
    if name_or_path in builtins:
        return builtins[name_or_path]
    raise InputError(
        f"{name_or_path!r} is neither a scenario file nor a bundled scenario "
        f"(bundled: {sorted(builtins)})"
    )
