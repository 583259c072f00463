"""Scenario configuration: the single source of truth for an experiment.

A scenario pins everything that defines a run except the seed and the
policy: dimensions, initial state, the causal graph and its scheduled
breaks, the perturbation process, observation noise, and every agent
hyperparameter.  Configs serialize to human-editable JSON; the canonical
form (sorted keys, compact separators, defaults resolved) defines the
scenario digest that trace headers and the evaluator use to refuse
mismatched inputs.  A scenario is whole when built: its constructor
resolves the defaulted ``tau`` and ``agent_graph`` and runs every
scenario check, as :class:`CausalGraph` checks its plan, so no consumer
resolves or checks one again.  A scenario computes its
digest once and keeps it (:attr:`ScenarioConfig.digest`), so running,
replaying and evaluating against one scenario object hash it once.

Serialization helpers for graphs/edges live here too, shared by trace
records and model snapshots, and the one JSON field reader,
:func:`read_fields`: it reads a dataclass's or a named tuple's fields from a
JSON object, each by the reader for its annotation, so a field's annotation
is the one statement of its JSON type.  Scenario files, trace headers and
records, model snapshots, edge records, perturbation processes and policies
are read through it.  A perturbation process or a policy states its ``kind``
once, on its class, and is written as that kind and its fields
(:func:`tagged_to_dict`) and read back by it.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import math
import operator
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields, is_dataclass
from types import NoneType, UnionType
from typing import Any, Callable, Collection, get_args, get_origin, get_type_hints

from .core import ActionVec, ConfigError, InputError, DELTA_MAX, StateVec
from .world import (
    CausalEdge,
    CausalGraph,
    EdgePlan,
    Form,
    NoPerturbation,
    PerturbationProcess,
    ScheduledBreak,
    SourceKind,
    Spike,
    VarRef,
    _check_plan,
    _edge_plan,
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
    # Agent-side knobs.  Built with agent_graph None, a scenario holds its
    # initial graph there; with tau None, default_tau().
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
        """Resolve and check the scenario, once: each later reader takes it
        as built.  ``tau`` None becomes :meth:`default_tau`, ``agent_graph``
        None the initial graph; a scenario any check refuses raises
        :class:`ConfigError`, as does a ``noise_sigma`` whose square leaves
        the float range, with ``tau`` None."""
        # Floats as floats, so that a config equal to another has its digest.
        object.__setattr__(self, "initial_state", tuple(float(v) for v in self.initial_state))
        object.__setattr__(self, "breaks", tuple(self.breaks))
        for name in ("noise_sigma", "sigma_lik", "rho", "delta_max"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "tau", self.default_tau() if self.tau is None else float(self.tau))
        if self.agent_graph is None:
            object.__setattr__(self, "agent_graph", self.graph)

        if self.d_state < 1:
            raise ConfigError(f"d_state must be >= 1, got {self.d_state}")
        if self.d_action < 0:
            raise ConfigError(f"d_action must be >= 0, got {self.d_action}")
        if len(self.initial_state) != self.d_state:
            raise ConfigError(
                f"initial_state has {len(self.initial_state)} dims, d_state is {self.d_state}"
            )
        breaks = [(f"break@{b.at_tick} graph", b.graph) for b in self.breaks]
        for label, g in [("graph", self.graph), *breaks, ("agent_graph", self.agent_graph)]:
            if g.d_state != self.d_state or g.d_action != self.d_action:
                raise ConfigError(f"{label} dimensions differ from the scenario's")
            for _, _, delay, _, _, _ in g.plan:
                if delay > self.history_capacity:
                    raise ConfigError(
                        f"{label} edge delay {delay} exceeds history_capacity {self.history_capacity}"
                    )
        prev = 0
        for b in self.breaks:
            if b.at_tick <= prev:
                raise ConfigError("breaks must have strictly increasing at_tick >= 1")
            prev = b.at_tick
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
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

    def default_tau(self) -> float:
        """Mismatch threshold when none is configured: generous enough that
        observation noise alone almost never trips it.  A ``noise_sigma``
        whose square leaves the float range raises :class:`ConfigError`."""
        try:
            return 4.0 * (self.noise_sigma**2 + 0.01)
        except OverflowError:
            msg = f"noise_sigma {self.noise_sigma!r} squares past a float, so tau cannot be derived"
            raise ConfigError(msg) from None

    # Kept because perfbench calls them: bench_family.py materialized(),
    # bench_runner.py validate().  A built scenario is whole, so neither has
    # anything left to do.

    def materialized(self) -> ScenarioConfig:
        """``self``: a scenario is resolved when built."""
        return self

    def validate(self) -> None:
        """Nothing: a scenario is checked when built."""

    @functools.cached_property
    def digest(self) -> str:
        """sha256 of the canonical JSON of the scenario.

        Computed on first use and kept in the instance's ``__dict__``, so it
        is not a field: equality, hashing and ``dataclasses.replace`` ignore
        it, and a replaced scenario computes its own.  Every field is
        immutable, so it cannot go stale.
        """
        return hashlib.sha256(canonical_json(scenario_to_dict(self)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# Each member by its JSON value, looked up before the Enum call that a
# value no member has (or one that is not a string) reaches to be refused.
_READS_ACTION = {SourceKind.ACTION.value: True, SourceKind.STATE.value: False}
_FORMS = {f.value: f for f in Form}
# A plan tuple's ``reads_action`` as the JSON value of its source's kind.
_KIND_VALUES = (SourceKind.STATE.value, SourceKind.ACTION.value)


_edge_fields = operator.itemgetter("source", "target", "delay", "coefficient", "form")
_source_fields = operator.itemgetter("kind", "index")
# The JSON types of an edge record's index, target, delay and coefficient
# as :func:`graph_to_dict` writes them.
_WRITTEN_EDGE = (int, int, int, float)


def _edge_plan_from_dict(d: Any) -> EdgePlan:
    """An edge record :func:`graph_to_dict` wrote, as a plan tuple
    (:attr:`CausalGraph.plan`): :class:`InputError` for a malformed record,
    then :class:`ConfigError` for a delay below 1, as :class:`CausalEdge`
    refuses it.  Its source and target are checked with its graph's.

    A record as written (a known kind and form, three ints and a finite
    float, a delay of at least 1) passes one type test; anything else is
    read as a :class:`CausalEdge` by :func:`read_fields`, which names the
    first field refused in record order."""
    try:
        source, target, delay, coefficient, form = _edge_fields(d)
        kind, index = _source_fields(source) if type(source) is dict else (None, None)
        if (
            (type(index), type(target), type(delay), type(coefficient)) == _WRITTEN_EDGE
            and -_FLOAT_MAX <= coefficient <= _FLOAT_MAX
            and delay >= 1
            and type(kind) is str
            and type(form) is str
        ):
            reads_action, form = _READS_ACTION.get(kind), _FORMS.get(form)
            if reads_action is not None and form is not None:
                return (reads_action, index, delay, target, coefficient, form)
    except (KeyError, TypeError):
        pass
    try:
        edge = read_fields(CausalEdge, d)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed edge record: {exc}") from exc
    return _edge_plan(CausalEdge(**edge))


def graph_to_dict(g: CausalGraph) -> dict[str, Any]:
    """The graph's record, each edge written from its plan tuple."""
    return {
        "d_state": g.d_state,
        "d_action": g.d_action,
        "edges": [
            {
                "source": {"kind": _KIND_VALUES[reads_action], "index": index},
                "target": target,
                "delay": delay,
                "coefficient": coefficient,
                "form": form._value_,
            }
            for reads_action, index, delay, target, coefficient, form in g.plan
        ],
    }


def graph_plan_from_dict(d: Any) -> tuple[int, int, tuple[EdgePlan, ...]]:
    """The graph record :func:`graph_to_dict` wrote, read and checked as
    ``(d_state, d_action, plan)``: its edges are read straight to plan
    tuples (:func:`_edge_plan_from_dict`), the tuples of
    :attr:`CausalGraph.plan`, and the one graph check runs over them once.
    A malformed record raises :class:`InputError`, a graph that the check
    refuses :class:`ConfigError`.  This is the one graph-record reader:
    scenario files, model snapshots and evaluation read graphs through it."""
    try:
        d_state = json_typed(d["d_state"], int, name="d_state")
        d_action = json_typed(d["d_action"], int, name="d_action")
        edges = json_typed(d["edges"], list, name="edges")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph record: {exc}") from exc
    plan = tuple(map(_edge_plan_from_dict, edges))
    _check_plan(d_state, d_action, plan)
    return d_state, d_action, plan


def graph_from_dict(d: Any) -> CausalGraph:
    """The graph record :func:`graph_to_dict` wrote, read and checked by
    :func:`graph_plan_from_dict` and built from its plan without a second
    check (:meth:`CausalGraph.from_plan`)."""
    return CausalGraph.from_plan(*graph_plan_from_dict(d))


def _json_value(v: Any) -> Any:
    return [_json_value(x) for x in v] if type(v) is tuple else v


def tagged_to_dict(x: Any) -> dict[str, Any]:
    """The record of a perturbation process or a policy: its class's
    ``kind``, then each field in declaration order, a tuple as an array."""
    return {"kind": x.kind, **{f.name: _json_value(getattr(x, f.name)) for f in fields(x)}}


# Each perturbation process class by its kind.
_PERTURBATIONS = {cls.kind: cls for cls in get_args(PerturbationProcess)}


def perturbation_from_dict(d: dict[str, Any]) -> PerturbationProcess:
    """The process :func:`tagged_to_dict` wrote: its class by ``kind``
    (:class:`InputError` for an unknown one), its fields by
    :func:`read_fields`."""
    kind = d.get("kind")
    cls = _PERTURBATIONS.get(kind) if type(kind) is str else None
    if cls is None:
        raise InputError(f"unknown perturbation kind {kind!r}")
    return cls(**read_fields(cls, d))


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


# ---------------------------------------------------------------------------
# The one JSON field reader
# ---------------------------------------------------------------------------


# The JSON types a field of each plain annotation takes; a float field takes
# a JSON int too, read as a float.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), bool: (bool,), dict: (dict,), NoneType: (NoneType,)}

# How a field is read: ``reader(value, name)`` is the field's value, or a
# refusal that names it.
_Reader = Callable[[Any, str], Any]


def json_types(t: Any) -> tuple[type, ...] | None:
    """The JSON types a field annotated ``t`` takes, if ``t`` is a plain
    JSON type (``dict[...]`` as ``dict``) or a union of them, such as
    ``float | None``; None otherwise."""
    types: tuple[type, ...] = ()
    for a in get_args(t) if isinstance(t, UnionType) else (t,):
        a = get_origin(a) or a
        if a not in _JSON_TYPES:
            return None
        types += _JSON_TYPES[a]
    return types


def _typed(types: tuple[type, ...]) -> _Reader:
    if float not in types:
        return lambda v, name: json_typed(v, *types, name=name)

    def read(v: Any, name: str) -> Any:
        v = json_typed(v, *types, name=name)
        return float(v) if type(v) is int else v

    return read


def _vector(cls: type) -> _Reader:
    """An array of JSON ints and floats, then ``cls``'s own constructor,
    which refuses an element that is not finite (:class:`DomainError`)."""

    def read(v: Any, name: str) -> Any:
        item = f"{name} element"
        return cls(tuple([x if type(x) is float else json_number(x, item) for x in json_typed(v, list, name=name)]))

    return read


def _reader(t: Any) -> _Reader:
    """The reader of a field annotated ``t``."""
    types = json_types(t)
    if types is not None:
        return _typed(types)
    args = get_args(t)
    if get_origin(t) is tuple:  # tuple[X, ...]: an array of X
        item = _reader(args[0])
        return lambda v, name: tuple([item(x, f"{name} element") for x in json_typed(v, list, name=name)])
    if isinstance(t, UnionType) and NoneType in args:  # X | None
        (x,) = (a for a in args if a is not NoneType)
        some = _reader(x)
        return lambda v, name: None if v is None else some(v, name)
    if t in (StateVec, ActionVec):
        return _vector(t)
    if t is CausalGraph:
        return lambda v, name: graph_from_dict(v)
    if t == PerturbationProcess:
        return lambda v, name: perturbation_from_dict(json_typed(v, dict, name=name))
    if isinstance(t, type) and issubclass(t, enum.Enum):  # Form, SourceKind: by value
        return lambda v, name: t(v)
    if is_dataclass(t):  # VarRef, ScheduledBreak: an object of its fields
        return lambda v, name: t(**read_fields(t, json_typed(v, dict, name=name)))

    def unreadable(v: Any, name: str) -> Any:
        raise NotImplementedError(f"{name}: no JSON reader for {t!r}")

    return unreadable


@functools.cache
def _field_readers(cls: type) -> tuple[tuple[str, _Reader], ...]:
    hints = get_type_hints(cls)
    names = cls._fields if issubclass(cls, tuple) else [f.name for f in fields(cls) if f.init]
    return tuple((name, _reader(hints[name])) for name in names)


def read_fields(cls: type, d: Any, names: Collection[str] | None = None) -> dict[str, Any]:
    """The fields of ``cls``, a dataclass's init fields or a named tuple's
    fields (those in ``names``, if given), read from the JSON object ``d``
    in declaration order, each by the reader for its annotation, built once
    per class.

    ``int``, ``str``, ``bool`` and ``dict[...]`` take that JSON type
    exactly, ``float`` a JSON int (read as a float) or a finite float
    (:func:`json_typed`); ``X | None`` takes null or an X, ``tuple[X, ...]``
    an array of X; a :class:`StateVec` or :class:`ActionVec` an array of
    JSON ints and floats, then its constructor; an enum its value; a
    :class:`CausalGraph` its record (:func:`graph_from_dict`); a
    perturbation process its tagged record (:func:`perturbation_from_dict`);
    any other dataclass, such as :class:`VarRef` and
    :class:`ScheduledBreak`, an object of its own fields.  A missing key
    raises KeyError, a value of the wrong JSON type TypeError naming the
    field (``<name> element`` inside an array), an unknown enum value
    ValueError; a nested record raises what its reader raises, and a
    vector's constructor :class:`DomainError`.  Callers wrap these in their
    own refusal."""
    out = {}
    for name, read in _field_readers(cls):
        if names is None or name in names:
            out[name] = read(d[name], name)
    return out


def scenario_to_dict(sc: ScenarioConfig) -> dict[str, Any]:
    """Fully explicit dict form, ``tau`` and ``agent_graph`` as resolved."""
    out: dict[str, Any] = {"format_version": FORMAT_VERSION, **{f.name: getattr(sc, f.name) for f in fields(sc)}}
    out["initial_state"] = list(sc.initial_state)
    out["graph"] = graph_to_dict(sc.graph)
    out["breaks"] = [{"at_tick": b.at_tick, "graph": graph_to_dict(b.graph)} for b in sc.breaks]
    out["perturbation"] = tagged_to_dict(sc.perturbation)
    out["agent_graph"] = graph_to_dict(sc.agent_graph)
    return out


_REQUIRED_KEYS = {"name", "d_state", "d_action", "initial_state", "graph"}
_KNOWN_KEYS = {f.name for f in fields(ScenarioConfig)} | {"format_version"}


def scenario_from_dict(d: dict[str, Any]) -> ScenarioConfig:
    """The scenario :func:`scenario_to_dict` wrote, each field present read
    by :func:`read_fields` in declaration order; a field left out takes its
    default.  A ``format_version`` that is not the JSON int
    ``FORMAT_VERSION`` (``true`` and ``1.0`` are not) raises
    :class:`InputError`; a scenario its constructor refuses,
    :class:`ConfigError`."""
    if not isinstance(d, dict):
        raise InputError(f"scenario must be an object, got {type(d).__name__}")
    unknown = set(d) - _KNOWN_KEYS
    if unknown:
        raise InputError(f"unknown scenario keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(d)
    if missing:
        raise InputError(f"missing scenario keys: {sorted(missing)}")
    try:
        version = json_typed(d.get("format_version", FORMAT_VERSION), int, name="format_version")
        if version != FORMAT_VERSION:
            raise InputError(f"unsupported scenario format_version {version!r}")
        return ScenarioConfig(**read_fields(ScenarioConfig, d, d.keys()))
    except KeyError as exc:
        raise InputError(f"invalid scenario: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid scenario: {exc}") from exc


# What ``json.dumps`` would build on every call with these options, built once.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(obj: Any) -> str:
    """Sorted-keys, compact JSON; float repr is Python's shortest round-trip."""
    return _CANONICAL.encode(obj)


def scenario_digest(sc: ScenarioConfig) -> str:
    """The digest of ``sc``, hashed once per scenario object."""
    return sc.digest


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 via a sibling temp file and rename; readers
    never see a torn file.  A path that cannot be written raises
    :class:`InputError` naming it, and leaves no temp file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def read_text(path: str, what: str) -> str:
    """The text of the ``what`` file at ``path``, decoded as UTF-8 whatever
    the locale, as :func:`atomic_write_text` writes it.  A file that cannot
    be read or is not UTF-8 raises :class:`InputError` naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {what} file is not UTF-8: {exc}") from exc


def save_scenario(sc: ScenarioConfig, path: str) -> None:
    atomic_write_text(path, json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n")


def load_scenario(path: str) -> ScenarioConfig:
    """The scenario in a file; every refusal of its contents as a
    scenario names the file."""
    text = read_text(path, "scenario")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an int too long to convert
        raise InputError(f"{path}: {exc}") from exc
    try:
        return scenario_from_dict(data)
    except ConfigError as exc:
        raise InputError(f"{path}: {exc}") from exc


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
    )


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
    )


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
    )


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
