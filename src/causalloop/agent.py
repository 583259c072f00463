"""The closed loop: policy acts, model predicts, world answers, agent repairs.

Each tick the agent forms a one-step prediction from its model and history,
the world advances, and the squared error decides what happens next: above
tau the repair loop (:func:`causalloop.reflect.reflect`) runs on that
mismatch and may edit the model; at or below tau the delta estimate decays
ten percent toward zero, so transient perturbation estimates do not outlive
their evidence.  Every ``fit_every`` ticks a scheduled least-squares refit
re-estimates coefficients -- but its result is discarded if it predicts the
reserved recent holdout worse than the current model does, which keeps a
window still contaminated by pre-break rows from undoing a repair.

``run_episode`` is a pure function of (scenario, policy, seed, length,
reflect_enabled); replay re-runs it and demands bit-identical records.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Any, ClassVar, get_args

from . import rng as _rng
from .core import (
    ActionVec,
    CausalTuple,
    ConfigError,
    DegenerateDataError,
    NotEnoughDataError,
    ReplayError,
    StateVec,
    Transition,
    check_finite,
    loss,
)
from .model import (
    CausalModel,
    _LagFeatures,
    _fit_kernel,
    append_history,
    fit,
    model_digest,
    model_snapshot,
    predict_next,
)
# Not called here: perfbench/bench_layers.py wraps agent.predict and
# agent.rollout, so both names stay importable from this module.
from .model import predict, rollout  # noqa: F401
from .reflect import ReflectSettings, detect_mismatch, reflect
from .scenario import ScenarioConfig, read_fields, scenario_digest
from .scenario import tagged_to_dict as policy_to_dict
from .trace import EpisodeTrace, TraceHeader, TraceRecord, report_to_dict
# Not called here: perfbench/bench_layers.py wraps agent.record_to_dict, so
# the name stays importable from this module.
from .trace import record_to_dict  # noqa: F401
from .world import world_init, world_step

DELTA_DECAY = 0.9  # pull-to-zero on delta_hat per calm step


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


# Each policy class states its ``kind``, the record kind a trace header
# writes it under (:func:`policy_to_dict`), once.


@dataclass(frozen=True)
class RandomPolicy:
    """Uniform actions in [low, high), one fresh draw per tick."""

    kind: ClassVar[str] = "random"
    low: float = -1.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.high - self.low) or self.high < self.low:
            raise ConfigError(f"random policy range [{self.low!r}, {self.high!r}) is not a finite interval")


@dataclass(frozen=True)
class CyclicPolicy:
    """Repeats a fixed list of action vectors."""

    kind: ClassVar[str] = "cyclic"
    vectors: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ProbePolicy:
    """One-hot excitation, cycling through action dimensions."""

    kind: ClassVar[str] = "probe"
    magnitude: float = 1.0


@dataclass(frozen=True)
class ScriptedPolicy:
    """Explicit per-tick actions; the episode must not outrun the script."""

    kind: ClassVar[str] = "scripted"
    actions: tuple[tuple[float, ...], ...]


Policy = RandomPolicy | CyclicPolicy | ProbePolicy | ScriptedPolicy


def policy_action(policy: Policy, seed: int, tick: int, d_action: int) -> ActionVec:
    if d_action == 0:
        return ActionVec(())
    if isinstance(policy, RandomPolicy):
        # ``low + (high - low) * x`` over uniform doubles x in [0, 1) is what
        # ``Generator.uniform`` computes, draw for draw, without its call cost.
        gen = _rng.shared_stream(seed, _rng.STREAM_POLICY, tick)
        low, span = policy.low, policy.high - policy.low
        vals = tuple([low + span * x for x in gen.random(d_action).tolist()])
        return ActionVec.checked(check_finite(vals, "action"))
    if isinstance(policy, CyclicPolicy):
        if not policy.vectors:
            raise ConfigError("cyclic policy needs at least one vector")
        vec = policy.vectors[tick % len(policy.vectors)]
        if len(vec) != d_action:
            raise ConfigError(f"cyclic policy vector has {len(vec)} dims, need {d_action}")
        return ActionVec(tuple(vec))
    if isinstance(policy, ProbePolicy):
        vals = [0.0] * d_action
        vals[tick % d_action] = policy.magnitude
        return ActionVec(tuple(vals))
    if tick >= len(policy.actions):
        raise ConfigError(f"scripted policy has {len(policy.actions)} actions, tick {tick} requested")
    vec = policy.actions[tick]
    if len(vec) != d_action:
        raise ConfigError(f"scripted action has {len(vec)} dims, need {d_action}")
    return ActionVec(tuple(vec))


# Each policy class by its kind.
_POLICIES = {cls.kind: cls for cls in get_args(Policy)}


def policy_from_dict(d: dict[str, Any]) -> Policy:
    """The policy :func:`policy_to_dict` wrote: its class by ``kind``, its
    fields by :func:`causalloop.scenario.read_fields`; :class:`ConfigError`
    for an unknown kind or a malformed field."""
    kind = d.get("kind")
    cls = _POLICIES.get(kind) if type(kind) is str else None
    if cls is None:
        raise ConfigError(f"unknown policy kind {kind!r}")
    try:
        return cls(**read_fields(cls, d))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind} policy: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Episode loop
# ---------------------------------------------------------------------------


def initial_model(sc: ScenarioConfig) -> CausalModel:
    return CausalModel(
        graph=sc.agent_graph,
        delta_hat=0.0,
        fit_window=sc.fit_window,
        sigma_lik=sc.sigma_lik,
        capacity=sc.history_capacity,
        delta_max=sc.delta_max,
    )


def _fit_improves(lags: _LagFeatures, current: CausalModel, fitted: CausalModel, holdout_size: int) -> bool:
    """Keep a scheduled fit only if it does not predict the recent holdout
    worse than the model it would replace, or no holdout row is predictable.

    ``lags`` is the fit's own kernel over ``current``'s window; the holdout
    is its last ``holdout_size`` rows (``fit_window > holdout`` is a
    scenario rule, so they are the history's last rows too).  ``fitted`` is
    ``fit(current, lags)``: a fit changes neither structure nor delta_hat,
    so both models are predicted at the places the fit's design resolved
    (:meth:`_LagFeatures.layout`), each with its own coefficients, at one
    scale, in one sum."""
    packed = lags.layout(current.graph).packed((current.graph.plan, fitted.graph.plan))
    mses = lags.mses(packed, math.exp(-current.delta_hat), lo=max(0, lags._n - holdout_size))
    return mses is None or mses[1] <= mses[0]


def run_episode(
    scenario: ScenarioConfig,
    policy: Policy,
    seed: int,
    length: int,
    reflect_enabled: bool = True,
    artifact_version: str = "0.1.0",
) -> EpisodeTrace:
    """Run one fully deterministic episode and return its trace."""
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    w = world_init(scenario, seed)
    m = initial_model(scenario)
    settings = ReflectSettings(**{f.name: getattr(scenario, f.name) for f in fields(ReflectSettings)})
    tau = scenario.tau

    records: list[TraceRecord] = []
    state = StateVec(scenario.initial_state)
    prev_digest: str | None = None
    digest: str | None = None
    digest_fields: tuple = ()
    snapshot: dict[str, Any] | None = None
    for t in range(length):
        action = policy_action(policy, seed, t, scenario.d_action)
        # Checked already: t counts up from 0, the model's delta is clamped
        # to its delta_max, and the world observes the state's dims.
        tup = CausalTuple.checked(state, action, t, m.delta_hat)
        pred_next = predict_next(m, tup)
        w, observed, true_delta = world_step(w, action)
        err = loss(pred_next, observed)
        tr = Transition.checked(tup, observed)
        m = append_history(m, tr)

        report_dict: dict[str, Any] | None = None
        if reflect_enabled and detect_mismatch(err, tau):
            report = reflect(m, tr, err, tau, settings)
            m = report.updated_model
            report_dict = report_to_dict(report)
        elif m.delta_hat != 0.0:
            # The constructor with positional arguments (the fields' order),
            # not ``dataclasses.replace`` nor keywords, as in append_history.
            m = CausalModel(
                m.graph, DELTA_DECAY * m.delta_hat, m.history, m.fit_window, m.sigma_lik, m.capacity, m.delta_max
            )

        fit_event: str | None = None
        if (t + 1) % scenario.fit_every == 0:
            try:
                lags = _fit_kernel(m)
                fitted = fit(m, lags)
                if _fit_improves(lags, m, fitted, scenario.holdout):
                    m = fitted
                    fit_event = "applied"
                else:
                    fit_event = "rejected"
            except (NotEnoughDataError, DegenerateDataError) as exc:
                fit_event = f"skipped: {type(exc).__name__}"

        # The digest covers exactly these fields (``model_snapshot``).  Each
        # is immutable, so while every one is the very object the last
        # digest saw, that digest still holds.  One snapshot serves the
        # digest and the record.
        model_fields = (m.graph, m.delta_hat, m.fit_window, m.sigma_lik, m.capacity, m.delta_max)
        if digest is None or not all(map(operator.is_, model_fields, digest_fields)):
            snapshot = model_snapshot(m)
            digest = model_digest(m, snapshot)
            digest_fields = model_fields
        records.append(
            TraceRecord(
                t, state, action, tup.delta.delta, true_delta, pred_next, observed, err.epsilon, err.per_dim,
                report_dict, fit_event, digest, snapshot if digest != prev_digest else None,
            )
        )
        prev_digest = digest
        state = observed

    header = TraceHeader(
        scenario_digest=scenario_digest(scenario),
        scenario_name=scenario.name,
        seed=seed,
        length=length,
        policy=policy_to_dict(policy),
        reflect_enabled=reflect_enabled,
        artifact_version=artifact_version,
    )
    return EpisodeTrace(header=header, records=tuple(records))


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay(trace: EpisodeTrace, scenario: ScenarioConfig) -> EpisodeTrace:
    """Re-run the recorded episode and verify bit-identical records.

    Returns the freshly computed trace on success; raises
    :class:`ReplayError` naming the first divergent tick otherwise.
    """
    digest = scenario_digest(scenario)
    if trace.header.scenario_digest != digest:
        raise ReplayError(
            f"scenario digest mismatch: trace has {trace.header.scenario_digest[:12]}..., "
            f"scenario is {digest[:12]}..."
        )
    expected_gen = {"name": _rng.GENERATOR_NAME, "scheme": _rng.SCHEME_VERSION}
    if trace.header.generator != expected_gen:
        raise ReplayError(f"generator scheme mismatch: {trace.header.generator} != {expected_gen}")
    if not trace.records:
        raise ReplayError("trace has no records")
    if len(trace.records) != trace.header.length:
        raise ReplayError(
            f"trace has {len(trace.records)} records, header declares {trace.header.length}"
        )
    fresh = run_episode(
        scenario,
        policy_from_dict(trace.header.policy),
        trace.header.seed,
        trace.header.length,
        trace.header.reflect_enabled,
        artifact_version=trace.header.artifact_version,
    )
    for old, new in zip(trace.records, fresh.records):
        if old != new:
            raise ReplayError(f"replay diverged at tick {old.tick}")
    return fresh
