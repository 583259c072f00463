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
from dataclasses import dataclass
from typing import Any

from . import rng as _rng
from .core import (
    ActionVec,
    CausalTuple,
    ConfigError,
    DegenerateDataError,
    NotEnoughDataError,
    Perturbation,
    ReplayError,
    StateVec,
    TimeIndex,
    Transition,
    check_finite,
    loss,
)
from .model import (
    CausalModel,
    _LagFeatures,
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
from .scenario import ScenarioConfig, json_number, json_typed, scenario_digest
from .trace import EpisodeTrace, TraceHeader, TraceRecord, report_to_dict
# Not called here: perfbench/bench_layers.py wraps agent.record_to_dict, so
# the name stays importable from this module.
from .trace import record_to_dict  # noqa: F401
from .world import world_init, world_step

DELTA_DECAY = 0.9  # pull-to-zero on delta_hat per calm step


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomPolicy:
    """Uniform actions in [low, high), one fresh draw per tick."""

    low: float = -1.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.high - self.low) or self.high < self.low:
            raise ConfigError(f"random policy range [{self.low!r}, {self.high!r}) is not a finite interval")


@dataclass(frozen=True)
class CyclicPolicy:
    """Repeats a fixed list of action vectors."""

    vectors: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ProbePolicy:
    """One-hot excitation, cycling through action dimensions."""

    magnitude: float = 1.0


@dataclass(frozen=True)
class ScriptedPolicy:
    """Explicit per-tick actions; the episode must not outrun the script."""

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


def policy_to_dict(policy: Policy) -> dict[str, Any]:
    if isinstance(policy, RandomPolicy):
        return {"kind": "random", "low": policy.low, "high": policy.high}
    if isinstance(policy, CyclicPolicy):
        return {"kind": "cyclic", "vectors": [list(v) for v in policy.vectors]}
    if isinstance(policy, ProbePolicy):
        return {"kind": "probe", "magnitude": policy.magnitude}
    return {"kind": "scripted", "actions": [list(v) for v in policy.actions]}


def policy_from_dict(d: dict[str, Any]) -> Policy:
    def vectors(key: str) -> tuple[tuple[float, ...], ...]:
        return tuple(
            tuple(json_number(x, name=f"{key} element") for x in json_typed(v, list, name=key))
            for v in json_typed(d[key], list, name=key)
        )

    kind = d.get("kind")
    try:
        if kind == "random":
            return RandomPolicy(json_number(d["low"], name="low"), json_number(d["high"], name="high"))
        if kind == "cyclic":
            return CyclicPolicy(vectors=vectors("vectors"))
        if kind == "probe":
            return ProbePolicy(magnitude=json_number(d["magnitude"], name="magnitude"))
        if kind == "scripted":
            return ScriptedPolicy(actions=vectors("actions"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind} policy: {exc!r}") from exc
    raise ConfigError(f"unknown policy kind {kind!r}")


# ---------------------------------------------------------------------------
# Episode loop
# ---------------------------------------------------------------------------


def initial_model(sc: ScenarioConfig) -> CausalModel:
    return CausalModel(
        graph=sc.effective_agent_graph(),
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
    scenario rule, so they are the history's last rows too)."""
    pair = [(current.graph, current.delta_hat), (fitted.graph, fitted.delta_hat)]
    mses = lags.mses(pair, lo=max(0, lags._n - holdout_size))
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
    sc = scenario.materialized()
    sc.validate()
    w = world_init(sc, seed)
    m = initial_model(sc)
    settings = ReflectSettings(
        budget=sc.budget,
        max_accepts=sc.max_accepts,
        holdout=sc.holdout,
        rho=sc.rho,
        k_max=sc.k_max,
    )
    tau = sc.effective_tau()

    records: list[TraceRecord] = []
    state = StateVec(sc.initial_state)
    prev_digest: str | None = None
    digest: str | None = None
    digest_fields: tuple = ()
    for t in range(length):
        action = policy_action(policy, seed, t, sc.d_action)
        tup = CausalTuple(state, action, TimeIndex(t), Perturbation(m.delta_hat))
        pred_next = predict_next(m, tup)
        w, observed, true_delta = world_step(w, action)
        err = loss(pred_next, observed)
        tr = Transition(tup, observed)
        m = append_history(m, tr)

        report_dict: dict[str, Any] | None = None
        if reflect_enabled and detect_mismatch(err, tau):
            report = reflect(m, tr, err, tau, settings)
            m = report.updated_model
            report_dict = report_to_dict(report)
        elif m.delta_hat != 0.0:
            m = CausalModel(
                graph=m.graph,
                delta_hat=DELTA_DECAY * m.delta_hat,
                history=m.history,
                fit_window=m.fit_window,
                sigma_lik=m.sigma_lik,
                capacity=m.capacity,
                delta_max=m.delta_max,
            )

        fit_event: str | None = None
        if (t + 1) % sc.fit_every == 0:
            lags = _LagFeatures(m.history, m.history[-m.fit_window :])
            try:
                fitted = fit(m, lags)
                if _fit_improves(lags, m, fitted, sc.holdout):
                    m = fitted
                    fit_event = "applied"
                else:
                    fit_event = "rejected"
            except (NotEnoughDataError, DegenerateDataError) as exc:
                fit_event = f"skipped: {type(exc).__name__}"

        # The digest covers exactly these fields (``model_snapshot``).  Each
        # is immutable, so while every one is the very object the last
        # digest saw, that digest still holds.
        fields = (m.graph, m.delta_hat, m.fit_window, m.sigma_lik, m.capacity, m.delta_max)
        if digest is None or not all(map(operator.is_, fields, digest_fields)):
            digest = model_digest(m)
            digest_fields = fields
        records.append(
            TraceRecord(
                tick=t,
                state=state,
                action=action,
                delta_hat=tup.delta.delta,
                true_delta=true_delta,
                predicted_next=pred_next,
                observed=observed,
                epsilon=err.epsilon,
                per_dim=err.per_dim,
                reflect=report_dict,
                fit_event=fit_event,
                model_digest=digest,
                model_snapshot=model_snapshot(m) if digest != prev_digest else None,
            )
        )
        prev_digest = digest
        state = observed

    header = TraceHeader(
        scenario_digest=scenario_digest(sc),
        scenario_name=sc.name,
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
    sc = scenario.materialized()
    digest = scenario_digest(sc)
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
        sc,
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
