"""Temporal causal modeling with reflective self-repair.

An agent carries an explicit lagged causal graph over its state and
action variables, predicts each transition, and — whenever prediction
error crosses a threshold — generates and tests candidate revisions of
its own model (coefficient, delay, structure, or perturbation-scale
changes) against held-out history before accepting any of them.  Every
episode is recorded as a deterministic, bit-exactly replayable trace.
"""

from __future__ import annotations

from .agent import (
    CyclicPolicy,
    Policy,
    ProbePolicy,
    RandomPolicy,
    ScriptedPolicy,
    replay,
    run_episode,
)
from .core import (
    ActionVec,
    CausalLoopError,
    CausalTuple,
    ConfigError,
    DegenerateDataError,
    DimensionError,
    DomainError,
    InputError,
    NotEnoughDataError,
    NotIdentifiableError,
    Perturbation,
    PredictionError,
    ReplayError,
    StateVec,
    TimeIndex,
    Transition,
    loss,
    scale_factor,
)
from .evaluate import compare, evaluate_trace, recovery_time, rolling_rmse, shd
from .explain import explain_counterfactual, explain_reflection, explain_transition
from .model import (
    CausalModel,
    Prediction,
    counterfactual,
    estimate_delta,
    fit,
    predict,
    predict_next,
)
from .reflect import ReflectReport, ReflectSettings
from .scenario import (
    ScenarioConfig,
    builtin_scenarios,
    load_scenario,
    resolve_scenario,
    save_scenario,
    scenario_digest,
)
from .trace import EpisodeTrace, TraceHeader, TraceRecord, read_trace, write_trace
from .world import (
    CausalEdge,
    CausalGraph,
    Form,
    GaussianWalk,
    NoPerturbation,
    ScheduledBreak,
    SourceKind,
    Spike,
    VarRef,
    WorldState,
    world_init,
    world_step,
)

__version__ = "0.1.0"

__all__ = [
    "ActionVec",
    "CausalEdge",
    "CausalGraph",
    "CausalLoopError",
    "CausalModel",
    "CausalTuple",
    "ConfigError",
    "CyclicPolicy",
    "DegenerateDataError",
    "DimensionError",
    "DomainError",
    "EpisodeTrace",
    "Form",
    "GaussianWalk",
    "InputError",
    "NoPerturbation",
    "NotEnoughDataError",
    "NotIdentifiableError",
    "Perturbation",
    "Policy",
    "Prediction",
    "PredictionError",
    "ProbePolicy",
    "RandomPolicy",
    "ReflectReport",
    "ReflectSettings",
    "ReplayError",
    "ScenarioConfig",
    "ScheduledBreak",
    "ScriptedPolicy",
    "SourceKind",
    "Spike",
    "StateVec",
    "TimeIndex",
    "TraceHeader",
    "TraceRecord",
    "Transition",
    "VarRef",
    "WorldState",
    "builtin_scenarios",
    "compare",
    "counterfactual",
    "estimate_delta",
    "evaluate_trace",
    "explain_counterfactual",
    "explain_reflection",
    "explain_transition",
    "fit",
    "load_scenario",
    "loss",
    "predict",
    "predict_next",
    "read_trace",
    "recovery_time",
    "replay",
    "resolve_scenario",
    "rolling_rmse",
    "run_episode",
    "save_scenario",
    "scale_factor",
    "scenario_digest",
    "shd",
    "world_init",
    "world_step",
    "write_trace",
]
