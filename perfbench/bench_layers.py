"""Per-layer metrics: where the traced run wraps the program, and what it reports.

Each site is (module, attribute, span name).  The attribute is the name a
caller looks the function up under, so ``agent:rollout`` (the scheduled
fit's holdout gate) and ``reflect:rollout`` (repair scoring) are timed
apart.  Functions the benchmark itself calls (``run_episode``,
``write_trace`` ...) are called through their module attribute, so one
wrapper catches both the benchmark's calls and the program's own.
"""

from __future__ import annotations

from collections import Counter

from bench_trace import Tracer
from bench_workloads import agent_mod, evaluate_mod, explain_mod, reflect_mod, rng_mod, trace_mod


def _rows(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["rollout_rows"] += len(args[3] if len(args) > 3 else kwargs["rows"])


def _reflected(counts: Counter, args: tuple, kwargs: dict, report) -> None:
    if report.triggered:
        counts["triggers"] += 1
        counts["accepted"] += len(report.accepted)


def _generated(counts: Counter, args: tuple, kwargs: dict, hypotheses) -> None:
    counts["generated"] += len(hypotheses)


def _grounded(counts: Counter, args: tuple, kwargs: dict, ok: bool) -> None:
    counts["explanations"] += 1
    counts["ungrounded"] += not ok


SITES = (
    (rng_mod, "stream", "rng.stream", None),
    (agent_mod, "run_episode", "agent.run_episode", None),
    (agent_mod, "replay", "agent.replay", None),
    (agent_mod, "policy_action", "agent.policy_action", None),
    (agent_mod, "world_step", "world.world_step", None),
    (agent_mod, "predict", "model.predict", None),
    (agent_mod, "predict_next", "model.predict_next", None),
    (agent_mod, "append_history", "agent:append_history", None),
    (agent_mod, "fit", "model.fit", None),
    (agent_mod, "rollout", "agent:rollout", _rows),
    (agent_mod, "model_digest", "model.model_digest", None),
    (agent_mod, "loss", "agent:loss", None),
    (agent_mod, "reflect", "reflect.reflect", _reflected),
    (agent_mod, "scenario_digest", "agent:scenario_digest", None),
    (agent_mod, "record_to_dict", "agent:record_to_dict", None),
    (reflect_mod, "rollout", "reflect:rollout", _rows),
    (reflect_mod, "loss", "reflect:loss", None),
    (reflect_mod, "append_history", "reflect:append_history", None),
    (reflect_mod, "anomalous_suffix", "reflect.suffix", None),
    (reflect_mod, "generate_hypotheses", "reflect.generate", _generated),
    (reflect_mod, "score_hypothesis", "reflect.score", None),
    (reflect_mod, "test_hypothesis", "reflect.test", None),
    (reflect_mod, "apply_hypothesis", "reflect.apply", None),
    (evaluate_mod, "evaluate_trace", "evaluate.evaluate_trace", None),
    (evaluate_mod, "shd_series", "evaluate.shd_series", None),
    (evaluate_mod, "compare", "evaluate.compare", None),
    (evaluate_mod, "scenario_digest", "evaluate:scenario_digest", None),
    (trace_mod, "write_trace", "trace.write_trace", None),
    (trace_mod, "read_trace", "trace.read_trace", None),
    (trace_mod, "record_to_dict", "trace:record_to_dict", None),
    (explain_mod, "explain_transition", "explain.explain_transition", None),
    (explain_mod, "explain_counterfactual", "explain.explain_counterfactual", None),
    (explain_mod, "explain_reflection", "explain.explain_reflection", None),
    (explain_mod, "is_grounded", "explain.is_grounded", _grounded),
)


def install(tracer: Tracer) -> None:
    for module, attr, name, on_return in SITES:
        tracer.wrap(module, attr, name, on_return)


def layer_metrics(tracer: Tracer, work: dict[str, int], overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``*.us`` is inclusive wall time summed over calls, ``*.self_us``
    excludes time covered by child spans.  ``work`` holds the counts read
    from the pass's own traces (fit outcomes, snapshots, bytes).
    """
    totals = tracer.totals()
    counts = tracer.counts()

    def calls(*names: str) -> int:
        return sum(totals[n]["calls"] for n in names if n in totals)

    def us(*names: str) -> float:
        return sum(totals[n]["ns"] for n in names if n in totals) / 1e3

    def self_us(name: str) -> float:
        return totals[name]["self_ns"] / 1e3 if name in totals else 0.0

    tested = calls("reflect.test")
    triggers = counts["triggers"]
    return {
        "rng.stream.calls": calls("rng.stream"),
        "rng.stream.us": us("rng.stream"),
        "world.world_step.calls": calls("world.world_step"),
        "world.world_step.self_us": self_us("world.world_step"),
        "model.predict.us": us("model.predict"),
        "model.predict_next.us": us("model.predict_next"),
        "model.append_history.us": us("agent:append_history", "reflect:append_history"),
        "model.fit.calls": calls("model.fit"),
        "model.fit.us": us("model.fit"),
        "model.model_digest.calls": calls("model.model_digest"),
        "model.model_digest.us": us("model.model_digest"),
        "model.rollout.calls": calls("agent:rollout", "reflect:rollout"),
        "model.rollout.rows": counts["rollout_rows"],
        "model.rollout.us": us("agent:rollout", "reflect:rollout"),
        "reflect.triggers": triggers,
        "reflect.self_us": self_us("reflect.reflect"),
        "reflect.suffix_us": us("reflect.suffix"),
        "reflect.generate_us": us("reflect.generate"),
        "reflect.score_us": us("reflect.score"),
        "reflect.test_us": us("reflect.test"),
        "reflect.apply_us": us("reflect.apply"),
        "reflect.candidates.generated": counts["generated"],
        "reflect.candidates.tested": tested,
        "reflect.candidates.accepted": counts["accepted"],
        "reflect.accept_ratio": counts["accepted"] / tested if tested else 0.0,
        "reflect.rollouts_per_trigger": calls("reflect:rollout") / triggers if triggers else 0.0,
        "agent.run_episode.self_us": self_us("agent.run_episode"),
        "agent.policy_action.self_us": self_us("agent.policy_action"),
        "agent.fit_gate.us": us("agent:rollout"),
        "agent.fit.applied": work.get("fit_applied", 0),
        "agent.fit.rejected": work.get("fit_rejected", 0),
        "agent.fit.skipped": work.get("fit_skipped", 0),
        "agent.replay.self_us": self_us("agent.replay"),
        "core.loss.calls": calls("agent:loss", "reflect:loss"),
        "core.loss.us": us("agent:loss", "reflect:loss"),
        "scenario.scenario_digest.calls": calls("agent:scenario_digest", "evaluate:scenario_digest"),
        "scenario.scenario_digest.us": us("agent:scenario_digest", "evaluate:scenario_digest"),
        "trace.write_trace.us": us("trace.write_trace"),
        "trace.read_trace.us": us("trace.read_trace"),
        "trace.record_to_dict.calls": calls("agent:record_to_dict", "trace:record_to_dict"),
        "trace.snapshot_records": work.get("snapshot_records", 0),
        "trace.bytes": work.get("trace_bytes", 0),
        "evaluate.evaluate_trace.self_us": self_us("evaluate.evaluate_trace"),
        "evaluate.shd_series.us": us("evaluate.shd_series"),
        "evaluate.compare.self_us": self_us("evaluate.compare"),
        "explain.explain_transition.us": us("explain.explain_transition"),
        "explain.explain_counterfactual.us": us("explain.explain_counterfactual"),
        "explain.explain_reflection.us": us("explain.explain_reflection"),
        "explain.is_grounded.us": us("explain.is_grounded"),
        "explain.explanations": counts["explanations"],
        "explain.ungrounded": counts["ungrounded"],
        "bench.trace_overhead_pct": overhead_pct,
    }
