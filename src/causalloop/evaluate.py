"""Trace evaluation: how wrong was the model, and how fast did it recover.

Three lenses:

* rolling RMSE of the per-tick prediction error (trailing window), the
  recovery signal around structural breaks;
* a temporal structural Hamming distance between the agent's graph and
  the ground-truth graph in force at each tick -- edges are keyed by
  (source, target), an edge present on one side only costs 1, and a
  shared edge costs 1 per delay difference plus 1 per coefficient sign
  mismatch;
* reflection statistics (triggers, candidates, acceptances by kind).

Per-tick agent graphs come straight from the model snapshots embedded in
the trace, so evaluation never re-runs an episode.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Sequence

from .core import InputError
from .scenario import ScenarioConfig, graph_from_dict, scenario_digest
from .trace import EpisodeTrace
from .world import CausalGraph, active_graph

RMSE_WINDOW = 16
RECOVERY_FACTOR = 2.0  # threshold = factor * pre-break median rolling RMSE


# ---------------------------------------------------------------------------
# Structural Hamming distance (temporal variant)
# ---------------------------------------------------------------------------


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def shd(inferred: CausalGraph, truth: CausalGraph) -> int:
    """Edge-key distance; zero iff the graphs agree on presence, delay and
    coefficient sign of every (source, target) influence."""
    by_key_a: dict[tuple, list] = {}
    by_key_b: dict[tuple, list] = {}
    for e in inferred.edges:
        by_key_a.setdefault((e.source, e.target), []).append(e)
    for e in truth.edges:
        by_key_b.setdefault((e.source, e.target), []).append(e)
    total = 0
    for key in set(by_key_a) | set(by_key_b):
        group_a = sorted(by_key_a.get(key, []), key=lambda e: e.delay)
        group_b = sorted(by_key_b.get(key, []), key=lambda e: e.delay)
        shared = min(len(group_a), len(group_b))
        for ea, eb in zip(group_a, group_b):
            if ea.delay != eb.delay:
                total += 1
            if _sign(ea.coefficient) != _sign(eb.coefficient):
                total += 1
        total += len(group_a) - shared + len(group_b) - shared
    return total


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


def rolling_rmse(epsilons: Sequence[float], window: int = RMSE_WINDOW) -> tuple[float, ...]:
    """Trailing root-mean of the per-tick squared errors."""
    out = []
    for t in range(len(epsilons)):
        chunk = epsilons[max(0, t - window + 1) : t + 1]
        out.append((sum(chunk) / len(chunk)) ** 0.5)
    return tuple(out)


def graphs_per_tick(trace: EpisodeTrace) -> list[CausalGraph]:
    """Agent graph at each tick, forward-filled from embedded snapshots."""
    graphs: list[CausalGraph] = []
    current: CausalGraph | None = None
    for r in trace.records:
        if r.model_snapshot is not None:
            current = graph_from_dict(r.model_snapshot["graph"])
        if current is None:
            raise InputError(f"trace record at tick {r.tick} precedes any model snapshot")
        graphs.append(current)
    return graphs


def shd_series(trace: EpisodeTrace, scenario: ScenarioConfig) -> tuple[int, ...]:
    sc = scenario.materialized()
    return tuple(
        shd(g, active_graph(sc.graph, sc.breaks, r.tick))
        for g, r in zip(graphs_per_tick(trace), trace.records)
    )


def recovery_time(
    rmse_series: Sequence[float], break_tick: int, threshold: float
) -> int | None:
    """Smallest d >= 0 with rmse_series[break_tick + d] <= threshold."""
    for d in range(len(rmse_series) - break_tick):
        if rmse_series[break_tick + d] <= threshold:
            return d
    return None


def recovery_threshold(rmse_series: Sequence[float], break_tick: int) -> float:
    """Twice the pre-break median rolling RMSE."""
    pre = rmse_series[:break_tick]
    if not pre:
        raise InputError(f"no pre-break ticks before {break_tick}")
    return RECOVERY_FACTOR * statistics.median(pre)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BreakReport:
    at_tick: int
    threshold: float
    recovery: int | None


@dataclass(frozen=True)
class EvalReport:
    scenario_name: str
    scenario_digest: str
    seed: int
    reflect_enabled: bool
    length: int
    mean_epsilon: float
    rmse: tuple[float, ...]
    shd: tuple[int, ...]
    breaks: tuple[BreakReport, ...]
    reflect_triggers: int
    candidates_scored: int
    acceptances: dict[str, int]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario_name": self.scenario_name,
            "scenario_digest": self.scenario_digest,
            "seed": self.seed,
            "reflect_enabled": self.reflect_enabled,
            "length": self.length,
            "mean_epsilon": self.mean_epsilon,
            "final_rmse": self.rmse[-1] if self.rmse else None,
            "final_shd": self.shd[-1] if self.shd else None,
            "breaks": [
                {"at_tick": b.at_tick, "threshold": b.threshold, "recovery": b.recovery}
                for b in self.breaks
            ],
            "reflect_triggers": self.reflect_triggers,
            "candidates_scored": self.candidates_scored,
            "acceptances": dict(self.acceptances),
        }


def evaluate_trace(trace: EpisodeTrace, scenario: ScenarioConfig) -> EvalReport:
    sc = scenario.materialized()
    digest = scenario_digest(sc)
    if trace.header.scenario_digest != digest:
        raise InputError(
            "trace does not belong to this scenario "
            f"({trace.header.scenario_digest[:12]}... vs {digest[:12]}...)"
        )
    if not trace.records:
        raise InputError("trace has no records")

    eps = [r.epsilon for r in trace.records]
    rmse = rolling_rmse(eps)
    shds = shd_series(trace, sc)

    breaks = []
    for b in sc.breaks:
        if 0 < b.at_tick < len(rmse):
            threshold = recovery_threshold(rmse, b.at_tick)
            breaks.append(
                BreakReport(
                    at_tick=b.at_tick,
                    threshold=threshold,
                    recovery=recovery_time(rmse, b.at_tick, threshold),
                )
            )

    triggers = 0
    n_candidates = 0
    acceptances: dict[str, int] = {}
    for r in trace.records:
        if r.reflect is None or not r.reflect.get("triggered"):
            continue
        candidates = r.reflect.get("candidates")
        accepted = r.reflect.get("accepted")
        if not (
            isinstance(candidates, list)
            and isinstance(accepted, list)
            and all(isinstance(h, dict) and isinstance(h.get("kind"), str) for h in accepted)
        ):
            raise InputError(
                f"tick {r.tick}: triggered reflect block needs candidates and accepted edit lists"
            )
        triggers += 1
        n_candidates += len(candidates)
        for h in accepted:
            acceptances[h["kind"]] = acceptances.get(h["kind"], 0) + 1

    return EvalReport(
        scenario_name=sc.name,
        scenario_digest=digest,
        seed=trace.header.seed,
        reflect_enabled=trace.header.reflect_enabled,
        length=len(trace.records),
        mean_epsilon=sum(eps) / len(eps),
        rmse=rmse,
        shd=shds,
        breaks=tuple(breaks),
        reflect_triggers=triggers,
        candidates_scored=n_candidates,
        acceptances=acceptances,
    )


def report_tsv(report: EvalReport, trace: EpisodeTrace) -> str:
    """Per-tick table: tick, epsilon, rolling RMSE, SHD, trigger flag."""
    lines = ["tick\tepsilon\trmse\tshd\ttriggered\tfit_event"]
    for r, rm, sh in zip(trace.records, report.rmse, report.shd):
        triggered = int(bool(r.reflect and r.reflect.get("triggered")))
        lines.append(f"{r.tick}\t{r.epsilon!r}\t{rm!r}\t{sh}\t{triggered}\t{r.fit_event or ''}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Comparison:
    reflect_report: EvalReport
    baseline_report: EvalReport
    deltas: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "reflect": self.reflect_report.to_dict(),
            "baseline": self.baseline_report.to_dict(),
            "deltas": self.deltas,
        }


def compare(
    reflect_trace: EpisodeTrace, baseline_trace: EpisodeTrace, scenario: ScenarioConfig
) -> Comparison:
    """Paired evaluation of a repair-enabled run against its fit-only twin."""
    ra = evaluate_trace(reflect_trace, scenario)
    rb = evaluate_trace(baseline_trace, scenario)
    deltas: dict[str, Any] = {
        "mean_epsilon": rb.mean_epsilon - ra.mean_epsilon,
        "final_shd": rb.shd[-1] - ra.shd[-1],
    }
    per_break = []
    for ba, bb in zip(ra.breaks, rb.breaks):
        post = ba.at_tick
        post_rmse_reflect = sum(ra.rmse[post:]) / max(1, len(ra.rmse) - post)
        post_rmse_baseline = sum(rb.rmse[post:]) / max(1, len(rb.rmse) - post)
        per_break.append(
            {
                "at_tick": ba.at_tick,
                "reflect_recovery": ba.recovery,
                "baseline_recovery": bb.recovery,
                "post_break_rmse_delta": post_rmse_baseline - post_rmse_reflect,
            }
        )
    deltas["breaks"] = per_break
    return Comparison(reflect_report=ra, baseline_report=rb, deltas=deltas)
