"""Trace evaluation: how wrong was the model, and how fast did it recover.

Three lenses:

* rolling RMSE of the per-tick prediction error (trailing window), the
  recovery signal around structural breaks;
* a temporal structural Hamming distance between the agent's graph and
  the ground-truth graph in force at each tick -- edges are keyed by
  (source, target), an edge present on one side only costs 1, and a
  shared edge costs 1 per delay difference plus 1 per coefficient sign
  mismatch.  It is computed once per snapshot or break, not per tick: the
  agent's graph is read anew only at a model snapshot (one that changes
  only ``delta_hat`` costs one SHD too), the true one changes only at a
  scheduled break.  Both graphs are compared as their plan tuples
  (:attr:`causalloop.world.CausalGraph.plan`);
* reflection statistics (triggers, candidates, acceptances by kind).

Per-tick agent graphs come straight from the model snapshots embedded in
the trace, each parsed and checked by
:func:`causalloop.scenario.graph_from_dict`, so evaluation never re-runs
an episode.
"""

from __future__ import annotations

import functools
import operator
import statistics
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .core import InputError
from .reflect import HYPOTHESIS_KINDS
from .scenario import ScenarioConfig, graph_from_dict, scenario_digest
from .trace import EpisodeTrace, reflect_block_from_dict
from .world import CausalGraph, active_graph

RMSE_WINDOW = 16
RECOVERY_FACTOR = 2.0  # threshold = factor * pre-break median rolling RMSE


# ---------------------------------------------------------------------------
# Structural Hamming distance (temporal variant)
# ---------------------------------------------------------------------------


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


_delay = operator.itemgetter(0)


def _by_key(g: CausalGraph) -> dict[tuple[bool, int, int], list[tuple[int, float]]]:
    """``g``'s ``(delay, coefficient)`` pairs by ``(reads_action,
    source_index, target)``, in edge order, read from its plan."""
    groups: dict[tuple[bool, int, int], list[tuple[int, float]]] = {}
    for reads_action, index, delay, target, coefficient, _ in g.plan:
        groups.setdefault((reads_action, index, target), []).append((delay, coefficient))
    return groups


def shd(inferred: CausalGraph, truth: CausalGraph) -> int:
    """Edge-key distance; zero iff the graphs agree on presence, delay and
    coefficient sign of every (source, target) influence.

    The edges of one key on both sides pair up in order of delay; each
    unpaired edge costs 1.
    """
    by_key_a = _by_key(inferred)
    by_key_b = _by_key(truth)
    total = 0
    for key, group_a in by_key_a.items():
        group_b = by_key_b.get(key)
        if group_b is None:
            total += len(group_a)
            continue
        group_a.sort(key=_delay)
        group_b.sort(key=_delay)
        for (delay_a, coef_a), (delay_b, coef_b) in zip(group_a, group_b):
            total += (delay_a != delay_b) + (_sign(coef_a) != _sign(coef_b))
        total += abs(len(group_a) - len(group_b))
    for key, group_b in by_key_b.items():
        if key not in by_key_a:
            total += len(group_b)
    return total


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


def _total(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0.  Not ``sum``: since Python
    3.12 it compensates float rounding, and a report must not depend on the
    Python version (as :func:`causalloop.core.loss` adds its errors)."""
    return functools.reduce(operator.add, values, 0.0)


def rolling_rmse(epsilons: Sequence[float], window: int = RMSE_WINDOW) -> tuple[float, ...]:
    """Trailing root-mean of the per-tick squared errors.

    Each window is added left to right from 0.0, as :func:`_total` adds:
    ``totals[t]`` takes the window's ticks ``t - window + 1 .. t`` in order,
    a 0.0 for each tick before 0, one vector addition per place in the
    window.  The root is Python's ``** 0.5``, one value at a time.
    """
    n = len(epsilons)
    padded = np.concatenate([np.zeros(window - 1), epsilons])
    totals = np.zeros(n)
    for j in range(window):
        totals = totals + padded[j : j + n]
    means = totals / np.minimum(np.arange(1, n + 1), window)
    return tuple([m**0.5 for m in means.tolist()])


def graphs_per_tick(trace: EpisodeTrace) -> list[CausalGraph]:
    """Agent graph at each tick, forward-filled from embedded snapshots."""
    graphs: list[CausalGraph] = []
    current: CausalGraph | None = None
    for r in trace.records:
        if r.model_snapshot is not None:
            current = graph_from_dict(r.model_snapshot.get("graph"))
        if current is None:
            raise InputError(f"trace record at tick {r.tick} precedes any model snapshot")
        graphs.append(current)
    return graphs


def shd_series(trace: EpisodeTrace, scenario: ScenarioConfig) -> tuple[int, ...]:
    """:func:`shd` of the agent's graph against the true one at each tick.

    Computed again only when either graph is another object: the true one
    at a break, the agent's at a snapshot.  Between those both are the same
    objects, so the series is the one a per-tick :func:`shd` gives.
    """
    sc = scenario.materialized()
    out: list[int] = []
    agent: CausalGraph | None = None
    truth: CausalGraph | None = None
    value = 0
    for g, r in zip(graphs_per_tick(trace), trace.records):
        t = active_graph(sc.graph, sc.breaks, r.tick)
        if t is not truth or g is not agent:
            value = shd(g, t)
            truth = t
        agent = g
        out.append(value)
    return tuple(out)


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
        if r.reflect is None:
            continue
        block = reflect_block_from_dict(r.tick, r.reflect)
        triggers += 1
        n_candidates += len(block.candidates)
        for h in block.accepted:
            kind = HYPOTHESIS_KINDS[type(h)]
            acceptances[kind] = acceptances.get(kind, 0) + 1

    return EvalReport(
        scenario_name=sc.name,
        scenario_digest=digest,
        seed=trace.header.seed,
        reflect_enabled=trace.header.reflect_enabled,
        length=len(trace.records),
        mean_epsilon=_total(eps) / len(eps),
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
        post_rmse_reflect = _total(ra.rmse[post:]) / max(1, len(ra.rmse) - post)
        post_rmse_baseline = _total(rb.rmse[post:]) / max(1, len(rb.rmse) - post)
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
