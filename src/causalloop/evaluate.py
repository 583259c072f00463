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

The agent's graph comes straight from the model snapshots embedded in the
trace, so evaluation never re-runs an episode.  Both graphs are compared
as their plan tuples (:attr:`causalloop.world.CausalGraph.plan`), grouped
by (source, target) with each group sorted by delay.  The SHD series is
computed once per change point, not per tick: the agent's graph changes
only at a model snapshot (one that changes only ``delta_hat`` is a change
point too), the true one only at a scheduled break.  At each change point
a snapshot there is read and checked once (:func:`causalloop.model.
read_snapshot`, the check ``explain`` makes, and its graph must have the
scenario's dimensions) and grouped, the true graph is grouped once per
graph, and one SHD fills the ticks up to the next change point.  Every
snapshot is read, and no edge object is built.  Per-record values are read
with C-level ``map`` calls, with no Python loop over the records.
"""

from __future__ import annotations

import functools
import operator
import statistics
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Any, Iterable, Sequence

import numpy as np

from .core import InputError
from .model import read_snapshot
from .scenario import ScenarioConfig, scenario_digest
from .trace import EpisodeTrace, reflect_block_from_dict
from .world import CausalGraph, EdgePlan, active_graph

RMSE_WINDOW = 16
RECOVERY_FACTOR = 2.0  # threshold = factor * pre-break median rolling RMSE


# ---------------------------------------------------------------------------
# Structural Hamming distance (temporal variant)
# ---------------------------------------------------------------------------


# A graph's ``(delay, sign of coefficient)`` pairs by ``(reads_action,
# source_index, target)``, each group sorted by delay.
Groups = dict[tuple[bool, int, int], list[tuple[int, int]]]


def _groups(plan: tuple[EdgePlan, ...]) -> Groups:
    """The :data:`Groups` of a graph's plan.  A graph has at most one edge
    of each source, target and delay, so sorting a group's pairs sorts them
    by delay."""
    groups: Groups = {}
    for reads_action, index, delay, target, coefficient, _ in plan:
        pair = (delay, (coefficient > 0) - (coefficient < 0))
        group = groups.get((reads_action, index, target))
        if group is None:
            groups[(reads_action, index, target)] = [pair]
        else:
            group.append(pair)
    for group in groups.values():
        if len(group) > 1:
            group.sort()
    return groups


def _distance(a: Groups, b: Groups) -> int:
    """:func:`shd` of two graphs' :data:`Groups`: 0 at once when they are
    equal, and only the keys whose groups differ are paired."""
    if a == b:
        return 0
    total = 0
    for key, group_a in a.items():
        group_b = b.get(key)
        if group_b is None:
            total += len(group_a)
        elif group_a != group_b:
            for (delay_a, sign_a), (delay_b, sign_b) in zip(group_a, group_b):
                total += (delay_a != delay_b) + (sign_a != sign_b)
            total += abs(len(group_a) - len(group_b))
    for key, group_b in b.items():
        if key not in a:
            total += len(group_b)
    return total


def shd(inferred: CausalGraph, truth: CausalGraph) -> int:
    """Edge-key distance; zero iff the graphs agree on presence, delay and
    coefficient sign of every (source, target) influence.

    The edges of one key on both sides pair up in order of delay; each
    unpaired edge costs 1.
    """
    return _distance(_groups(inferred.plan), _groups(truth.plan))


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
        np.add(totals, padded[j : j + n], out=totals)
    means = totals / np.minimum(np.arange(1, n + 1), window)
    return tuple([m**0.5 for m in means.tolist()])


_epsilon_of = operator.attrgetter("epsilon")
_snapshot_of = operator.attrgetter("model_snapshot")
_reflect_of = operator.attrgetter("reflect")


def _present(values: list[Any]) -> Iterable[int]:
    """The indices of ``values`` that are not None, found in C."""
    return compress(range(len(values)), map(operator.is_not, values, repeat(None)))


def shd_series(trace: EpisodeTrace, scenario: ScenarioConfig) -> tuple[int, ...]:
    """:func:`shd` of the agent's graph against the true one at each tick.

    Record i holds tick i, as :func:`causalloop.trace.read_trace` and
    :func:`causalloop.agent.run_episode` guarantee.  The change points are
    the records that carry a model snapshot, the first of which must be
    record 0, and the ticks of the breaks inside the trace.  At each one a
    snapshot there is read and checked (:func:`read_snapshot`); its graph
    must have the scenario's dimensions (:class:`InputError` otherwise).
    One SHD then holds until the next change point, so the series is the
    one a per-tick :func:`shd` gives.
    """
    records = trace.records
    n = len(records)
    snapshots = list(map(_snapshot_of, records))
    points = set(_present(snapshots))
    if n and 0 not in points:
        raise InputError(f"trace record at tick {records[0].tick} precedes any model snapshot")
    points.update(b.at_tick for b in scenario.breaks if 0 < b.at_tick < n)
    starts = sorted(points)
    truths: dict[int, Groups] = {}  # id of each true graph met -> its groups
    out: list[int] = []
    for t, end in zip(starts, starts[1:] + [n]):
        snap = snapshots[t]
        if snap is not None:
            (d_state, d_action, plan), _ = read_snapshot(snap)
            if d_state != scenario.d_state or d_action != scenario.d_action:
                raise InputError(
                    f"tick {records[t].tick}: the model snapshot's graph has d_state={d_state}, "
                    f"d_action={d_action}; the scenario has d_state={scenario.d_state}, d_action={scenario.d_action}"
                )
            agent = _groups(plan)
        truth = active_graph(scenario.graph, scenario.breaks, t)
        groups = truths.get(id(truth))
        if groups is None:
            groups = truths[id(truth)] = _groups(truth.plan)
        out += [_distance(agent, groups)] * (end - t)
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
    digest = scenario_digest(scenario)
    if trace.header.scenario_digest != digest:
        raise InputError(
            "trace does not belong to this scenario "
            f"({trace.header.scenario_digest[:12]}... vs {digest[:12]}...)"
        )
    if not trace.records:
        raise InputError("trace has no records")

    records = trace.records
    eps = list(map(_epsilon_of, records))
    rmse = rolling_rmse(eps)
    shds = shd_series(trace, scenario)

    breaks = []
    for b in scenario.breaks:
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
    reflects = list(map(_reflect_of, records))
    for i in _present(reflects):
        block = reflect_block_from_dict(records[i].tick, reflects[i])
        triggers += 1
        n_candidates += len(block.candidates)
        for h in block.accepted:
            acceptances[h.kind] = acceptances.get(h.kind, 0) + 1

    return EvalReport(
        scenario_name=scenario.name,
        scenario_digest=digest,
        seed=trace.header.seed,
        reflect_enabled=trace.header.reflect_enabled,
        length=len(records),
        mean_epsilon=_total(eps) / len(eps),
        rmse=rmse,
        shd=shds,
        breaks=tuple(breaks),
        reflect_triggers=triggers,
        candidates_scored=n_candidates,
        acceptances=acceptances,
    )


def report_tsv(report: EvalReport, trace: EpisodeTrace) -> str:
    """Per-tick table: tick, epsilon, rolling RMSE, SHD, trigger flag.

    ``report`` is :func:`evaluate_trace` of ``trace``, which refuses a
    reflect block not marked triggered, so a record triggered if it holds one."""
    lines = ["tick\tepsilon\trmse\tshd\ttriggered\tfit_event"]
    for r, rm, sh in zip(trace.records, report.rmse, report.shd):
        triggered = int(r.reflect is not None)
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
