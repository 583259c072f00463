"""Benchmark workloads: inputs made from a seed, the timed pipeline, checks.

One caller runs everything in a closed loop in this process: each episode
starts when the previous one has finished, with no threads or pools.

* ``repair_break`` -- the repair-enabled agent on bundled ``break_demo``
  and ``productivity`` plus width-family worlds (d_state 2, 4, 8) whose
  action edges flip and double at a scheduled break.
* ``steady_fit`` -- the fit-only baseline on bundled ``calm`` and
  ``break_demo`` plus break-free width-family worlds (d_state 2-16) whose
  agent starts one feedback edge short.
* ``trace_audit`` -- paired repair/baseline traces recorded (and replayed)
  during set-up; the timed part writes, reads, evaluates, compares and
  explains them.

Every episode of the first two goes through run -> write -> read ->
evaluate -> explain -> replay, each stage timed on its own.  The program
sees only the generated scenarios, episode seeds and lengths.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

import causalloop.agent as agent_mod
import causalloop.evaluate as evaluate_mod
import causalloop.explain as explain_mod
import causalloop.trace as trace_mod
from causalloop.core import CausalTuple, Perturbation, TimeIndex
from causalloop.model import model_from_snapshot
from causalloop.scenario import ScenarioConfig, builtin_scenarios

from bench_clock import Speed
from bench_family import width_scenario
from bench_stats import censored_recovery, median
from bench_trace import Tracer

# ``causalloop`` re-exports the function ``reflect`` under the submodule's
# name, so the module object has to come from the import system.
reflect_mod = importlib.import_module("causalloop.reflect")
rng_mod = importlib.import_module("causalloop.rng")

POLICY = agent_mod.RandomPolicy()
EXPLAIN_SAMPLES = 8  # transition + counterfactual explanations per trace
SETUP_REPEATS = 9  # set-ups per run; setup_s is their median
# write/read/evaluate/explain runs per episode and pass.  These stages take
# milliseconds, so a single sample is at the mercy of one garbage-collector
# pause or a switch of the machine's speed.  A repair_break pass takes most
# of a run, so its episodes repeat the stages within the pass; steady_fit
# makes several passes, and the per-episode median over them spreads its
# samples over the whole run, which a burst of repeats cannot.
STAGE_REPEATS = {"repair_break": 5, "steady_fit": 1}
AUDIT_SETUP_REPEATS = 2

# (scenario, episodes, length) for bundled scenarios and (d_state, episodes,
# length, break tick or None, hide_edge) for the width family.
#
# Width breaks come at tick 12 and leave 20 ticks after them, more than the
# 16-tick rolling-RMSE window, so the break tick's own error has left the
# window before the episode ends and a repair that settles can recover.
# Repair costs under 1 ms per tick before a width break and 15-85 ms per
# tick after it, where it thrashes; an early break keeps its scoring windows
# short.  The final SHD of one thrashing episode is anywhere from 0 to 8, so
# final_shd.mean needs many width episodes to hold still from seed to seed;
# longer post-break spans cost more per episode and scatter it more.
#
# Percentiles are taken over episodes, and the tail of tick_us is the 11th
# most expensive one per tick, so each workload has one large group of
# episodes of one kind where its median and tail fall: repair_break's d=4
# group (d=2 repair settles in some episodes and thrashes in others), and
# steady_fit's break_demo group for its median and its d=16 group for its
# tail.  break_demo's fit-only baseline recovers after 0 ticks in about one
# episode in four (the break tick's error can stay under the threshold) and
# after 66-86 otherwise, so steady_fit's 26 of them also keep the median
# recovery off that split.
# trace_audit's break-free width agents start one feedback edge short, so
# its final SHD does not hinge on its few breaking repair runs; its breaking
# pairs are d=4, where the break tick's error is rarely small enough to
# count as a recovery after 0 ticks; most of its traces are 32-40 ticks.
REPAIR_BUNDLED = (("break_demo", 4, 240), ("productivity", 2, 160))
REPAIR_WIDTHS = ((2, 1, 32, 12, False), (4, 18, 32, 12, False), (8, 1, 32, 12, False))
STEADY_BUNDLED = (("calm", 2, 200), ("break_demo", 26, 300))
STEADY_WIDTHS = ((2, 2, 120, None, True), (4, 2, 120, None, True), (8, 2, 120, None, True), (16, 14, 80, None, True))
AUDIT_BUNDLED = (("break_demo", 2, 260), ("productivity", 1, 200), ("calm", 3, 48))
AUDIT_WIDTHS = ((4, 3, 32, 12, False), (2, 20, 40, None, True))


@dataclass(frozen=True)
class Episode:
    label: str
    scenario: ScenarioConfig
    seed: int
    length: int
    reflect: bool


def _episodes(
    rng: np.random.Generator,
    bundled: tuple,
    widths: tuple,
    reflect: bool,
) -> list[Episode]:
    scenarios = builtin_scenarios()
    out = []
    for name, count, length in bundled:
        for k in range(count):
            seed = int(rng.integers(2**31))
            out.append(Episode(f"{name}.{k}", scenarios[name], seed, length, reflect))
    for d, count, length, break_at, hide_edge in widths:
        for k in range(count):
            name = f"width{d}{'h' if hide_edge else ''}.{k}"
            sc = width_scenario(rng, d, break_at=break_at, hide_edge=hide_edge, name=name)
            out.append(Episode(name, sc, int(rng.integers(2**31)), length, reflect))
    return out


def make_inputs(workload: str, seed: int) -> list[Episode]:
    """Every episode of one pass, in run order; a pure function of the seed.

    For ``trace_audit`` the list alternates repair and baseline runs of the
    same scenario and episode seed.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "repair_break":
        return _episodes(rng, REPAIR_BUNDLED, REPAIR_WIDTHS, reflect=True)
    if workload == "steady_fit":
        return _episodes(rng, STEADY_BUNDLED, STEADY_WIDTHS, reflect=False)
    pairs = []
    for ep in _episodes(rng, AUDIT_BUNDLED, AUDIT_WIDTHS, reflect=True):
        pairs += [ep, replace(ep, reflect=False)]
    return pairs


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


@dataclass
class Slot:
    """What one episode (or recorded trace) produced in one pass."""

    label: str
    ticks: int
    ms: dict[str, list[float]] = field(default_factory=dict)  # stage -> ms at reference speed
    wall_ms: dict[str, list[float]] = field(default_factory=dict)  # stage -> raw wall ms
    trace: Any = None
    report: Any = None
    digest: str = ""
    nbytes: int = 0
    explanations: int = 0
    ungrounded: int = 0


@dataclass
class Ledger:
    """Operations attempted and failed, and the speed reference that times them."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)  # one line per failure
    speed: Speed = field(default_factory=Speed)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(what)


FAILED = object()  # what :func:`_timed` returns for an operation that raised


def _timed(slot: Slot, stage: str, ledger: Ledger, fn: Callable[[], Any]) -> Any:
    """Run one operation, record its time and count it."""
    ledger.attempted += 1
    before = ledger.speed.probe_ns()
    start = time.perf_counter_ns()
    try:
        return fn()
    except Exception:  # the benchmark keeps going and reports the failure
        ledger.fail(f"{slot.label} {stage}: {traceback.format_exc(limit=3)}")
        return FAILED
    finally:
        wall = time.perf_counter_ns() - start
        slot.wall_ms.setdefault(stage, []).append(wall / 1e6)
        slot.ms.setdefault(stage, []).append(ledger.speed.scale(wall, before, ledger.speed.probe_ns()) / 1e6)


def _ok(result: Any) -> bool:
    return result is not None and result is not FAILED


def _explain_all(trace) -> tuple[int, int]:
    """Explain every reflect tick plus sampled transitions/counterfactuals.

    Returns (explanations, ungrounded).  The model used at a sampled tick is
    the one entering it: the last snapshot recorded before that tick.
    """
    records = trace.records
    step = max(1, len(records) // EXPLAIN_SAMPLES)
    sampled = set(range(0, len(records), step))
    explanations = []
    snapshot = None
    for i, r in enumerate(records):
        if i in sampled:
            snap = snapshot if snapshot is not None else r.model_snapshot
            m = replace(model_from_snapshot(snap), delta_hat=r.delta_hat)
            tup = CausalTuple(r.state, r.action, TimeIndex(r.tick), Perturbation(r.delta_hat))
            explanations.append(explain_mod.explain_transition(m, tup))
            explanations.append(explain_mod.explain_counterfactual(m, tup, 0.0))
        if r.reflect is not None and r.reflect.get("triggered"):
            explanations.append(explain_mod.explain_reflection(r.tick, r.reflect))
        if r.model_snapshot is not None:
            snapshot = r.model_snapshot
    ungrounded = sum(not explain_mod.is_grounded(e) for e in explanations)
    return len(explanations), ungrounded


def _persist(slot: Slot, trace, path: str, ledger: Ledger) -> Any:
    """Write, read back and check the round trip; returns the trace read."""
    if _timed(slot, "write", ledger, lambda: trace_mod.write_trace(trace, path)) is FAILED:
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    slot.nbytes = len(data)
    slot.digest = hashlib.sha256(data).hexdigest()
    back = _timed(slot, "read", ledger, lambda: trace_mod.read_trace(path))
    if back is FAILED:
        return None
    if back != trace:
        ledger.fail(f"{slot.label}: read_trace(write_trace(t)) != t")
    return back


def _explain(slot: Slot, trace, ledger: Ledger) -> None:
    counts = _timed(slot, "explain", ledger, lambda: _explain_all(trace))
    if counts is not FAILED:
        slot.explanations, slot.ungrounded = counts
        ledger.attempted += slot.explanations
        for _ in range(slot.ungrounded):
            ledger.fail(f"{slot.label}: ungrounded explanation")


def _stage(tracer: Tracer | None, stage: str) -> None:
    if tracer is not None:
        tracer.stage = stage


def episode_pass(
    episodes: list[Episode], tmp_dir: str, ledger: Ledger, tracer: Tracer | None, repeats: int
) -> list[Slot]:
    """run -> write -> read -> evaluate -> explain -> replay, per episode.

    The cheap middle stages run ``repeats`` times each.
    """
    slots = []
    for i, ep in enumerate(episodes):
        slot = Slot(ep.label, ep.length)
        slots.append(slot)
        if tracer is not None:
            tracer.begin(f"{i}:{ep.label}", "run")
        trace = _timed(
            slot,
            "run",
            ledger,
            lambda: agent_mod.run_episode(ep.scenario, POLICY, ep.seed, ep.length, ep.reflect),
        )
        if trace is FAILED:
            continue
        slot.trace = trace
        _stage(tracer, "persist")
        path = os.path.join(tmp_dir, f"slot{i}.jsonl")
        back = None
        for _ in range(repeats):
            back = _persist(slot, trace, path, ledger)
            if back is None:
                break
        if back is None:
            continue
        _stage(tracer, "evaluate")
        for _ in range(repeats):
            slot.report = _timed(slot, "evaluate", ledger, lambda: evaluate_mod.evaluate_trace(back, ep.scenario))
        _stage(tracer, "explain")
        for _ in range(repeats):
            _explain(slot, back, ledger)
        _stage(tracer, "replay")
        _timed(slot, "replay", ledger, lambda: agent_mod.replay(back, ep.scenario))
    return slots


def record_pairs(episodes: list[Episode], ledger: Ledger) -> list[Slot]:
    """Set-up of ``trace_audit``: record every episode and verify its replay."""
    slots = []
    for ep in episodes:
        slot = Slot(ep.label + (".repair" if ep.reflect else ".baseline"), ep.length)
        slots.append(slot)
        trace = _timed(
            slot,
            "run",
            ledger,
            lambda: agent_mod.run_episode(ep.scenario, POLICY, ep.seed, ep.length, ep.reflect),
        )
        if trace is not FAILED:
            slot.trace = trace
            _timed(slot, "replay", ledger, lambda: agent_mod.replay(slot.trace, ep.scenario))
    return slots


def audit_pass(
    episodes: list[Episode], recorded: list[Slot], tmp_dir: str, ledger: Ledger, tracer: Tracer | None
) -> list[Slot]:
    """write -> read -> evaluate -> compare -> explain over recorded pairs."""
    slots = []
    for i, (ep, rec) in enumerate(zip(episodes, recorded)):
        slot = Slot(rec.label, ep.length, trace=rec.trace)
        slots.append(slot)
        if rec.trace is None:
            continue
        if tracer is not None:
            tracer.begin(f"{i}:{slot.label}", "persist")
        back = _persist(slot, rec.trace, os.path.join(tmp_dir, f"slot{i}.jsonl"), ledger)
        if back is None:
            continue
        _stage(tracer, "evaluate")
        slot.report = _timed(slot, "evaluate", ledger, lambda: evaluate_mod.evaluate_trace(back, ep.scenario))
        repair = slots[-2] if not ep.reflect else None
        if repair is not None and _ok(repair.report) and _ok(slot.report):
            comparison = _timed(
                slot, "compare", ledger, lambda: evaluate_mod.compare(repair.trace, back, ep.scenario)
            )
            if comparison is not FAILED and (
                comparison.reflect_report != repair.report or comparison.baseline_report != slot.report
            ):
                ledger.fail(f"{slot.label}: compare disagrees with evaluate_trace")
        _stage(tracer, "explain")
        _explain(slot, back, ledger)
    return slots


# ---------------------------------------------------------------------------
# Deterministic summaries
# ---------------------------------------------------------------------------


def work_counts(slots: list[Slot]) -> dict[str, int]:
    """Counts a pure speed change must leave unchanged, read from the traces."""
    c: Counter = Counter()
    for s in slots:
        c["trace_bytes"] += s.nbytes
        c["explanations"] += s.explanations
        if s.trace is None:
            continue
        for r in s.trace.records:
            if r.model_snapshot is not None:
                c["snapshot_records"] += 1
            if r.fit_event is not None:
                c["fit_" + r.fit_event.split(":")[0]] += 1
            if r.reflect is not None and r.reflect.get("triggered"):
                c["triggers"] += 1
                c["candidates"] += len(r.reflect["candidates"])
                c["accepted"] += len(r.reflect["accepted"])
    return dict(sorted(c.items()))


def behaviour(slots: list[Slot]) -> dict[str, float]:
    """final SHD, post-break rolling RMSE and recovery, over every trace.

    Post-break RMSE is the mean rolling RMSE from the break to the end, the
    quantity ``compare`` differences; a break that never recovers counts as
    censored at the end of its episode.
    """
    shds, post_rmse, recoveries = [], [], []
    for s in slots:
        rep = s.report
        if not _ok(rep):
            continue
        shds.append(rep.shd[-1])
        for b in rep.breaks:
            post_rmse.append(sum(rep.rmse[b.at_tick :]) / max(1, len(rep.rmse) - b.at_tick))
            recoveries.append(censored_recovery(b.recovery, b.at_tick, rep.length))
    return {
        "final_shd.mean": sum(shds) / len(shds) if shds else float("nan"),
        "post_break_rmse.mean": sum(post_rmse) / len(post_rmse) if post_rmse else float("nan"),
        "recovery_ticks.p50": median(recoveries) if recoveries else float("nan"),
    }


WORKLOADS = ("repair_break", "steady_fit", "trace_audit")


def per_slot_median(passes: list[list[Slot]], stage: str) -> list[float]:
    """One value per slot: the median of that stage's samples over all passes."""
    out = []
    for i in range(len(passes[0])):
        values = [v for p in passes for v in p[i].ms.get(stage, ())]
        if values:
            out.append(median(values))
    return out
