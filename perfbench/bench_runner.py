"""Set-up, timed passes and metrics for one benchmark run.

A run sets up ``SETUP_REPEATS`` times (``setup_s`` is the median), then
runs whole passes over the workload's inputs until ``seconds`` would be
exceeded, always at least one.  Every pass repeats the same inputs, so each
slot (one episode or recorded trace) gets the median of its timings over
passes, and the percentiles are taken over slots: the sample count is the
workload's slot count and does not drift with machine speed.

A traced run makes one untraced and one traced pass; their deterministic
counts and trace bytes must agree.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Any

import bench_layers
import bench_workloads as W
from bench_clock import REF_PROBE_NS
from bench_stats import median, tail
from bench_trace import Tracer
from causalloop.scenario import scenario_digest

WARMUP_TICKS = 96
SINGLE_THREAD_NOTE = (
    "single-threaded closed loop: one caller, no threads or pools, so no layer queues "
    "or waits; time is either a span's own or its children's"
)


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    summary: list[str]
    record: dict[str, Any] = field(default_factory=dict)


def _setup_episodes(workload: str, seed: int, tmp: str, ledger: W.Ledger) -> list[W.Episode]:
    """Make and validate the inputs, then warm every code path on a short episode."""
    episodes = W.make_inputs(workload, seed)
    for ep in episodes:
        ep.scenario.validate()
        scenario_digest(ep.scenario)
    W.episode_pass([replace(episodes[0], length=WARMUP_TICKS)], tmp, ledger, None, W.STAGE_REPEATS[workload])
    return episodes


def _check_same(passes: list[list[W.Slot]], ledger: W.Ledger) -> None:
    """Every pass must write byte-identical traces."""
    first = passes[0]
    for p in passes[1:]:
        for a, b in zip(first, p):
            ledger.attempted += 1
            if a.digest != b.digest:
                ledger.fail(f"{a.label}: trace differs between passes")


def _timed_passes(one_pass, seconds: float) -> tuple[list[list[W.Slot]], float]:
    passes = []
    start = time.perf_counter()
    while True:
        if passes:  # only the last pass's traces are read again; keep memory flat
            for slot in passes[-1]:
                slot.trace = slot.report = None
        passes.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes, elapsed


def _us_per_tick(runs: list[list[W.Slot]]) -> list[float]:
    ms = W.per_slot_median(runs, "run")
    return [m * 1e3 / s.ticks for m, s in zip(ms, runs[0])]


def _ticks_per_s(runs: list[list[W.Slot]]) -> float:
    ticks = sum(s.ticks * len(s.ms.get("run", ())) for p in runs for s in p)
    seconds = sum(sum(s.ms.get("run", ())) for p in runs for s in p) / 1e3
    return ticks / seconds


def _end_to_end(runs: list[list[W.Slot]], passes: list[list[W.Slot]], setup: list[float]) -> tuple[dict, dict]:
    """Metrics, plus the tail's percentile and sample count."""
    us = _us_per_tick(runs)
    p, tail_value, n = tail(us)
    last = passes[-1]
    metrics = {
        "setup_s": median(setup),
        "ticks_per_s": _ticks_per_s(runs),
        "tick_us.p50": median(us),
        "tick_us.tail": tail_value,
        "replay_ms.p50": median(W.per_slot_median(runs, "replay")),
        "trace_write_ms.p50": median(W.per_slot_median(passes, "write")),
        "trace_read_ms.p50": median(W.per_slot_median(passes, "read")),
        "evaluate_ms.p50": median(W.per_slot_median(passes, "evaluate")),
        "explain_ms.p50": median(W.per_slot_median(passes, "explain")),
        "trace_bytes_per_tick": sum(s.nbytes for s in last) / sum(s.ticks for s in last),
    }
    metrics.update(W.behaviour(last))
    return metrics, {"percentile": p, "samples": n}


def run(workload: str, seed: int, seconds: float, traced: bool, out_dir: str) -> Result:
    tmp = os.path.join(out_dir, "tmp")
    ledger = W.Ledger()
    setup: list[float] = []  # seconds at reference speed
    setup_wall: list[float] = []
    recorded: list[list[W.Slot]] = []  # trace_audit: one slot list per set-up
    for _ in range(W.AUDIT_SETUP_REPEATS if workload == "trace_audit" else W.SETUP_REPEATS):
        mark = len(ledger.speed.probes)
        before = ledger.speed.probe_ns()
        start = time.perf_counter_ns()
        if workload == "trace_audit":
            episodes = W.make_inputs(workload, seed)
            recorded.append(W.record_pairs(episodes, ledger))
        else:
            episodes = _setup_episodes(workload, seed, tmp, ledger)
        wall = time.perf_counter_ns() - start
        setup_wall.append(wall / 1e9)
        setup.append(ledger.speed.scale_span(wall, mark, before) / 1e9)
    for rec in recorded[1:]:
        for a, b in zip(recorded[0], rec):
            ledger.attempted += 1
            if a.trace != b.trace:
                ledger.fail(f"{a.label}: set-up recorded a different trace")

    if workload == "trace_audit":
        def one_pass(tracer: Tracer | None = None) -> list[W.Slot]:
            return W.audit_pass(episodes, recorded[-1], tmp, ledger, tracer)
    else:
        def one_pass(tracer: Tracer | None = None) -> list[W.Slot]:
            return W.episode_pass(episodes, tmp, ledger, tracer, W.STAGE_REPEATS[workload])

    record: dict[str, Any] = {"workload": workload, "seed": seed, "seconds": seconds, "traced": traced}
    summary = [f"workload {workload} seed {seed}: {len(episodes)} slots per pass", SINGLE_THREAD_NOTE]
    if traced:
        metrics = _traced(workload, one_pass, ledger, out_dir, seed, summary, record)
    else:
        passes, elapsed = _timed_passes(one_pass, seconds)
        _check_same(passes, ledger)
        runs = recorded if workload == "trace_audit" else passes
        # trace_audit times no simulation; its simulation metrics come from
        # the set-up's baseline recordings (every second slot), because how
        # often the repair recordings fire, and so what they cost, is up to
        # the seed -- repair_break measures that.
        sim = [rec[1::2] for rec in recorded] if workload == "trace_audit" else passes
        metrics, tail_info = _end_to_end(sim, passes, setup)
        summary.append(
            f"{len(passes)} passes in {elapsed:.1f} s; tick_us.tail is p{tail_info['percentile']} "
            f"of {tail_info['samples']} episodes (per-episode medians over "
            f"{len(runs)} {'set-ups, baseline recordings only' if runs is recorded else 'passes'})"
        )
        record.update(
            passes=len(passes),
            measured_s=elapsed,
            tick_us_tail=tail_info,
            work=W.work_counts(passes[-1]),
            slots=_slot_table(runs, passes),
        )
    summary.append(
        f"failed_frac {ledger.failed / max(1, ledger.attempted):.6g} "
        f"({ledger.failed} of {ledger.attempted} operations)"
    )
    summary += [f"FAILED {n}" for n in ledger.notes[:20]]
    probes = ledger.speed.probes
    summary.append(
        f"times are scaled to reference speed: median probe {median(probes) / 1e6:.3f} ms "
        f"over {len(probes)} probes (reference {REF_PROBE_NS / 1e6:.3f} ms); raw wall times in the results file"
    )
    record.update(setup_s=setup, setup_wall_s=setup_wall, probe_ns=probes, failures=ledger.notes)
    return Result(metrics, ledger.attempted, ledger.failed, summary, record)


def _scaled_s(slots: list[W.Slot]) -> float:
    return sum(sum(map(sum, s.ms.values())) for s in slots) / 1e3


def _slot_table(runs: list[list[W.Slot]], passes: list[list[W.Slot]]) -> list[dict]:
    stages = ("run", "write", "read", "evaluate", "compare", "explain", "replay")
    table = []
    for i, s in enumerate(passes[0]):
        row: dict[str, Any] = {"label": s.label, "ticks": s.ticks, "bytes": s.nbytes}
        for st in stages:
            src = runs if st in ("run", "replay") else passes
            values = [v for p in src for v in p[i].ms.get(st, ())]
            if values:
                row[st + "_ms"] = median(values)
                row[st + "_wall_ms"] = median([v for p in src for v in p[i].wall_ms.get(st, ())])
        table.append(row)
    return table


def _traced(workload, one_pass, ledger, out_dir, seed, summary, record) -> dict[str, float]:
    start = time.perf_counter()
    plain = one_pass()
    plain_s = time.perf_counter() - start
    with Tracer() as tracer:
        bench_layers.install(tracer)
        start = time.perf_counter()
        traced = one_pass(tracer)
        traced_s = time.perf_counter() - start
    _check_same([plain, traced], ledger)
    work_plain, work_traced = W.work_counts(plain), W.work_counts(traced)
    ledger.attempted += 1
    if work_plain != work_traced:
        ledger.fail(f"traced counts {work_traced} != untraced counts {work_plain}")
    run_counts = tracer.counters.get("run")
    if run_counts is not None:
        for key, name in (("triggers", "triggers"), ("candidates", "generated"), ("accepted", "accepted")):
            ledger.attempted += 1
            if run_counts[name] != work_traced.get(key, 0):
                ledger.fail(f"wrapper count {name}={run_counts[name]} != trace count {key}={work_traced.get(key, 0)}")
        overhead = (_ticks_per_s([plain]) / _ticks_per_s([traced]) - 1.0) * 100.0
    else:
        overhead = (_scaled_s(traced) / _scaled_s(plain) - 1.0) * 100.0
    metrics = bench_layers.layer_metrics(tracer, work_traced, overhead)
    totals = tracer.totals()
    episode_ns = totals.get("agent.run_episode", {}).get("ns", 0)
    reflect_ns = totals.get("reflect.reflect", {}).get("ns", 0)
    share = 100.0 * reflect_ns / episode_ns if episode_ns else 0.0
    spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json.gz")
    tracer.dump(spans_path)
    summary.append(
        f"untraced pass {plain_s:.2f} s, traced pass {traced_s:.2f} s (wall), {len(tracer.ids)} spans -> "
        f"{os.path.relpath(spans_path)}; reflect is {share:.1f}% of run_episode time"
    )
    record.update(
        untraced_s=plain_s,
        traced_s=traced_s,
        work=work_traced,
        reflect_share_pct=share,
        span_totals=totals,
    )
    return metrics
