"""Tests of the benchmark itself: python -m pytest perfbench -q

They cover the statistics rules, span self-time arithmetic, the tracer's
install/uninstall contract, and a short-length run of every workload,
untraced and traced.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import bench_runner  # noqa: E402
import bench_layers  # noqa: E402
import bench_workloads as W  # noqa: E402
from bench_clock import REF_PROBE_NS, Speed  # noqa: E402
from bench_family import width_scenario  # noqa: E402
from bench_stats import censored_recovery, median, nearest_rank, tail, tail_percentile  # noqa: E402
from bench_trace import Tracer, span_totals  # noqa: E402
from causalloop.world import SourceKind  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _names(section: str) -> list[str]:
    return [m["name"] for m in SPEC[section]]

# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (10, None), (11, 9), (20, 50), (24, 58), (40, 75), (100, 90), (1000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    if p is not None:
        rank = max(1, math.ceil(p * n / 100))
        assert n - rank >= 10
        assert n - max(1, math.ceil((p + 1) * n / 100)) < 10  # p is the highest such


def test_tail_reports_percentile_value_and_count():
    samples = [float(v) for v in range(40, 0, -1)]  # input order must not matter
    assert tail(samples) == (75, 30.0, 40)
    assert nearest_rank(samples, 50) == 20.0
    with pytest.raises(ValueError):
        tail(samples[:10])


def test_recovery_censored_at_episode_end():
    assert censored_recovery(7, break_at=48, length=64) == 7
    assert censored_recovery(0, break_at=48, length=64) == 0
    assert censored_recovery(None, break_at=48, length=64) == 16
    # p50 over three breaks, two of which never recover
    assert median([censored_recovery(r, 48, 64) for r in (3, None, None)]) == 16


def test_long_span_is_scaled_by_every_probe_in_it():
    import time

    speed = Speed()
    speed.probes = [REF_PROBE_NS, 3 * REF_PROBE_NS]  # the second was taken inside the span
    speed._probe_ns, speed._at_ns = REF_PROBE_NS, time.perf_counter_ns()  # fresh: no new probe
    # mean of before, inside and after is 5/3 of the reference
    assert speed.scale_span(1000, mark=1, probe_before=REF_PROBE_NS) == pytest.approx(600.0)
    assert speed.scale(1000, REF_PROBE_NS, 3 * REF_PROBE_NS) == pytest.approx(500.0)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_self_time_subtracts_child_coverage():
    spans = [
        # id, parent, name, start, end
        (1, 0, "episode", 0, 100),
        (2, 1, "step", 10, 30),
        (3, 1, "step", 40, 70),
        (4, 3, "rng", 45, 50),
        (5, 3, "rng", 48, 60),  # overlaps its sibling: coverage is merged
        (6, 1, "late", 90, 120),  # runs past its parent: clipped to [90, 100]
    ]
    totals = span_totals(spans)
    assert totals["episode"] == {"calls": 1, "ns": 100, "self_ns": 100 - 20 - 30 - 10}
    assert totals["step"] == {"calls": 2, "ns": 50, "self_ns": 20 + (30 - 15)}
    assert totals["rng"] == {"calls": 2, "ns": 17, "self_ns": 17}
    assert totals["late"] == {"calls": 1, "ns": 30, "self_ns": 30}


def test_tracer_wraps_at_caller_site_and_restores():
    import types

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    with Tracer() as tracer:
        tracer.wrap(mod, "f", "caller:f", lambda c, a, k, r: c.update(seen=r))
        tracer.begin("ep0", "run")
        assert mod.f(1) == 2 and mod.f(2) == 3
        assert mod.f is not original
    assert mod.f is original
    assert tracer.totals()["caller:f"]["calls"] == 2
    assert tracer.counters["run"]["seen"] == 5
    assert list(tracer.episode_ids) == [0, 0]


def test_layer_sites_exist_and_uninstall_cleanly():
    before = [getattr(m, a) for m, a, _, _ in bench_layers.SITES]
    with Tracer() as tracer:
        bench_layers.install(tracer)
        assert all(getattr(m, a) is not b for (m, a, _, _), b in zip(bench_layers.SITES, before))
    assert [getattr(m, a) for m, a, _, _ in bench_layers.SITES] == before


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def test_width_family_is_seeded_bounded_and_breaks_flip_double():
    a = width_scenario(np.random.default_rng(3), 4, break_at=10)
    b = width_scenario(np.random.default_rng(3), 4, break_at=10)
    assert a == b
    for e in a.graph.edges:
        if e.source.kind is SourceKind.STATE:
            assert e.form.value == "tanh" and abs(e.coefficient) <= 0.4
    (brk,) = a.breaks
    for before, after in zip(a.graph.edges, brk.graph.edges):
        factor = -2.0 if before.source.kind is SourceKind.ACTION else 1.0
        assert after.coefficient == factor * before.coefficient
    hidden = width_scenario(np.random.default_rng(3), 4, hide_edge=True)
    assert len(hidden.agent_graph.edges) == len(hidden.graph.edges) - 1


def test_workloads_match_benchmark_json():
    assert list(W.WORKLOADS) == _names("workloads")


def test_inputs_depend_only_on_seed():
    assert W.make_inputs("steady_fit", 5) == W.make_inputs("steady_fit", 5)
    assert W.make_inputs("steady_fit", 5) != W.make_inputs("steady_fit", 6)


# ---------------------------------------------------------------------------
# Short runs of every workload
# ---------------------------------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    """Eleven-plus slots of short episodes, enough for a tail percentile."""
    monkeypatch.setattr(W, "REPAIR_BUNDLED", (("break_demo", 4, 24),))
    monkeypatch.setattr(W, "REPAIR_WIDTHS", ((2, 7, 20, 14, False),))
    monkeypatch.setattr(W, "STEADY_BUNDLED", (("calm", 4, 24),))
    monkeypatch.setattr(W, "STEADY_WIDTHS", ((2, 4, 24, None, True), (4, 3, 24, 16, True)))
    monkeypatch.setattr(W, "AUDIT_BUNDLED", (("calm", 1, 24),))
    monkeypatch.setattr(W, "AUDIT_WIDTHS", ((2, 4, 20, 14, False), (2, 7, 20, None, True)))
    monkeypatch.setattr(W, "SETUP_REPEATS", 2)
    monkeypatch.setattr(W, "AUDIT_SETUP_REPEATS", 2)
    monkeypatch.setattr(bench_runner, "WARMUP_TICKS", 8)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_short_run_is_correct(tiny, tmp_path, workload):
    os.makedirs(tmp_path / "tmp")
    result = bench_runner.run(workload, seed=1, seconds=0.01, traced=False, out_dir=str(tmp_path))
    assert result.failed == 0, result.summary
    assert result.attempted > 0
    for name in ("setup_s", "ticks_per_s", "tick_us.p50", "tick_us.tail", "replay_ms.p50", "explain_ms.p50"):
        assert result.metrics[name] > 0, name
    assert result.record["tick_us_tail"]["samples"] >= 11
    # run.py prints BENCHMARK.json's metrics; peak RSS is the only one it adds itself
    assert sorted(result.metrics) == sorted(set(_names("end_to_end")) - {"peak_rss_mb"})


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_short_traced_run_matches_untraced(tiny, tmp_path, workload):
    os.makedirs(tmp_path / "tmp")
    result = bench_runner.run(workload, seed=2, seconds=0.01, traced=True, out_dir=str(tmp_path))
    assert result.failed == 0, result.summary
    assert list(result.metrics) == _names("per_layer")
    if workload == "steady_fit":
        assert result.metrics["reflect.triggers"] == 0 and result.metrics["reflect.score_us"] == 0
    else:
        assert result.metrics["explain.explanations"] > 0
    assert (tmp_path / f"spans-{workload}-seed2.json.gz").exists()
    # every wrapper is gone after a traced run
    assert all(not hasattr(getattr(m, a), "__wrapped__") for m, a, _, _ in bench_layers.SITES)
