"""Print how the repair agent and the fit-only agent track a break on the width-scaled family.

    python3 tools/width_report.py

For each width d in 2, 4 and 8 at seeds s = 0, 1, 2, and for d = 16 at
s = 0, it runs both agents (``RandomPolicy``, episode seed s) for 300
ticks on ``width_scenario(np.random.default_rng(1000 + 17*d + s), d,
break_at=150)`` from ``perfbench/bench_family.py``, where every action
edge flips sign and doubles at tick 150.  One row per run:

* ``final_shd``: the last tick's structural Hamming distance to the true
  graph (``evaluate_trace``);
* ``post_rmse``: ``compare``'s post-break RMSE, the mean 16-tick rolling
  RMSE from the break on;
* ``recovery``: ticks from the break until the rolling RMSE falls under
  twice its pre-break median, ``-`` if it never does;
* ``post_trig`` and ``last50_trig``: reflect triggers from the break on,
  and in the last 50 ticks;
* ``ms_tick``: wall milliseconds per tick of ``run_episode``, the one
  number that depends on the host.

A second table holds long fit-only runs: for d = 8 and 16, 3,000 ticks of
``width_scenario(np.random.default_rng(99), d)`` (no break) at episode
seed 3.  The family's states are undamped, so these runs drift until
tanh columns saturate and some targets' windows cannot be fitted.  One
row per run:

* ``applied``, ``rejected`` and ``skipped``: the scheduled fits' outcomes,
  ``skipped`` split by the refusal's class;
* ``tail_rmse``: the mean 16-tick rolling RMSE over the last 1,000 ticks
  (``evaluate_trace``);
* ``ms_tick``: as above.

A third table asks whether repair undoes one fault in a model otherwise
true.  For d in 2, 4 and 8 at seeds s = 0, 1, 2, both agents run 300
ticks of ``width_scenario(np.random.default_rng(3000 + 17*d + s), d)``
(no break) at episode seed s, starting from the true graph with one
fault (:data:`FAULTS`) on its first action edge or its first state edge:

* ``action coef x0.5``: the action edge's coefficient halved;
* ``action delay +1`` and ``state delay +1``: that edge's delay one longer;
* ``action edge missing`` and ``state edge missing``: that edge dropped;
* ``spurious edge``: an edge the world lacks, action[0] to the action
  edge's target + 1, delay 2, coefficient 0.5;
* ``state tanh->linear``: the state edge read linearly, which ``shd``
  does not see.

One row per fault and run: the final SHD of each agent, and the repair
agent's reflect triggers (the fit-only agent never reflects).

It gates nothing and writes nothing.  Run it from any directory: it
imports the package from ``src/`` and the family from ``perfbench/``
beside this directory.  Its 148 episodes take about 4 s on a 2-core host.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from causalloop.agent import RandomPolicy, run_episode  # noqa: E402
from causalloop.evaluate import compare, evaluate_trace  # noqa: E402
from causalloop.world import CausalEdge, CausalGraph, Form, SourceKind, VarRef  # noqa: E402

from bench_family import width_scenario  # noqa: E402

LENGTH = 300
BREAK_AT = 150
LAST = 50  # the closing ticks whose triggers ``last50_trig`` counts
RUNS = [(d, s) for d in (2, 4, 8) for s in (0, 1, 2)] + [(16, 0)]
COLUMNS = ("d", "s", "agent", "final_shd", "post_rmse", "recovery", "post_trig", "last50_trig", "ms_tick")

LONG_LENGTH = 3000
LONG_TAIL = 1000  # the closing ticks whose rolling RMSE ``tail_rmse`` averages
LONG_RUNS = [(8, 3), (16, 3)]
LONG_COLUMNS = ("d", "s", "ticks", "applied", "rejected", "skipped", "tail_rmse", "ms_tick")

FAULT_RUNS = [(d, s) for d in (2, 4, 8) for s in (0, 1, 2)]
FAULTS = (
    "action coef x0.5",
    "action delay +1",
    "state delay +1",
    "action edge missing",
    "state edge missing",
    "spurious edge",
    "state tanh->linear",
)
FAULT_COLUMNS = ("fault", "d", "s", "repair_shd", "fit_only_shd", "triggers")


def _timed_episode(sc, seed: int, reflect_enabled: bool, length: int = LENGTH):
    start = time.perf_counter()
    trace = run_episode(sc, RandomPolicy(), seed, length, reflect_enabled)
    return trace, (time.perf_counter() - start) * 1e3 / length


def rows(runs: list[tuple[int, int]]) -> list[tuple]:
    """One row of :data:`COLUMNS` per agent of each (d, s) run."""
    out = []
    for d, s in runs:
        sc = width_scenario(np.random.default_rng(1000 + 17 * d + s), d, break_at=BREAK_AT)
        repair, repair_ms = _timed_episode(sc, s, True)
        baseline, baseline_ms = _timed_episode(sc, s, False)
        comparison = compare(repair, baseline, sc)
        (brk,) = comparison.deltas["breaks"]
        for agent, trace, report, ms, recovery in (
            ("repair", repair, comparison.reflect_report, repair_ms, brk["reflect_recovery"]),
            ("fit-only", baseline, comparison.baseline_report, baseline_ms, brk["baseline_recovery"]),
        ):
            post_rmse = report.rmse[BREAK_AT:]
            triggers = [r.tick for r in trace.records if r.reflect is not None]
            out.append((
                d,
                s,
                agent,
                report.shd[-1],
                f"{sum(post_rmse) / len(post_rmse):.3f}",
                "-" if recovery is None else recovery,
                sum(t >= BREAK_AT for t in triggers),
                sum(t >= LENGTH - LAST for t in triggers),
                f"{ms:.2f}",
            ))
    return out


def long_rows(runs: list[tuple[int, int]]) -> list[tuple]:
    """One row of :data:`LONG_COLUMNS` per long fit-only (d, s) run."""
    out = []
    for d, s in runs:
        sc = width_scenario(np.random.default_rng(99), d)
        trace, ms = _timed_episode(sc, s, False, LONG_LENGTH)
        events = [r.fit_event for r in trace.records if r.fit_event is not None]
        skipped = sorted({e.removeprefix("skipped: ") for e in events if e.startswith("skipped: ")})
        tail = evaluate_trace(trace, sc).rmse[-LONG_TAIL:]
        out.append((
            d,
            s,
            LONG_LENGTH,
            events.count("applied"),
            events.count("rejected"),
            " ".join(f"{events.count('skipped: ' + name)} {name}" for name in skipped) or "0",
            f"{sum(tail) / len(tail):.5f}",
            f"{ms:.2f}",
        ))
    return out


def faulted_edges(graph: CausalGraph) -> dict[str, tuple[CausalEdge, ...]]:
    """Each of :data:`FAULTS`, in order, with ``graph``'s edges carrying it."""
    edges = graph.edges
    a = next(i for i, e in enumerate(edges) if e.source.kind is SourceKind.ACTION)
    s = next(i for i, e in enumerate(edges) if e.source.kind is SourceKind.STATE)

    def edited(i: int, **fields) -> tuple[CausalEdge, ...]:
        return edges[:i] + (replace(edges[i], **fields),) + edges[i + 1 :]

    spurious = CausalEdge(VarRef.action(0), (edges[a].target + 1) % graph.d_state, delay=2, coefficient=0.5)
    return dict(zip(FAULTS, (
        edited(a, coefficient=0.5 * edges[a].coefficient),
        edited(a, delay=edges[a].delay + 1),
        edited(s, delay=edges[s].delay + 1),
        edges[:a] + edges[a + 1 :],
        edges[:s] + edges[s + 1 :],
        edges + (spurious,),
        edited(s, form=Form.LINEAR),
    )))


def fault_rows(runs: list[tuple[int, int]], faults: tuple[str, ...] = FAULTS) -> list[tuple]:
    """One row of :data:`FAULT_COLUMNS` per fault of ``faults``, in that
    order, and per (d, s) run."""
    starts = []
    for d, s in runs:
        sc = width_scenario(np.random.default_rng(3000 + 17 * d + s), d)
        starts.append((d, s, sc, faulted_edges(sc.graph)))
    out = []
    for fault in faults:
        for d, s, sc, faulted in starts:
            start = replace(sc, agent_graph=CausalGraph(d, sc.d_action, faulted[fault]))
            repair = run_episode(start, RandomPolicy(), s, LENGTH, True)
            baseline = run_episode(start, RandomPolicy(), s, LENGTH, False)
            out.append((
                fault,
                d,
                s,
                evaluate_trace(repair, start).shd[-1],
                evaluate_trace(baseline, start).shd[-1],
                sum(r.reflect is not None for r in repair.records),
            ))
    return out


def _print_table(columns: tuple[str, ...], body: list[tuple]) -> None:
    table = [columns] + body
    widths = [max(len(str(row[i])) for row in table) for i in range(len(columns))]
    for row in table:
        print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.parse_args(argv)
    _print_table(COLUMNS, rows(RUNS))
    print()
    _print_table(LONG_COLUMNS, long_rows(LONG_RUNS))
    print()
    _print_table(FAULT_COLUMNS, fault_rows(FAULT_RUNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
