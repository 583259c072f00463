"""Time the benchmark's episodes under two checkouts, side by side in one process.

    python3 tools/ab_episodes.py PARENT CHANGE --workload steady_fit --seeds 1 2 --rounds 4

``PARENT`` and ``CHANGE`` are checkout directories.  Each side's
``causalloop`` and ``bench_workloads`` are imported with that side's
``src/`` and ``perfbench/`` first on ``sys.path``, and then moved out of
``sys.modules``, so the other side imports its own.  (Neither package
imports inside a function on the episode path, so a side's functions need
only the module globals they keep.)  Each side builds its own inputs (``bench_workloads.make_inputs``): one
side's policy and scenario objects fail the other side's ``isinstance``
checks.

Each round runs every episode of the workload on both sides, the side
that goes first flipping from round to round, and each episode keeps its
best time per side.  For each seed it prints both sides' ticks/s (all
ticks over the sum of the best times), their ratio (change over parent),
how many episodes got faster, and the same ratio for each episode group
(the label before its last dot: ``break_demo``, ``width16h`` ...).
Running both sides in one process, interleaved, cancels most of a
machine's drift in speed, which separate benchmark runs pay for in spread.

It writes nothing and gates nothing; ``tools/ab_episodes.py . .`` reads
about 1.00.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from collections import defaultdict

sys.dont_write_bytecode = True  # leave no __pycache__ under either perfbench/

WORKLOADS = ("repair_break", "steady_fit", "trace_audit")


class Side:
    """One checkout's ``causalloop`` and ``bench_workloads``, imported and
    then taken out of ``sys.modules``; its functions keep their own
    modules' globals."""

    def __init__(self, checkout: str) -> None:
        root = os.path.abspath(checkout)
        paths = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
        before = set(sys.modules)
        sys.path[:0] = paths
        try:
            self.bench = importlib.import_module("bench_workloads")
        finally:
            del sys.path[: len(paths)]
        for name in set(sys.modules) - before:
            if (getattr(sys.modules[name], "__file__", None) or "").startswith(tuple(p + os.sep for p in paths)):
                del sys.modules[name]

    def best_times(self, episodes: list, best: list[float]) -> None:
        """Run every episode once; lower ``best[i]`` to episode i's time."""
        run_episode, policy = self.bench.agent_mod.run_episode, self.bench.POLICY
        for i, ep in enumerate(episodes):
            start = time.perf_counter()
            run_episode(ep.scenario, policy, ep.seed, ep.length, ep.reflect)
            best[i] = min(best[i], time.perf_counter() - start)


def _group(label: str) -> str:
    return label.rsplit(".", 1)[0]


def compare_seed(parent: Side, change: Side, workload: str, seed: int, rounds: int) -> str:
    """One seed's report: ticks/s per side, their ratio, the episodes that
    got faster, and the ratio per episode group."""
    inputs = [parent.bench.make_inputs(workload, seed), change.bench.make_inputs(workload, seed)]
    labels = [ep.label for ep in inputs[0]]
    if labels != [ep.label for ep in inputs[1]]:
        raise SystemExit(f"seed {seed}: the two checkouts make different {workload} inputs")
    ticks = [ep.length for ep in inputs[0]]
    best = [[float("inf")] * len(labels) for _ in range(2)]
    sides = [parent, change]
    for r in range(rounds):
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            sides[k].best_times(inputs[k], best[k])

    group_ticks: dict[str, int] = defaultdict(int)
    group_time: list[dict[str, float]] = [defaultdict(float), defaultdict(float)]
    for i, label in enumerate(labels):
        group_ticks[_group(label)] += ticks[i]
        for k in range(2):
            group_time[k][_group(label)] += best[k][i]
    rate = [sum(ticks) / sum(best[k]) for k in range(2)]
    faster = sum(c < p for p, c in zip(best[0], best[1]))
    lines = [
        f"seed {seed}: parent {rate[0]:.0f} ticks/s, change {rate[1]:.0f} ticks/s, "
        f"ratio {rate[1] / rate[0]:.3f}, {faster} of {len(labels)} episodes faster"
    ]
    for group in group_ticks:
        ratio = group_time[0][group] / group_time[1][group]
        lines.append(f"  {group}: {ratio:.3f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout directory of the parent")
    parser.add_argument("change", help="checkout directory of the change")
    parser.add_argument("--workload", choices=WORKLOADS, default="steady_fit")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--rounds", type=int, default=4, help="runs of each episode per side; the best counts")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    parent, change = Side(args.parent), Side(args.change)
    for seed in args.seeds:
        print(compare_seed(parent, change, args.workload, seed, args.rounds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
