"""Time the benchmark's episodes under two checkouts, side by side in one process.

    python3 tools/ab_episodes.py PARENT CHANGE --workload steady_fit --seeds 1 2 --rounds 4
    python3 tools/ab_episodes.py PARENT CHANGE --groups width16h break_demo --rounds 8

``PARENT`` and ``CHANGE`` are checkout directories.  Each side's
``causalloop`` and ``bench_workloads`` are imported with that side's
``src/`` and ``perfbench/`` first on ``sys.path``, and then moved out of
``sys.modules``, so the other side imports its own.  (Neither package
imports inside a function on the episode path, so a side's functions need
only the module globals they keep.)  Each side builds its own inputs (``bench_workloads.make_inputs``): one
side's policy and scenario objects fail the other side's ``isinstance``
checks.

Each round runs every episode of the workload on both sides, back to
back, the side that goes first flipping from episode to episode and from
round to round, and each episode keeps its best time per side.  For each
seed it prints both sides' ticks/s (all ticks over the sum of the best
times), their ratio (change over parent) and how many episodes got
faster; then, for each episode group (the label before its last dot:
``break_demo``, ``width16h`` ...), the ratio of its summed best times,
the median of its episodes' ratios (parent time over change time), how
many of them got faster, and the quartiles of its paired round ratios:
each round's parent time over change time of each of its episodes.  A
group whose quartiles straddle 1.000 has not moved beyond the round to
round noise, whatever its ratio reads.  ``--groups`` times only the
episodes of the named groups.  Running both sides in one process, each episode's two
runs side by side, cancels most of a machine's drift in speed, which
separate benchmark runs pay for in spread; alternating whole rounds
instead leaves a drift within a round on one side.

It writes nothing and gates nothing.  Its resolution is the spread of a
self-comparison, ``tools/ab_episodes.py . .``, whose per-seed ratios (seeds
1 and 2, two or three runs each) read on a shared 2-core host:

* ``--rounds 4``: 0.989-1.008 on ``steady_fit`` (0.981 in an earlier
  run), 0.995-1.064 on ``repair_break``;
* ``--rounds 8``: 0.971-1.042 on ``steady_fit``;
* ``--rounds 16``: 0.992-1.004 on ``steady_fit``, 0.995-1.004 on
  ``repair_break``.

So a gate of at least 0.98 per seed needs ``--rounds 16`` at the least:
at 4 or 8 rounds an unchanged tree can fail it.  Even at 16, a busy host
can move a seed's ratio by 2% (two trees with the same fit path read
0.980 and 1.017 on ``steady_fit`` in one run), so run both orders,
``PARENT CHANGE`` and ``CHANGE PARENT``, before reading such a gate.  Two
seeds at 16 rounds take about 1.5 minutes on ``steady_fit`` and 3 on
``repair_break``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
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

    def time_episode(self, ep) -> float:
        """Run one episode; its wall time in seconds."""
        start = time.perf_counter()
        self.bench.agent_mod.run_episode(ep.scenario, self.bench.POLICY, ep.seed, ep.length, ep.reflect)
        return time.perf_counter() - start


def _group(label: str) -> str:
    return label.rsplit(".", 1)[0]


def _quartiles(xs: list[float]) -> list[float]:
    """The lower quartile, the median and the upper quartile of ``xs``."""
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3


def compare_seed(
    parent: Side, change: Side, workload: str, seed: int, rounds: int, groups: list[str] | None = None
) -> str:
    """One seed's report: ticks/s per side, their ratio, the episodes that
    got faster, and per episode group its ratio, its median episode ratio,
    its episodes that got faster and its round ratio quartiles.
    ``groups``, when given, names the only groups timed."""
    inputs = [parent.bench.make_inputs(workload, seed), change.bench.make_inputs(workload, seed)]
    if [ep.label for ep in inputs[0]] != [ep.label for ep in inputs[1]]:
        raise SystemExit(f"seed {seed}: the two checkouts make different {workload} inputs")
    if groups is not None:
        inputs = [[ep for ep in side if _group(ep.label) in groups] for side in inputs]
        if not inputs[0]:
            raise SystemExit(f"seed {seed}: no {workload} episode is in the groups {' '.join(groups)}")
    labels = [ep.label for ep in inputs[0]]
    ticks = [ep.length for ep in inputs[0]]
    best = [[float("inf")] * len(labels) for _ in range(2)]
    paired: list[list[float]] = [[] for _ in labels]  # each round's parent time over change time
    sides = [parent, change]
    for r in range(rounds):
        for i in range(len(labels)):
            took = [0.0, 0.0]
            for k in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                took[k] = sides[k].time_episode(inputs[k][i])
                best[k][i] = min(best[k][i], took[k])
            paired[i].append(took[0] / took[1])

    members: dict[str, list[int]] = defaultdict(list)
    for i, label in enumerate(labels):
        members[_group(label)].append(i)
    rate = [sum(ticks) / sum(best[k]) for k in range(2)]
    faster = [c < p for p, c in zip(best[0], best[1])]
    lines = [
        f"seed {seed}: parent {rate[0]:.0f} ticks/s, change {rate[1]:.0f} ticks/s, "
        f"ratio {rate[1] / rate[0]:.3f}, {sum(faster)} of {len(labels)} episodes faster"
    ]
    for group, idx in members.items():
        ratio = sum(best[0][i] for i in idx) / sum(best[1][i] for i in idx)
        median = statistics.median(best[0][i] / best[1][i] for i in idx)
        won = sum(faster[i] for i in idx)
        rounds_q = "/".join(f"{q:.3f}" for q in _quartiles([x for i in idx for x in paired[i]]))
        lines.append(
            f"  {group}: {ratio:.3f}, median episode {median:.3f}, {won} of {len(idx)} faster, "
            f"round ratio quartiles {rounds_q}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout directory of the parent")
    parser.add_argument("change", help="checkout directory of the change")
    parser.add_argument("--workload", choices=WORKLOADS, default="steady_fit")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--rounds", type=int, default=4, help="runs of each episode per side; the best counts")
    parser.add_argument("--groups", nargs="+", metavar="GROUP", help="time only these episode groups")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    parent, change = Side(args.parent), Side(args.change)
    for seed in args.seeds:
        print(compare_seed(parent, change, args.workload, seed, args.rounds, args.groups), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
