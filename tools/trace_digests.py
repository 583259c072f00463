"""Print the sha256 of every trace the benchmark's workloads record, as JSON.

    python3 tools/trace_digests.py --seeds 1 2 > digests.json
    python3 tools/trace_digests.py --seeds 1 2 --against digests.json

Runs every episode that ``perfbench/bench_workloads.make_inputs`` makes for
``repair_break``, ``steady_fit`` and ``trace_audit`` at each seed, and hashes
the trace file's text as ``write_trace`` would write it.  Two checkouts that
print the same output record byte-identical traces.  Given an earlier
output as ``--against``, it prints each trace whose digest moved (or that
only one side holds) and exits 1 if any did, 0 if every trace is
byte-identical.  Seeds 1 and 2 give 264 traces in about 15 s.

Run it from any directory: it imports the package from ``src/`` and the
workloads from ``perfbench/`` beside this directory, and writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from causalloop.agent import run_episode  # noqa: E402
from causalloop.trace import trace_to_lines  # noqa: E402

import bench_workloads  # noqa: E402

WORKLOADS = ("repair_break", "steady_fit", "trace_audit")


def trace_digests(seeds: list[int]) -> dict[str, str]:
    """``workload/seed/index.label.mode`` -> sha256 of that trace's file text."""
    out = {}
    for workload in WORKLOADS:
        for seed in seeds:
            for i, ep in enumerate(bench_workloads.make_inputs(workload, seed)):
                trace = run_episode(ep.scenario, bench_workloads.POLICY, ep.seed, ep.length, ep.reflect)
                text = "\n".join(trace_to_lines(trace)) + "\n"
                mode = "repair" if ep.reflect else "baseline"
                out[f"{workload}/{seed}/{i}.{ep.label}.{mode}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def moved(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """The traces whose digest differs between ``old`` and ``new``, or that
    only one of them holds, in sorted order."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--against", metavar="FILE", help="an earlier output to compare with")
    args = parser.parse_args(argv)
    digests = trace_digests(args.seeds)
    if args.against is None:
        print(json.dumps(digests, indent=1))
        return 0
    with open(args.against) as fh:
        earlier = json.load(fh)
    changed = moved(earlier, digests)
    for key in changed:
        print(f"moved: {key}")
    print(f"{len(changed)} of {len(earlier.keys() | digests.keys())} traces moved")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
