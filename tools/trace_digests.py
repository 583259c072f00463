"""Print the sha256 of every trace the benchmark's workloads record, as JSON.

    python3 tools/trace_digests.py --seeds 1 2 > digests.json

Runs every episode that ``perfbench/bench_workloads.make_inputs`` makes for
``repair_break``, ``steady_fit`` and ``trace_audit`` at each seed, and hashes
the trace file's text as ``write_trace`` would write it.  Two checkouts that
print the same output record byte-identical traces; diff the two outputs to
see which episodes moved.  Seeds 1 and 2 give 264 traces in about 15 s.

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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    print(json.dumps(trace_digests(args.seeds), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
