"""Print the sha256 of every trace the benchmark's workloads record, and of its evaluation, as JSON.

    python3 tools/trace_digests.py --seeds 1 2 > digests.json
    python3 tools/trace_digests.py --seeds 1 2 --against digests.json

Runs every episode that ``perfbench/bench_workloads.make_inputs`` makes for
``repair_break``, ``steady_fit`` and ``trace_audit`` at each seed, and hashes
the trace file's text as ``write_trace`` would write it.  It reads those
lines back with ``trace_from_lines``, as ``read_trace`` reads a file, and
exits 1 if the trace read back differs from the one recorded.  Under
``<key>.eval`` it hashes the read-back trace's ``evaluate_trace`` report:
its ``report_tsv`` table followed by ``to_dict()`` as sorted-key JSON.  Two
checkouts that print the same output record byte-identical traces, read
them back to the traces recorded and evaluate them to the same reports.

Given an earlier output as ``--against``, it prints each trace or
evaluation whose digest moved (or that only one side holds) and exits 1
if any did or a trace read back differently, 0 if every one is identical.
Outputs made before the ``.eval`` keys existed hold none, so against one
every evaluation reads as moved.  Seeds 1 and 2 give 264 traces and their
evaluations in about 7 s on a 2-core host.

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
from causalloop.evaluate import evaluate_trace, report_tsv  # noqa: E402
from causalloop.trace import trace_from_lines, trace_to_lines  # noqa: E402

import bench_workloads  # noqa: E402

WORKLOADS = ("repair_break", "steady_fit", "trace_audit")
EVAL = ".eval"  # suffix of an evaluation digest's key


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digests(seeds: list[int]) -> tuple[dict[str, str], list[str]]:
    """``workload/seed/index.label.mode`` -> sha256 of that trace's file
    text, and ``<that key>.eval`` -> sha256 of the evaluation report of the
    trace read back from that text; and the keys whose trace read back
    differs from the one recorded."""
    out, misread = {}, []
    for workload in WORKLOADS:
        for seed in seeds:
            for i, ep in enumerate(bench_workloads.make_inputs(workload, seed)):
                trace = run_episode(ep.scenario, bench_workloads.POLICY, ep.seed, ep.length, ep.reflect)
                mode = "repair" if ep.reflect else "baseline"
                key = f"{workload}/{seed}/{i}.{ep.label}.{mode}"
                lines = trace_to_lines(trace)
                out[key] = _sha256("\n".join(lines) + "\n")
                back = trace_from_lines(lines, key)
                if back != trace:
                    misread.append(key)
                report = evaluate_trace(back, ep.scenario)
                out[key + EVAL] = _sha256(report_tsv(report, back) + json.dumps(report.to_dict(), sort_keys=True))
    return out, misread


def moved(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """The keys whose digest differs between ``old`` and ``new``, or that
    only one of them holds, in sorted order."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--against", metavar="FILE", help="an earlier output to compare with")
    args = parser.parse_args(argv)
    digests, misread = trace_digests(args.seeds)
    for key in misread:
        print(f"read back differs: {key}", file=sys.stderr)
    if args.against is None:
        print(json.dumps(digests, indent=1))
        return 1 if misread else 0
    with open(args.against) as fh:
        earlier = json.load(fh)
    changed = moved(earlier, digests)
    for key in changed:
        print(f"moved: {key}")
    for what, is_eval in (("traces", False), ("evaluation digests", True)):
        keys = [k for k in earlier.keys() | digests.keys() if k.endswith(EVAL) == is_eval]
        n_moved = sum(k.endswith(EVAL) == is_eval for k in changed)
        print(f"{n_moved} of {len(keys)} {what} moved")
    print(f"{len(misread)} of {len(digests) // 2} traces read back differently")
    return 1 if changed or misread else 0


if __name__ == "__main__":
    sys.exit(main())
