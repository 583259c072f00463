"""Print the sha256 of every trace the benchmark's workloads record, of its evaluation and of its explanations, as JSON.

    python3 tools/trace_digests.py --seeds 1 2 > digests.json
    python3 tools/trace_digests.py --seeds 1 2 --against digests.json

Runs every episode that ``perfbench/bench_workloads.make_inputs`` makes for
``repair_break``, ``steady_fit`` and ``trace_audit`` at each seed, and hashes
the trace file's text as ``write_trace`` would write it.  It reads those
lines back with ``trace_from_lines``, as ``read_trace`` reads a file, and
exits 1 if the trace read back differs from the one recorded.  Under
``<key>.eval`` it hashes the read-back trace's ``evaluate_trace`` report:
its ``report_tsv`` table followed by ``to_dict()`` as sorted-key JSON.
Under ``<key>.explain`` it hashes the read-back trace's explanations: at
each tick that carries a model snapshot, ``explain_transition`` and
``explain_counterfactual`` (to delta 0) of the model entering that tick,
as ``causalloop explain`` builds it, and ``explain_reflection`` of every
reflect block, each as its kind, text and sorted-key JSON grounding.  Two
checkouts that print the same output record byte-identical traces, read
them back to the traces recorded, and evaluate and explain them alike.

It also prints to stderr, for each workload and seed, the bytes per tick of
its traces: the UTF-8 bytes of every trace file's text over every record,
as ``perfbench`` counts ``trace_bytes_per_tick``.  A second line splits
that figure by record key: each key's bytes are its name, its value and
the separator after it (``"key": value, ``, the last key's ``, `` taking
the place of the braces), then ``newline`` (one byte per record) and
``header`` (the header line), so the parts add up to the figure.  Stdout
is the same JSON either way, so an output made before these lines existed
still serves as ``--against``.

Given an earlier output as ``--against``, it prints each trace, evaluation
or explanation digest that moved (or that only one side holds) and exits 1
if any did or a trace read back differently, 0 if every one is identical.
An output made before a kind of key existed holds none of that kind, so
against one every such digest reads as moved.  Seeds 1 and 2 give 264
traces with their evaluations and explanations in about 10 s on a 2-core
host.

Run it from any directory: it imports the package from ``src/`` and the
workloads from ``perfbench/`` beside this directory, and writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from causalloop.agent import run_episode  # noqa: E402
from causalloop.core import CausalTuple, Perturbation, TimeIndex  # noqa: E402
from causalloop.evaluate import evaluate_trace, report_tsv  # noqa: E402
from causalloop.explain import explain_counterfactual, explain_reflection, explain_transition  # noqa: E402
from causalloop.model import model_from_snapshot  # noqa: E402
from causalloop.trace import EpisodeTrace, record_to_dict, trace_from_lines, trace_to_lines  # noqa: E402

import bench_workloads  # noqa: E402

WORKLOADS = ("repair_break", "steady_fit", "trace_audit")
EVAL = ".eval"  # suffix of an evaluation digest's key
EXPLAIN = ".explain"  # suffix of an explanation digest's key


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _explanations(trace: EpisodeTrace) -> str:
    """Every explanation of ``trace`` that the module docstring lists, in
    tick order, one per line."""
    out = []
    entering = None  # the last snapshot recorded before the tick
    for r in trace.records:
        snap = r.model_snapshot
        if snap is not None:
            m = replace(model_from_snapshot(entering if entering is not None else snap), delta_hat=r.delta_hat)
            tup = CausalTuple(r.state, r.action, TimeIndex(r.tick), Perturbation(r.delta_hat))
            out += [explain_transition(m, tup), explain_counterfactual(m, tup, 0.0)]
            entering = snap
        if r.reflect is not None:
            out.append(explain_reflection(r.tick, r.reflect))
    return "\n".join(f"{e.kind.value}\t{e.text}\t{json.dumps(e.grounding, sort_keys=True)}" for e in out)


_ENCODE = json.JSONEncoder(allow_nan=False).encode  # as trace_to_lines encodes a line


def _key_bytes(trace: EpisodeTrace, lines: list[str], sizes: dict[str, int]) -> None:
    """Add to ``sizes`` the bytes each record key of ``trace`` takes in its
    file text, whose ``lines`` ``trace_to_lines`` made: the key, its value
    and the ``, `` after it; then one newline per record and the header
    line with its newline."""
    for r in trace.records:
        for key, value in record_to_dict(r).items():
            sizes[key] = sizes.get(key, 0) + len(_ENCODE(key).encode()) + 2 + len(_ENCODE(value).encode()) + 2
    sizes["newline"] = sizes.get("newline", 0) + len(trace.records)
    sizes["header"] = sizes.get("header", 0) + len(lines[0].encode()) + 1


def trace_digests(seeds: list[int]) -> tuple[dict[str, str], list[str], dict[str, float], dict[str, dict[str, float]]]:
    """``workload/seed/index.label.mode`` -> sha256 of that trace's file
    text, and ``<that key>.eval`` and ``<that key>.explain`` -> sha256 of
    the evaluation report and of the explanations of the trace read back
    from that text; the keys whose trace read back differs from the one
    recorded; ``workload/seed`` -> the bytes per tick of its traces; and
    ``workload/seed`` -> those bytes per tick split by record key
    (:func:`_key_bytes`)."""
    out, misread, per_tick, per_key = {}, [], {}, {}
    for workload in WORKLOADS:
        for seed in seeds:
            nbytes = ticks = 0
            sizes: dict[str, int] = {}
            for i, ep in enumerate(bench_workloads.make_inputs(workload, seed)):
                trace = run_episode(ep.scenario, bench_workloads.POLICY, ep.seed, ep.length, ep.reflect)
                mode = "repair" if ep.reflect else "baseline"
                key = f"{workload}/{seed}/{i}.{ep.label}.{mode}"
                lines = trace_to_lines(trace)
                text = ("\n".join(lines) + "\n").encode()
                nbytes, ticks = nbytes + len(text), ticks + len(trace.records)
                _key_bytes(trace, lines, sizes)
                out[key] = hashlib.sha256(text).hexdigest()
                back = trace_from_lines(lines, key)
                if back != trace:
                    misread.append(key)
                report = evaluate_trace(back, ep.scenario)
                out[key + EVAL] = _sha256(report_tsv(report, back) + json.dumps(report.to_dict(), sort_keys=True))
                out[key + EXPLAIN] = _sha256(_explanations(back))
            per_tick[f"{workload}/{seed}"] = nbytes / ticks
            per_key[f"{workload}/{seed}"] = {key: n / ticks for key, n in sizes.items()}
    return out, misread, per_tick, per_key


def moved(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """The keys whose digest differs between ``old`` and ``new``, or that
    only one of them holds, in sorted order."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def _suffix(key: str) -> str:
    """The digest kind's suffix of ``key``: EVAL, EXPLAIN, or "" for a trace."""
    return next((sfx for sfx in (EVAL, EXPLAIN) if key.endswith(sfx)), "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--against", metavar="FILE", help="an earlier output to compare with")
    args = parser.parse_args(argv)
    digests, misread, per_tick, per_key = trace_digests(args.seeds)
    for key, value in per_tick.items():
        print(f"bytes per tick: {key}: {value:.1f}", file=sys.stderr)
        parts = ", ".join(f"{name} {n:.1f}" for name, n in per_key[key].items())
        print(f"bytes per tick by key: {key}: {parts}", file=sys.stderr)
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
    for what, suffix in (("traces", ""), ("evaluation digests", EVAL), ("explain digests", EXPLAIN)):
        keys = [k for k in earlier.keys() | digests.keys() if _suffix(k) == suffix]
        n_moved = sum(_suffix(k) == suffix for k in changed)
        print(f"{n_moved} of {len(keys)} {what} moved")
    n_traces = sum(_suffix(k) == "" for k in digests)
    print(f"{len(misread)} of {n_traces} traces read back differently")
    return 1 if changed or misread else 0


if __name__ == "__main__":
    sys.exit(main())
