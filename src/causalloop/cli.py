"""Command-line front end.

Subcommands: ``run`` an episode, ``evaluate`` a trace, ``explain`` one
tick of a trace, ``replay`` a trace for bit-exact verification, and
``sweep`` paired repair/baseline runs over a seed range.  Scenario
arguments accept either a file path or the name of a bundled scenario
(``productivity``, ``break_demo``, ``calm``).

Exit codes: 0 success, 1 usage error (an unknown command or option, or an
option value that does not parse, such as ``--jobs x`` or ``--seeds x``),
2 data error (bad files, among them a trace or scenario file that is not
UTF-8 and a trace whose record i does not hold tick i; option values that
parse but are out of range, such as ``--length -1``, ``--jobs -3``, an empty
``--seeds 5:2`` or a seed of 2**64 or more; an output path that cannot be
written; digest mismatches; failed replays).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from . import __version__
from .agent import Policy, ProbePolicy, RandomPolicy, replay, run_episode
from .core import CausalLoopError, InputError, ReplayError
from .evaluate import compare, evaluate_trace, report_tsv
from .explain import (
    explain_counterfactual,
    explain_reflection,
    explain_transition,
    llm_configured,
    model_entering_tick,
    narrate_via_llm,
    render_prompt,
)
from .scenario import atomic_write_text, resolve_scenario
from .trace import read_trace, write_trace
from .world import check_seed


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="causalloop", description=__doc__)
    p.add_argument("--version", action="version", version=f"causalloop {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one episode", parents=[], add_help=True)
    run_p.add_argument("scenario", help="scenario file or bundled scenario name")
    run_p.add_argument("--seed", type=int, required=True)
    run_p.add_argument("--length", type=int, required=True)
    run_p.add_argument("--no-reflect", action="store_true", help="fit-only baseline agent")
    run_p.add_argument("--trace", help="write the episode trace to this JSONL file")
    run_p.add_argument(
        "--policy", choices=["random", "probe"], default="random", help="action policy"
    )
    run_p.add_argument("--probe-magnitude", type=float, default=1.0)

    eval_p = sub.add_parser("evaluate", help="evaluate a recorded trace")
    eval_p.add_argument("trace")
    eval_p.add_argument("scenario")
    eval_p.add_argument("--out", help="write the JSON report here (default: stdout)")
    eval_p.add_argument("--tsv", help="also write a per-tick TSV table")

    exp_p = sub.add_parser("explain", help="explain one tick of a trace")
    exp_p.add_argument("trace")
    exp_p.add_argument("--tick", type=int, required=True)
    exp_p.add_argument(
        "--counterfactual-delta",
        type=float,
        default=None,
        help="also contrast against this alternative delta",
    )
    exp_p.add_argument(
        "--llm",
        action="store_true",
        help="render via the configured LLM endpoint instead of templates",
    )

    rep_p = sub.add_parser("replay", help="re-run a trace and verify bit-exactness")
    rep_p.add_argument("trace")
    rep_p.add_argument("scenario")

    sweep_p = sub.add_parser("sweep", help="paired repair/baseline runs over seeds")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument("--seeds", default="0:10", help="seed range lo:hi (hi exclusive)")
    sweep_p.add_argument("--length", type=int, default=400)
    sweep_p.add_argument("--out", required=True, help="output directory")
    sweep_p.add_argument(
        "--jobs", type=int, default=0, help="worker processes, at most one per seed (0 = auto)"
    )
    return p


def _policy_from_args(args: argparse.Namespace) -> Policy:
    if args.policy == "probe":
        return ProbePolicy(magnitude=args.probe_magnitude)
    return RandomPolicy()


def _cmd_run(args: argparse.Namespace) -> int:
    sc = resolve_scenario(args.scenario)
    trace = run_episode(
        sc,
        _policy_from_args(args),
        seed=args.seed,
        length=args.length,
        reflect_enabled=not args.no_reflect,
        artifact_version=__version__,
    )
    if args.trace:
        write_trace(trace, args.trace)
    report = evaluate_trace(trace, sc)
    mode = "baseline" if args.no_reflect else "reflect"
    line = (
        f"{sc.name}: {args.length} ticks ({mode}), mean epsilon {report.mean_epsilon:.6g}, "
        f"final RMSE {report.rmse[-1]:.6g}, final SHD {report.shd[-1]}, "
        f"triggers {report.reflect_triggers}"
    )
    if args.trace:
        line += f"; trace -> {args.trace}"
    print(line)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    sc = resolve_scenario(args.scenario)
    report = evaluate_trace(trace, sc)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        atomic_write_text(args.out, payload + "\n")
        print(f"report -> {args.out}")
    else:
        print(payload)
    if args.tsv:
        atomic_write_text(args.tsv, report_tsv(report, trace))
        print(f"table -> {args.tsv}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    # read_trace refuses a trace whose record i does not hold tick i.
    m, tup = model_entering_tick(trace, args.tick)
    record = trace.records[args.tick]
    if args.llm:
        if not llm_configured():
            raise InputError("--llm requested but EXPLAIN_LLM_URL is not set")
        bundle = render_prompt(record)
        print(narrate_via_llm(bundle))
        return 0
    # Every explanation is built before any is printed, so a refused one
    # (a counterfactual delta out of range) leaves no partial output.
    texts = [explain_transition(m, tup).text]
    if args.counterfactual_delta is not None:
        texts.append(explain_counterfactual(m, tup, args.counterfactual_delta).text)
    if record.reflect is not None:
        texts.append(explain_reflection(record.tick, record.reflect).text)
    print("\n".join(texts))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    sc = resolve_scenario(args.scenario)
    replay(trace, sc)
    print(f"replay ok: {len(trace.records)} records bit-identical")
    return 0


def _sweep_one(payload: tuple[str, int, int]) -> tuple[int, dict[str, Any]]:
    scenario_ref, seed, length = payload
    sc = resolve_scenario(scenario_ref)
    policy = RandomPolicy()
    with_reflect = run_episode(sc, policy, seed, length, reflect_enabled=True)
    without = run_episode(sc, policy, seed, length, reflect_enabled=False)
    return seed, compare(with_reflect, without, sc).to_dict()


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        lo, hi = (int(x) for x in args.seeds.split(":"))
    except ValueError as exc:
        raise _UsageError(f"--seeds wants lo:hi, got {args.seeds!r}") from exc
    if hi <= lo:
        raise InputError(f"--seeds {args.seeds} is empty: hi must exceed lo")
    if args.length < 1:
        raise InputError(f"--length must be >= 1, got {args.length}")
    if args.jobs < 0:
        raise InputError(f"--jobs must be >= 0, got {args.jobs}")
    check_seed(lo)
    check_seed(hi - 1)
    resolve_scenario(args.scenario)  # fail fast before spawning workers
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {args.out}: {exc.strerror or exc}") from exc
    payloads = [(args.scenario, seed, args.length) for seed in range(lo, hi)]
    # The pool starts every worker at once, so never more than there are seeds.
    jobs = min(args.jobs or min(4, os.cpu_count() or 1), len(payloads))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = sorted(pool.map(_sweep_one, payloads))
    else:
        results = sorted(_sweep_one(p) for p in payloads)

    lines = ["seed\treflect_recovery\tbaseline_recovery\treflect_final_shd\tbaseline_final_shd"]
    for seed, comp in results:
        atomic_write_text(
            os.path.join(args.out, f"seed_{seed}.json"),
            json.dumps(comp, indent=2, sort_keys=True) + "\n",
        )
        breaks = comp["deltas"]["breaks"]
        r_rec = breaks[0]["reflect_recovery"] if breaks else ""
        b_rec = breaks[0]["baseline_recovery"] if breaks else ""
        lines.append(
            f"{seed}\t{r_rec}\t{b_rec}\t{comp['reflect']['final_shd']}\t{comp['baseline']['final_shd']}"
        )
    atomic_write_text(os.path.join(args.out, "summary.tsv"), "\n".join(lines) + "\n")
    print(f"sweep complete: {len(results)} seeds -> {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "evaluate": _cmd_evaluate,
    "explain": _cmd_explain,
    "replay": _cmd_replay,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ReplayError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 2
    except CausalLoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
