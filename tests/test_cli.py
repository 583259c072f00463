"""CLI surface: subcommand round-trips, exit codes, output artifacts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalloop
from causalloop.cli import main
from causalloop.trace import read_trace


def run_trace(tmp_path, *extra, scenario="calm", seed=0, length=5, name="ep.jsonl"):
    path = tmp_path / name
    rc = main(
        ["run", scenario, "--seed", str(seed), "--length", str(length), "--trace", str(path), *extra]
    )
    assert rc == 0
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "causalloop" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_scenario_is_data_error(capsys):
    assert main(["run", "no_such_scenario", "--seed", "0", "--length", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_writes_trace(tmp_path, capsys):
    path = run_trace(tmp_path)
    out = capsys.readouterr().out
    assert "calm: 5 ticks (reflect)" in out
    assert f"trace -> {path}" in out
    trace = read_trace(path)
    assert trace.header.seed == 0
    assert len(trace.records) == 5


def test_run_baseline_flag(tmp_path, capsys):
    path = run_trace(tmp_path, "--no-reflect")
    assert "(baseline)" in capsys.readouterr().out
    assert read_trace(path).header.reflect_enabled is False


def test_run_probe_policy(tmp_path):
    path = run_trace(tmp_path, "--policy", "probe", "--probe-magnitude", "0.5")
    seen = set()
    for r in read_trace(path).records:
        seen.update(r.action.values)
    assert seen <= {0.0, 0.5}
    assert 0.5 in seen


def test_evaluate_to_files_and_stdout(tmp_path, capsys):
    path = run_trace(tmp_path, length=12)
    report = tmp_path / "report.json"
    table = tmp_path / "table.tsv"
    assert main(["evaluate", str(path), "calm", "--out", str(report), "--tsv", str(table)]) == 0
    payload = json.loads(report.read_text())
    assert payload["scenario_name"] == "calm"
    assert payload["final_shd"] == 0
    assert len(table.read_text().strip().split("\n")) == 13
    capsys.readouterr()
    assert main(["evaluate", str(path), "calm"]) == 0
    stdout_payload = json.loads(capsys.readouterr().out)
    assert stdout_payload == payload


def test_evaluate_against_wrong_scenario(tmp_path, capsys):
    path = run_trace(tmp_path)
    assert main(["evaluate", str(path), "break_demo"]) == 2
    assert "error:" in capsys.readouterr().err


def test_evaluate_truncated_reflect_block_is_data_error(tmp_path, capsys):
    path = run_trace(tmp_path)
    lines = path.read_text().strip().split("\n")
    doctored = json.loads(lines[2])
    doctored["reflect"] = {"triggered": True}
    lines[2] = json.dumps(doctored)
    path.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", str(path), "calm"]) == 2
    assert "error: tick 1: malformed reflect block" in capsys.readouterr().err


def test_explain_truncated_reflect_block_is_data_error(tmp_path, capsys):
    path = run_trace(tmp_path)
    lines = path.read_text().strip().split("\n")
    doctored = json.loads(lines[2])
    doctored["reflect"] = {"triggered": True}
    lines[2] = json.dumps(doctored)
    path.write_text("\n".join(lines) + "\n")
    assert main(["explain", str(path), "--tick", "1"]) == 2
    assert "error: tick 1: malformed reflect block" in capsys.readouterr().err


# (line, fields set on it or None for the line ``[]``, commands that read them)
READ_ALL = ("evaluate", "replay", "explain")
READ_BLOCK = ("evaluate", "explain")  # the reflect block of tick 2 (line 3)
BLOCK = {"triggered": True, "epsilon": 0.5, "tau": 0.1, "candidates": [], "accepted": []}
MALFORMED_TRACES = {
    "header-seed-string": (0, {"seed": "x"}, READ_ALL),
    "header-length-null": (0, {"length": None}, READ_ALL),
    "header-policy-number": (0, {"policy": 5}, READ_ALL),
    "header-policy-fields": (0, {"policy": {"kind": "random"}}, ("replay",)),
    "header-not-object": (0, None, READ_ALL),
    "record-reflect-number": (2, {"reflect": 5}, READ_ALL),
    "record-snapshot-number": (1, {"model_snapshot": 5}, READ_ALL),
    "record-snapshot-empty": (1, {"model_snapshot": {}}, READ_ALL),
    "record-tick-string": (2, {"tick": "1"}, READ_ALL),
    "record-epsilon-string": (2, {"epsilon": "0.5"}, READ_ALL),
    "record-fit_event-number": (2, {"fit_event": 5}, READ_ALL),
    "record-digest-null": (2, {"model_digest": None}, READ_ALL),
    "header-policy-low-string": (0, {"policy": {"kind": "random", "low": "0.5", "high": 1.0}}, ("replay",)),
    "header-policy-high-bool": (0, {"policy": {"kind": "random", "low": -1.0, "high": True}}, ("replay",)),
    "header-policy-range-overflow": (0, {"policy": {"kind": "random", "low": -1e308, "high": 1e308}}, ("replay",)),
    "record-per_dim-nan": (2, {"per_dim": [float("nan"), float("inf")]}, READ_ALL),
    "reflect-epsilon-string": (3, {"reflect": {**BLOCK, "epsilon": "x"}}, READ_BLOCK),
    "reflect-tau-null": (3, {"reflect": {**BLOCK, "tau": None}}, READ_BLOCK),
    "reflect-not-triggered": (3, {"reflect": {**BLOCK, "triggered": False}}, READ_BLOCK),
    "reflect-candidate-number": (3, {"reflect": {**BLOCK, "candidates": [5]}}, READ_BLOCK),
    "reflect-bare-edge_add": (3, {"reflect": {**BLOCK, "accepted": [{"kind": "edge_add"}]}}, READ_BLOCK),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
def test_malformed_trace_is_data_error(case, tmp_path, capsys):
    line, fields, commands = MALFORMED_TRACES[case]
    path = run_trace(tmp_path, length=6)
    lines = path.read_text().strip().split("\n")
    lines[line] = "[]" if fields is None else json.dumps({**json.loads(lines[line]), **fields})
    path.write_text("\n".join(lines) + "\n")
    argv = {
        "evaluate": ["evaluate", str(path), "calm"],
        "replay": ["replay", str(path), "calm"],
        "explain": ["explain", str(path), "--tick", "2"],
    }
    for command in commands:
        assert main(argv[command]) == 2, command
        assert capsys.readouterr().err.startswith(("error:", "replay failed:"))


def test_reflect_block_baseline_is_read(tmp_path, capsys):
    """``BLOCK``, which each reflect case above spoils in one field, is read."""
    path = run_trace(tmp_path, length=6)
    lines = path.read_text().strip().split("\n")
    lines[3] = json.dumps({**json.loads(lines[3]), "reflect": BLOCK})
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["evaluate", str(path), "calm"]) == 0
    assert json.loads(capsys.readouterr().out)["reflect_triggers"] == 1
    assert main(["explain", str(path), "--tick", "2"]) == 0
    assert "0 candidate repairs were scored" in capsys.readouterr().out


CALM_FILE = Path(__file__).parents[1] / "scenarios" / "calm.json"
MALFORMED_SCENARIOS = {
    "d_state-string": {"d_state": "1"},
    "holdout-float": {"holdout": 2.5},
    "tau-string": {"tau": "x"},
    "initial_state-string-element": {"initial_state": ["a", 0.0]},
    "break-without-at_tick": {"breaks": [{"graph": json.loads(CALM_FILE.read_text())["graph"]}]},
    "budget-bool": {"budget": True},
    "fit_every-huge-float": {"fit_every": 1e300},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_is_data_error(case, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**json.loads(CALM_FILE.read_text()), **MALFORMED_SCENARIOS[case]}))
    assert main(["run", str(path), "--seed", "0", "--length", "3"]) == 2
    assert "error: invalid scenario" in capsys.readouterr().err


def test_overflowing_prediction_error_is_data_error(tmp_path, capsys):
    """A valid scenario whose first prediction misses by 2e200: the squared
    error overflows a float, which ends the run with exit 2."""
    edge = {
        "coefficient": -2.0,
        "delay": 1,
        "form": "linear",
        "source": {"index": 0, "kind": "state"},
        "target": 0,
    }
    scenario = {
        **json.loads(CALM_FILE.read_text()),
        "d_state": 1,
        "d_action": 1,
        "initial_state": [1e200],
        "graph": {"d_action": 1, "d_state": 1, "edges": [edge]},
        "agent_graph": {"d_action": 1, "d_state": 1, "edges": [{**edge, "coefficient": 0.0}]},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--seed", "1", "--length", "3"]) == 2
    assert "exceeds the float range" in capsys.readouterr().err


BREAK_DEMO_FILE = CALM_FILE.with_name("break_demo.json")


@pytest.mark.parametrize("sigma_lik", [1e-200, 1e200])
def test_run_refuses_a_sigma_lik_whose_variance_leaves_the_float_range(
    tmp_path, capsys, sigma_lik
):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**json.loads(BREAK_DEMO_FILE.read_text()), "sigma_lik": sigma_lik}))
    assert main(["run", str(path), "--seed", "1", "--length", "260"]) == 2
    assert "sigma_lik" in capsys.readouterr().err


def test_trace_with_an_infinite_score_is_data_error(tmp_path, capsys):
    """At sigma_lik 1.2e-154 some candidate scores overflow to infinity,
    which JSON cannot write: the run ends with exit 2 and writes nothing."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**json.loads(BREAK_DEMO_FILE.read_text()), "sigma_lik": 1.2e-154}))
    out = tmp_path / "t.jsonl"
    assert main(["run", str(path), "--seed", "1", "--length", "260", "--trace", str(out)]) == 2
    assert "error: tick " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trace", [False, True], ids=["no-trace", "trace"])
def test_run_with_an_infinite_score_is_data_error(tmp_path, capsys, trace):
    """The repair batch refuses a candidate whose score is not finite, so
    the run itself ends with exit 2, named by its tick, whether or not a
    trace is written."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**json.loads(BREAK_DEMO_FILE.read_text()), "sigma_lik": 1.2e-154}))
    out = tmp_path / "t.jsonl"
    args = ["run", str(path), "--seed", "1", "--length", "260"] + (["--trace", str(out)] if trace else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tick ") and "score is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, bad", [("fit_window", 2.5), ("capacity", True), ("delta_hat", "0.1"), ("delta_max", None)]
)
def test_malformed_model_snapshot_is_data_error(field, bad, tmp_path, capsys):
    path = run_trace(tmp_path)
    lines = path.read_text().strip().split("\n")
    record = json.loads(lines[1])
    record["model_snapshot"][field] = bad
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    assert main(["explain", str(path), "--tick", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model snapshot") and f"{field} is" in err


CALM_GRAPH = json.loads(CALM_FILE.read_text())["graph"]
# (top-level key, edge index or None for the whole value, fields set, the
# field the error names)
MALFORMED_NESTED = {
    "edge-coefficient-string": ("graph", 0, {"coefficient": "0.8"}, "coefficient"),
    "edge-delay-float": ("graph", 0, {"delay": 1.7}, "delay"),
    "edge-target-bool": ("agent_graph", 1, {"target": True}, "target"),
    "graph-d_state-float": ("graph", None, {"d_state": 2.0}, "d_state"),
    "graph-edges-object": ("graph", None, {"edges": {}}, "edges"),
    "spike-prob-string": ("perturbation", None, {"kind": "spike", "prob": "0.5", "magnitude": 1.0}, "prob"),
    "spike-magnitude-bool": ("perturbation", None, {"kind": "spike", "prob": 0.5, "magnitude": True}, "magnitude"),
    "walk-sigma-huge-int": ("perturbation", None, {"kind": "gaussian_walk", "sigma_delta": 10**400}, "sigma_delta"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NESTED))
def test_malformed_nested_scenario_field_is_data_error(case, tmp_path, capsys):
    key, edge, fields, named = MALFORMED_NESTED[case]
    d = json.loads(CALM_FILE.read_text())
    if key == "perturbation":
        d[key] = fields
    elif edge is None:
        d[key] = {**CALM_GRAPH, **fields}
    else:
        d[key]["edges"][edge].update(fields)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert main(["run", str(path), "--seed", "0", "--length", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{named} is" in err


@pytest.mark.parametrize("module", ["causalloop", "causalloop.cli"])
def test_module_entry_points(module):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(causalloop.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    helped = subprocess.run(
        [sys.executable, "-m", module, "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert helped.returncode == 0
    assert "usage: causalloop" in helped.stdout
    bad = subprocess.run(
        [sys.executable, "-m", module, "run", "no_such_scenario", "--seed", "0", "--length", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert bad.returncode == 2
    assert "error:" in bad.stderr


def test_replay_verifies_and_detects_tampering(tmp_path, capsys):
    path = run_trace(tmp_path)
    assert main(["replay", str(path), "calm"]) == 0
    assert "replay ok: 5 records" in capsys.readouterr().out

    lines = path.read_text().strip().split("\n")
    doctored = json.loads(lines[3])
    doctored["epsilon"] = doctored["epsilon"] + 0.125
    lines[3] = json.dumps(doctored)
    path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(path), "calm"]) == 2
    assert "replay failed" in capsys.readouterr().err


def test_explain_tick(tmp_path, capsys):
    path = run_trace(tmp_path, scenario="break_demo", length=6)
    capsys.readouterr()
    assert main(["explain", str(path), "--tick", "2"]) == 0
    out = capsys.readouterr().out
    assert "At tick 2, action [" in out
    assert "perturbation factor e^-" in out

    assert main(["explain", str(path), "--tick", "2", "--counterfactual-delta", "0.5"]) == 0
    assert "Had perturbation δ=" in capsys.readouterr().out

    assert main(["explain", str(path), "--tick", "99"]) == 2


def test_explain_llm_requires_configuration(tmp_path, monkeypatch, capsys):
    path = run_trace(tmp_path)
    monkeypatch.delenv("EXPLAIN_LLM_URL", raising=False)
    assert main(["explain", str(path), "--tick", "1", "--llm"]) == 2
    assert "EXPLAIN_LLM_URL" in capsys.readouterr().err


def test_explain_llm_round_trip(tmp_path, monkeypatch, capsys):
    path = run_trace(tmp_path)
    monkeypatch.setenv("EXPLAIN_LLM_URL", "http://example.invalid/narrate")

    monkeypatch.setattr(
        "causalloop.explain._post_json", lambda *a, **k: (200, b'{"text": "A short story."}')
    )
    capsys.readouterr()
    assert main(["explain", str(path), "--tick", "1", "--llm"]) == 0
    assert capsys.readouterr().out.strip() == "A short story."


@pytest.mark.parametrize("seeds", ["abc", "1:2:3", "x"])
def test_sweep_rejects_bad_seed_ranges(tmp_path, seeds, capsys):
    """A range that does not parse is a usage error."""
    assert main(["sweep", "calm", "--seeds", seeds, "--out", str(tmp_path / "sw")]) == 1
    assert "usage error" in capsys.readouterr().err


def test_sweep_jobs_that_do_not_parse_are_a_usage_error(tmp_path, capsys):
    out = tmp_path / "sw"
    assert main(["sweep", "calm", "--seeds", "0:2", "--jobs", "x", "--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["5:2", "3:3"])
def test_sweep_refuses_an_empty_seed_range(tmp_path, seeds, capsys):
    """A range that parses but holds no seed is a bad option value."""
    out = tmp_path / "sw"
    assert main(["sweep", "calm", "--seeds", seeds, "--out", str(out)]) == 2
    assert f"--seeds {seeds} is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", [f"{2**64}:{2**64 + 1}", f"{2**64 - 1}:{2**64 + 1}", "-1:1"])
def test_sweep_refuses_seeds_outside_64_bits(tmp_path, monkeypatch, seeds, capsys):
    monkeypatch.setattr(_SerialPool, "created", [])
    monkeypatch.setattr("causalloop.cli.ProcessPoolExecutor", _SerialPool)
    out = tmp_path / "sw"
    assert main(["sweep", "calm", f"--seeds={seeds}", "--length", "3", "--out", str(out)]) == 2
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err
    assert _SerialPool.created == [] and not out.exists()


def test_run_refuses_a_seed_of_2_to_the_64(capsys):
    assert main(["run", "break_demo", "--seed", str(2**64), "--length", "3"]) == 2
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err


def test_run_accepts_the_largest_seed(tmp_path):
    trace = read_trace(run_trace(tmp_path, scenario="break_demo", seed=2**64 - 1, length=3))
    assert trace.header.seed == 2**64 - 1


def test_replay_refuses_a_header_seed_of_2_to_the_64(tmp_path, capsys):
    path = run_trace(tmp_path)
    lines = path.read_text().strip().split("\n")
    header = json.loads(lines[0])
    header["seed"] = 2**64
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(path), "calm"]) == 2
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err


def test_sweep_serial(tmp_path, capsys):
    out_dir = tmp_path / "sw"
    rc = main(
        ["sweep", "calm", "--seeds", "0:2", "--length", "30", "--out", str(out_dir), "--jobs", "1"]
    )
    assert rc == 0
    assert "sweep complete: 2 seeds" in capsys.readouterr().out
    for seed in (0, 1):
        comp = json.loads((out_dir / f"seed_{seed}.json").read_text())
        assert comp["reflect"]["seed"] == seed
        assert comp["deltas"]["breaks"] == []  # calm has no breaks
    summary = (out_dir / "summary.tsv").read_text().strip().split("\n")
    assert summary[0].startswith("seed\t")
    assert len(summary) == 3


def test_sweep_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    argv = ["sweep", "calm", "--seeds", "0:2", "--length", "20"]
    assert main([*argv, "--out", str(serial), "--jobs", "1"]) == 0
    assert main([*argv, "--out", str(parallel), "--jobs", "2"]) == 0
    for name in ("seed_0.json", "seed_1.json", "summary.tsv"):
        assert (serial / name).read_text() == (parallel / name).read_text()


def test_sweep_workers_forked_after_episodes_match_serial(tmp_path):
    """Workers forked after this process has drawn from the shared random
    generators record what one process does: every tick re-addresses them."""
    run_trace(tmp_path, scenario="break_demo", seed=7, length=25)
    argv = ["sweep", "calm", "--seeds", "0:2", "--length", "30"]
    assert main([*argv, "--out", str(tmp_path / "parallel"), "--jobs", "2"]) == 0
    assert main([*argv, "--out", str(tmp_path / "serial"), "--jobs", "1"]) == 0
    for name in ("seed_0.json", "seed_1.json"):
        assert (tmp_path / "parallel" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    the tasks in this process, so no worker is ever started."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(x) for x in items]


@pytest.mark.parametrize(
    "jobs, seeds, workers", [("5000", "0:2", [2]), ("3", "0:5", [3]), ("0", "0:1", [])]
)
def test_sweep_starts_at_most_one_worker_per_seed(tmp_path, monkeypatch, jobs, seeds, workers):
    monkeypatch.setattr(_SerialPool, "created", [])
    monkeypatch.setattr("causalloop.cli.ProcessPoolExecutor", _SerialPool)
    argv = ["sweep", "calm", "--seeds", seeds, "--length", "5", "--jobs", jobs]
    assert main([*argv, "--out", str(tmp_path / "sw")]) == 0
    assert _SerialPool.created == workers


def test_sweep_refuses_negative_jobs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_SerialPool, "created", [])
    monkeypatch.setattr("causalloop.cli.ProcessPoolExecutor", _SerialPool)
    out = tmp_path / "sw"
    assert main(["sweep", "calm", "--seeds", "0:2", "--jobs", "-1", "--out", str(out)]) == 2
    assert "--jobs must be >= 0" in capsys.readouterr().err
    assert _SerialPool.created == [] and not out.exists()
