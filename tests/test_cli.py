"""CLI surface: subcommand round-trips, exit codes, output artifacts."""

from __future__ import annotations

import json
import os
import subprocess
import sys

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
    assert "error: tick 1: triggered reflect block" in capsys.readouterr().err


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

    class FakeResponse:
        status_code = 200

        @staticmethod
        def json():
            return {"text": "A short story."}

    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse())
    capsys.readouterr()
    assert main(["explain", str(path), "--tick", "1", "--llm"]) == 0
    assert capsys.readouterr().out.strip() == "A short story."


@pytest.mark.parametrize("seeds", ["5:2", "abc", "1:2:3"])
def test_sweep_rejects_bad_seed_ranges(tmp_path, seeds, capsys):
    assert main(["sweep", "calm", "--seeds", seeds, "--out", str(tmp_path / "sw")]) == 1
    assert "usage error" in capsys.readouterr().err


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
