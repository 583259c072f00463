"""Scenario configs: validation, serialization, digests, file handling."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from causalloop.core import ConfigError, InputError
from causalloop.scenario import (
    ScenarioConfig,
    builtin_scenarios,
    canonical_json,
    load_scenario,
    resolve_scenario,
    save_scenario,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
)
from causalloop.world import CausalEdge, CausalGraph, GaussianWalk, ScheduledBreak, Spike, VarRef


def tiny(**kw):
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=1, coefficient=1.0),),
    )
    defaults = dict(name="tiny", d_state=1, d_action=1, initial_state=(0.0,), graph=g)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


# ---- validation ------------------------------------------------------------


def test_valid_config_passes():
    tiny().validate()


def test_initial_state_length_checked():
    with pytest.raises(ConfigError):
        tiny(initial_state=(0.0, 0.0)).validate()


def test_delay_must_fit_history():
    g = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=300, coefficient=1.0),),
    )
    with pytest.raises(ConfigError):
        tiny(graph=g).validate()


def test_breaks_must_increase():
    g = tiny().graph
    bad = (ScheduledBreak(5, g), ScheduledBreak(5, g))
    with pytest.raises(ConfigError):
        tiny(breaks=bad).validate()


def test_rho_must_be_a_proper_fraction():
    with pytest.raises(ConfigError):
        tiny(rho=1.0).validate()
    with pytest.raises(ConfigError):
        tiny(rho=0.0).validate()


def test_negative_noise_rejected():
    with pytest.raises(ConfigError):
        tiny(noise_sigma=-0.1).validate()


def test_default_tau_tracks_noise():
    assert tiny().default_tau() == pytest.approx(0.04)
    assert tiny(noise_sigma=0.05).default_tau() == pytest.approx(4 * (0.0025 + 0.01))
    assert tiny(tau=1.5).effective_tau() == 1.5


def test_materialized_resolves_tau_and_agent_graph():
    sc = tiny().materialized()
    assert sc.tau == pytest.approx(0.04)
    assert sc.agent_graph == sc.graph


# ---- serialization ---------------------------------------------------------


def test_dict_round_trip_all_builtins():
    for name, sc in builtin_scenarios().items():
        back = scenario_from_dict(scenario_to_dict(sc))
        assert scenario_digest(back) == scenario_digest(sc), name
        assert back.materialized() == sc.materialized(), name


def test_round_trip_covers_breaks_and_perturbations():
    g = tiny().graph
    g2 = CausalGraph(
        d_state=1,
        d_action=1,
        edges=(CausalEdge(VarRef.action(0), 0, delay=2, coefficient=-0.5),),
    )
    for pert in (GaussianWalk(sigma_delta=0.2), Spike(prob=0.1, magnitude=1.0)):
        sc = tiny(breaks=(ScheduledBreak(10, g2),), perturbation=pert, noise_sigma=0.02)
        back = scenario_from_dict(scenario_to_dict(sc))
        assert back.breaks == sc.breaks
        assert back.perturbation == sc.perturbation
        assert scenario_digest(back) == scenario_digest(sc)


def test_digest_ignores_json_key_order():
    d = scenario_to_dict(tiny())
    shuffled = json.loads(json.dumps(d))  # dict order preserved; reorder manually
    shuffled = dict(reversed(list(shuffled.items())))
    assert canonical_json(d) == canonical_json(shuffled)


def test_digest_tracks_content():
    a = scenario_digest(tiny())
    assert scenario_digest(tiny(noise_sigma=0.01)) != a
    assert scenario_digest(tiny(name="other")) != a
    assert scenario_digest(tiny()) == a


def test_unknown_keys_rejected():
    d = scenario_to_dict(tiny())
    d["surprise"] = 1
    with pytest.raises(InputError):
        scenario_from_dict(d)


def test_missing_required_key_rejected():
    d = scenario_to_dict(tiny())
    del d["graph"]
    with pytest.raises(InputError):
        scenario_from_dict(d)


def test_noise_too_large_to_derive_tau_rejected():
    d = scenario_to_dict(tiny())
    d["noise_sigma"] = 1e200  # its square, and so the default tau, overflows
    del d["tau"]
    with pytest.raises(InputError, match="invalid scenario"):
        scenario_from_dict(d)


# ---- files -----------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    sc = builtin_scenarios()["break_demo"]
    path = tmp_path / "b.json"
    save_scenario(sc, str(path))
    back = load_scenario(str(path))
    assert scenario_digest(back) == scenario_digest(sc)


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",\n  broken\n}')
    with pytest.raises(InputError) as exc_info:
        load_scenario(str(path))
    assert "line" in str(exc_info.value)


def test_load_refuses_an_int_too_long_to_convert(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario_to_dict(tiny())).replace('"budget": 32', '"budget": ' + "9" * 5000))
    with pytest.raises(InputError, match="s.json: Exceeds the limit"):
        load_scenario(str(path))


def test_load_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_scenario(str(tmp_path / "absent.json"))


def test_resolve_by_name_and_path(tmp_path):
    by_name = resolve_scenario("calm")
    assert by_name.name == "calm"
    path = tmp_path / "c.json"
    save_scenario(by_name, str(path))
    assert scenario_digest(resolve_scenario(str(path))) == scenario_digest(by_name)
    with pytest.raises(InputError):
        resolve_scenario("no_such_scenario")


def test_builtins_validate_and_have_distinct_digests():
    scs = builtin_scenarios()
    assert set(scs) == {"productivity", "break_demo", "calm"}
    digests = set()
    for sc in scs.values():
        sc.validate()
        digests.add(scenario_digest(sc))
    assert len(digests) == 3


def test_bundled_scenario_files_match_builtins():
    root = Path(__file__).resolve().parent.parent / "scenarios"
    builtins = builtin_scenarios()
    files = sorted(p.stem for p in root.glob("*.json"))
    assert files == sorted(builtins)
    for name, sc in builtins.items():
        from_file = load_scenario(str(root / f"{name}.json"))
        assert scenario_digest(from_file) == scenario_digest(sc)
