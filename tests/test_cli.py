"""Configuration parsing, the batch runner, exit codes, determinism."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from finmon.cli import (
    BUILTIN_SUITES,
    ConfigError,
    list_catalog,
    load_config,
    main,
    parse_config,
)
from finmon.dp import MEASURES
from finmon.instances import INSTANCE_NAMES
from finmon.values import parse_value

GOOD = {
    "seed": 0,
    "budget": 1000,
    "suites": [{"name": "m", "instance": "maybe", "laws": ["F1", "T1"]}],
}


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_minimal_config():
    cfg = parse_config(GOOD)
    assert cfg.seed == 0 and cfg.budget == 1000
    assert cfg.suites[0].laws == ("F1", "T1")


def test_seed_and_budget_are_mandatory():
    with pytest.raises(ConfigError, match="config.seed"):
        parse_config({"budget": 10, "suites": GOOD["suites"]})
    with pytest.raises(ConfigError, match="config.budget"):
        parse_config({"seed": 0, "suites": GOOD["suites"]})


def test_empty_config_is_an_error():
    with pytest.raises(ConfigError, match="nothing to run"):
        parse_config({"seed": 0, "budget": 10})


def test_unknown_top_level_field():
    bad = dict(GOOD, extra=1)
    with pytest.raises(ConfigError, match="config.extra"):
        parse_config(bad)


def test_unknown_instance_names_the_field():
    bad = {"seed": 0, "budget": 10, "suites": [{"name": "x", "instance": "giry"}]}
    with pytest.raises(ConfigError, match=r"suites\[0\].instance"):
        parse_config(bad)


def test_unknown_law_id_rejected():
    bad = {"seed": 0, "budget": 10,
           "suites": [{"name": "x", "instance": "maybe", "laws": ["Q7"]}]}
    with pytest.raises(ConfigError, match="unknown law id"):
        parse_config(bad)


def test_bad_step_value_rejected():
    bad = {"seed": 0, "budget": 10,
           "systems": [{"name": "s", "instance": "nondet", "size": 2,
                        "step": ["[#0]", "[#1"], "checks": ["flowLR"]}]}
    with pytest.raises(ConfigError, match=r"systems\[0\].step\[1\]"):
        parse_config(bad)


def test_step_arity_must_match_size():
    bad = {"seed": 0, "budget": 10,
           "systems": [{"name": "s", "instance": "nondet", "size": 3,
                        "step": ["[#0]", "[#1]"]}]}
    with pytest.raises(ConfigError, match="expected 3 entries"):
        parse_config(bad)


def test_unknown_system_check_rejected():
    bad = {"seed": 0, "budget": 10,
           "systems": [{"name": "s", "instance": "nondet", "size": 2,
                        "step": ["[#0]", "[#1]"], "checks": ["flowQuux"]}]}
    with pytest.raises(ConfigError, match="unknown check"):
        parse_config(bad)


def test_unknown_measure_rejected():
    bad = {"seed": 0, "budget": 10,
           "sdps": [{"name": "d", "instance": "nondet", "measure": "entropy",
                     "horizon": 1, "states": 2, "controls": 1,
                     "next": [["[#0]", "[#1]"]]}]}
    with pytest.raises(ConfigError, match="unknown measure"):
        parse_config(bad)


def test_reward_table_shape_validated():
    bad = {"seed": 0, "budget": 10,
           "sdps": [{"name": "d", "instance": "nondet", "measure": "max",
                     "horizon": 1, "states": 2, "controls": 1,
                     "next": [["[#0]", "[#1]"]],
                     "reward": [[["1/2"]]]}]}
    with pytest.raises(ConfigError, match="reward"):
        parse_config(bad)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


def test_builtin_suites_parse():
    assert set(BUILTIN_SUITES) == {"full", "mutants", "reader"}
    for name, data in BUILTIN_SUITES.items():
        cfg = parse_config(data)
        assert cfg.suites, name


# ---------------------------------------------------------------------------
# the front end


def test_list_catalog_contents():
    text = list_catalog()
    assert text.count("≐") >= 25
    for law_id in ("F1", "T3", "KJ", "W5", "L2"):
        assert f"\n  {law_id} " in text or text.startswith(f"  {law_id} ")
    for name in ("identity", "maybe", "nondet", "simpleprob", "mutant-a",
                 "mutant-b", "reader", "expected", "max", "point",
                 "default-zero", "flowTrjLemma", "reprLemma"):
        assert name in text


def test_main_list_exits_zero(capsys):
    assert main(["--list"]) == 0
    assert "laws:" in capsys.readouterr().out


def test_main_needs_some_input(capsys):
    assert main([]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_main_green_config(tmp_path, capsys):
    path = write_config(tmp_path, GOOD)
    assert main(["--config", path]) == 0
    out = capsys.readouterr().out
    assert "aggregate: PASS" in out
    assert "--- timing (non-deterministic) ---" in out


def test_main_failing_law_exits_one(tmp_path, capsys):
    cfg = {"seed": 0, "budget": 1000,
           "suites": [{"name": "ma", "instance": "mutant-a", "laws": ["T1", "T2"]}]}
    path = write_config(tmp_path, cfg)
    assert main(["--config", path]) == 1
    out = capsys.readouterr().out
    assert "T2 on mutant-a: FAIL" in out
    assert "ma = [#0, #1]" in out


def test_main_unknown_instance_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, {"seed": 0, "budget": 10,
                                   "suites": [{"name": "x", "instance": "giry"}]})
    assert main(["--config", path]) == 2
    assert "giry" in capsys.readouterr().err


def test_main_builtin_suite_flag(tmp_path):
    out = tmp_path / "r.json"
    assert main(["--suite", "reader", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    laws = [r["law"] for r in doc["deterministic"]["results"]]
    assert laws == ["F1", "F2", "F3", "F3L2"]


def test_f3l2_on_a_non_reader_instance_is_a_config_error(tmp_path, capsys):
    cfg = {"seed": 0, "budget": 1000,
           "suites": [{"name": "m", "instance": "maybe", "laws": ["F3L2"]}]}
    assert main(["--config", write_config(tmp_path, cfg)]) == 2
    assert "suites[0].laws" in capsys.readouterr().err


def test_f3l2_alone_runs_only_the_level2_check(tmp_path):
    cfg = {"seed": 0, "budget": 100_000,
           "suites": [{"name": "reader:functor", "instance": "reader",
                       "laws": ["F3L2"]}]}
    out = tmp_path / "r.json"
    assert main(["--config", write_config(tmp_path, cfg),
                 "--format", "json", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["deterministic"]["results"]
    golden = json.loads((Path(__file__).parent / "golden" / "suite-reader.json").read_text())
    assert results == [r for r in golden["results"] if r["law"] == "F3L2"]


def test_main_unknown_suite_flag(capsys):
    assert main(["--suite", "nope"]) == 2
    assert "unknown builtin suite" in capsys.readouterr().err


def test_suite_flag_selects_from_config(tmp_path):
    cfg = {"seed": 0, "budget": 1000,
           "suites": [
               {"name": "a", "instance": "maybe", "laws": ["F1"]},
               {"name": "b", "instance": "identity", "laws": ["T1"]},
           ]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out.json"
    assert main(["--config", path, "--suite", "b", "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    results = doc["deterministic"]["results"]
    assert {r["instance"] for r in results} == {"identity"}


def test_flag_overrides_are_echoed(tmp_path):
    path = write_config(tmp_path, GOOD)
    out = tmp_path / "out.json"
    assert main(["--config", path, "--seed", "7", "--budget", "555",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    cfg = doc["deterministic"]["config"]
    assert cfg["seed"] == 7 and cfg["budget"] == 555


def test_reward_table_variant_runs(tmp_path):
    cfg = {"seed": 0, "budget": 1000,
           "sdps": [{"name": "d", "instance": "nondet", "measure": "max",
                     "horizon": 1, "states": 2, "controls": 1,
                     "next": [["[#0, #1]", "[#1]"]],
                     "reward": [[["0", "1/2"], ["1/3", "0"]]]}]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out.json"
    assert main(["--config", path, "--format", "json", "--out", str(out)]) == 0


def test_refused_sdp_measure_fails_the_run(tmp_path, capsys):
    cfg = {"seed": 0, "budget": 1000,
           "sdps": [{"name": "d", "instance": "maybe", "measure": "default-zero",
                     "horizon": 1, "states": 2, "controls": 1,
                     "next": [["some #1", "none"]]}]}
    path = write_config(tmp_path, cfg)
    assert main(["--config", path]) == 1
    out = capsys.readouterr().out
    assert "not shift compatible" in out
    assert "mv = none" in out


_WALK = ["{#0: 1/2, #1: 1/2}", "{#1: 1/2, #2: 1/2}", "{#0: 1/2, #2: 1/2}"]


def test_carrier_cap_bounds_system_and_sdp_checks(tmp_path):
    # every carrier here has 18 values: Dist over 3 atoms at support 2
    cfg = {"seed": 0, "budget": 100_000, "carrier_cap": 5,
           "suites": [{"name": "p", "instance": "simpleprob", "laws": ["F1"],
                       "sizes": {"A": 3}}],
           "systems": [{"name": "walk", "instance": "simpleprob", "size": 3,
                        "step": _WALK, "checks": ["reprLemma", "mapLastLemma"]}],
           "sdps": [{"name": "coin-walk", "instance": "simpleprob",
                     "measure": "expected", "horizon": 3, "states": 3,
                     "controls": 1, "next": [_WALK]}]}
    out = tmp_path / "out.json"
    assert main(["--config", write_config(tmp_path, cfg), "--format", "json",
                 "--out", str(out)]) == 1
    results = json.loads(out.read_text())["deterministic"]["results"]
    assert [(r["law"], r["checked"]) for r in results] == [
        ("F1", 0), ("reprLemma", 0), ("mapLastLemma", 0), ("valSpec", 0)]
    for r in results:
        assert not r["pass"] and "witness" not in r
        assert r["diagnostic"].startswith("carrier too large: ")
        assert r["diagnostic"].endswith("has 18 values, cap 5")


def test_echo_keeps_texts_renders_rewards_and_fills_defaults(tmp_path):
    cfg = {"seed": 0, "budget": 1000,
           "systems": [{"name": "s", "instance": "nondet", "size": 2,
                        "step": ["[#1,#0]", "[ #1 ]"]}],
           "sdps": [{"name": "d", "instance": "nondet", "measure": "max",
                     "horizon": 1, "states": 2, "controls": 1,
                     "next": [["[#0, #1]", "[#1]"]],
                     "reward": [[[0, "2/4"], [0.25, "1/3"]]]}]}
    out = tmp_path / "out.json"
    main(["--config", write_config(tmp_path, cfg), "--format", "json", "--out", str(out)])
    echo = json.loads(out.read_text())["deterministic"]["config"]
    assert echo["carrier_cap"] == 1_000_000
    assert echo["systems"] == [{
        "name": "s", "instance": "nondet", "size": 2, "step": ["[#1,#0]", "[ #1 ]"],
        "checks": ["flowLR", "flowMonRLem", "flowMonoid", "flowTrjLemma",
                   "mapLastLemma", "reprLemma"],
        "n_max": 3, "max_len": 2, "max_support": 2,
    }]
    assert echo["sdps"] == [{
        "name": "d", "instance": "nondet", "measure": "max", "horizon": 1,
        "states": 2, "controls": 1, "next": [["[#0, #1]", "[#1]"]],
        "reward": [[["0", "1/2"], ["1/4", "1/3"]]], "max_len": 2, "max_support": 2,
    }]
    cfg["sdps"][0].pop("reward")
    main(["--config", write_config(tmp_path, cfg), "--format", "json", "--out", str(out)])
    echo = json.loads(out.read_text())["deterministic"]["config"]
    assert echo["sdps"][0]["reward"] == "next-index"


def test_each_step_and_next_text_is_parsed_once(tmp_path, monkeypatch):
    import finmon.cli as cli

    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return parse_value(text)

    monkeypatch.setattr(cli, "parse_value", counting_parse)
    cfg = {"seed": 0, "budget": 1000,
           "systems": [{"name": "walk", "instance": "simpleprob", "size": 3,
                        "step": _WALK, "checks": ["flowLR", "flowTrjLemma"]}],
           "sdps": [{"name": "d", "instance": "nondet", "measure": "max",
                     "horizon": 1, "states": 2, "controls": 2,
                     "next": [["[#0]", "[#1]"], ["[#0, #1]", "[#1, #0]"]]}]}
    assert main(["--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out.txt")]) == 0
    assert parsed == _WALK + ["[#0]", "[#1]", "[#0, #1]", "[#1, #0]"]


def test_deterministic_section_stable_across_jobs(tmp_path):
    cfg = {"seed": 3, "budget": 1000,
           "suites": [{"name": "m", "instance": "maybe"}],
           "systems": [{"name": "b", "instance": "nondet", "size": 2,
                        "step": ["[#0, #1]", "[#1]"],
                        "checks": ["flowLR", "flowTrjLemma"], "n_max": 2}]}
    path = write_config(tmp_path, cfg)
    outs = []
    for jobs in ("1", "8", "1"):
        out = tmp_path / f"out-{jobs}-{len(outs)}.json"
        assert main(["--config", path, "--jobs", jobs, "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        outs.append(json.dumps(doc["deterministic"], sort_keys=True))
    assert outs[0] == outs[1] == outs[2]


def test_json_report_shape(tmp_path):
    path = write_config(tmp_path, GOOD)
    out = tmp_path / "out.json"
    main(["--config", path, "--format", "json", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert set(doc) == {"deterministic", "timing"}
    det = doc["deterministic"]
    assert det["schema"] == "lawcheck-report/1"
    assert det["counts"] == {"checks": 2, "failures": 0}
    assert all(set(r) >= {"group", "law", "instance", "pass", "checked"}
               for r in det["results"])
    assert "jobs" in doc["timing"] and "total_ms" in doc["timing"]


# ---------------------------------------------------------------------------
# step and next values outside their carrier


@pytest.mark.parametrize("entry,path", [
    ({"systems": [{"name": "s", "instance": "nondet", "size": 2,
                   "step": ["[#5]", "[#0]"], "checks": ["flowLR"]}]},
     "systems[0].step[0]"),
    ({"systems": [{"name": "s", "instance": "simpleprob", "size": 1,
                   "step": ["[#1]"], "checks": ["flowLR"]}]},
     "systems[0].step[0]"),
    ({"sdps": [{"name": "d", "instance": "nondet", "measure": "max",
                "horizon": 1, "states": 2, "controls": 1,
                "next": [["[#3]", "[#0]"]]}]},
     "sdps[0].next[0][0]"),
], ids=["atom-past-size", "seq-in-dist-carrier", "sdp-next-atom"])
def test_value_outside_carrier_is_a_config_error(tmp_path, capsys, entry, path):
    cfg = {"seed": 0, "budget": 100, **entry}
    assert main(["--config", write_config(tmp_path, cfg)]) == 2
    assert f"configuration error: {path}: " in capsys.readouterr().err


def test_lengths_and_supports_are_not_bounded_in_step_values(tmp_path):
    cfg = {"seed": 0, "budget": 100,
           "systems": [{"name": "s", "instance": "nondet", "size": 2,
                        "step": ["[#0, #1, #1, #0]", "[#1]"], "checks": ["flowLR"],
                        "n_max": 2, "max_len": 1}]}
    assert main(["--config", write_config(tmp_path, cfg)]) == 0


_ANY_LEAF = ("#0", "#1", "#2", "#3", "none", "1/2", "[]", "<>")


def _any_value(size: int):
    """Rendered values of every shape, most of them outside the carrier."""
    leaf = st.sampled_from(_ANY_LEAF)
    return st.recursive(leaf, lambda inner: st.one_of(
        inner.map(lambda v: f"some {v}"),
        st.lists(inner, max_size=2).map(lambda vs: "[" + ", ".join(vs) + "]"),
        st.lists(inner, max_size=2).map(lambda vs: "<" + ", ".join(vs) + ">"),
        st.lists(inner, min_size=1, max_size=2).map(
            lambda vs: "{" + ", ".join(f"{v}: 1/{len(vs)}" for v in vs) + "}"),
    ), max_leaves=3)


def _carrier_value(instance: str, size: int):
    """Rendered values inside the instance's carrier over size states."""
    atom = st.integers(0, size - 1).map(lambda i: f"#{i}")
    if instance == "maybe":
        return st.one_of(st.just("none"), atom.map(lambda a: f"some {a}"))
    if instance in ("nondet", "mutant-a"):
        return st.lists(atom, max_size=3).map(lambda vs: "[" + ", ".join(vs) + "]")
    if instance in ("simpleprob", "mutant-b"):
        return st.lists(atom, min_size=1, max_size=2, unique=True).map(
            lambda vs: "{" + ", ".join(f"{v}: 1/{len(vs)}" for v in vs) + "}")
    return atom


@st.composite
def _step_configs(draw):
    instance = draw(st.sampled_from(INSTANCE_NAMES))
    size = draw(st.integers(1, 3))
    inside = _carrier_value(instance, size)
    value = st.one_of(inside, inside, inside, _any_value(size))
    if draw(st.booleans()):
        return {"systems": [{
            "name": "s", "instance": instance, "size": size,
            "step": draw(st.lists(value, min_size=size, max_size=size)),
            "n_max": draw(st.integers(0, 2)),
        }]}
    controls = draw(st.integers(1, 2))
    fitting = st.sampled_from([m for m in sorted(MEASURES) if instance in MEASURES[m].instances])
    return {"sdps": [{
        "name": "d", "instance": instance, "measure": draw(st.one_of(
            fitting, fitting, st.sampled_from(sorted(MEASURES)))),
        "horizon": draw(st.integers(0, 2)), "states": size, "controls": controls,
        "next": [draw(st.lists(value, min_size=size, max_size=size))
                 for _ in range(controls)],
    }]}


@settings(max_examples=60, deadline=None)
@given(_step_configs())
def test_step_and_next_values_never_crash(entry):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({"seed": 0, "budget": 50, **entry}))
        assert main(["--config", str(path), "--out", str(Path(tmp) / "out.txt")]) in (0, 1, 2)
