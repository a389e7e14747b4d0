"""Configuration parsing, the batch runner, exit codes, determinism."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from finmon.cli import (
    BUILTIN_SUITES,
    SDP,
    SIZES,
    SUITE,
    SYSTEM,
    TOP,
    ConfigError,
    list_catalog,
    load_config,
    main,
    parse_config,
)
from finmon.dp import MEASURES, check_val_equiv
from finmon.instances import INSTANCE_NAMES
from finmon.values import Atom, Quantifier, parse_value

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
    inst, checks, domains, echo = cfg.suites[0]
    assert inst.name == "maybe" and checks == ("F1", "T1")
    assert sorted(domains) == ["A", "B", "C", "D"] and echo["laws"] == ["F1", "T1"]


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


def test_load_config_deeply_nested_json(tmp_path, capsys):
    # the decoder recurses once per level: past the interpreter's limit it
    # raised RecursionError, which ended in a traceback and exit 1
    p = tmp_path / "deep.json"
    p.write_text('{"seed": 0, "budget": 1, "suites": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: config: invalid JSON in {p}: nests too deeply\n"


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


@pytest.mark.parametrize("where", ["missing/r.json", "."], ids=["missing-dir", "a-dir"])
def test_an_unwritable_out_is_a_config_error_before_any_check(tmp_path, capsys, monkeypatch,
                                                              where):
    def no_checks(cfg):
        raise AssertionError("a check ran")

    monkeypatch.setattr("finmon.cli._execute", no_checks)
    out = tmp_path / where
    assert main(["--suite", "reader", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: --out: cannot write {out}: ")
    assert not (tmp_path / "missing").exists()


def test_f3l2_on_a_non_reader_instance_is_a_config_error(tmp_path, capsys):
    cfg = {"seed": 0, "budget": 1000,
           "suites": [{"name": "m", "instance": "maybe", "laws": ["F3L2"]}]}
    assert main(["--config", write_config(tmp_path, cfg)]) == 2
    assert "suites[0].laws" in capsys.readouterr().err


def test_reader_suite_naming_a_monad_law_is_a_config_error(tmp_path, capsys):
    cfg = {"seed": 0, "budget": 1000,
           "suites": [{"name": "r", "instance": "reader", "laws": ["F1", "T1"]}]}
    assert main(["--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "suites[0].laws: instance 'reader' lacks an operation that law T1 needs" in err
    assert "Traceback" not in err


def test_bad_view_is_reported_at_the_view_even_with_laws(tmp_path, capsys):
    cfg = {"seed": 0, "budget": 1000,
           "suites": [{"name": "m", "instance": "maybe", "laws": ["F1"], "view": "wide"}]}
    assert main(["--config", write_config(tmp_path, cfg)]) == 2
    assert "suites[0].view: unknown suite view 'wide'" in capsys.readouterr().err


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


def test_builtin_suite_keeps_the_config_carrier_cap(tmp_path):
    cfg = dict(GOOD, carrier_cap=2)
    out = tmp_path / "out.json"
    assert main(["--config", write_config(tmp_path, cfg), "--suite", "reader",
                 "--format", "json", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())["deterministic"]
    assert doc["config"]["carrier_cap"] == 2
    f1 = next(r for r in doc["results"] if r["law"] == "F1")
    assert f1["checked"] == 0
    assert f1["diagnostic"] == "carrier too large: Fn[E(2)->A(2)] has 4 values, cap 2"


def test_reward_table_variant_runs(tmp_path):
    cfg = {"seed": 0, "budget": 1000,
           "sdps": [{"name": "d", "instance": "nondet", "measure": "max",
                     "horizon": 1, "states": 2, "controls": 1,
                     "next": [["[#0, #1]", "[#1]"]],
                     "reward": [[["0", "1/2"], ["1/3", "0"]]]}]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out.json"
    assert main(["--config", path, "--format", "json", "--out", str(out)]) == 0


def test_integral_rewards_are_ints_and_others_fractions():
    cfg = {"seed": 0, "budget": 1000,
           "sdps": [{"name": "d", "instance": "nondet", "measure": "max",
                     "horizon": 2, "states": 2, "controls": 1,
                     "next": [["[#0, #1]", "[#1]"]],
                     "reward": [[["0", "1/2"], ["4/2", 3]]]}]}
    sdp, echo = parse_config(cfg).sdps[0]
    y = Atom(0)
    cells = [sdp.reward(0, Atom(x), y, Atom(x1)) for x in range(2) for x1 in range(2)]
    assert cells == [0, Fraction(1, 2), 2, 3]
    assert [type(r) for r in cells] == [int, Fraction, int, int]
    assert echo["reward"] == [[["0", "1/2"], ["2", "3"]]]
    assert check_val_equiv(sdp, Quantifier(budget=1000)).passed
    cfg["sdps"][0].pop("reward")
    sdp, _ = parse_config(cfg).sdps[0]
    assert [sdp.reward(0, y, y, Atom(x1)) for x1 in range(2)] == [0, 1]
    assert type(sdp.reward(0, y, y, Atom(1))) is int


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


@pytest.mark.parametrize("horizon,states,controls,mode", [
    (400, 1, 1, "exhaustive"),
    (10_000, 2, 1, "exhaustive"),
    (10_000, 2, 2, "sampled"),
])
def test_deep_horizons_run_to_a_verdict(tmp_path, capsys, horizon, states, controls, mode):
    # backward induction builds one level at a time, so no horizon
    # nears the interpreter's recursion limit
    step = [f"#{(x + 1) % states}" for x in range(states)]
    cfg = {"seed": 0, "budget": 10,
           "sdps": [{"name": "deep", "instance": "identity", "measure": "point",
                     "horizon": horizon, "states": states, "controls": controls,
                     "next": [step] * controls}]}
    out = tmp_path / "out.json"
    assert main(["--config", write_config(tmp_path, cfg), "--format", "json",
                 "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    (row,) = json.loads(out.read_text())["deterministic"]["results"]
    assert row["pass"] and "diagnostic" not in row
    assert row["checked"] == (states if mode == "exhaustive" else 10)
    assert {q["mode"] for q in row["quantifiers"]} == {mode}


@pytest.mark.parametrize("depth", [500, 2000])
@pytest.mark.parametrize("kind", ["systems", "sdps"])
def test_deeply_nested_value_text_is_a_config_error(tmp_path, capsys, kind, depth):
    # parsing recurses once per level, and rendering the rejected value
    # twice; both pass the interpreter's limit here
    deep = "[" * depth + "#0" + "]" * depth
    entry = ({"name": "deep", "instance": "nondet", "size": 1, "step": [deep]}
             if kind == "systems" else
             {"name": "deep", "instance": "nondet", "measure": "max", "horizon": 1,
              "states": 1, "controls": 1, "next": [[deep]]})
    cfg = {"seed": 0, "budget": 10, kind: [entry]}
    assert main(["--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    field = "systems[0].step[0]" if kind == "systems" else "sdps[0].next[0][0]"
    assert f"{field}: value nests too deeply" in err
    assert "Traceback" not in err


def test_long_cyclic_flows_run_to_a_passing_report(tmp_path):
    # 1,200 steps of a 2-state cycle: every level is grown once, so the
    # flow checks take linear work (bind counts in test_systems.py)
    checks = ["flowLR", "flowMonRLem", "reprLemma", "flowTrjLemma"]
    cfg = {"seed": 0, "budget": 10,
           "systems": [{"name": "swap", "instance": "maybe", "size": 2,
                        "step": ["some #1", "some #0"], "checks": checks, "n_max": 1200}]}
    out = tmp_path / "out.json"
    assert main(["--config", write_config(tmp_path, cfg), "--format", "json",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["deterministic"]["results"]
    assert [(r["law"], r["pass"], r["checked"]) for r in rows] == [
        ("flowLR", True, 1201 * 2), ("flowMonRLem", True, 1201 * 2),
        ("reprLemma", True, 1201 * 3), ("flowTrjLemma", True, 1201 * 2)]


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


def test_carrier_cap_bounds_domain_widths(tmp_path):
    # 3,000,000 atoms: sizing A->B or listing A would not end in time
    cfg = {"seed": 0, "budget": 10, "carrier_cap": 1000,
           "suites": [{"name": "wide", "instance": "identity", "laws": ["T4"],
                       "sizes": {"A": 3_000_000}}]}
    out = tmp_path / "out.json"
    t0 = time.perf_counter()
    assert main(["--config", write_config(tmp_path, cfg), "--format", "json",
                 "--out", str(out)]) == 1
    assert time.perf_counter() - t0 < 5.0
    (row,) = json.loads(out.read_text())["deterministic"]["results"]
    assert not row["pass"] and row["checked"] == 0 and "witness" not in row
    assert row["diagnostic"] == "domain too large: A(3000000) has 3000000 atoms, cap 1000"


def test_identity_systems_run_the_deterministic_lemmas(tmp_path):
    cfg = {"seed": 0, "budget": 100_000,
           "systems": [{"name": "rot", "instance": "identity", "size": 3,
                        "step": ["#1", "#2", "#0"],
                        "checks": ["flowLR", "mapLastLemma"], "n_max": 3}]}
    out = tmp_path / "out.json"
    assert main(["--config", write_config(tmp_path, cfg), "--format", "json",
                 "--out", str(out)]) == 0
    results = json.loads(out.read_text())["deterministic"]["results"]
    assert [(r["law"], r["instance"], r["checked"]) for r in results] == [
        ("flowLR", "identity", 12), ("mapLastLemma", "identity", 117)]


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


def test_checks_run_in_order_on_the_calling_thread(tmp_path, monkeypatch, capsys):
    import finmon.cli as cli

    calls = []
    real = cli.run_system_check

    def recording(name, *args):
        calls.append((threading.get_ident(), name))
        return real(name, *args)

    monkeypatch.setattr(cli, "run_system_check", recording)
    cfg = {"seed": 0, "budget": 1000,
           "systems": [{"name": "a", "instance": "nondet", "size": 2,
                        "step": ["[#0, #1]", "[#1]"],
                        "checks": ["flowTrjLemma", "flowLR"], "n_max": 2},
                       {"name": "b", "instance": "maybe", "size": 2,
                        "step": ["some #1", "none"],
                        "checks": ["flowMonoid", "flowMonRLem", "flowLR"], "n_max": 2}]}
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--jobs", "8", "--out", str(tmp_path / "out.txt")]) == 0
    me = threading.get_ident()
    assert calls == [(me, "flowTrjLemma"), (me, "flowLR"),
                     (me, "flowMonoid"), (me, "flowMonRLem"), (me, "flowLR")]
    assert main(["--config", path, "--jobs", "0"]) == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err


def test_deep_flows_run_to_a_report(tmp_path):
    cfg = {"seed": 0, "budget": 1000,
           "systems": [{"name": "swap", "instance": "maybe", "size": 2,
                        "step": ["some #1", "some #0"],
                        "checks": ["flowLR", "flowMonRLem", "flowTrjLemma"],
                        "n_max": 400}]}
    out = tmp_path / "out.json"
    assert main(["--config", write_config(tmp_path, cfg), "--format", "json",
                 "--out", str(out)]) == 0
    results = json.loads(out.read_text())["deterministic"]["results"]
    assert [(r["law"], r["checked"]) for r in results] == [
        ("flowLR", 802), ("flowMonRLem", 802), ("flowTrjLemma", 802)]


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
    assert "total_ms" in doc["timing"]


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


# ---------------------------------------------------------------------------
# hostile JSON in any one leaf

_SMALL = {
    "seed": 0, "budget": 50,
    "suites": [{"name": "m", "instance": "maybe", "laws": ["F1", "T4"],
                "sizes": {"A": 2, "B": 1}, "max_len": 2}],
    "systems": [{"name": "s", "instance": "simpleprob", "size": 2,
                 "step": ["{#0: 1/2, #1: 1/2}", "{#1: 1}"], "checks": ["flowLR"],
                 "n_max": 1}],
    "sdps": [{"name": "d", "instance": "nondet", "measure": "max", "horizon": 1,
              "states": 2, "controls": 1, "next": [["[#0, #1]", "[#1]"]],
              "reward": [[["1/2", 1], [0, "2"]]]}],
}

# JSON has no infinity: json.dumps writes Infinity, and a cell 1e400 parses as it
_HOSTILE = (float("inf"), float("-inf"), float("nan"), True, [[1]], "1/0", -1)


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        return [leaf for k in keys for leaf in _leaf_paths(node[k], path + (k,))]
    return [path]


def _with_leaf(path, value):
    """A copy of _SMALL with the leaf at path replaced by value."""
    cfg = copy.deepcopy(_SMALL)
    *parents, last = path
    node = cfg
    for k in parents:
        node = node[k]
    node[last] = value
    return cfg


@pytest.mark.parametrize("path,value,where", [
    (("sdps", 0, "reward", 0, 0, 0), float("inf"), "sdps[0].reward"),
    (("systems", 0, "checks", 0), ["flowLR"], "systems[0].checks"),
    (("systems", 0, "step", 0), "{#0: 1/0}", "systems[0].step[0]"),
    (("sdps", 0, "next", 0, 1), "1/0", "sdps[0].next[0][1]"),
    (("systems", 0, "step", 0), "{#0: #1}", "systems[0].step[0]"),
    (("systems", 0, "step", 0), "{#0: none}", "systems[0].step[0]"),
    (("systems", 0, "step", 0), "{#0: [1/2]}", "systems[0].step[0]"),
    (("sdps", 0, "reward", 0, 0, 0), True, "sdps[0].reward"),
    # a reward string is the value grammar's p or p/q, so an exponent is
    # refused before Fraction could expand it; the rest loaded before too
    *[(("sdps", 0, "reward", 0, 0, 0), cell, "sdps[0].reward")
      for cell in ("1e400", "1e999999999", "0.5", " 1/2 ", "1_000", "1e3")],
], ids=["infinite-reward", "list-as-check", "zero-weight-denominator", "bare-1/0",
        "atom-weight", "none-weight", "sequence-weight", "bool-reward",
        "exponent-reward", "huge-exponent-reward", "decimal-reward", "spaced-reward",
        "underscored-reward", "small-exponent-reward"])
def test_hostile_leaves_are_config_errors_at_their_field(tmp_path, capsys, path, value, where):
    t0 = time.perf_counter()
    assert main(["--config", write_config(tmp_path, _with_leaf(path, value))]) == 2
    assert time.perf_counter() - t0 < 5
    assert f"configuration error: {where}: " in capsys.readouterr().err


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(_leaf_paths(_SMALL)), st.sampled_from(_HOSTILE))
@example(("sdps", 0, "reward", 0, 0, 0), float("inf"))
@example(("systems", 0, "checks", 0), [[1]])
@example(("systems", 0, "step", 0), "1/0")
def test_a_hostile_leaf_never_ends_in_a_traceback(path, value):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(_with_leaf(path, value)))
        code = main(["--config", str(config), "--out", str(Path(tmp) / "out.txt")])
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()



# ---------------------------------------------------------------------------
# one field table per entry kind

# a valid config that gives every field of every table
_EVERY_FIELD = {
    "seed": 0, "budget": 50, "carrier_cap": 1000,
    "suites": [{"name": "r", "instance": "reader", "laws": ["F1"], "view": "fat",
                "sizes": {"A": 2, "B": 2, "C": 2, "D": 2, "E": 2},
                "max_len": 2, "max_support": 2}],
    "systems": [{"name": "s", "instance": "maybe", "size": 2, "step": ["some #1", "none"],
                 "checks": ["flowLR"], "n_max": 1, "max_len": 2, "max_support": 2}],
    "sdps": [{"name": "d", "instance": "nondet", "measure": "max", "horizon": 1,
              "states": 2, "controls": 1, "next": [["[#0, #1]", "[#1]"]],
              "reward": "next-index", "max_len": 2, "max_support": 2}],
}
_TABLES = {  # the path of each entry in _EVERY_FIELD, with its table
    "config": ((), TOP),
    "suites[0]": (("suites", 0), SUITE),
    "suites[0].sizes": (("suites", 0, "sizes"), SIZES),
    "systems[0]": (("systems", 0), SYSTEM),
    "sdps[0]": (("sdps", 0), SDP),
}
# JSON values of every type: each row is given all those not of its type
_ANY_TYPE = (True, 1, 2.5, "x", [], {}, None)


def _entry(cfg, keys):
    for k in keys:
        cfg = cfg[k]
    return cfg


def _exits_2_at(tmp_path, capsys, cfg, path):
    assert main(["--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: ") and "Traceback" not in err


def test_the_every_field_config_gives_every_row_and_runs(tmp_path):
    for keys, table in _TABLES.values():
        assert list(_entry(_EVERY_FIELD, keys)) == list(table)
    assert main(["--config", write_config(tmp_path, _EVERY_FIELD)]) == 0


@pytest.mark.parametrize("where,key", [
    (where, key) for where, (_, table) in _TABLES.items() for key in table
])
def test_every_table_row_rejects_a_bad_field_at_its_path(tmp_path, capsys, where, key):
    keys, table = _TABLES[where]
    kind, _, allowed = table[key]

    def with_field(name, value):
        cfg = copy.deepcopy(_EVERY_FIELD)
        entry = _entry(cfg, keys)
        entry.pop(key)
        entry[name] = value
        return cfg

    # an unknown sibling: the row's key misspelt
    value = _entry(_EVERY_FIELD, keys)[key]
    _exits_2_at(tmp_path, capsys, with_field(key + "_", value), f"{where}.{key}_")
    wrong = [v for v in _ANY_TYPE if isinstance(v, bool) or not isinstance(v, kind)]
    assert True in wrong
    for value in wrong:
        _exits_2_at(tmp_path, capsys, with_field(key, value), f"{where}.{key}")
    if isinstance(allowed, range):
        outside = [allowed.start - 1, allowed.stop]
    elif isinstance(allowed, tuple):
        outside = [["nope"] if kind is list else "nope"]
    else:
        outside = []
    for value in outside:
        _exits_2_at(tmp_path, capsys, with_field(key, value), f"{where}.{key}")


def test_misspelt_keys_inside_entries_are_config_errors(tmp_path, capsys):
    """Misspelt keys inside a suite or system used to be ignored: the
    whole view and every system check ran, and the run exited 0."""
    cfg = {"seed": 0, "budget": 1000,
           "suites": [{"name": "m", "instance": "maybe", "lawz": ["F1"], "max_lne": 3}],
           "systems": [{"name": "s", "instance": "maybe", "size": 2,
                        "step": ["some #1", "none"], "checkz": ["flowLR"], "n_mx": 2}]}
    _exits_2_at(tmp_path, capsys, cfg, "suites[0].lawz")
    cfg["suites"] = []
    _exits_2_at(tmp_path, capsys, cfg, "systems[0].checkz")


@pytest.mark.parametrize("flag,value", [
    ("--seed", "-1"), ("--seed", str(2**64)), ("--budget", "0"),
])
def test_flag_overrides_are_checked_by_the_top_rows(tmp_path, capsys, flag, value):
    assert main(["--config", write_config(tmp_path, GOOD), flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {flag}: ")


def test_an_int_past_the_digit_limit_is_invalid_json(tmp_path):
    p = tmp_path / "huge.json"
    p.write_text('{"seed": ' + "9" * 5000 + ', "budget": 1}')
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


# ---------------------------------------------------------------------------
# counts past the int-to-str digit limit


@pytest.mark.parametrize("suite,line", [
    ({"instance": "nondet", "laws": ["F1"], "max_len": 14_500},
     "    diagnostic: carrier too large: Seq[A(2);maxLen=14500] has more than 2^14500 "
     "values, cap 1000000"),
    ({"instance": "nondet", "laws": ["F1"], "max_len": 10**6},
     "    diagnostic: carrier too large: Seq[A(2);maxLen=1000000] has more than "
     "2^1000000 values, cap 1000000"),
    ({"instance": "identity", "laws": ["F2"], "sizes": {"A": 20_000, "B": 2, "C": 2}},
     "    forall f in A->B(2) (size 2^20000, sampled, visiting 5)"),
    ({"instance": "nondet", "laws": ["T3"], "max_len": 3000},
     "    diagnostic: carrier too large: Seq[Seq[Seq[A(2);maxLen=3000];maxLen=3000];"
     "maxLen=3000] has more than 2^1048576 values, cap 1000000"),
    ({"instance": "nondet", "laws": ["T3"], "max_len": 14_500},
     "    diagnostic: carrier too large: Seq[Seq[Seq[A(2);maxLen=14500];maxLen=14500];"
     "maxLen=14500] has more than 2^1048576 values, cap 1000000"),
], ids=["max-len-14500", "max-len-10e6", "fn-space-2^20000", "nested-3000", "nested-14500"])
def test_huge_counts_run_to_a_report(tmp_path, capsys, suite, line):
    cfg = {"seed": 0, "budget": 5, "suites": [{"name": "h", **suite}]}
    t0 = time.perf_counter()
    assert main(["--config", write_config(tmp_path, cfg)]) in (0, 1)
    out = tmp_path / "out.json"
    assert main(["--config", write_config(tmp_path, cfg), "--format", "json",
                 "--out", str(out)]) in (0, 1)
    assert time.perf_counter() - t0 < 10
    assert line in capsys.readouterr().out.splitlines()
    assert json.loads(out.read_text())["deterministic"]["results"]
