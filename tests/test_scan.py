"""The scan engine that every quantified check runs through."""

from __future__ import annotations

import json
from pathlib import Path

from finmon.cli import main
from finmon.reports import LawReport, Var, scan
from finmon.systems import MonSys, check_map_last_lemma
from finmon.instances import get_instance
from finmon.values import Base, CarrierOverflow, FiniteType, parse_value, tabulate

GOLDEN = Path(__file__).resolve().parent / "golden"

# the bound variables of each system and DP check, outermost first
BOUND = {
    "flowLR": ["n", "x"],
    "flowMonRLem": ["n", "x"],
    "flowMonoid": ["(m, n)", "x"],
    "reprLemma": ["n", "mx"],
    "mapLastLemma": ["x", "mvx"],
    "flowTrjLemma": ["n", "x"],
    "valSpec": ["ps", "x"],
}


def test_every_row_reports_its_bound_variables():
    rows = []
    for name in ("config-systems", "config-dp"):
        rows += json.loads((GOLDEN / f"{name}.json").read_text())["results"]
    assert {r["law"] for r in rows} == set(BOUND)
    for row in rows:
        stats = row["quantifiers"]
        assert [s["var"] for s in stats] == BOUND[row["law"]], row["law"]
        # every variable exhaustive and every check passing: the scan
        # visited the whole product
        visited = 1
        for s in stats:
            assert s["mode"] == "exhaustive" and s["count"] == s["size"]
            visited *= s["count"]
        assert row["pass"] and row["checked"] == visited, row["law"]


def walk_sys():
    sp = get_instance("simpleprob")
    X3 = FiniteType("X", 3)
    outs = ["{#0: 1/2, #1: 1/2}", "{#1: 1/2, #2: 1/2}", "{#0: 1/2, #2: 1/2}"]
    return MonSys("walk", sp, X3, tabulate(X3, sp.carrier_of(Base(X3)),
                                           lambda a: parse_value(outs[a.index])))


def test_carrier_cap_stops_before_the_first_evaluation():
    rep = check_map_last_lemma(walk_sys(), 2, cap=100)
    assert not rep.passed
    assert rep.checked == 0 and rep.quantifiers == [] and rep.witness is None
    assert rep.diagnostic.startswith("carrier too large")


def test_carrier_cap_from_the_command_line(tmp_path):
    # vectors of length 6 over 3 states: 1,327,509 distributions, past the
    # default cap; the check reports before scanning the shorter carriers
    step = ["{#0: 1/2, #1: 1/2}", "{#1: 1/2, #2: 1/2}", "{#0: 1/2, #2: 1/2}"]
    cfg = {"seed": 0, "budget": 100_000,
           "systems": [{"name": "walk", "instance": "simpleprob", "size": 3,
                        "step": step, "checks": ["mapLastLemma"], "n_max": 6}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert main(["--config", str(path), "--format", "json", "--out", str(out)]) == 1
    row, = json.loads(out.read_text())["deterministic"]["results"]
    assert row["checked"] == 0 and row["quantifiers"] == []
    assert row["diagnostic"].startswith("carrier too large")


def _report() -> LawReport:
    return LawReport(law_id="t", instance="-")


def test_least_witness_with_extras_and_multi_name_render():
    variables = lambda: [
        Var("ab", "pairs", [(0, 0), (0, 1), (1, 1)], 3,
            render=lambda p: {"a": str(p[0]), "b": str(p[1])}),
        Var("x", "0..2", range(3), 3),
    ]
    rep = scan(_report(), variables,
               lambda p, x: (p[0] + x, p[1] + x, {"sum": p[0] + p[1] + x}))
    assert not rep.passed
    assert rep.checked == 4  # (0, 0) x3 agree, (0, 1) fails at x = 0
    assert list(rep.witness.items()) == [
        ("a", "0"), ("b", "1"), ("x", "0"), ("sum", "1"), ("lhs", "0"), ("rhs", "1"),
    ]
    assert [s.var for s in rep.quantifiers] == ["ab", "x"]


def test_skipped_bindings_are_not_counted():
    rep = scan(_report(), lambda: [Var("x", "0..5", range(6), 6)],
               lambda x: None if x % 2 else (x, x))
    assert rep.passed and rep.checked == 3


def test_budget_caps_only_sampled_scans():
    exhaustive = lambda: [Var("x", "0..9", range(10), 10)]
    sampled = lambda: [Var("x", "0..99", range(10), 100, "sampled")]
    agree = lambda x: (x, x)
    assert scan(_report(), exhaustive, agree, budget=4).checked == 10
    assert scan(_report(), sampled, agree, budget=4).checked == 4


def test_outer_variable_streams_its_setup():
    built = []

    def outer():
        for n in range(5):
            built.append(n)
            yield n

    rep = scan(_report(),
               lambda: [Var("n", "0..4", outer(), 5, count=5), Var("x", "X", (0, 1), 2)],
               lambda n, x: (n, 2 - x))
    assert rep.quantifiers[0].count == 5
    assert rep.witness == {"n": "0", "x": "0", "lhs": "0", "rhs": "2"}
    assert built == [0]  # nothing past the failing binding was built


def test_overflow_is_a_diagnostic_and_counts_its_evaluation():
    def sides(x):
        if x == 2:
            raise CarrierOverflow("too long")
        return x, x

    rep = scan(_report(), lambda: [Var("x", "0..4", range(5), 5)], sides)
    assert not rep.passed and rep.witness is None
    assert rep.checked == 3 and rep.diagnostic == "too long"
