"""The scan engine that every quantified check runs through."""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import pytest

from finmon.cli import main
from finmon.laws import check_law, law_by_id, reader_pres_ee2_report
from finmon.reports import LawReport, Var, scan
from finmon.systems import MonSys, check_map_last_lemma
from finmon.instances import get_instance, reader_functor
from finmon.values import (
    CarrierOverflow,
    FiniteType,
    Quantifier,
    parse_value,
    refuse_count,
)

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
    return MonSys("walk", sp, X3, tuple(map(parse_value, outs)))


def test_carrier_cap_stops_before_the_first_evaluation():
    rep = check_map_last_lemma(walk_sys(), 2, cap=100)
    assert not rep.passed
    assert rep.checked == 0 and rep.quantifiers == [] and rep.witness is None
    assert rep.diagnostic.startswith("carrier too large")


def test_map_last_lemma_refuses_its_carrier_under_the_quantifier_s_space():
    # distributions of vectors of length 1 (18) and 2 (189) over X(3), named
    # as the mvx quantifier's space is
    rep = check_map_last_lemma(walk_sys(), 2, cap=100)
    assert rep.diagnostic == "carrier too large: M Vec[X;len=1..2] has 207 values, cap 100"


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


def test_a_report_passes_iff_it_holds_neither_witness_nor_diagnostic():
    assert LawReport("t", "-").passed
    assert not LawReport("t", "-", diagnostic="x").passed
    assert not LawReport("t", "-", witness={"lhs": "0", "rhs": "1"}).passed


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


def test_budget_caps_only_sampled_scans():
    agree = lambda x, y: (x, x)
    fits = lambda: [Var("x", "0..3", range(4), 4), Var("y", "0..3", range(4), 4)]
    # every space fits the budget: the whole product, past the budget
    rep = scan(_report(), fits, agree, Quantifier(budget=4))
    assert rep.checked == 16
    assert all(s.mode == "exhaustive" and s.count == 4 for s in rep.quantifiers)
    # without a quantifier a scan is exhaustive whatever its sizes
    big = lambda: [Var("x", "0..99", range(100), 100), Var("y", "0..3", range(4), 4)]
    assert scan(_report(), big, agree).checked == 400


def test_sampled_scan_draws_budget_joint_bindings():
    seen = []
    variables = lambda: [Var("x", "0..99", range(100), 100), Var("y", "0..2", range(3), 3)]
    rep = scan(_report(), variables, lambda x, y: seen.append((x, y)) or (x, x),
               Quantifier(budget=30, seed=5))
    assert rep.passed and rep.checked == 30 == len(seen)
    # y fits the budget but is drawn too, so both variables vary
    for stat, column in zip(rep.quantifiers, zip(*seen)):
        assert stat.mode == "sampled"
        assert stat.count == len(set(column)) > 1


def test_sampled_draws_extend_with_the_budget():
    def drawn(budget):
        seen = []
        scan(_report(),
             lambda: [Var("x", "0..999", range(1000), 1000), Var("y", "0..49", range(50), 50)],
             lambda x, y: seen.append((x, y)) or (0, 0), Quantifier(budget=budget, seed=9))
        return seen

    first = drawn(10)
    assert len(first) == 10
    assert drawn(11)[:10] == first == drawn(40)[:10]


def test_empty_space_makes_a_sampled_scan_vacuous():
    variables = lambda: [Var("f", "huge", range(10**6), 10**6), Var("a", "A", (), 0)]
    rep = scan(_report(), variables, lambda f, a: (f, a), Quantifier(budget=5))
    assert rep.passed and rep.checked == 0
    assert [q.count for q in rep.quantifiers] == [0, 0]


def test_outer_variable_streams_its_setup():
    built = []

    def outer():
        for n in range(5):
            built.append(n)
            yield n

    rep = scan(_report(),
               lambda: [Var("n", "0..4", outer(), 5), Var("x", "X", (0, 1), 2)],
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


def test_unbounded_recursion_is_a_diagnostic_at_its_binding():
    # a side that recurses past the interpreter's limit stops the scan
    # at that binding with a diagnostic, never a traceback
    def depth(n):
        return depth(n + 1)

    def sides(x):
        return (depth(0) if x == 1 else x), x

    rep = scan(_report(), lambda: [Var("x", "0..4", range(5), 5)], sides)
    assert not rep.passed and rep.witness is None and rep.checked == 2
    assert rep.diagnostic.startswith("recursion too deep: ")
    assert f"limit of {sys.getrecursionlimit()} frames" in rep.diagnostic


# ---------------------------------------------------------------------------
# the cyclic collector pauses while a scan runs


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_a_scan_pauses_the_collector_and_restores_the_caller_s_state(collecting):
    seen = []
    (gc.enable if collecting else gc.disable)()
    try:
        rep = scan(_report(), lambda: [Var("x", "0..2", range(3), 3)],
                   lambda x: seen.append(gc.isenabled()) or (x, x))
        assert rep.passed and seen == [False] * 3
        assert gc.isenabled() is collecting
    finally:
        gc.enable()


def test_a_refused_carrier_restores_the_collector():
    def variables():
        refuse_count("carrier", "X(2)", 2, 1)

    assert gc.isenabled()
    rep = scan(_report(), variables, lambda x: (x, x))
    assert rep.diagnostic == "carrier too large: X(2) has 2 values, cap 1"
    assert gc.isenabled()


BRANCH = MonSys("branch", get_instance("nondet"), FiniteType("X", 3),
                tuple(map(parse_value, ["[#0, #1]", "[#1, #2]", "[#2, #0]"])))
DOMS2 = {r: FiniteType(r, 2) for r in "ABCDE"}
Q = Quantifier(budget=100_000)

# the checks that left objects to the collector: every law's compiled
# sides, and the walk's survivor lists wherever a group reduces the scan
CYCLIC_BEFORE = {
    "law-F1": lambda: check_law(law_by_id("F1"), get_instance("nondet"), DOMS2, Q),
    "reader-F3L2": lambda: reader_pres_ee2_report(reader_functor(DOMS2["E"]), DOMS2, Q),
    "nondet-D3": lambda: check_law(law_by_id("D3"), get_instance("nondet"), DOMS2, Q),
    "branch-mapLastLemma": lambda: check_map_last_lemma(BRANCH, 4),
}


@pytest.mark.parametrize("check", CYCLIC_BEFORE.values(), ids=CYCLIC_BEFORE)
def test_a_warm_check_leaves_no_cyclic_garbage(check):
    assert check().passed  # the carrier caches fill
    gc.collect()
    gc.disable()
    try:
        check()
        assert gc.collect() == 0
    finally:
        gc.enable()
