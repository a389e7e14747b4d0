"""End-to-end acceptance: ten numbered criteria, one verdict line each.

Every comparison is exact. Values are canonical structures over exact
rationals, so there is no tolerance anywhere; a criterion either holds
or it fails with a witness. Run with `pytest tests/test_acceptance.py -v -s`
to see the verdict lines as they print.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from finmon.cli import TIMING_MARKER, main
from finmon.dp import Sdp, check_measure_shift, check_val_equiv, get_measure
from finmon.exteq import __doc__ as exteq_doc
from finmon.instances import get_instance
from finmon.laws import LAW_IDS, SuiteProfile, reader_pres_ee2_report, run_suite
from finmon.systems import (
    DetSys,
    check_det_flow_lr,
    check_flow_lr,
    check_flow_monoid,
    check_flow_trj,
    check_repr_lemma,
    embed,
    mon_sys,
    trajectory_count,
    trajectory_weight,
)
from finmon.values import Atom, FiniteType, Quantifier, parse_value, tabulate

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

X3 = FiniteType("X", 3)
LAWFUL = ("identity", "maybe", "nondet", "simpleprob")


def verdict(num: int, label: str, ok: bool, note: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: criterion {num} {label}"
    if note:
        line += f" ({note})"
    print(line)
    assert ok, line


def branch_sys():
    step = [parse_value(f"[#{i}, #{(i + 1) % 3}]") for i in range(3)]
    return mon_sys("branch", get_instance("nondet"), X3, lambda a: step[a.index])


def walk_sys():
    step = [parse_value("{#0: 1/2, #1: 1/2}"),
            parse_value("{#1: 1/2, #2: 1/2}"),
            parse_value("{#2: 1}")]
    return mon_sys("walk", get_instance("simpleprob"), X3, lambda a: step[a.index])


def drop_sys():
    step = [parse_value("some #1"), parse_value("some #2"), parse_value("none")]
    return mon_sys("drop", get_instance("maybe"), X3, lambda a: step[a.index])


def rotate_embeddings():
    from finmon.values import Base

    table = tabulate(X3, Base(X3), lambda a: Atom((a.index + 1) % 3))
    det = DetSys("rotate", X3, table)
    return [embed(det, get_instance("identity")), embed(det, get_instance("maybe"))]


def greedy_walk(h: int) -> Sdp:
    nxt = {(0, 0): "[#0]", (0, 1): "[#0, #1]",
           (1, 0): "[#1]", (1, 1): "[#1, #2]",
           (2, 0): "[#2]", (2, 1): "[#2]"}
    return Sdp(name="greedy-walk", horizon=h, states=X3,
               controls=FiniteType("Y", 2),
               monad=get_instance("nondet"), measure=get_measure("max"),
               next=lambda t, x, y: parse_value(nxt[(x.index, y.index)]),
               reward=lambda t, x, y, x1: Fraction(x1.index))


def coin_walk(h: int) -> Sdp:
    nxt = {0: "{#0: 1/2, #1: 1/2}", 1: "{#1: 1}"}
    return Sdp(name="coin-walk", horizon=h, states=FiniteType("X", 2),
               controls=FiniteType("Y", 1),
               monad=get_instance("simpleprob"), measure=get_measure("expected"),
               next=lambda t, x, y: parse_value(nxt[x.index]),
               reward=lambda t, x, y, x1: Fraction(x1.index))


def test_criterion_01_law_suite_soundness():
    t0 = time.perf_counter()
    all_reports = {}
    for name in LAWFUL:
        profile = SuiteProfile(name=f"acc-{name}", instance=name, view="fat")
        all_reports[name] = run_suite(get_instance(name), profile)
    elapsed = time.perf_counter() - t0
    ok = True
    for name, reports in all_reports.items():
        ids = tuple(r.law_id for r in reports)
        ok = ok and ids == LAW_IDS and len(reports) == 25
        ok = ok and all(r.passed for r in reports)
    ok = ok and elapsed < 60.0
    verdict(1, "all 25 laws hold on the 4 lawful instances",
            ok, f"{elapsed:.1f}s single-threaded")


def test_criterion_02_mutation_sensitivity(tmp_path):
    out = tmp_path / "mutants.json"
    code = main(["--suite", "mutants", "--format", "json", "--out", str(out)])
    doc = json.loads(out.read_text())
    results = doc["deterministic"]["results"]
    t2 = [r for r in results if r["instance"] == "mutant-a" and r["law"] == "T2"]
    a_ok = (len(t2) == 1 and not t2[0]["pass"]
            and t2[0]["witness"]["ma"] == "[#0, #1]")
    b_fail = [r for r in results
              if r["instance"] == "mutant-b" and not r["pass"]]
    b_ok = bool(b_fail) and all("witness" in r for r in b_fail)
    verdict(2, "both mutants refuted with witnesses, CLI exits 1",
            a_ok and b_ok and code == 1,
            f"mutant-b fails {len(b_fail)} laws")


def test_criterion_03_det_flow_equality():
    t0 = time.perf_counter()
    rep = check_det_flow_lr(X3, 5, Quantifier(seed=0, budget=100_000))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and rep.checked == 162 and elapsed < 1.0
    verdict(3, "left and right deterministic flows agree",
            ok, f"162 table comparisons in {elapsed * 1000:.0f}ms")


def test_criterion_04_monadic_flow_equality():
    systems = [branch_sys(), walk_sys()] + rotate_embeddings()
    reports = [check_flow_lr(s, 4) for s in systems]
    ok = all(r.passed for r in reports)
    verdict(4, "flow agrees with its right-handed twin up to n=4",
            ok, f"{sum(r.checked for r in reports)} pointwise comparisons")


def test_criterion_05_monoid_morphism():
    systems = [branch_sys(), walk_sys()] + rotate_embeddings()
    reports = [check_flow_monoid(s, 4) for s in systems]
    ok = all(r.passed for r in reports)
    verdict(5, "flow is a monoid morphism from (N, +, 0)",
            ok, f"all splits m+n<=4 on {len(systems)} systems")


def test_criterion_06_representation_theorem():
    reports = [check_repr_lemma(drop_sys(), 4), check_repr_lemma(walk_sys(), 4)]
    ok = all(r.passed for r in reports)
    ok = ok and all(q.mode == "exhaustive"
                    for r in reports for q in r.quantifiers)
    verdict(6, "repr turns monadic flows into deterministic ones",
            ok, "full bounded carrier, n<=4, maybe and simpleprob")


def test_criterion_07_flow_trajectory_theorem():
    branch, walk = branch_sys(), walk_sys()
    reports = [check_flow_trj(branch, 3), check_flow_trj(walk, 3)]
    ok = all(r.passed for r in reports)
    ok = ok and trajectory_count(branch, 3, Atom(0)) == 8
    weights_ok = all(
        trajectory_weight(walk, n, Atom(i)) == Fraction(1)
        for n in range(4) for i in range(3)
    )
    verdict(7, "flow equals map last of the trajectory bundle",
            ok and weights_ok, "8 paths at n=3; probability mass exactly 1")


def test_criterion_08_dp_equivalence():
    q = Quantifier(seed=0, budget=100_000)
    good = [check_val_equiv(greedy_walk(4), q), check_val_equiv(coin_walk(4), q)]
    ok = all(r.passed for r in good)
    gate = check_measure_shift(get_instance("maybe"), get_measure("default-zero"))
    rejected = (not gate.passed
                and gate.witness["mv"] == "none" and gate.witness["c"] == "1")
    verdict(8, "val matches its one-shot specification; bad measure refused",
            ok and rejected,
            f"{sum(r.checked for r in good)} value comparisons at horizon 4")


def test_criterion_09_reader_boundary():
    rep = reader_pres_ee2_report(
        FiniteType("E", 2), FiniteType("A", 2), FiniteType("B", 2)
    )
    ok = rep.passed and all(q.mode == "exhaustive" for q in rep.quantifiers)
    ok = ok and "level-1" in rep.detail and "level-2" in rep.detail
    phrase = "extensional by construction"
    documented = (phrase in " ".join((exteq_doc or "").split())
                  and phrase in " ".join(README.read_text().split()))
    verdict(9, "reader map preserves pointwise equality at both levels",
            ok and documented, "collapse of = with pointwise equality documented")


def test_criterion_10_determinism(tmp_path):
    cfg = {"seed": 42, "budget": 100_000,
           "suites": [{"name": "m", "instance": "maybe"}],
           "systems": [{"name": "b", "instance": "nondet", "size": 3,
                        "step": ["[#0, #1]", "[#1, #2]", "[#2, #0]"],
                        "checks": ["flowLR", "flowTrjLemma"], "n_max": 3}],
           "sdps": [{"name": "coin", "instance": "simpleprob",
                     "measure": "expected", "horizon": 2, "states": 2,
                     "controls": 1, "next": [["{#0: 1/2, #1: 1/2}", "{#1: 1}"]]}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    json_bytes, text_heads = [], []
    for i, jobs in enumerate(("1", "8", "1")):
        out_j = tmp_path / f"r{i}.json"
        out_t = tmp_path / f"r{i}.txt"
        assert main(["--config", str(path), "--jobs", jobs,
                     "--format", "json", "--out", str(out_j)]) == 0
        assert main(["--config", str(path), "--jobs", jobs,
                     "--format", "text", "--out", str(out_t)]) == 0
        doc = json.loads(out_j.read_text())
        json_bytes.append(
            json.dumps(doc["deterministic"], sort_keys=True, indent=2).encode()
        )
        text_heads.append(out_t.read_text().split(TIMING_MARKER)[0].encode())
    ok = (json_bytes[0] == json_bytes[1] == json_bytes[2]
          and text_heads[0] == text_heads[1] == text_heads[2])
    verdict(10, "byte-identical deterministic reports across runs and --jobs",
            ok, f"{len(json_bytes[0])} bytes compared")
