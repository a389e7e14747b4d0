"""Tests of the benchmark's expectations and of its tracer.

    python3 -m pytest perfbench/test_oracle.py

The fixtures are reports copied from real runs of the `laws-refute` and
`dynamics` workloads. The oracle must accept them as they are and reject
each kind of tampering a wrong program could produce.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402

FIXTURES = {
    name: (BENCH / "fixtures" / f"{name}.report.json", BENCH / "workloads" / f"{name}.json")
    for name in ("laws-refute", "dynamics")
}


def load(name):
    report_path, config_path = FIXTURES[name]
    return json.loads(report_path.read_text()), json.loads(config_path.read_text())


def rows(report):
    return report["deterministic"]["results"]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_real_report_is_accepted(name):
    report, config = load(name)
    attempted, problems = oracle.check_report(report, config)
    assert attempted == len(rows(report))
    assert problems == []


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_every_flipped_verdict_is_rejected(name):
    report, config = load(name)
    for i, row in enumerate(rows(report)):
        bad = copy.deepcopy(report)
        rows(bad)[i]["pass"] = not row["pass"]
        _, problems = oracle.check_report(bad, config)
        assert any(f"{row['group']} {row['law']}:" in p for p in problems), row


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("delta", [-1, 1])
def test_every_altered_checked_count_is_rejected(name, delta):
    report, config = load(name)
    for i, row in enumerate(rows(report)):
        bad = copy.deepcopy(report)
        rows(bad)[i]["checked"] = row["checked"] + delta
        _, problems = oracle.check_report(bad, config)
        assert any(f"{row['group']} {row['law']}:" in p for p in problems), row


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_witness_with_equal_sides_is_rejected(side):
    report, config = load("laws-refute")
    refuted = [i for i, row in enumerate(rows(report)) if row.get("witness")]
    assert len(refuted) == 16
    for i in refuted:
        bad = copy.deepcopy(report)
        witness = rows(bad)[i]["witness"]
        other = "rhs" if side == "lhs" else "lhs"
        witness[side] = witness[other]
        _, problems = oracle.check_report(bad, config)
        assert len(problems) == 1 and "sides" in problems[0], problems


def test_witness_binding_moved_is_rejected():
    report, config = load("laws-refute")
    bad = copy.deepcopy(report)
    row = next(r for r in rows(bad) if r["law"] == "W3" and r["instance"] == "mutant-a")
    row["witness"]["ma"] = "[#1, #0]"
    _, problems = oracle.check_report(bad, config)
    assert problems


def test_dropped_row_and_wrong_counts_are_rejected():
    report, config = load("dynamics")
    bad = copy.deepcopy(report)
    del rows(bad)[-1]
    _, problems = oracle.check_report(bad, config)
    assert any("missing" in p for p in problems)
    bad = copy.deepcopy(report)
    bad["deterministic"]["counts"]["failures"] = 1
    _, problems = oracle.check_report(bad, config)
    assert any("counts" in p for p in problems)


def test_closed_forms_match_the_catalogue_totals():
    full = json.loads((BENCH / "workloads" / "laws-full.json").read_text())
    assert sum(r["checked"] for r in oracle.expected_rows(full)) == 625_411
    refute = json.loads((BENCH / "workloads" / "laws-refute.json").read_text())
    assert sum(not r["pass"] for r in oracle.expected_rows(refute)) == 16


def test_carrier_ranks_cover_each_carrier_once():
    for kind, depth in (("list", 1), ("list", 2), ("prob", 1), ("prob", 2), ("maybe", 3)):
        carrier = oracle.Carrier(kind, depth, 2, 2, 2)
        values = list(_enumerate(carrier))
        assert len(values) == carrier.size()
        assert [carrier.rank(v) for v in values] == list(range(len(values)))


def _enumerate(c):
    """Enumeration in finmon's documented order, for the rank test."""
    if c.depth == 0:
        yield from (("#", i) for i in range(c.base))
        return
    inner = list(_enumerate(c.inner()))
    if c.kind == "maybe":
        yield ("none",)
        yield from (("some", v) for v in inner)
    elif c.kind == "list":
        for k in range(c.max_len + 1):
            yield from (("seq", t) for t in itertools.product(inner, repeat=k))
    else:
        for k in range(1, min(c.max_support, len(inner)) + 1):
            for support in itertools.combinations(inner, k):
                for wt in oracle.weight_tuples(k):
                    yield ("dist", tuple(zip(support, wt)))


TINY = {
    "seed": 0, "budget": 1000,
    "suites": [{"name": "m", "instance": "maybe"}],
    "systems": [{"name": "walk", "instance": "simpleprob", "size": 2,
                 "step": ["{#0: 1/2, #1: 1/2}", "{#1: 1}"], "n_max": 3,
                 "checks": ["flowLR", "flowTrjLemma"]}],
    "sdps": [{"name": "coin", "instance": "simpleprob", "measure": "expected",
              "horizon": 3, "states": 2, "controls": 1,
              "next": [["{#0: 1/2, #1: 1/2}", "{#1: 1}"]]}],
}


@pytest.mark.skipif(not (BENCH.parent / "src" / "finmon").is_dir(),
                    reason="needs the finmon sources next to the benchmark")
def test_two_traced_runs_give_identical_counts(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    docs = []
    for i in range(2):
        spans = tmp_path / f"spans{i}.json"
        subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(tmp_path / f"st{i}.json"),
             f"trace:{spans}", "--", "--config", str(config), "--jobs", "2",
             "--format", "json", "--out", str(tmp_path / f"r{i}.json")],
            env=env, check=True, timeout=120,
        )
        docs.append(json.loads(spans.read_text()))
    import run

    counts = [{k: m["value"] for k, m in run.layer_metrics(d).items() if m["unit"] == "count"}
              for d in docs]
    assert counts[0] == counts[1]
    assert all(counts[0][k] > 0 for k in (
        "laws.check_law_calls", "laws.evals", "instances.map_calls",
        "values.mk_dist_calls", "systems.flow_calls", "systems.trj_calls",
        "dp.val_calls", "dp.rews_calls", "dp.measure_calls"))
