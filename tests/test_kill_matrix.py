"""The kill matrix: which laws refute which one-line mutant.

Eight mutants each break one operation of nondet or maybe in one line;
with mutant-a and mutant-b, each of the ten runs its whole fat view at
sizes 2, and the laws that refute it are pinned. Together they refute 20
of the 25 laws. F3, D4 and W4 compare a primed arrow that reads the same
table as the unprimed one, and KJ's and D5's two sides are the same term
up to an id node, so none of those five can refute any instance.

Seven mutants never look at which atom they hold, so their scans take
one binding per renaming orbit: their reports must equal the scans with
the reduction off, which evaluate more bindings. This is the test that
runs orbit scans on refutations, whose least witness must be the one
the full scan finds.
"""

from __future__ import annotations

import dataclasses

import pytest

from finmon.instances import get_instance
from finmon.laws import LAW_IDS, run_suite, suite_checks
from finmon.values import Atom, FiniteType, Opt, Quantifier, Seq

DOMS2 = {r: FiniteType(r, 2) for r in "ABCD"}
Q = Quantifier(budget=100_000)

nondet, maybe = get_instance("nondet"), get_instance("maybe")
replace = dataclasses.replace


def _map_none_at_1(f, mv):
    out = maybe.map(f, mv)
    return Opt(None) if out.content == Atom(1) else out


MUTANTS = {
    "nondet-map-reversed": replace(nondet, map=lambda f, mv: Seq(nondet.map(f, mv).items[::-1])),
    "nondet-pure-twice": replace(nondet, pure=lambda x: Seq((x, x))),
    "nondet-join-dedup": replace(
        nondet, join=lambda mmv: Seq(tuple(dict.fromkeys(nondet.join(mmv).items)))),
    "nondet-bind-reversed": replace(
        nondet, bind=lambda mv, f: Seq(nondet.bind(mv, f).items[::-1])),
    "nondet-map-head": replace(nondet, map=lambda f, mv: Seq(nondet.map(f, mv).items[:1])),
    # reads an atom, so renaming the atoms does not commute with it
    "maybe-map-none-at-1": replace(maybe, map=_map_none_at_1, parametric=False),
    "maybe-join-none": replace(maybe, join=lambda mmv: Opt(None)),
    "maybe-bind-none": replace(maybe, bind=lambda mv, f: Opt(None)),
    "mutant-a": get_instance("mutant-a"),
    "mutant-b": get_instance("mutant-b"),
}

REFUTED = {
    "nondet-map-reversed": "F1 F2 T2 T3 BJ D2 D3 E1 E3 L1 L2",
    "nondet-pure-twice": "T1 T2 D1 D2 W1 W2 W5 E1",
    "nondet-join-dedup": "T1 T2 T5 BJ D1 D2 E2 E3 L1 L2",
    "nondet-bind-reversed": "BJ W1 W2 W3 E1 E2 E3",
    "nondet-map-head": "F1 T2 T3 T5 BJ D2 E1 E3",
    "maybe-map-none-at-1": "F1 F2 T4 E1",
    "maybe-join-none": "T1 T2 BJ D1 D2 E2 E3",
    "maybe-bind-none": "BJ W1 W2 W5 E1 E2 E3",
    "mutant-a": "T2 T3 D2 D3 W2 W3 E1",
    "mutant-b": "F2 T3 T5 BJ D3 W3 E3 L1 L2",
}


def _run(inst):
    return run_suite(inst, suite_checks(inst), DOMS2, Q)


@pytest.fixture(scope="module")
def reports():
    return {name: _run(inst) for name, inst in MUTANTS.items()}


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutant_is_refuted_by_its_laws(reports, name):
    refuted = [r.law_id for r in reports[name] if not r.passed]
    assert refuted == REFUTED[name].split()
    # every refutation is a least witness, never a check that could not run
    for r in reports[name]:
        assert r.diagnostic is None and (r.witness is None) == r.passed


def test_the_matrix_refutes_20_of_the_25_laws(reports):
    refuted = {r.law_id for reps in reports.values() for r in reps if not r.passed}
    assert len(LAW_IDS) == 25 and len(refuted) == 20
    assert set(LAW_IDS) - refuted == {"F3", "KJ", "D4", "D5", "W4"}


@pytest.mark.parametrize("name", [n for n, inst in MUTANTS.items() if inst.parametric])
def test_orbit_scans_find_the_same_witnesses(reports, name):
    on = reports[name]
    off = _run(replace(MUTANTS[name], parametric=False))
    assert [r.to_deterministic_dict() for r in on] == [r.to_deterministic_dict() for r in off]
    assert sum(r.evaluated for r in on) < sum(r.evaluated for r in off)


def test_seven_mutants_are_renaming_invariant():
    assert sum(inst.parametric for inst in MUTANTS.values()) == 7
