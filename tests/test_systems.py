"""Flows, trajectories and representation checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from finmon.instances import get_instance
from finmon.systems import (
    DetSys,
    MonSys,
    check_det_flow_lr,
    check_flow_lr,
    check_flow_mon_r_lem,
    check_flow_monoid,
    check_flow_trj,
    check_last_lemma,
    check_map_last_lemma,
    check_repr_lemma,
    embed,
    flow,
    flow_det_left,
    flow_det_right,
    flow_mon_left,
    flow_mon_right,
    mon_sys,
    map_last,
    repr_table,
    run_system_check,
    trajectory_count,
    trajectory_weight,
    trj,
)
from finmon.values import (
    Atom,
    Base,
    FiniteType,
    Quantifier,
    enumerate_carrier,
    identity_table,
    parse_value,
    render_value,
    tabulate,
)

X3 = FiniteType("X", 3)


def rotate() -> DetSys:
    step = tabulate(X3, Base(X3), lambda a: Atom((a.index + 1) % 3))
    return DetSys("rot", X3, step)


def branch_sys() -> MonSys:
    nd = get_instance("nondet")
    return mon_sys(
        "branch", nd, X3,
        lambda a: parse_value(f"[#{a.index}, #{(a.index + 1) % 3}]"),
    )


def walk_sys() -> MonSys:
    sp = get_instance("simpleprob")
    return mon_sys(
        "walk", sp, X3,
        lambda a: parse_value(f"{{#{a.index}: 1/2, #{(a.index + 1) % 3}: 1/2}}"),
    )


def drop_sys() -> MonSys:
    mb = get_instance("maybe")
    outs = ["some #1", "some #2", "none"]
    return mon_sys("drop", mb, X3, lambda a: parse_value(outs[a.index]))


def test_det_flow_oracle():
    sys = rotate()
    f2 = flow_det_left(sys.step, 2)
    assert [v.index for v in f2.entries] == [2, 0, 1]
    assert flow_det_left(sys.step, 0) == identity_table(X3)
    assert flow_det_right(sys.step, 2) == f2


def test_det_flow_lr_covers_all_162_comparisons():
    rep = check_det_flow_lr(X3, 5, Quantifier(budget=1000))
    assert rep.passed
    assert rep.checked == 27 * 6


def test_det_flow_lr_sampled_checks_at_most_budget():
    # 27 endofunctions exceed the budget: 10 joint (f, n) draws, not 10 * 6
    rep = check_det_flow_lr(X3, 5, Quantifier(budget=10))
    assert rep.passed and rep.checked == 10
    assert [q.mode for q in rep.quantifiers] == ["sampled", "sampled"]


def test_det_sys_validates_shape():
    with pytest.raises(ValueError):
        DetSys("bad", X3, identity_table(FiniteType("Y", 2)))


def test_mon_sys_validates_codomain():
    nd = get_instance("nondet")
    with pytest.raises(ValueError):
        MonSys("bad", nd, X3, identity_table(X3))


def test_nondet_flow_oracle():
    sys = branch_sys()
    f2 = flow(sys, 2)
    assert render_value(f2.entries[0]) == "[#0, #1, #1, #2]"


def test_flow_zero_is_pure():
    sys = branch_sys()
    f0 = flow(sys, 0)
    assert [render_value(v) for v in f0.entries] == ["[#0]", "[#1]", "[#2]"]


def test_left_and_right_flows_differ_only_intensionally():
    sys = branch_sys()
    for n in range(4):
        left, right = flow_mon_left(sys, n), flow_mon_right(sys, n)
        assert left.entries == right.entries


def test_embed_wraps_pure():
    sys = embed(rotate(), get_instance("nondet"))
    assert render_value(sys.step.entries[0]) == "[#1]"
    rep = check_flow_lr(sys, 4)
    assert rep.passed


@pytest.mark.parametrize("mk", [branch_sys, walk_sys, drop_sys], ids=["nondet", "simpleprob", "maybe"])
def test_flow_checks_green(mk):
    sys = mk()
    assert check_flow_lr(sys, 4).passed
    assert check_flow_mon_r_lem(sys, 3).passed
    assert check_flow_monoid(sys, 4).passed


def test_flow_monoid_checked_count():
    # unit scan (3) plus every split of every total 0..3: (1+2+3+4)*3
    rep = check_flow_monoid(branch_sys(), 3)
    assert rep.checked == 3 + 30


def test_mutant_a_breaks_the_flow_monoid():
    sys = branch_sys()
    broken = MonSys("b", get_instance("mutant-a"), X3, sys.step)
    rep = check_flow_monoid(broken, 3)
    assert not rep.passed
    assert rep.witness is not None


def test_repr_table_shape_and_escape():
    sys = walk_sys()
    table = repr_table(sys)
    carrier = sys.monad.carrier_of(Base(X3))
    vals = enumerate_carrier(carrier)
    assert table.domain.size == len(vals)
    # binding a half/half mixture through a half/half step yields
    # quarter weights, which lie outside the enumerated weight grid
    mixed = vals.index(parse_value("{#0: 1/2, #1: 1/2}"))
    out = table.entries[mixed]
    assert Fraction(1, 4) in [w for _, w in out.entries]
    assert out not in vals


def test_repr_lemma_maybe_and_simpleprob():
    assert check_repr_lemma(drop_sys(), 4).passed
    rep = check_repr_lemma(walk_sys(), 4)
    assert rep.passed
    assert rep.checked == 5 * 18  # 5 step counts, full bounded carrier


def test_trj_oracles():
    sys = branch_sys()
    assert render_value(trj(sys, 0, Atom(0))) == "[<#0>]"
    assert render_value(trj(sys, 1, Atom(0))) == "[<#0, #0>, <#0, #1>]"
    assert trajectory_count(sys, 3, Atom(0)) == 8


def test_coin_trajectories_quarter_weights():
    sys = walk_sys()
    out = trj(sys, 2, Atom(0))
    assert render_value(out) == (
        "{<#0, #0, #0>: 1/4, <#0, #0, #1>: 1/4, "
        "<#0, #1, #1>: 1/4, <#0, #1, #2>: 1/4}"
    )
    for n in range(4):
        assert trajectory_weight(sys, n, Atom(0)) == 1


def test_map_last_extracts_final_states():
    sys = branch_sys()
    assert render_value(map_last(sys, trj(sys, 2, Atom(0)))) == render_value(
        flow(sys, 2).entries[0]
    )


def test_last_lemma():
    rep = check_last_lemma(X3, 3)
    assert rep.passed
    # 3 prepends, vectors of lengths 1..3: 3 * (3 + 9 + 27)
    assert rep.checked == 117


def test_map_last_lemma_all_instances():
    for mk in (branch_sys, walk_sys, drop_sys):
        rep = check_map_last_lemma(mk(), 2)
        assert rep.passed, rep.witness


def test_flow_trj_lemma():
    for mk in (branch_sys, walk_sys, drop_sys):
        rep = check_flow_trj(mk(), 3)
        assert rep.passed, rep.witness
        assert rep.checked == 12


def test_run_system_check_unknown_name():
    with pytest.raises(KeyError):
        run_system_check("flowQuux", branch_sys(), 2)


def test_check_reports_carry_system_name():
    rep = check_flow_lr(branch_sys(), 2)
    assert rep.detail == "system=branch"
    assert rep.instance == "nondet"
    assert rep.sizes == {"X": 3}
