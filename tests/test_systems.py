"""Flows, trajectories and representation checks."""

from __future__ import annotations

import dataclasses

import pytest

from finmon.instances import get_instance
from finmon.systems import (
    MonSys,
    check_flow_lr,
    check_flow_mon_r_lem,
    check_flow_monoid,
    check_flow_trj,
    check_map_last_lemma,
    check_repr_lemma,
    flow,
    flow_mon_left,
    flow_mon_right,
    mon_sys,
    map_last,
    run_system_check,
    trj,
)
from finmon.values import (
    Atom,
    Base,
    FiniteType,
    FnTable,
    enumerate_functions,
    parse_value,
    render_value,
    tabulate,
)

X3 = FiniteType("X", 3)


def identity_table(d: FiniteType) -> FnTable:
    return tabulate(d, Base(d), lambda a: a)


def rot(a: Atom) -> Atom:
    return Atom((a.index + 1) % 3)


def rotate() -> MonSys:
    """A deterministic system is a monadic system over identity."""
    return mon_sys("rot", get_instance("identity"), X3, rot)


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
    f2 = flow(sys, 2)
    assert [v.index for v in f2.entries] == [2, 0, 1]
    assert flow(sys, 0) == identity_table(X3)
    assert flow_mon_right(sys, 2) == f2


def test_det_flow_lr_covers_all_162_comparisons():
    # flowLR on the identity system of each of the 27 endofunctions: each
    # of the 27 * 6 (f, n) table comparisons is 3 pointwise ones
    ident = get_instance("identity")
    reports = [check_flow_lr(MonSys("det", ident, X3, f), 5)
               for f in enumerate_functions(X3, Base(X3))]
    assert all(r.passed for r in reports)
    assert sum(r.checked for r in reports) == 27 * 6 * 3


def test_det_sys_validates_shape():
    with pytest.raises(ValueError):
        MonSys("bad", get_instance("identity"), X3, identity_table(FiniteType("Y", 2)))


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
    m = get_instance("nondet")
    sys = mon_sys("rot", m, X3, lambda a: m.pure(rot(a)))
    assert render_value(sys.step.entries[0]) == "[#1]"
    rep = check_flow_lr(sys, 4)
    assert rep.passed


def swap_sys() -> MonSys:
    mb = get_instance("maybe")
    outs = ["some #1", "some #0"]
    return mon_sys("swap", mb, FiniteType("X", 2), lambda a: parse_value(outs[a.index]))


def test_deep_flows_iterate_without_recursion():
    sys = swap_sys()
    left, right = flow_mon_left(sys, 2000), flow_mon_right(sys, 2000)
    assert left == right
    assert [render_value(v) for v in left.entries] == ["some #0", "some #1"]


def test_deep_trajectory_is_one_vector():
    out = trj(swap_sys(), 1000, Atom(0))
    vec = out.content
    assert len(vec.items) == 1001
    assert [a.index for a in vec.items[:4]] == [0, 1, 0, 1]


@pytest.mark.parametrize("mk", [branch_sys, walk_sys, drop_sys])
def test_a_level_grown_from_the_last_equals_one_built_from_pure(mk):
    sys = mk()
    for build in (flow, flow_mon_left, flow_mon_right):
        prev = build(sys, 0)
        for n in range(1, 6):
            prev = build(sys, n, prev)
            assert prev == build(sys, n)
    states = [Atom(i) for i in range(3)]
    prev = tuple(trj(sys, 0, y) for y in states)
    for n in range(1, 6):
        prev = tuple(trj(sys, n, y, prev) for y in states)
        assert prev == tuple(trj(sys, n, y) for y in states)


def test_flow_checks_grow_levels_through_the_public_names(monkeypatch):
    # the checks look flow, flow_mon_left, flow_mon_right and trj up by
    # name when they run, so a wrapper around them (as a tracer installs)
    # sees every level a check builds; each after level 0 is grown from
    # the one before
    import finmon.systems as systems

    calls = []

    def seen(name):
        real = getattr(systems, name)

        def wrapped(sys, n, *args):
            prev = args[-1] if len(args) == (2 if name == "trj" else 1) else None
            calls.append((name, n, prev is not None))
            return real(sys, n, *args)
        return wrapped

    for name in ("flow", "flow_mon_left", "flow_mon_right", "trj"):
        monkeypatch.setattr(systems, name, seen(name))
    left = {"flow", "flow_mon_left"}
    expected = {"flowLR": {"flow_mon_left", "flow_mon_right"}, "flowMonRLem": {"flow_mon_right"},
                "flowMonoid": left, "reprLemma": left, "flowTrjLemma": left | {"trj"}}
    for check, names in expected.items():
        calls.clear()
        assert run_system_check(check, branch_sys(), 4).passed
        assert {name for name, _, _ in calls} == names, check
        assert all(grown == (n > 0) for _, n, grown in calls), check
    assert sum(name == "trj" for name, _, _ in calls) == 5 * 3  # one per (n, x)


@pytest.mark.parametrize("check", [check_flow_lr, check_flow_mon_r_lem, check_repr_lemma,
                                   check_flow_trj])
@pytest.mark.parametrize("mk", [swap_sys, rotate], ids=["maybe", "identity"])
def test_flow_checks_make_linearly_many_binds(check, mk):
    # each level is grown once from the one before, so doubling n_max at
    # most doubles the binds; rebuilding every level from pure quadruples
    # them
    sys = mk()
    calls = [0]

    def counted(mv, fn):
        calls[0] += 1
        return sys.monad.bind(mv, fn)

    counting = MonSys(sys.name, dataclasses.replace(sys.monad, bind=counted), sys.domain,
                      sys.step)

    def binds(n_max):
        calls[0] = 0
        assert check(counting, n_max).passed
        return calls[0]

    assert 0 < binds(80) <= 2.1 * binds(40)


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


def test_repr_lemma_maybe_and_simpleprob():
    assert check_repr_lemma(drop_sys(), 4).passed
    rep = check_repr_lemma(walk_sys(), 4)
    assert rep.passed
    assert rep.checked == 5 * 18  # 5 step counts, full bounded carrier


def test_trj_oracles():
    sys = branch_sys()
    assert render_value(trj(sys, 0, Atom(0))) == "[<#0>]"
    assert render_value(trj(sys, 1, Atom(0))) == "[<#0, #0>, <#0, #1>]"
    assert len(trj(sys, 3, Atom(0)).items) == 8


def test_coin_trajectories_quarter_weights():
    sys = walk_sys()
    out = trj(sys, 2, Atom(0))
    assert render_value(out) == (
        "{<#0, #0, #0>: 1/4, <#0, #0, #1>: 1/4, "
        "<#0, #1, #1>: 1/4, <#0, #1, #2>: 1/4}"
    )
    for n in range(4):
        assert sum(w for _, w in trj(sys, n, Atom(0)).entries) == 1


def test_map_last_extracts_final_states():
    sys = branch_sys()
    assert render_value(map_last(sys, trj(sys, 2, Atom(0)))) == render_value(
        flow(sys, 2).entries[0]
    )


def test_last_lemma():
    # over identity, mapLastLemma is the plain lemma on vectors
    rep = check_map_last_lemma(rotate(), 3)
    assert rep.passed
    # 3 prepends, vectors of lengths 1..3: 3 * (3 + 9 + 27)
    assert rep.checked == 117
    assert [q.size for q in rep.quantifiers] == [3, 39]


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
