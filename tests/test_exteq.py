"""Pointwise equality of tables and the level-indexed tower."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from finmon.exteq import check_comp_pres_ee, compose_tables, ext_eq, extify_eq
from finmon.values import (
    Atom,
    Base,
    FiniteType,
    FnTable,
    Quantifier,
    Seq,
    enumerate_functions,
    identity_table,
    table_to_value,
    tabulate,
)

A2 = FiniteType("A", 2)
B2 = FiniteType("B", 2)
C2 = FiniteType("C", 2)

ALL_TABLES_22 = list(enumerate_functions(A2, Base(A2)))


def test_identity_equals_itself():
    r = ext_eq(identity_table(A2), identity_table(A2))
    assert r.equal and r.witness is None and r.checked == 2


def test_identity_vs_swap_least_witness():
    swap = tabulate(A2, Base(A2), lambda a: Atom(1 - a.index))
    r = ext_eq(identity_table(A2), swap)
    assert not r.equal
    assert r.witness == (Atom(0), Atom(0), Atom(1))
    assert r.checked == 1  # stops at the first disagreement


def test_ext_eq_domain_mismatch_raises():
    with pytest.raises(ValueError):
        ext_eq(identity_table(A2), identity_table(FiniteType("A", 3)))


@given(st.sampled_from(ALL_TABLES_22), st.sampled_from(ALL_TABLES_22))
def test_ext_eq_is_symmetric_and_reflexive(f, g):
    assert ext_eq(f, f).equal
    assert ext_eq(f, g).equal == ext_eq(g, f).equal
    # tables are extensional by construction: pointwise equal means equal
    assert ext_eq(f, g).equal == (f == g)


def test_extify_level0_is_value_equality():
    r = extify_eq(0, Atom(0), Atom(0))
    assert r.equal and r.checked == 1
    r = extify_eq(0, Atom(0), Atom(1))
    assert not r.equal
    assert r.witness == (Seq(()), Atom(0), Atom(1))


def test_extify_level1_agrees_with_ext_eq_on_all_16_pairs():
    for f, g in itertools.product(ALL_TABLES_22, repeat=2):
        direct = ext_eq(f, g)
        lifted = extify_eq(1, table_to_value(f), table_to_value(g))
        assert direct.equal == lifted.equal
        if not direct.equal:
            x, a, b = direct.witness
            path, left, right = lifted.witness
            assert path == Seq((x,))
            assert (left, right) == (a, b)


def test_extify_level2_witness_path():
    # function-valued tables: slot 1 maps to functions differing at #0
    inner_a = table_to_value(identity_table(A2))
    inner_b = table_to_value(tabulate(A2, Base(A2), lambda a: Atom(1 - a.index)))
    from finmon.values import Vec

    f = Vec((inner_a, inner_a), 2)
    g = Vec((inner_a, inner_b), 2)
    r = extify_eq(2, f, g)
    assert not r.equal
    assert r.witness[0] == Seq((Atom(1), Atom(0)))
    assert r.witness[1:] == (Atom(0), Atom(1))
    assert extify_eq(2, f, f).equal


def test_extify_level_mismatch_raises():
    with pytest.raises(ValueError):
        extify_eq(1, Atom(0), Atom(0))
    with pytest.raises(ValueError):
        extify_eq(-1, Atom(0), Atom(0))


def test_compose_tables_oracle():
    swap = tabulate(A2, Base(B2), lambda a: Atom(1 - a.index))
    const0 = tabulate(B2, Base(C2), lambda a: Atom(0))
    comp = compose_tables(const0, swap)
    assert comp.entries == (Atom(0), Atom(0))
    assert comp.domain == A2 and comp.codomain == Base(C2)


def test_compose_tables_associative_all_64_triples():
    fs = list(enumerate_functions(A2, Base(B2)))
    gs = list(enumerate_functions(B2, Base(C2)))
    hs = list(enumerate_functions(C2, Base(A2)))
    count = 0
    for f, g, h in itertools.product(fs, gs, hs):
        count += 1
        assert compose_tables(h, compose_tables(g, f)) == compose_tables(
            compose_tables(h, g), f
        )
    assert count == 64


def test_compose_identity_both_sides():
    for f in ALL_TABLES_22:
        assert compose_tables(identity_table(A2), f) == f
        assert compose_tables(f, identity_table(A2)) == f


def test_compose_mismatch_raises():
    f = tabulate(A2, Base(FiniteType("B", 3)), lambda a: Atom(a.index))
    g = tabulate(B2, Base(C2), lambda a: a)
    with pytest.raises(ValueError):
        compose_tables(g, f)


def test_comp_pres_ee_passes_exhaustively():
    rep = check_comp_pres_ee(A2, B2, C2, Quantifier(budget=1000))
    assert rep.passed
    assert rep.checked == 16  # 4 tables each side, one class member apiece
    assert all(q.mode == "exhaustive" for q in rep.quantifiers)


def test_comp_pres_ee_catches_faulty_composer():
    def sabotaged(g: FnTable, f: FnTable) -> FnTable:
        good = compose_tables(g, f)
        flipped = tuple(reversed(good.entries))
        return FnTable(good.domain, good.codomain, flipped)

    rep = check_comp_pres_ee(A2, B2, C2, Quantifier(budget=1000), composer=sabotaged)
    assert not rep.passed
    assert rep.witness is not None
    assert set(rep.witness) == {"f", "g", "x", "lhs", "rhs"}


def test_comp_pres_ee_sampled_checks_at_most_budget():
    # 27 tables on each side: the scan draws 10 joint (f, g) bindings
    a3, b3, c3 = (FiniteType(r, 3) for r in "ABC")
    rep = check_comp_pres_ee(a3, b3, c3, Quantifier(budget=10))
    assert rep.passed and rep.checked == 10
    assert [q.mode for q in rep.quantifiers] == ["sampled", "sampled"]
