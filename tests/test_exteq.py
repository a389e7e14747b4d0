"""Pointwise equality of tables and the level-indexed tower."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from finmon.exteq import extify_eq
from finmon.instances import get_instance
from finmon.laws import check_law, law_by_id
from finmon.values import (
    Atom,
    Base,
    FiniteType,
    FnTable,
    Quantifier,
    Seq,
    Vec,
    enumerate_functions,
    table_to_value,
    tabulate,
)

A2 = FiniteType("A", 2)
B2 = FiniteType("B", 2)
C2 = FiniteType("C", 2)


def identity_table(d: FiniteType) -> FnTable:
    return tabulate(d, Base(d), lambda a: a)


ALL_TABLES_22 = list(enumerate_functions(A2, Base(A2)))


def pointwise(f, g):
    """Level-1 equality of two tables."""
    return extify_eq(1, table_to_value(f), table_to_value(g))


def test_identity_equals_itself():
    r = pointwise(identity_table(A2), identity_table(A2))
    assert r.equal and r.witness is None and r.checked == 2


def test_identity_vs_swap_least_witness():
    swap = tabulate(A2, Base(A2), lambda a: Atom(1 - a.index))
    r = pointwise(identity_table(A2), swap)
    assert not r.equal
    assert r.witness == (Seq((Atom(0),)), Atom(0), Atom(1))
    assert r.checked == 1  # stops at the first disagreement


def test_ext_eq_domain_mismatch_raises():
    with pytest.raises(ValueError):
        pointwise(identity_table(A2), identity_table(FiniteType("A", 3)))


@given(st.sampled_from(ALL_TABLES_22), st.sampled_from(ALL_TABLES_22))
def test_ext_eq_is_symmetric_and_reflexive(f, g):
    assert pointwise(f, f).equal
    assert pointwise(f, g).equal == pointwise(g, f).equal
    # tables are extensional by construction: pointwise equal means equal
    assert pointwise(f, g).equal == (f == g)


def test_extify_level0_is_value_equality():
    r = extify_eq(0, Atom(0), Atom(0))
    assert r.equal and r.checked == 1
    r = extify_eq(0, Atom(0), Atom(1))
    assert not r.equal
    assert r.witness == (Seq(()), Atom(0), Atom(1))


def test_extify_level1_agrees_with_ext_eq_on_all_16_pairs():
    for f, g in itertools.product(ALL_TABLES_22, repeat=2):
        # the reference: the least differing index and its two entries
        diff = [i for i in range(A2.size) if f.entries[i] != g.entries[i]]
        lifted = extify_eq(1, table_to_value(f), table_to_value(g))
        assert lifted.equal == (not diff)
        if diff:
            i = diff[0]
            assert lifted.witness == (Seq((Atom(i),)), f.entries[i], g.entries[i])


def test_extify_level2_witness_path():
    # function-valued tables: slot 1 maps to functions differing at #0
    inner_a = table_to_value(identity_table(A2))
    inner_b = table_to_value(tabulate(A2, Base(A2), lambda a: Atom(1 - a.index)))
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


# Composition preserves pointwise equality (f ≐ f', g ≐ g' -> g∘f ≐ g'∘f')
# is law D4 on the identity monad, whose Kleisli composition is function
# composition.


def test_comp_pres_ee_passes_exhaustively():
    rep = check_law(law_by_id("D4"), get_instance("identity"),
                    {"A": A2, "B": B2, "C": C2}, Quantifier(budget=1000))
    assert rep.passed
    assert rep.checked == 32  # 4 tables each side, 2 points of A
    assert all(q.mode == "exhaustive" for q in rep.quantifiers)


def test_comp_pres_ee_sampled_checks_at_most_budget():
    # 27 tables on each side: the scan draws 10 joint (f, g, a) bindings
    a3, b3, c3 = (FiniteType(r, 3) for r in "ABC")
    rep = check_law(law_by_id("D4"), get_instance("identity"),
                    {"A": a3, "B": b3, "C": c3}, Quantifier(budget=10))
    assert rep.passed and rep.checked == 10
    assert [q.mode for q in rep.quantifiers] == ["sampled"] * 3
