"""Monad instances against hand-computed oracles."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from finmon.instances import (
    INSTANCE_NAMES,
    get_instance,
    identity_monad,
    maybe_monad,
    mutant_a_monad,
    mutant_b_monad,
    nondet_monad,
    reader_functor,
    simpleprob_monad,
)
from finmon.laws import reader_pres_ee2_report
from finmon.values import (
    Atom,
    Base,
    CarrierOverflow,
    Dist,
    DistOf,
    FiniteType,
    MaybeOf,
    Opt,
    Seq,
    SeqOf,
    Vec,
    enumerate_carrier,
    parse_value,
    render_value,
)

A2 = FiniteType("A", 2)
A3 = FiniteType("A", 3)


def test_identity_ops_are_trivial():
    m = identity_monad()
    assert m.pure(Atom(1)) == Atom(1)
    assert m.join(Atom(0)) == Atom(0)
    assert m.carrier_of(Base(A2)) == Base(A2)


def test_maybe_join_oracle():
    m = maybe_monad()
    assert m.join(Opt(Opt(Atom(1)))) == Opt(Atom(1))
    assert m.join(Opt(Opt(None))) == Opt(None)
    assert m.join(Opt(None)) == Opt(None)


def test_maybe_map_propagates_none():
    m = maybe_monad()
    bump = lambda v: Atom(v.index + 1)
    assert m.map(bump, Opt(None)) == Opt(None)
    assert m.map(bump, Opt(Atom(0))) == Opt(Atom(1))


def test_nondet_bind_oracle():
    m = nondet_monad()
    doubled = m.bind(parse_value("[#0, #1]"), lambda x: Seq((x, x)))
    assert render_value(doubled) == "[#0, #0, #1, #1]"


def test_nondet_join_preserves_order():
    m = nondet_monad()
    mmv = parse_value("[[#1], [#0, #2]]")
    assert render_value(m.join(mmv)) == "[#1, #0, #2]"


def test_nondet_length_guard():
    m = nondet_monad(max_len=2, length_cap=3)
    fat = parse_value("[#0, #1]")
    with pytest.raises(CarrierOverflow):
        m.bind(fat, lambda x: fat)


def test_simpleprob_join_total_probability():
    m = simpleprob_monad()
    mmv = parse_value("{{#0: 1}: 1/2, {#0: 1/2, #1: 1/2}: 1/2}")
    assert render_value(m.join(mmv)) == "{#0: 3/4, #1: 1/4}"


def test_simpleprob_pure_is_point_mass():
    m = simpleprob_monad()
    assert m.pure(Atom(1)) == Dist(((Atom(1), Fraction(1)),))


def test_simpleprob_map_merges_collisions():
    m = simpleprob_monad()
    const = lambda v: Atom(0)
    out = m.map(const, parse_value("{#0: 1/3, #1: 2/3}"))
    assert render_value(out) == "{#0: 1}"


PROB_VALUES = enumerate_carrier(DistOf(Base(A3), 2))


@given(st.sampled_from(PROB_VALUES))
def test_simpleprob_canonicalize_is_idempotent(v):
    m = simpleprob_monad()
    assert m.canonicalize(v) == v
    assert m.canonicalize(m.canonicalize(v)) == m.canonicalize(v)


@given(st.sampled_from(PROB_VALUES))
def test_simpleprob_bind_preserves_total_mass(v):
    m = simpleprob_monad()
    out = m.bind(v, lambda a: parse_value("{#0: 1/2, #1: 1/2}"))
    assert sum((w for _, w in out.entries), Fraction(0)) == 1


@pytest.mark.parametrize("name", ["identity", "maybe", "nondet", "simpleprob"])
def test_bind_pure_is_identity_on_whole_carrier(name):
    inst = get_instance(name)
    carrier = inst.carrier_of(Base(A2))
    for mv in enumerate_carrier(carrier):
        assert inst.bind(mv, inst.pure) == mv


def test_kleisli_is_join_map():
    m = nondet_monad()
    f = lambda a: Seq((a, Atom(1 - a.index)))
    g = lambda b: Seq((b,)) if b.index == 0 else Seq(())
    kl = m.kleisli(f, g)
    assert kl(Atom(0)) == m.join(m.map(g, f(Atom(0))))


def test_mutant_a_breaks_triangle_right_at_the_op_level():
    m = mutant_a_monad()
    ma = parse_value("[#0, #1]")
    assert render_value(m.join(m.map(m.pure, ma))) == "[#1, #0]"


def test_mutant_a_keeps_triangle_left():
    # the broken join reverses the outer sequence; pure wraps once, and
    # reversing a singleton changes nothing
    m = mutant_a_monad()
    for mv in enumerate_carrier(m.carrier_of(Base(A2))):
        assert m.join(m.pure(mv)) == mv


def test_mutant_b_keeps_duplicate_support():
    m = mutant_b_monad()
    out = m.map(lambda v: Atom(0), parse_value("{#0: 1/2, #1: 1/2}"))
    assert len(out.entries) == 2
    good = simpleprob_monad().map(lambda v: Atom(0), parse_value("{#0: 1/2, #1: 1/2}"))
    assert out != good


def test_mutant_instance_names():
    assert [mutant_a_monad().name, mutant_b_monad().name] == ["mutant-a", "mutant-b"]
    assert [get_instance(n).name for n in ("mutant-a", "mutant-b")] == ["mutant-a", "mutant-b"]


def test_reader_map_is_slotwise():
    env = FiniteType("E", 2)
    r = reader_functor(env)
    reader = Vec((Atom(0), Atom(1)), 2)
    out = r.map(lambda v: Atom(1 - v.index), reader)
    assert out == Vec((Atom(1), Atom(0)), 2)
    assert r.carrier_of(Base(A2)).domain == env


def test_reader_level2_report_is_exhaustive_and_green():
    env = FiniteType("E", 2)
    rep = reader_pres_ee2_report(env, A2, FiniteType("B", 2))
    assert rep.passed
    assert rep.law_id == "F3L2"
    assert rep.checked > 0
    assert all(q.mode == "exhaustive" for q in rep.quantifiers)


def test_registry_names_and_lookup():
    assert INSTANCE_NAMES == (
        "identity",
        "maybe",
        "nondet",
        "simpleprob",
        "mutant-a",
        "mutant-b",
    )
    for name in INSTANCE_NAMES:
        assert get_instance(name).name == name
    with pytest.raises(KeyError) as exc:
        get_instance("giry")
    assert "giry" in str(exc.value)


def test_get_instance_passes_bounds_through():
    m = get_instance("nondet", max_len=3)
    assert m.carrier_of(Base(A2)) == SeqOf(Base(A2), 3)
    p = get_instance("simpleprob", max_support=3)
    assert p.carrier_of(Base(A2)) == DistOf(Base(A2), 3)
    mb = get_instance("maybe")
    assert mb.carrier_of(Base(A2)) == MaybeOf(Base(A2))
