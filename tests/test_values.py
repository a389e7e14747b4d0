"""Value universe, carrier enumeration and rendering."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from finmon.instances import mutant_b_monad, nondet_monad, simpleprob_monad
from finmon.values import (
    Atom,
    Base,
    CarrierTooLarge,
    Dist,
    DistOf,
    FiniteType,
    FnOf,
    FnTable,
    MaybeOf,
    Opt,
    Quantifier,
    Rat,
    Seq,
    SeqOf,
    Vec,
    VecOf,
    WEIGHT_GRID,
    canonical_compare,
    carrier_size,
    check_member,
    enumerate_carrier,
    enumerate_domain,
    enumerate_functions,
    function_space_size,
    identity_table,
    mk_dist,
    parse_value,
    render_carrier,
    render_table,
    render_value,
    sub_seed,
    table_fn,
    table_to_value,
    tabulate,
    value_to_table,
    weight_tuples,
)

A2 = FiniteType("A", 2)
A3 = FiniteType("A", 3)


def brute_weight_tuples(k):
    """Independent oracle: filter the full grid product by exact sum."""
    return [
        t
        for t in itertools.product(WEIGHT_GRID, repeat=k)
        if sum(t, Fraction(0)) == 1
    ]


@pytest.mark.parametrize("k", range(0, 7))
def test_weight_tuples_against_brute_force(k):
    expected = brute_weight_tuples(k) if k >= 1 else []
    assert list(weight_tuples(k)) == expected


def test_weight_tuple_counts():
    assert [len(weight_tuples(k)) for k in range(1, 6)] == [1, 5, 4, 1, 0]


def test_dist_carrier_count_matches_combinatorial_oracle():
    # sum over support sizes k of C(n, k) * |grid tuples of length k|
    from math import comb

    for n, cap in [(2, 2), (3, 2), (3, 3), (2, 4)]:
        desc = DistOf(Base(FiniteType("A", n)), cap)
        expected = sum(
            comb(n, k) * len(weight_tuples(k)) for k in range(1, cap + 1)
        )
        vals = enumerate_carrier(desc)
        assert len(vals) == expected == carrier_size(desc)


def test_closed_form_carrier_sizes():
    assert carrier_size(DistOf(Base(A2), 2)) == 7
    assert carrier_size(SeqOf(Base(A2), 2)) == 7
    assert function_space_size(A2, SeqOf(Base(A2), 2)) == 49


def test_seq_enumeration_order_frozen():
    vals = enumerate_carrier(SeqOf(Base(A2), 2))
    assert [render_value(v) for v in vals] == [
        "[]",
        "[#0]",
        "[#1]",
        "[#0, #0]",
        "[#0, #1]",
        "[#1, #0]",
        "[#1, #1]",
    ]


def test_dist_enumeration_order_frozen():
    vals = enumerate_carrier(DistOf(Base(A2), 2))
    assert [render_value(v) for v in vals] == [
        "{#0: 1}",
        "{#1: 1}",
        "{#0: 1/2, #1: 1/2}",
        "{#0: 1/3, #1: 2/3}",
        "{#0: 2/3, #1: 1/3}",
        "{#0: 1/4, #1: 3/4}",
        "{#0: 3/4, #1: 1/4}",
    ]


def test_maybe_enumeration_none_first():
    vals = enumerate_carrier(MaybeOf(Base(A2)))
    assert vals[0] == Opt(None)
    assert list(vals[1:]) == [Opt(Atom(0)), Opt(Atom(1))]


def test_vec_enumeration_last_slot_fastest():
    vals = enumerate_carrier(VecOf(Base(A2), 2))
    assert [render_value(v) for v in vals] == [
        "<#0, #0>",
        "<#0, #1>",
        "<#1, #0>",
        "<#1, #1>",
    ]


def test_fn_carrier_enumerates_as_vectors():
    vals = enumerate_carrier(FnOf(A2, Base(A2)))
    assert all(isinstance(v, Vec) for v in vals)
    assert len(vals) == 4


ORDERED_CARRIERS = [
    Base(A3),
    MaybeOf(Base(A2)),
    SeqOf(Base(A2), 2),
    VecOf(Base(A2), 2),
    MaybeOf(SeqOf(Base(A2), 2)),
    SeqOf(MaybeOf(Base(A2)), 2),
    FnOf(A2, MaybeOf(Base(A2))),
]

SOME_CARRIERS = ORDERED_CARRIERS + [
    DistOf(Base(A2), 2),
    DistOf(Base(A3), 2),
]


@pytest.mark.parametrize("desc", ORDERED_CARRIERS, ids=render_carrier)
def test_dist_free_enumeration_is_strictly_increasing(desc):
    vals = enumerate_carrier(desc)
    assert len(vals) == carrier_size(desc)
    for a, b in zip(vals, vals[1:]):
        assert canonical_compare(a, b) == -1


@pytest.mark.parametrize("desc", SOME_CARRIERS, ids=render_carrier)
def test_enumeration_has_no_duplicates(desc):
    vals = enumerate_carrier(desc)
    assert len(vals) == carrier_size(desc)
    assert len(set(vals)) == len(vals)


def test_dist_enumeration_groups_by_support():
    # dist order is support size, then support combination, then grid
    # tuple order; within one support the weight tuples vary while the
    # support stays put
    vals = enumerate_carrier(DistOf(Base(A3), 2))
    supports = [tuple(v2 for v2, _ in v.entries) for v in vals]
    sizes = [len(s) for s in supports]
    assert sizes == sorted(sizes)
    singletons = [s for s in supports if len(s) == 1]
    assert singletons == [(Atom(0),), (Atom(1),), (Atom(2),)]
    # each pair support appears once per admissible weight tuple, contiguously
    pairs = [s for s in supports if len(s) == 2]
    in_combination_order = sorted(set(pairs), key=lambda s: (s[0].index, s[1].index))
    assert pairs == [p for p in in_combination_order for _ in range(5)]


@pytest.mark.parametrize("desc", SOME_CARRIERS, ids=render_carrier)
def test_render_parse_round_trip_exhaustive(desc):
    for v in enumerate_carrier(desc):
        assert parse_value(render_value(v)) == v


def test_parse_rejects_garbage():
    for text in ["", "#", "[#0", "{#0: 0/1}", "{#0: 1/2}", "some", "<#0,>"]:
        with pytest.raises(ValueError):
            parse_value(text)


def test_parse_canonicalizes_dist_entry_order():
    assert parse_value("{#1: 1/2, #0: 1/2}") == parse_value("{#0: 1/2, #1: 1/2}")


def test_parse_rat():
    assert parse_value("3/4") == Rat(Fraction(3, 4))
    assert parse_value("2") == Rat(Fraction(2))
    assert render_value(Rat(Fraction(-1, 3))) == "-1/3"


def test_canonical_compare_cross_type_raises():
    with pytest.raises(ValueError):
        canonical_compare(Atom(0), Seq(()))


@given(st.data())
def test_canonical_compare_is_a_total_order_sample(data):
    vals = enumerate_carrier(DistOf(MaybeOf(Base(A2)), 2))
    a = data.draw(st.sampled_from(vals))
    b = data.draw(st.sampled_from(vals))
    c = data.draw(st.sampled_from(vals))
    assert canonical_compare(a, b) == -canonical_compare(b, a)
    assert (canonical_compare(a, b) == 0) == (a == b)
    if canonical_compare(a, b) <= 0 and canonical_compare(b, c) <= 0:
        assert canonical_compare(a, c) <= 0


def test_mk_dist_merges_and_sorts():
    d = mk_dist([(Atom(1), Fraction(1, 2)), (Atom(0), Fraction(1, 4)), (Atom(1), Fraction(1, 4))])
    assert d == Dist(((Atom(0), Fraction(1, 4)), (Atom(1), Fraction(3, 4))))


def test_mk_dist_merge_off_keeps_duplicates():
    d = mk_dist(
        [(Atom(0), Fraction(1, 2)), (Atom(0), Fraction(1, 2))], merge=False
    )
    assert len(d.entries) == 2


def test_mk_dist_validates_weights():
    with pytest.raises(ValueError):
        mk_dist([(Atom(0), Fraction(1, 2))])
    with pytest.raises(ValueError):
        mk_dist([(Atom(0), Fraction(0)), (Atom(1), Fraction(1))])
    with pytest.raises(ValueError):
        mk_dist([(Atom(0), Fraction(3, 2)), (Atom(1), Fraction(-1, 2))])


def test_mk_dist_converts_weights_that_are_not_fractions():
    d = mk_dist([(Atom(1), "1/2"), (Atom(0), 0.25), (Atom(0), Fraction(1, 4))])
    assert d == Dist(((Atom(0), Fraction(1, 2)), (Atom(1), Fraction(1, 2))))
    assert mk_dist([(Atom(0), 1)]).entries == ((Atom(0), Fraction(1)),)
    assert all(type(w) is Fraction for d in (d, mk_dist([(Atom(0), 1)]))
               for _, w in d.entries)


@pytest.mark.parametrize("weight", [Fraction, str], ids=["fraction", "text"])
@pytest.mark.parametrize("weights,why", [
    (("0", "1"), "positive"),
    (("3/2", "-1/2"), "positive"),
    (("1/2", "1/3"), "sum to 1"),
    (("1/2", "1/2", "1/4"), "sum to 1"),
], ids=["zero", "negative", "short", "over"])
def test_mk_dist_still_validates_every_weight(weights, why, weight):
    pairs = [(Atom(i), weight(w)) for i, w in enumerate(weights)]
    for merge in (True, False):
        with pytest.raises(ValueError, match=why):
            mk_dist(pairs, merge=merge)


def test_unmerged_join_keeps_duplicates():
    # mutant-b's join: both halves land on #0, and merge=False keeps both
    half = Fraction(1, 2)
    point = Dist(((Atom(0), Fraction(1)),))
    mmv = Dist(((point, half), (Dist(((Atom(0), half), (Atom(1), half))), half)))
    merged, unmerged = simpleprob_monad().join(mmv), mutant_b_monad().join(mmv)
    assert merged.entries == ((Atom(0), Fraction(3, 4)), (Atom(1), Fraction(1, 4)))
    assert unmerged.entries == ((Atom(0), half), (Atom(0), Fraction(1, 4)),
                                (Atom(1), Fraction(1, 4)))
    assert merged != unmerged


def test_dist_weights_sum_to_one_exactly():
    for v in enumerate_carrier(DistOf(Base(A3), 3)):
        assert sum((w for _, w in v.entries), Fraction(0)) == 1


def test_vec_length_validated():
    with pytest.raises(ValueError):
        Vec((Atom(0),), 2)


def test_carrier_too_large():
    huge = SeqOf(Base(FiniteType("A", 4)), 10)
    assert carrier_size(huge) > 1_000_000
    with pytest.raises(CarrierTooLarge):
        enumerate_carrier(huge)
    # a raised cap admits the same description
    assert len(enumerate_carrier(huge, cap=2_000_000)) == carrier_size(huge)


def test_enumerate_functions_exhaustive_order():
    tables = list(enumerate_functions(A2, Base(A2), Quantifier(budget=100)))
    assert [tuple(v.index for v in t.entries) for t in tables] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_enumerate_functions_counts_49():
    q = Quantifier(budget=1000)
    tables = list(enumerate_functions(A2, SeqOf(Base(A2), 2), q))
    assert len(tables) == 49
    assert len(set(tables)) == 49


def test_enumerate_functions_sampling_reproducible():
    cod = SeqOf(Base(A3), 3)
    dom = FiniteType("A", 3)
    assert function_space_size(dom, cod) > 50
    one = list(enumerate_functions(dom, cod, Quantifier(budget=50, seed=7)))
    two = list(enumerate_functions(dom, cod, Quantifier(budget=50, seed=7)))
    other = list(enumerate_functions(dom, cod, Quantifier(budget=50, seed=8)))
    assert one == two
    assert len(one) == 50
    assert one != other


def test_empty_domain_has_one_table():
    empty = FiniteType("A", 0)
    tables = list(enumerate_functions(empty, Base(A2), Quantifier(budget=10)))
    assert len(tables) == 1
    assert tables[0].entries == ()


def test_table_round_trips_through_vec():
    t = tabulate(A2, Base(A3), lambda a: Atom((a.index + 1) % 3))
    v = table_to_value(t)
    assert isinstance(v, Vec)
    assert value_to_table(A2, Base(A3), v) == t
    assert render_table(t) == "<#1, #2>"


def test_table_fn_applies():
    t = identity_table(A3)
    f = table_fn(t)
    assert f(Atom(2)) == Atom(2)


def test_sub_seed_is_deterministic_and_64_bit():
    assert sub_seed(0, 0) == sub_seed(0, 0)
    assert sub_seed(0, 0) != sub_seed(0, 1)
    assert sub_seed(1, 0) != sub_seed(2, 0)
    for i in range(20):
        assert 0 <= sub_seed(12345, i) < 2**64


def test_domain_enumeration():
    assert enumerate_domain(A3) == (Atom(0), Atom(1), Atom(2))


# ---------------------------------------------------------------------------
# carrier membership


@pytest.mark.parametrize("desc", [
    Base(A3), MaybeOf(Base(A2)), SeqOf(Base(A2), 2), DistOf(Base(A3), 2),
    VecOf(Base(A2), 2), FnOf(A2, MaybeOf(Base(A2))), SeqOf(DistOf(Base(A2), 2), 1),
], ids=render_carrier)
def test_enumerated_values_are_members(desc):
    for v in enumerate_carrier(desc):
        check_member(v, desc)


@pytest.mark.parametrize("text,desc", [
    ("#3", Base(A3)),
    ("[#0, #2]", SeqOf(Base(A2), 2)),
    ("some #0", Base(A2)),
    ("[#1]", DistOf(Base(A2), 2)),
    ("{#0: 1/2, #4: 1/2}", DistOf(Base(A3), 2)),
    ("<#0>", VecOf(Base(A2), 2)),
    ("1/2", MaybeOf(Base(A2))),
    ("some [#0]", MaybeOf(Base(A2))),
], ids=lambda x: x if isinstance(x, str) else render_carrier(x))
def test_shape_or_atom_outside_the_carrier_is_rejected(text, desc):
    with pytest.raises(ValueError, match="is not a value of"):
        check_member(parse_value(text), desc)


def test_membership_ignores_length_and_support_bounds():
    # flows and binds leave the bounded carrier by design
    check_member(parse_value("[#0, #1, #1, #0]"), SeqOf(Base(A2), 1))
    check_member(parse_value("{#0: 1/3, #1: 1/3, #2: 1/3}"), DistOf(Base(A3), 1))
    check_member(parse_value("{#0: 1/8, #1: 7/8}"), DistOf(Base(A2), 2))


# ---------------------------------------------------------------------------
# cached value identity

PROB = simpleprob_monad()
LIST = nondet_monad()
IDENTITY_CARRIERS = [
    SeqOf(Base(A2), 2),
    DistOf(Base(A3), 2),
    PROB.carrier_of(PROB.carrier_of(Base(A2))),  # simpleprob M M A
    FnOf(A2, DistOf(Base(A2), 2)),
]


def compared_fields(v) -> tuple:
    """What the dataclass-generated hash hashed: the compared fields."""
    return tuple(getattr(v, f.name) for f in dataclasses.fields(v) if f.compare)


def rebuild(v):
    """A structurally equal value built from scratch, sharing no object
    with v except atoms and carrier descriptors."""
    t = type(v)
    if t is Atom:
        return Atom(v.index)
    if t is Opt:
        return Opt(None if v.content is None else rebuild(v.content))
    if t is Seq:
        return Seq(tuple(rebuild(x) for x in v.items))
    if t is Dist:
        return Dist(tuple((rebuild(x), Fraction(w.numerator, w.denominator))
                          for x, w in v.entries))
    if t is Vec:
        return Vec(tuple(rebuild(x) for x in v.items), v.length)
    if t is FnTable:
        return FnTable(v.domain, v.codomain, tuple(rebuild(x) for x in v.entries))
    raise TypeError(t)


def identity_values():
    """Every value of the carriers above, as values and as tables, plus
    what join and bind return on them."""
    out = []
    for desc in IDENTITY_CARRIERS:
        out.extend(enumerate_carrier(desc))
    out.extend(enumerate_functions(A2, DistOf(Base(A2), 2), Quantifier(budget=100)))
    out.extend(PROB.join(mmv) for mmv in enumerate_carrier(IDENTITY_CARRIERS[2]))
    kernel = table_fn(tabulate(A2, DistOf(Base(A2), 2),
                               lambda a: mk_dist([(a, "1/3"), (Atom(1), "2/3")])))
    out.extend(PROB.bind(mv, kernel) for mv in enumerate_carrier(DistOf(Base(A2), 2)))
    nested = enumerate_carrier(SeqOf(SeqOf(Base(A2), 2), 2))
    out.extend(LIST.join(mmv) for mmv in nested)
    out.extend(LIST.bind(mv, lambda a: Seq((a, a)))
               for mv in enumerate_carrier(SeqOf(Base(A2), 2)))
    out.extend(enumerate_carrier(MaybeOf(SeqOf(Base(A2), 1))))
    return out


VALUES = identity_values()


def test_identity_values_cover_every_cached_type():
    assert {type(v) for v in VALUES} == {Opt, Seq, Dist, Vec, FnTable}


def test_hash_is_the_hash_of_the_compared_fields():
    for v in VALUES:
        fresh = rebuild(v)
        want = hash(compared_fields(fresh))
        assert hash(fresh) == want  # fills the slot
        assert hash(fresh) == want  # reads it
        assert "_hash" not in [f.name for f in dataclasses.fields(v) if f.compare]


def test_equal_values_built_apart_agree_whichever_is_hashed_first():
    for v in VALUES:
        a, b = rebuild(v), rebuild(v)
        hash(a)  # only a's slot is filled
        assert a == b and b == a
        assert hash(b) == hash(a)
        c, d = rebuild(v), rebuild(v)
        assert c == d  # neither slot is filled
        assert len({c, d, a}) == 1
        assert {c: 1}[d] == 1


def test_repr_eq_and_replace_ignore_the_slot():
    for v in VALUES:
        fresh = rebuild(v)
        before = repr(fresh)
        hash(fresh)
        assert repr(fresh) == before and "_hash" not in before
        assert fresh == rebuild(v)
        replaced = dataclasses.replace(fresh)
        assert replaced == fresh and repr(replaced) == before
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(fresh, _hash=0)


def test_replaced_and_copied_values_rehash():
    for v in VALUES:
        hash(v)
        for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v)),
                     dataclasses.replace(v)):
            assert twin == v and hash(twin) == hash(v)
            assert hash(twin) == hash(compared_fields(twin))
    for v in VALUES:
        if type(v) is Seq and len(v.items) == 2 and v.items[0] != v.items[1]:
            swapped = dataclasses.replace(v, items=v.items[::-1])
            assert swapped != v
            assert hash(swapped) == hash(compared_fields(swapped))
    table = identity_table(A2)
    hash(table)
    other = dataclasses.replace(table, entries=(Atom(1), Atom(0)))
    assert other != table and hash(other) == hash(compared_fields(other))
