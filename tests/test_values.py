"""Value universe, carrier enumeration and rendering."""

from __future__ import annotations

import copy
import dataclasses
import gc
import itertools
import math
import pickle
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finmon import values
from finmon.instances import mutant_b_monad, nondet_monad, simpleprob_monad
from finmon.laws import check_law, law_by_id
from finmon.reports import LawReport, Var, scan
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
    Product,
    Quantifier,
    Seq,
    SeqOf,
    Vec,
    WEIGHT_GRID,
    canonical_key,
    carrier_size,
    check_member,
    dist_of_terms,
    enumerate_carrier,
    enumerate_domain,
    enumerate_functions,
    mk_dist,
    parse_value,
    render_carrier,
    render_value,
    shown_count,
    sub_seed,
    table_fn,
    weight_tuples,
)

from dist_helpers import dist_of_entries

A2 = FiniteType("A", 2)
A3 = FiniteType("A", 3)
T2 = FiniteType("T", 2)


def identity_table(d: FiniteType) -> FnTable:
    return FnTable(enumerate_domain(d))


def brute_weight_tuples(k):
    """Independent oracle: filter the full grid product by exact sum,
    then write each tuple as its numerators over the lcm denominator."""
    out = []
    for t in itertools.product(WEIGHT_GRID, repeat=k):
        if sum(t, Fraction(0)) == 1:
            den = math.lcm(*[w.denominator for w in t])
            out.append((tuple(int(w * den) for w in t), den))
    return out


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
    assert carrier_size(FnOf(A2, SeqOf(Base(A2), 2))) == 49


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_seq_carrier_size_is_the_geometric_sum(n):
    for max_len in range(6):
        desc = SeqOf(Base(FiniteType("A", n)), max_len)
        assert carrier_size(desc) == sum(n ** k for k in range(max_len + 1))


def test_huge_counts_are_shown_without_converting_them_to_text():
    assert carrier_size(SeqOf(Base(A2), 10**6)) == 2 ** (10**6 + 1) - 1
    assert shown_count(0) == 0 and shown_count(2**128 - 1) == 2**128 - 1
    assert shown_count(2**128) == "2^128"
    assert shown_count(2**20000) == "2^20000"
    assert shown_count(2 ** (10**6 + 1) - 1) == "more than 2^1000000"


@pytest.mark.parametrize("bits", [4, 8, 16, 64])
def test_a_bounded_count_is_exact_or_a_lower_bound_past_the_bound(bits):
    for desc in (SeqOf(SeqOf(Base(A2), 3), 5), FnOf(A3, SeqOf(Base(A2), 6)),
                 DistOf(SeqOf(Base(A3), 12), 3), MaybeOf(SeqOf(MaybeOf(Base(A2)), 20)),
                 SeqOf(SeqOf(Base(A2), 20), 1), DistOf(DistOf(SeqOf(Base(A2), 9), 2), 2)):
        exact, bounded = carrier_size(desc), carrier_size(desc, bits)
        assert bounded == exact or exact > bounded > 1 << bits


def test_nested_counts_are_bounded_before_any_huge_pow():
    # the exact count of Seq[Seq[A(2)]] at max_len 14,500 has about 2 * 10^8 bits
    nested = SeqOf(SeqOf(Base(A2), 14_500), 14_500)
    t0 = time.perf_counter()
    assert carrier_size(nested, 1 << 20) == (1 << (1 << 20)) + 1
    with pytest.raises(CarrierTooLarge, match=r"has more than 2\^1048576 values, cap 1000000"):
        enumerate_carrier(nested)
    # a huge max_support stops at the longest grid tuple, of 4 weights
    assert carrier_size(DistOf(nested, 10**18), 1 << 20) == (1 << (1 << 20)) + 1
    assert time.perf_counter() - t0 < 5
    # below the bound a count is exact, so cheap refusals keep their text
    for desc in (SeqOf(Base(A2), 10**6), FnOf(A3, SeqOf(Base(A2), 40))):
        assert carrier_size(desc, 1 << 20) == carrier_size(desc)


def test_a_support_bound_past_the_grid_enumerates_no_longer_supports():
    # no grid tuple is longer than 4, so the 5- to 30-subsets of A(30),
    # about 10^9 of them, are never visited
    a30 = DistOf(Base(FiniteType("A", 30)), 10**6)
    t0 = time.perf_counter()
    assert enumerate_carrier(a30) == enumerate_carrier(DistOf(a30.inner, 4))
    assert time.perf_counter() - t0 < 5


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
    vals = enumerate_carrier(FnOf(T2, Base(A2)))
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


# vectors of length 2 over A(2) are functions of time T(2) -> A(2)
VEC2 = pytest.param(FnOf(T2, Base(A2)), id="Vec[A(2);len=2]")

ORDERED_CARRIERS = [
    Base(A3),
    MaybeOf(Base(A2)),
    SeqOf(Base(A2), 2),
    VEC2,
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
        assert canonical_key(a) < canonical_key(b)


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
    # a weight is read as a rational token, never as a value: a value there
    # would reach mk_dist, whose Fraction(w) raises TypeError, not ValueError
    for text, message in {
        "": "unexpected end of value text",
        "#": "cannot tokenize value text at: '#'",
        "[#0": "unexpected end of value text",
        "{#0: 0/1}": "distribution weight must be positive, got 0",
        "{#0: 1/2}": "distribution weights must sum to 1, got 1/2",
        "some": "unexpected end of value text",
        "<#0,>": "unexpected token '>'",
        "{#0: #1}": "Invalid literal for Fraction: '#1'",
        "{#0: none}": "Invalid literal for Fraction: 'none'",
        "{#0: [1/2]}": "Invalid literal for Fraction: '['",
        "{#0: }": "Invalid literal for Fraction: '}'",
        "{#0:": "unexpected end of value text",
        "[#0 #1]": "expected ']', got '#1'",
        "{#0 1}": "expected ':', got '1'",
        "{#0: 1/2 #1: 1/2}": "expected '}', got '#1'",
        "#0 #1": "trailing tokens after value: ['#1']",
    }.items():
        with pytest.raises(ValueError) as exc:
            parse_value(text)
        assert str(exc.value) == message, text


def test_zero_denominator_is_a_value_error():
    for text in ["1/0", "-3/00", "{#0: 1/0}", "[#0, {#1: 1/0}]"]:
        with pytest.raises(ValueError, match=r"zero denominator in '-?\d+/0+'"):
            parse_value(text)


def test_parse_canonicalizes_dist_entry_order():
    assert parse_value("{#1: 1/2, #0: 1/2}") == parse_value("{#0: 1/2, #1: 1/2}")


def test_parse_rat():
    assert parse_value("3/4") == Fraction(3, 4)
    assert type(parse_value("2")) is Fraction and parse_value("2") == 2
    assert render_value(Fraction(-1, 3)) == "-1/3"


@given(st.data())
def test_canonical_key_is_a_total_order_sample(data):
    vals = enumerate_carrier(DistOf(MaybeOf(Base(A2)), 2))
    x, y, z = (data.draw(st.sampled_from(vals)) for _ in range(3))
    a, b, c = map(canonical_key, (x, y, z))
    assert [a < b, a == b, b < a].count(True) == 1  # total and antisymmetric
    assert (a == b) == (x == y)
    if a <= b and b <= c:
        assert a <= c


def test_mk_dist_merges_and_sorts():
    d = mk_dist([(Atom(1), Fraction(1, 2)), (Atom(0), Fraction(1, 4)), (Atom(1), Fraction(1, 4))])
    assert d == dist_of_entries(((Atom(0), Fraction(1, 4)), (Atom(1), Fraction(3, 4))))


def test_mk_dist_merge_off_keeps_duplicates():
    # mk_dist always merges; mutant-b's core, dist_of_terms, can keep both
    d = dist_of_terms([(Atom(0), 1), (Atom(0), 1)], 2, merge=False)
    assert d.entries == ((Atom(0), Fraction(1, 2)), (Atom(0), Fraction(1, 2)))


def test_mk_dist_validates_weights():
    with pytest.raises(ValueError):
        mk_dist([(Atom(0), Fraction(1, 2))])
    with pytest.raises(ValueError):
        mk_dist([(Atom(0), Fraction(0)), (Atom(1), Fraction(1))])
    with pytest.raises(ValueError):
        mk_dist([(Atom(0), Fraction(3, 2)), (Atom(1), Fraction(-1, 2))])


def test_mk_dist_converts_weights_that_are_not_fractions():
    d = mk_dist([(Atom(1), "1/2"), (Atom(0), 0.25), (Atom(0), Fraction(1, 4))])
    assert d == dist_of_entries(((Atom(0), Fraction(1, 2)), (Atom(1), Fraction(1, 2))))
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
    with pytest.raises(ValueError, match=why):
        mk_dist(pairs)


def test_unmerged_join_keeps_duplicates():
    # mutant-b's join: both halves land on #0, and merge=False keeps both
    half = Fraction(1, 2)
    point = dist_of_entries(((Atom(0), Fraction(1)),))
    mmv = dist_of_entries(((point, half),
                           (dist_of_entries(((Atom(0), half), (Atom(1), half))), half)))
    merged, unmerged = simpleprob_monad().join(mmv), mutant_b_monad().join(mmv)
    assert merged.entries == ((Atom(0), Fraction(3, 4)), (Atom(1), Fraction(1, 4)))
    assert unmerged.entries == ((Atom(0), half), (Atom(0), Fraction(1, 4)),
                                (Atom(1), Fraction(1, 4)))
    assert merged != unmerged


TERM_VALUES = enumerate_domain(A3) + enumerate_carrier(DistOf(Base(A2), 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TERM_VALUES), st.integers(1, 30)),
                min_size=1, max_size=8),
       st.integers(1, 9), st.booleans())
def test_dist_of_terms_gives_one_reduced_representation(terms, k, merge):
    den = sum(n for _, n in terms)
    d = dist_of_terms(terms, den, merge)
    assert math.gcd(d.den, *d.nums) == 1
    assert all(n > 0 for n in d.nums) and sum(d.nums) == d.den
    keys = [canonical_key(v) for v in d.support]
    if merge:
        assert all(a < b for a, b in zip(keys, keys[1:]))
        weights: dict = {}
        for v, n in terms:
            weights[v] = weights.get(v, 0) + Fraction(n, den)
        assert dict(d.entries) == weights
    else:
        assert all(a <= b for a, b in zip(keys, keys[1:])) and len(d.nums) == len(terms)
    # terms scaled by k over k * den: an equal Dist, equal field by field
    scaled = dist_of_terms([(v, k * n) for v, n in terms], k * den, merge)
    assert scaled == d and hash(scaled) == hash(d)
    assert (scaled.support, scaled.nums, scaled.den) == (d.support, d.nums, d.den)


def test_enumerated_distributions_share_the_grid_and_stay_small():
    mmma = DistOf(DistOf(DistOf(Base(A2), 2), 2), 2)  # simpleprob's M M M A at sizes 2
    values._enumerate_carrier_cached.cache_clear()
    tracemalloc.start()
    try:
        vals = enumerate_carrier(mmma)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(vals) == 31_192
    grid = {(k, nums): nums for k in range(1, 5) for nums, _ in weight_tuples(k)}
    assert all(v.nums is grid[len(v.support), v.nums] for v in vals)
    # the inner carriers included; a (value, Fraction) pair per entry held about 7 MB
    assert held < 4 * 2**20


def test_dist_weights_sum_to_one_exactly():
    for v in enumerate_carrier(DistOf(Base(A3), 3)):
        assert sum((w for _, w in v.entries), Fraction(0)) == 1


def test_vec_length_validated():
    # a vector's length is its item count; one of the wrong length is not
    # a value of its carrier
    with pytest.raises(ValueError, match="is not a value of"):
        check_member(Vec((Atom(0),)), FnOf(T2, Base(A2)))


def test_carrier_too_large():
    huge = SeqOf(Base(FiniteType("A", 4)), 10)
    assert carrier_size(huge) > 1_000_000
    with pytest.raises(CarrierTooLarge):
        enumerate_carrier(huge)
    # a raised cap admits the same description
    assert len(enumerate_carrier(huge, cap=2_000_000)) == carrier_size(huge)


def test_enumerate_functions_exhaustive_order():
    tables = list(enumerate_functions(A2, Base(A2)))
    assert [tuple(v.index for v in t.entries) for t in tables] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_enumerate_functions_counts_49():
    tables = list(enumerate_functions(A2, SeqOf(Base(A2), 2)))
    assert len(tables) == 49
    assert len(set(tables)) == 49


def test_enumerate_functions_sampling_reproducible():
    cod = SeqOf(Base(A3), 3)
    dom = FiniteType("A", 3)
    tables = enumerate_functions(dom, cod)
    assert tables.size == carrier_size(FnOf(dom, cod)) > 50
    assert len(tables) == tables.size
    # sampling indexes the space: tables[i] is the i-th table in order
    listing = list(tables)
    assert all(tables[i] == listing[i] for i in (0, 1, 50, len(listing) - 1))

    def visited(seed):
        seen = []
        scan(LawReport("t", "-"), lambda: [Var("f", "A->B", tables, len(tables))],
             lambda f: seen.append(f) or (0, 0), Quantifier(budget=50, seed=seed))
        return seen

    one = visited(7)
    assert one == visited(7)
    assert len(one) == 50
    assert one != visited(8)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 9), max_size=4), max_size=4))
def test_product_indexing_matches_iteration(factors):
    # factors of unequal lengths, and empty ones, as sampled scans index
    # both function tables and policy sequences
    p = Product(factors, lambda picks: picks)
    assert [p[i] for i in range(p.size)] == list(p) == list(itertools.product(*factors))
    assert len(p) == p.size == math.prod(map(len, factors))
    for i in (-1, p.size):
        with pytest.raises(IndexError):
            p[i]


def test_empty_domain_has_one_table():
    empty = FiniteType("A", 0)
    tables = list(enumerate_functions(empty, Base(A2)))
    assert len(tables) == 1
    assert tables[0].entries == ()


def test_table_round_trips_through_vec():
    t = FnTable((Atom(1), Atom(2)))
    assert render_value(t) == "<#1, #2>"
    assert parse_value(render_value(t)) == Vec(t.entries)


def test_tables_are_extensional_by_construction():
    # two tables agree at every point iff they are equal, and equal
    # tables are one object: level-1 pointwise equality is ==
    tables = list(enumerate_functions(A2, Base(A2)))
    for f, g in itertools.product(tables, repeat=2):
        pointwise = all(f.entries[i] == g.entries[i] for i in range(A2.size))
        assert (f == g) == pointwise == (f is g) == (g == f)
    assert identity_table(A2) is tables[1]


def test_tables_with_equal_entries_are_one_object_whatever_their_domains():
    # a table is interned on its entries alone: the identity on A(2) and the
    # table B(2) -> A(2) that reads the same are one object, as are its copies
    B2 = FiniteType("B", 2)
    table = enumerate_functions(A2, Base(A2))[1]
    assert enumerate_functions(B2, Base(A2))[1] is table
    assert enumerate_functions(A2, Base(B2))[1] is table
    assert FnTable(table.entries) is table
    for twin in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert twin is table


def test_table_fn_applies():
    # any level indexed by atom: a quantified table's entries, a step, a flow
    f = table_fn((Atom(2), Atom(0), Atom(1)))
    assert [f(a) for a in enumerate_domain(A3)] == [Atom(2), Atom(0), Atom(1)]


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
    VEC2, FnOf(A2, MaybeOf(Base(A2))), SeqOf(DistOf(Base(A2), 2), 1),
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
    pytest.param("<#0>", FnOf(T2, Base(A2)), id="<#0>-Vec[A(2);len=2]"),
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
# value identity: atoms and tables interned, every other value by its fields

PROB = simpleprob_monad()
LIST = nondet_monad()
IDENTITY_CARRIERS = [
    SeqOf(Base(A2), 2),
    DistOf(Base(A3), 2),
    PROB.carrier_of(PROB.carrier_of(Base(A2))),  # simpleprob M M A
    FnOf(A2, DistOf(Base(A2), 2)),
]


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
        return dist_of_entries((rebuild(x), Fraction(w.numerator, w.denominator))
                               for x, w in v.entries)
    if t is Vec:
        return Vec(tuple(rebuild(x) for x in v.items))
    if t is FnTable:
        return FnTable(tuple(rebuild(x) for x in v.entries))
    raise TypeError(t)


def identity_values():
    """Every value of the carriers above, as values and as tables, plus
    what join and bind return on them."""
    out = []
    for desc in IDENTITY_CARRIERS:
        out.extend(enumerate_carrier(desc))
    out.extend(enumerate_functions(A2, DistOf(Base(A2), 2)))
    out.extend(PROB.join(mmv) for mmv in enumerate_carrier(IDENTITY_CARRIERS[2]))
    kernel = table_fn(tuple(mk_dist([(a, "1/3"), (Atom(1), "2/3")])
                            for a in enumerate_domain(A2)))
    out.extend(PROB.bind(mv, kernel) for mv in enumerate_carrier(DistOf(Base(A2), 2)))
    nested = enumerate_carrier(SeqOf(SeqOf(Base(A2), 2), 2))
    out.extend(LIST.join(mmv) for mmv in nested)
    out.extend(LIST.bind(mv, lambda a: Seq((a, a)))
               for mv in enumerate_carrier(SeqOf(Base(A2), 2)))
    out.extend(enumerate_carrier(MaybeOf(SeqOf(Base(A2), 1))))
    return out


VALUES = identity_values()


def test_identity_values_cover_every_composite_type():
    assert {type(v) for v in VALUES} == {Opt, Seq, Dist, Vec, FnTable}


def test_a_value_hashes_alike_before_and_after_its_first_hash():
    for v in VALUES:
        fresh, other = rebuild(v), rebuild(v)
        first = hash(fresh)
        assert hash(fresh) == first
        assert hash(other) == first  # built apart, hashed afresh
        if type(v) is not FnTable:
            # the value is the tuple of its tag and every field, so every field
            # is compared, hashed and shown; a Dist keeps its canonical key
            # outside them, so repr, == and hash skip it
            assert "key" not in v._fields
            assert tuple(v) == (canonical_key(v)[0], *[getattr(v, name) for name in v._fields])
            keyed, unkeyed = rebuild(v), rebuild(v)
            canonical_key(keyed)
            assert keyed.key == (canonical_key(v) if type(v) is Dist else None)
            assert unkeyed.key is None
            assert keyed == unkeyed and unkeyed == keyed
            assert hash(keyed) == hash(unkeyed) == first and repr(keyed) == repr(unkeyed)


def test_a_dist_hashes_no_weight(monkeypatch):
    # a Dist hashes its numerators and denominator as ints, so the modular
    # inverse of Fraction.__hash__ never runs, and plain and interned weights agree
    dists = [v for v in VALUES if type(v) is Dist]
    interned = [hash(v) for v in dists]

    def refuse(w):
        raise AssertionError(f"hashed the weight {w}")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    assert [hash(rebuild(v)) for v in dists] == interned


def test_equal_values_built_apart_agree_whichever_is_hashed_first():
    for v in VALUES:
        a, b = rebuild(v), rebuild(v)
        hash(a)  # only a is hashed
        assert a == b and b == a
        assert hash(b) == hash(a)
        c, d = rebuild(v), rebuild(v)
        assert c == d  # neither is hashed
        assert len({c, d, a}) == 1
        assert {c: 1}[d] == 1


def rebuilt_from_fields(v, **changes):
    """v built again by its constructor from its named fields, some changed."""
    return type(v)(**{name: getattr(v, name) for name in v._fields} | changes)


def test_repr_eq_and_replace_go_by_the_fields():
    for v in VALUES:
        fresh = rebuild(v)
        before = repr(fresh)
        hash(fresh)
        assert repr(fresh) == before
        assert fresh == rebuild(v)
        if type(v) is FnTable:
            continue  # interned: see the interning tests
        again = rebuilt_from_fields(fresh)
        assert again == fresh and repr(again) == before


def test_replaced_and_copied_values_rehash():
    for v in VALUES:
        hash(v)
        twins = [copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))]
        if type(v) is FnTable:
            assert all(twin is v for twin in twins)
            assert FnTable(v.entries) is v
            continue
        for twin in twins + [rebuilt_from_fields(v)]:
            assert twin == v and hash(twin) == hash(v)
            assert hash(twin) == hash(rebuild(twin))
    for v in VALUES:
        if type(v) is Seq and len(v.items) == 2 and v.items[0] != v.items[1]:
            swapped = rebuilt_from_fields(v, items=v.items[::-1])
            assert swapped != v
            assert hash(swapped) == hash(rebuild(swapped))
    table = identity_table(A2)
    hash(table)
    other = FnTable((Atom(1), Atom(0)))
    assert other is not table and other != table
    assert other is rebuild(other) and hash(other) == hash(rebuild(other))


def test_atoms_and_tables_built_apart_are_one_object():
    for i in range(4):
        assert Atom(i) is Atom(i) and Atom(i).index == i
        assert Atom(i).key == (0, i) == canonical_key(Atom(i))
        assert repr(Atom(i)) == f"Atom(index={i})"
        for twin in (copy.copy(Atom(i)), copy.deepcopy(Atom(i)),
                     pickle.loads(pickle.dumps(Atom(i)))):
            assert twin is Atom(i)
    assert Atom(0) != Atom(1) and {Atom(0): 1}[Atom(0)] == 1
    for v in VALUES:
        if type(v) is FnTable:
            assert rebuild(v) is v and copy.deepcopy(v) is v
    with pytest.raises(dataclasses.FrozenInstanceError):
        Atom(0).index = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        Atom(0).key = (0, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        identity_table(A2).entries = ()


def test_values_are_equal_iff_they_render_alike_and_equal_ones_hash_alike():
    # a table renders as its Vec, so the rendering decides among values of one type
    shown = [(v, (type(v), render_value(v)), hash(v)) for v in VALUES]
    for a, shown_a, hash_a in shown:
        for b, shown_b, hash_b in shown:
            assert (a == b) is (shown_a == shown_b), (shown_a, shown_b)
            if a == b:
                assert hash_a == hash_b


def test_equal_fields_under_two_tags_are_unequal():
    field_tuples = [(), (Atom(0),), (Atom(0), Atom(1))]
    field_tuples += [v.items for v in VALUES if type(v) in (Seq, Vec)]
    for fields in field_tuples:
        for one, other in itertools.combinations((Opt, Seq, Vec), 2):
            assert one(fields) != other(fields) and other(fields) != one(fields)
        assert len({Opt(fields), Seq(fields), Vec(fields)}) == 3


def test_pickles_and_copies_keep_eq_hash_and_repr_with_and_without_a_kept_key():
    for v in VALUES:
        if type(v) is FnTable:
            continue  # interned: see the interning tests
        for kept in (False, True):
            value = rebuild(v)
            if kept:
                canonical_key(value)
            twins = [copy.copy(value), copy.deepcopy(value)]
            twins += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(6)]
            for twin in twins:
                assert type(twin) is type(value)
                assert twin == value and value == twin and hash(twin) == hash(value)
                assert repr(twin) == repr(value) and canonical_key(twin) == canonical_key(v)


def test_a_dist_keeps_its_key_and_no_value_can_be_assigned_to():
    for v in VALUES:
        if type(v) is FnTable:
            continue
        value = rebuild(v)
        canonical_key(value)
        if type(v) is Dist:
            assert vars(value) == {"key": canonical_key(v)}
        else:
            assert not hasattr(value, "__dict__")
        for name in value._fields + ("key", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert value == v


def test_a_table_no_one_holds_leaves_the_pool():
    from finmon.values import _TABLES
    key = (Atom(97), Atom(98), Atom(99))  # entries no other test builds
    table = FnTable(key)
    assert _TABLES.get(key) is table
    del table
    gc.collect()
    assert _TABLES.get(key) is None


# ---------------------------------------------------------------------------
# canonical order


def fraction_key(v):
    """The Fraction-only canonical_key: each dist weight compares as its
    Fraction alone, with no integer before it."""
    t = type(v)
    if t is Atom:
        return (0, v.index)
    if t is Fraction:
        return (1, v)
    if t is Opt:
        return (2, 0) if v.content is None else (2, 1, fraction_key(v.content))
    if t is Seq:
        return (3, len(v.items), tuple(fraction_key(x) for x in v.items))
    if t is Dist:
        return (4, len(v.entries), tuple((fraction_key(x), w) for x, w in v.entries))
    if t is Vec:
        return (5, len(v.items), tuple(fraction_key(x) for x in v.items))
    raise TypeError(t)


def test_integer_weight_keys_keep_the_fraction_order():
    mma = PROB.carrier_of(PROB.carrier_of(Base(A2)))
    mmma = PROB.carrier_of(mma)
    values = enumerate_carrier(mma) + enumerate_carrier(mmma)
    joined = {PROB.join(v) for v in values}
    weights = {w for v in joined for _, w in v.entries}
    assert {Fraction(1, 6), Fraction(1, 12)} <= weights
    # two weights whose integer keys tie, so the Fraction decides
    a, b = Fraction(1, 2 ** 40 + 1), Fraction(1, 2 ** 40 + 2)
    assert (1 << 64) // (2 ** 40 + 1) == (1 << 64) // (2 ** 40 + 2)
    ties = [dist_of_entries(((x, w), (y, 1 - w))) for w in (a, b)
            for x, y in ((Atom(0), Atom(1)), (PROB.pure(Atom(0)), PROB.pure(Atom(1))))]
    # distinct values sorted by the new key are strictly increasing under
    # the old one, so sorting by either gives this one order
    ordered = sorted(joined.union(values, ties), key=canonical_key)
    old = [fraction_key(v) for v in ordered]
    assert all(x < y for x, y in zip(old, old[1:]))


def seed_key(v):
    """canonical_key before int leaves and atoms that hold their key, kept
    as the reference order."""
    t = type(v)
    if t is Atom:
        return (0, v.index)
    if t is Fraction:
        return (1, v)
    if t is Opt:
        if v.content is None:
            return (2, 0)
        return (2, 1, seed_key(v.content))
    if t is Seq:
        return (3, len(v.items), tuple(seed_key(x) for x in v.items))
    if t is Dist:
        key = []
        for x, w in v.entries:
            n, d = w.as_integer_ratio()
            key.append((seed_key(x), (n << 64) // d, w))
        return (4, len(key), tuple(key))
    if t is Vec:
        return (5, len(v.items), tuple(seed_key(x) for x in v.items))
    raise TypeError(t)


def random_value_twins(rng, depth):
    """A random nested value with int and Fraction leaves, and its twin
    with every int leaf the equal Fraction."""
    kind = rng.randrange(7 if depth else 3)
    if kind == 0:
        a = Atom(rng.randrange(3))
        return a, a
    if kind == 1:
        n = rng.randrange(-2, 4)
        return n, Fraction(n)
    if kind == 2:
        r = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        return r, r
    if kind == 3:
        if rng.randrange(4) == 0:
            return Opt(None), Opt(None)
        x, y = random_value_twins(rng, depth - 1)
        return Opt(x), Opt(y)
    twins = [random_value_twins(rng, depth - 1) for _ in range(rng.randrange(1, 4))]
    if kind == 5:
        nums, den = rng.choice(weight_tuples(len(twins)))
        return tuple(Dist(side, nums, den) for side in zip(*twins))
    cls = Seq if kind == 4 else Vec
    return tuple(cls(tuple(side)) for side in zip(*twins))


def test_a_value_holds_its_canonical_key():
    # a Dist keeps its key from the first call; Opt, Seq and Vec build an
    # equal one on each call
    for v in VALUES:
        if type(v) is Dist:
            assert canonical_key(v) is canonical_key(v) is v.key
        elif type(v) is not FnTable:
            assert canonical_key(v) == canonical_key(v) and v.key is None
    assert canonical_key(2) == (1, 2)
    for bad in (None, "#0", (Atom(0),), FnTable((Atom(0), Atom(1)))):
        with pytest.raises(TypeError, match="not a Value"):
            canonical_key(bad)


def test_a_square_check_computes_few_keys(monkeypatch):
    # simpleprob T3 at sizes 2 sorts about 120,000 values, nearly all of
    # them the enumerated M A objects: each is keyed once, on its first sort
    key, computed = values.canonical_key, []

    def counting(v):
        if type(v) not in (int, Fraction) and getattr(v, "key", None) is None:
            computed.append(v)
        return key(v)

    monkeypatch.setattr(values, "canonical_key", counting)
    values._enumerate_carrier_cached.cache_clear()  # every value unkeyed, whatever ran before
    rep = check_law(law_by_id("T3"), simpleprob_monad(), {r: A2 for r in "ABCD"},
                    Quantifier(budget=100_000))
    assert (rep.passed, rep.evaluated) == (True, 15_640)
    assert len(computed) < 1_000  # 119; the parent keyed 82,774 composites


def test_canonical_key_keeps_the_seed_order():
    rng = random.Random(19)
    twins = [random_value_twins(rng, 3) for _ in range(600)]
    assert {type(v) for v, _ in twins} == {Atom, int, Fraction, Opt, Seq, Dist, Vec}
    # composites that hold an int leaf, so their twin's repr differs
    assert any(repr(v) != repr(w) for v, w in twins if type(v) in (Opt, Seq, Dist, Vec))
    new = sorted(range(len(twins)), key=lambda i: canonical_key(twins[i][0]))
    old = sorted(range(len(twins)), key=lambda i: seed_key(twins[i][1]))
    assert new == old
    assert canonical_key(2) == canonical_key(Fraction(2))
    assert render_value(2) == render_value(Fraction(2)) == "2"
