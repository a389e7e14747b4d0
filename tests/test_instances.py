"""Monad instances against hand-computed oracles."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finmon.instances import (
    INSTANCE_NAMES,
    PLAN_TERMS,
    get_instance,
    identity_monad,
    maybe_monad,
    mutant_a_monad,
    mutant_b_monad,
    nondet_monad,
    reader_functor,
    simpleprob_monad,
)
from finmon.laws import check_law, law_by_id, reader_pres_ee2_report, run_suite, suite_checks
from finmon.values import (
    Atom,
    Base,
    CarrierOverflow,
    Dist,
    DistOf,
    FiniteType,
    MaybeOf,
    Opt,
    Quantifier,
    Seq,
    SeqOf,
    Vec,
    canonical_key,
    enumerate_carrier,
    enumerate_domain,
    mk_dist,
    parse_value,
    render_value,
)

from dist_helpers import dist_of_entries, dist_of_terms

A2 = FiniteType("A", 2)
A3 = FiniteType("A", 3)
DOMS = {r: FiniteType(r, 2) for r in "ABCD"}


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
    m = nondet_monad()
    fat = Seq(tuple(Atom(i % 2) for i in range(400)))
    # 400 * 400 = 160,000 items, past the cap of 100,000
    with pytest.raises(CarrierOverflow, match="exceeds cap 100000"):
        m.bind(fat, lambda x: fat)
    assert len(m.bind(fat, lambda x: Seq((x,) * 250)).items) == 100_000  # at the cap


def test_simpleprob_join_total_probability():
    m = simpleprob_monad()
    mmv = parse_value("{{#0: 1}: 1/2, {#0: 1/2, #1: 1/2}: 1/2}")
    assert render_value(m.join(mmv)) == "{#0: 3/4, #1: 1/4}"


def test_simpleprob_pure_is_point_mass():
    m = simpleprob_monad()
    assert m.pure(Atom(1)) == dist_of_entries(((Atom(1), Fraction(1)),))


def test_simpleprob_map_merges_collisions():
    m = simpleprob_monad()
    const = lambda v: Atom(0)
    out = m.map(const, parse_value("{#0: 1/3, #1: 2/3}"))
    assert render_value(out) == "{#0: 1}"


PROB_VALUES = enumerate_carrier(DistOf(Base(A3), 2))


@given(st.sampled_from(PROB_VALUES))
def test_simpleprob_canonicalize_is_idempotent(v):
    # enumerated distributions are already in mk_dist's canonical form
    assert mk_dist(v.entries) == v
    assert mk_dist(mk_dist(v.entries).entries) == mk_dist(v.entries)


@given(st.sampled_from(PROB_VALUES))
def test_simpleprob_bind_preserves_total_mass(v):
    m = simpleprob_monad()
    out = m.bind(v, lambda a: parse_value("{#0: 1/2, #1: 1/2}"))
    assert sum((w for _, w in out.entries), Fraction(0)) == 1


# The Fraction algorithm the integer core replaced, kept as the reference:
# multiply weights pairwise, check and sum them as Fractions, sort the
# pairs by value and merge neighbours that are equal.


def ref_mk_dist(pairs, merge):
    cleaned = []
    total = Fraction(0)
    for v, w in pairs:
        if w <= 0:
            raise ValueError(f"distribution weight must be positive, got {w}")
        cleaned.append((v, w))
        total += w
    if total != 1:
        raise ValueError(f"distribution weights must sum to 1, got {total}")
    cleaned.sort(key=lambda p: canonical_key(p[0]))
    if merge:
        merged = []
        for v, w in cleaned:
            if merged and merged[-1][0] == v:
                merged[-1] = (v, merged[-1][1] + w)
            else:
                merged.append((v, w))
        cleaned = merged
    return dist_of_entries(cleaned)


def ref_map(fn, mv, merge):
    return ref_mk_dist([(fn(x), w) for x, w in mv.entries], merge)


def ref_bind(mv, fn, merge):
    return ref_mk_dist(
        [(y, w * p) for x, w in mv.entries for y, p in fn(x).entries], merge)


PROB_OPS = [(simpleprob_monad(), True), (mutant_b_monad(), False)]


def assert_canonical(d):
    keys = [canonical_key(v) for v, _ in d.entries]
    assert all(a < b for a, b in zip(keys, keys[1:]))  # sorted, no duplicates
    assert all(w > 0 for _, w in d.entries)
    assert sum((w for _, w in d.entries), Fraction(0)) == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_prob_ops_match_the_fraction_reference(data):
    # A and B of size 1 or 2; the inner carrier X is A (ops on M A) or
    # M A (ops on M M A, whose enumerated values are not all sorted)
    a = FiniteType("A", data.draw(st.integers(1, 2), label="|A|"))
    b = FiniteType("B", data.draw(st.integers(1, 2), label="|B|"))
    x = data.draw(st.sampled_from([Base(a), DistOf(Base(a), 2)]), label="X")
    xs = enumerate_carrier(x)
    index = {v: i for i, v in enumerate(xs)}
    mv = data.draw(st.sampled_from(enumerate_carrier(DistOf(x, 2))), label="mv")
    mmv = data.draw(st.sampled_from(enumerate_carrier(DistOf(DistOf(x, 2), 2))),
                    label="mmv")
    to_b = data.draw(st.lists(st.sampled_from(enumerate_domain(b)),
                              min_size=len(xs), max_size=len(xs)), label="f")
    to_mb = data.draw(st.lists(st.sampled_from(enumerate_carrier(DistOf(Base(b), 2))),
                               min_size=len(xs), max_size=len(xs)), label="k")
    f = lambda v: to_b[index[v]]
    k = lambda v: to_mb[index[v]]
    for m, merge in PROB_OPS:
        outs = [m.map(f, mv), m.join(mmv), m.bind(mv, k), m.pure(mv)]
        assert outs[:3] == [ref_map(f, mv, merge), ref_bind(mmv, lambda d: d, merge),
                            ref_bind(mv, k, merge)]
        if merge:
            for d in outs[:3]:
                assert_canonical(d)
        # equal weights are one object, across results and within each
        weights = {}
        for d in outs:
            for _, w in d.entries:
                assert weights.setdefault(w, w) is w


BAD_TERMS = [
    ([(Atom(0), 0, 1), (Atom(1), 1, 1)], "distribution weight must be positive, got 0"),
    ([(Atom(0), 3, 2), (Atom(1), -1, 2)], "distribution weight must be positive, got -1/2"),
    ([(Atom(0), 1, 2), (Atom(1), 1, 3)], "distribution weights must sum to 1, got 5/6"),
    ([(Atom(0), 1, 2), (Atom(0), 2, 4), (Atom(1), 1, 4)],
     "distribution weights must sum to 1, got 5/4"),
    ([], "distribution weights must sum to 1, got 0"),
]


@pytest.mark.parametrize("merge", [True, False], ids=["merge", "no-merge"])
@pytest.mark.parametrize("terms,message", BAD_TERMS,
                         ids=["zero", "negative", "short", "over", "empty"])
def test_integer_core_rejects_what_mk_dist_rejects(terms, message, merge):
    pairs = [(v, Fraction(n, d)) for v, n, d in terms]
    den = math.lcm(*[d for _, _, d in terms])  # the integer core's terms share one denominator
    scaled = [(v, n * (den // d)) for v, n, d in terms]
    for build in (lambda: dist_of_terms(scaled, den, merge), lambda: mk_dist(pairs),
                  lambda: ref_mk_dist(pairs, merge)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


SHORT = dist_of_entries([(Atom(0), Fraction(1, 2)), (Atom(1), Fraction(1, 4))])
ZERO = dist_of_entries([(Atom(0), 0), (Atom(1), 1)])
SHORT_MESSAGE = "distribution weights must sum to 1, got 3/4"
ZERO_MESSAGE = "distribution weight must be positive, got 0"


@pytest.mark.parametrize("m", [m for m, _ in PROB_OPS], ids=lambda m: m.name)
@pytest.mark.parametrize("bad,message", [(SHORT, SHORT_MESSAGE), (ZERO, ZERO_MESSAGE)],
                         ids=["mass-3/4", "zero-weight"])
def test_prob_ops_check_every_result_they_build(m, bad, message):
    # none may trust an input to be canonical and skip the mass or
    # positivity check; simpleprob's second call reaches a cached plan
    point = dist_of_entries([(Atom(0), 1)])
    for op in (lambda: m.join(dist_of_entries([(bad, 1)])),
               lambda: m.bind(point, lambda a: bad),
               lambda: m.map(lambda a: a, bad)):
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                op()
            assert str(exc.value) == message


def plan_cache(m):
    """The lru_cache of simpleprob instance m's plans, read from the
    closures of its operations."""
    plan = inspect.getclosurevars(m.map).nonlocals["plan"]
    return inspect.getclosurevars(plan).nonlocals["plans"]


def swap(v):
    """v with atoms #0 and #1 exchanged, distributions closed by the reference."""
    return Atom(1 - v.index) if type(v) is Atom else ref_map(swap, v, True)


def spread(v):
    """The kernel v -> {v: 1/3, swap v: 2/3}, built by the reference."""
    return ref_mk_dist([(v, Fraction(1, 3)), (swap(v), Fraction(2, 3))], True)


def assert_hits_match_the_reference(m, mv):
    """Each operation on mv, twice, equals the plan-free reference, and the
    second call of each reaches a cached plan."""
    cases = [(lambda f=f: m.map(f, mv), lambda f=f: ref_map(f, mv, True))
             for f in (m.pure, lambda v: Atom(0), swap)]
    cases.append((lambda: m.bind(mv, spread), lambda: ref_bind(mv, spread, True)))
    if type(mv.support[0]) is Dist:
        cases.append((lambda: m.join(mv), lambda: ref_bind(mv, lambda d: d, True)))
    for op, ref in cases:
        want = ref()
        assert op() == want
        hits = plan_cache(m).cache_info().hits
        assert op() == want
        assert plan_cache(m).cache_info().hits == hits + 1


SIMPLEPROB = simpleprob_monad()


@pytest.mark.parametrize("level", [1, 2], ids=["M A", "M M A"])
def test_cached_plans_give_the_reference_results(level):
    carrier = Base(A2)
    for _ in range(level):
        carrier = DistOf(carrier, 2)
    for mv in enumerate_carrier(carrier):
        assert_hits_match_the_reference(SIMPLEPROB, mv)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(enumerate_carrier(DistOf(DistOf(DistOf(Base(A2), 2), 2), 2))))
def test_cached_plans_give_the_reference_results_on_m_m_m_a(mmmv):
    assert_hits_match_the_reference(SIMPLEPROB, mmmv)


def test_a_warm_suite_reports_what_a_cold_one_does():
    m, q = simpleprob_monad(), Quantifier(budget=100_000)
    cold, warm = ([r.to_deterministic_dict() for r in run_suite(m, suite_checks(m), DOMS, q)]
                  for _ in range(2))
    assert warm == cold and all(r["pass"] for r in cold)


def test_a_plan_past_the_term_bound_is_not_kept():
    # the plan caches keep no large one-off value alive
    m, halve = simpleprob_monad(), lambda a: Atom(a.index // 2)
    wide = dist_of_entries([(Atom(i), Fraction(1, PLAN_TERMS + 1)) for i in range(PLAN_TERMS + 1)])
    assert m.map(halve, wide) == ref_map(halve, wide, True)
    assert m.join(dist_of_entries([(wide, 1)])) == wide
    assert m.bind(dist_of_entries([(Atom(0), 1)]), lambda a: wide) == wide
    assert plan_cache(m).cache_info().currsize == 0
    m.map(halve, m.join(parse_value("{{#0: 1/2, #1: 1/2}: 1}")))
    assert plan_cache(m).cache_info().currsize == 2


@pytest.mark.parametrize("name", ["identity", "maybe", "nondet", "simpleprob"])
def test_bind_pure_is_identity_on_whole_carrier(name):
    inst = get_instance(name)
    carrier = inst.carrier_of(Base(A2))
    for mv in enumerate_carrier(carrier):
        assert inst.bind(mv, inst.pure) == mv


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


@pytest.mark.parametrize("mutant,good,kept", [
    (mutant_a_monad(), nondet_monad(), ("pure", "map")),
    (mutant_b_monad(), simpleprob_monad(), ("pure",)),
], ids=["mutant-a", "mutant-b"])
def test_a_mutant_is_its_lawful_instance_with_the_broken_operations_replaced(mutant, good, kept):
    # a seeded fault replaces join and bind (and mutant-b's map); the
    # rest is the lawful instance's, on every A and M A value at sizes 2
    a = Base(A2)
    ma = good.carrier_of(a)
    assert mutant.carrier_of(a) == ma and mutant.carrier_of(ma) == good.carrier_of(ma)
    for v in enumerate_domain(A2) + enumerate_carrier(ma):
        assert mutant.pure(v) == good.pure(v)
    tables = list(itertools.product(enumerate_domain(A2), repeat=2))
    for mv in enumerate_carrier(ma) if "map" in kept else ():
        for t in tables:
            assert mutant.map(lambda x: t[x.index], mv) == good.map(lambda x: t[x.index], mv)


@pytest.mark.parametrize("build", [mutant_a_monad, mutant_b_monad], ids=["mutant-a", "mutant-b"])
def test_mutants_are_not_parametric(build):
    # a scan may skip renamed bindings only on a parametric instance
    assert build().parametric is False and get_instance(build().name).parametric is False


def test_the_reader_is_functor_only():
    doms = {r: FiniteType(r, 2) for r in "ABE"}
    reader = reader_functor(doms["E"])
    assert (reader.pure, reader.join, reader.bind) == (None, None, None)
    assert suite_checks(reader) == ("F1", "F2", "F3", "F3L2")
    with pytest.raises(ValueError, match=r"law T1 needs operations \['pure', 'join'\] "
                                         "that instance 'reader' does not provide"):
        check_law(law_by_id("T1"), reader, doms, Quantifier(budget=10))


def test_reader_map_is_slotwise():
    env = FiniteType("E", 2)
    r = reader_functor(env)
    reader = Vec((Atom(0), Atom(1)))
    out = r.map(lambda v: Atom(1 - v.index), reader)
    assert out == Vec((Atom(1), Atom(0)))
    assert r.carrier_of(Base(A2)).domain == env


def test_reader_level2_report_is_exhaustive_and_green():
    env = FiniteType("E", 2)
    rep = reader_pres_ee2_report(reader_functor(env), {"A": A2, "B": FiniteType("B", 2), "E": env})
    assert rep.passed
    assert rep.law_id == "F3L2"
    assert rep.checked > 0
    assert all(q.mode == "exhaustive" for q in rep.quantifiers)


def test_reader_level2_witness_is_the_arrow_and_the_path():
    # the eighth map call (mapR f' at the last reader, first arrow)
    # answers slot 1 wrongly
    env = FiniteType("E", 2)
    good, calls = reader_functor(env), itertools.count()

    def rmap(fn, r):
        out = good.map(fn, r)
        if next(calls) == 7:
            out = Vec((out.items[0], Atom(1 - out.items[1].index)))
        return out

    drifting = dataclasses.replace(good, map=rmap)
    rep = reader_pres_ee2_report(drifting, {"A": A2, "B": FiniteType("B", 2), "E": env})
    assert not rep.passed and rep.checked == 1
    assert rep.witness == {"f": "<#0, #0>", "path": "[#3, #1]", "lhs": "#0", "rhs": "#1"}


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
