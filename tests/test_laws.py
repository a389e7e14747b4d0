"""Law catalog shape and the quantifying runner."""

from __future__ import annotations

import collections
import dataclasses
import inspect
import itertools
import math

import pytest

from finmon import values
from finmon.instances import INSTANCE_NAMES, MonadInstance, get_instance, reader_functor
from finmon.laws import (
    ID,
    LAW_IDS,
    VarSpec,
    _compile,
    _variable,
    check_law,
    law_by_id,
    law_catalog,
    reader_pres_ee2_report,
    run_suite,
    suite_checks,
)
from finmon.values import (
    DEFAULT_CARRIER_CAP,
    Atom,
    Base,
    CarrierTooLarge,
    Dist,
    FiniteType,
    FnOf,
    Quantifier,
    Vec,
    enumerate_carrier,
    parse_value,
    render_value,
)

DOMS2 = {r: FiniteType(r, 2) for r in "ABCD"}


def test_catalog_order_frozen():
    assert LAW_IDS == (
        "F1", "F2", "F3", "T1", "T2", "T3", "T4", "T5",
        "KJ", "BJ",
        "D1", "D2", "D3", "D4", "D5",
        "W1", "W2", "W3", "W4", "W5",
        "E1", "E2", "E3",
        "L1", "L2",
    )
    assert len(law_catalog()) == 25


def test_thin_view_drops_derived_op_checks():
    thin = [law.id for law in law_catalog() if "thin" in law.views]
    assert len(thin) == 20
    assert set(LAW_IDS) - set(thin) == {"KJ", "BJ", "E1", "E2", "E3"}


@pytest.mark.parametrize("law", law_catalog(), ids=LAW_IDS)
def test_checker_parameters_are_the_law_variables_in_order(law):
    # the scan binds the compiled checker's arguments by position, in
    # the order of the law's variables; this pins that order by name
    instances = [get_instance(name) for name in INSTANCE_NAMES]
    instances.append(reader_functor(FiniteType("E", 2)))
    fitting = [i for i in instances if all(getattr(i, op) is not None for op in law.needs)]
    assert len(fitting) >= len(INSTANCE_NAMES)
    want = [v.name for v in law.variables]
    for inst in fitting:
        assert list(inspect.signature(_compile(law, inst)).parameters) == want, inst.name


@pytest.mark.parametrize("law", law_catalog(), ids=LAW_IDS)
def test_terms_apply_leaves_to_the_one_bound_variable(law):
    tables = {v.name for v in law.variables if v.kind == "fn"}
    (bound,) = [v.name for v in law.variables if v.kind != "fn"]
    leaves = [n for side in (law.lhs, law.rhs) for n in side.nodes() if n.table]
    assert {n.table for n in leaves} <= tables
    # every declared variable is read by some side
    assert {n.table for n in leaves} | {bound} == {v.name for v in law.variables}
    primed = [n.op for n in leaves if n.op != n.table]
    assert bool(primed) == (law.id in ("F3", "D4", "W4")), primed


def test_checker_parameters_reach_reader_and_l1_order():
    reader = reader_functor(FiniteType("E", 2))
    functor_laws = [law.id for law in law_catalog()
                    if all(getattr(reader, op) is not None for op in law.needs)]
    assert functor_laws == ["F1", "F2", "F3"]
    assert [v.name for v in law_by_id("L1").variables] == ["g", "f", "ma"]


def test_law_by_id_unknown():
    with pytest.raises(KeyError):
        law_by_id("Z9")


def test_a_missing_role_is_named_on_a_parametric_instance():
    doms = {r: FiniteType(r, 2) for r in "AB"}
    with pytest.raises(KeyError, match="role 'C' missing from domain map"):
        check_law(law_by_id("F2"), get_instance("nondet"), doms, Quantifier(budget=10))


@pytest.mark.parametrize("name", ["identity", "maybe"])
def test_whole_catalog_green_on_small_instances(name):
    inst = get_instance(name)
    q = Quantifier(budget=100_000)
    for law in law_catalog():
        rep = check_law(law, inst, DOMS2, q)
        assert rep.passed, (law.id, rep.witness)
        assert rep.checked > 0


def test_checked_count_oracle_f2_identity():
    # f: 4 tables, g: 4 tables, ma: the 2 bare values of A
    rep = check_law(law_by_id("F2"), get_instance("identity"), DOMS2, Quantifier(budget=1000))
    assert rep.checked == 4 * 4 * 2


def test_checked_count_oracle_kj_maybe():
    # A -> Maybe B has 3^2 tables; 9 * 9 * 2 = 162 triples
    rep = check_law(law_by_id("KJ"), get_instance("maybe"), DOMS2, Quantifier(budget=1000))
    assert rep.passed and rep.checked == 162


def test_vacuous_domain_passes():
    doms = dict(DOMS2)
    doms["A"] = FiniteType("A", 0)
    rep = check_law(law_by_id("T4"), get_instance("maybe"), doms, Quantifier(budget=100))
    assert rep.passed and rep.checked == 0
    # an empty space keeps the scan vacuous even where others are sampled
    doms = {r: FiniteType(r, 0 if r == "A" else 3) for r in "ABCD"}
    rep = check_law(law_by_id("D3"), get_instance("nondet"), doms, Quantifier(budget=5))
    assert rep.passed and rep.checked == 0
    assert [q.count for q in rep.quantifiers] == [0, 0, 0, 0]


def test_domain_wider_than_the_cap_is_refused():
    wide = {"A": FiniteType("A", 3_000_000), "B": FiniteType("B", 2)}
    q = Quantifier(budget=10)
    rep = check_law(law_by_id("T4"), get_instance("identity"), wide, q, cap=1000)
    assert not rep.passed and rep.checked == 0
    assert rep.diagnostic == "domain too large: A(3000000) has 3000000 atoms, cap 1000"
    # an atom variable is bounded the same way
    with pytest.raises(CarrierTooLarge, match="A.3000000. has 3000000 atoms, cap 1000"):
        _variable(VarSpec("atom", "a", dom="A"), get_instance("identity"), wide, 1000)
    e1 = FiniteType("E", 1)
    rep = reader_pres_ee2_report(reader_functor(e1), dict(wide, E=e1), q, cap=1000)
    assert not rep.passed and rep.checked == 0 and rep.diagnostic is not None


def test_level2_refuses_the_readers_before_the_arrows():
    # both the readers E(1)->A(20) and the arrows' codomain B(20) pass
    # the cap; the readers are enumerated first, so theirs is the diagnostic
    doms = {"A": FiniteType("A", 20), "B": FiniteType("B", 20), "E": FiniteType("E", 1)}
    rep = reader_pres_ee2_report(reader_functor(doms["E"]), doms, Quantifier(budget=10), cap=10)
    assert not rep.passed and rep.checked == 0
    assert rep.diagnostic == "carrier too large: Fn[E(1)->A(20)] has 20 values, cap 10"
    doms["A"] = FiniteType("A", 2)
    rep = reader_pres_ee2_report(reader_functor(doms["E"]), doms, Quantifier(budget=10), cap=10)
    assert rep.diagnostic == "carrier too large: B(20) has 20 values, cap 10"


def test_sampling_kicks_in_and_caps_evaluations():
    doms = {r: FiniteType(r, 3) for r in "ABCD"}
    rep = check_law(law_by_id("D3"), get_instance("nondet"), doms, Quantifier(budget=5, seed=1))
    assert any(q.mode == "sampled" for q in rep.quantifiers)
    assert rep.checked <= 5
    assert rep.passed


def test_sampling_refutes_mutant_a_associativity():
    # at budget 30 every variable is drawn, so the outer tables vary too
    inst = get_instance("mutant-a")
    held = {
        law_id: [check_law(law_by_id(law_id), inst, DOMS2, Quantifier(30, seed)).passed
                 for seed in range(10)]
        for law_id in ("D3", "W3")
    }
    assert held["D3"].count(True) == 0
    assert held["W3"].count(True) <= 1


# sampled scans over a carrier variable, which no golden file covers: the
# draws index the carrier, so these reports pin its enumeration order
SAMPLED_T3 = {
    "simpleprob": {"pass": True, "checked": 500},
    "mutant-b": {"pass": False, "checked": 2, "witness": {
        "mmma": "{{{#0: 1/3, #1: 2/3}: 1/3, {#0: 2/3, #1: 1/3}: 2/3}: 1/4, "
                "{{#0: 2/3, #1: 1/3}: 1/3, {#0: 1/4, #1: 3/4}: 2/3}: 3/4}",
        "lhs": "{#0: 1/8, #0: 1/36, #0: 1/9, #0: 1/6, #1: 3/8, #1: 1/18, #1: 1/18, #1: 1/12}",
        "rhs": "{#0: 1/36, #0: 1/9, #0: 1/6, #0: 1/8, #1: 1/18, #1: 1/18, #1: 1/12, #1: 3/8}"}},
}


@pytest.mark.parametrize("name", SAMPLED_T3)
def test_sampled_scans_over_a_carrier_variable_are_pinned(name):
    rep = check_law(law_by_id("T3"), get_instance(name), DOMS2, Quantifier(budget=500, seed=0))
    space = "Dist[Dist[Dist[A(2);maxSupport=2];maxSupport=2];maxSupport=2]"
    assert rep.to_deterministic_dict() == {
        "law": "T3", "instance": name, "sizes": {r: 2 for r in "ABCD"},
        "quantifiers": [{"var": "mmma", "space": space, "size": 31_192, "mode": "sampled",
                         "count": 498}],
        **SAMPLED_T3[name],
    }


def test_a_refuted_scan_builds_only_the_outermost_values_it_visits(monkeypatch):
    built, new = [], Dist.__new__

    def counting(cls, *fields):
        built.append(fields)
        return new(cls, *fields)

    values._enumerate_carrier_cached.cache_clear()
    monkeypatch.setattr(Dist, "__new__", staticmethod(counting))
    rep = check_law(law_by_id("T3"), get_instance("mutant-b"), DOMS2, Quantifier(budget=100_000))
    assert not rep.passed and rep.checked == 63
    # M M M A has 31,192 values; the 63 visited ones are built along with
    # the 119 of the cached M A and M M A (canonical_dist, which closes each
    # operation's result, builds its Dist past Dist.__new__)
    assert len(built) < 31_192 // 10
    # cached: A, M A and M M A, the levels inside the streamed M M M A
    assert values._enumerate_carrier_cached.cache_info().currsize == 3


def test_mutant_a_triangle_right_least_witness():
    rep = check_law(law_by_id("T2"), get_instance("mutant-a"), DOMS2, Quantifier(budget=1000))
    assert not rep.passed
    assert rep.witness["ma"] == "[#0, #1]"
    assert rep.witness["lhs"] == "[#1, #0]"
    assert rep.checked == 5  # [], [#0], [#1], [#0, #0] all pass first


def test_mutant_a_triangle_left_passes():
    rep = check_law(law_by_id("T1"), get_instance("mutant-a"), DOMS2, Quantifier(budget=1000))
    assert rep.passed


def test_mutant_b_spot_results():
    inst = get_instance("mutant-b")
    q = Quantifier(budget=100_000)
    f2 = check_law(law_by_id("F2"), inst, DOMS2, q)
    assert not f2.passed
    w1 = check_law(law_by_id("W1"), inst, DOMS2, q)
    assert w1.passed
    e2 = check_law(law_by_id("E2"), inst, DOMS2, q)
    assert e2.passed  # join and bind share the unmerged form


def test_functor_instance_rejects_monad_law():
    reader = reader_functor(FiniteType("E", 2))
    with pytest.raises(ValueError):
        check_law(law_by_id("T1"), reader, DOMS2, Quantifier(budget=100))


READER = reader_functor(FiniteType("E", 2))
READER_DOMS = dict(DOMS2, E=FiniteType("E", 2))


def test_run_suite_reader_appends_level2_check():
    checks = suite_checks(READER, ("F1", "F2", "F3"))
    assert checks == ("F1", "F2", "F3", "F3L2")
    reps = run_suite(READER, checks, READER_DOMS, Quantifier(budget=100_000))
    assert [r.law_id for r in reps] == ["F1", "F2", "F3", "F3L2"]
    assert all(r.passed for r in reps)


def test_run_suite_reader_all_laws_runs_what_applies():
    assert suite_checks(READER) == ("F1", "F2", "F3", "F3L2")
    assert suite_checks(READER, view="thin") == ("F1", "F2", "F3", "F3L2")


def test_run_suite_level2_check_selected_alone():
    checks = suite_checks(READER, ("F1", "F3L2"))
    assert checks == ("F1", "F3L2")
    reps = run_suite(READER, checks, READER_DOMS, Quantifier(budget=100_000))
    assert [r.law_id for r in reps] == ["F1", "F3L2"]
    with pytest.raises(ValueError, match="laws: F3L2 applies only to instance 'reader'"):
        suite_checks(get_instance("maybe"), ("F3L2",))


def test_run_suite_reader_explicit_monad_law_is_an_error():
    with pytest.raises(ValueError, match="laws: instance 'reader' lacks an operation "
                                         "that law T1 needs"):
        suite_checks(READER, ("F1", "T1"))


def drifting_reader(drifts) -> MonadInstance:
    """The reader over E(2) whose n-th map call, on reader r, answers
    slot 1 wrongly when drifts(n, r)."""
    good, calls = reader_functor(READER_DOMS["E"]), itertools.count()

    def rmap(fn, r):
        out = good.map(fn, r)
        if drifts(next(calls), r):
            out = Vec((out.items[0], Atom(1 - out.items[1].index)))
        return out

    return dataclasses.replace(good, map=rmap)


def test_reader_level2_refutes_iff_f3_does():
    # F3 at sizes 2 makes 32 map calls, two per binding, in the order
    # F3L2 makes them; a drift that follows the reader alone hits both sides
    q = Quantifier(budget=100_000)
    readers = enumerate_carrier(FnOf(READER_DOMS["E"], Base(READER_DOMS["A"])))
    swapped, verdicts = Vec((Atom(1), Atom(0))), []
    for drifts in (lambda n, r: n == 0, lambda n, r: n == 7, lambda n, r: n == 12,
                   lambda n, r: n == 31, lambda n, r: n == 32, lambda n, r: r == swapped):
        f3 = check_law(law_by_id("F3"), drifting_reader(drifts), READER_DOMS, q)
        level2 = reader_pres_ee2_report(drifting_reader(drifts), READER_DOMS, q)
        verdicts.append((f3.passed, level2.passed))
        if f3.passed:
            continue
        reader, slot = parse_value(level2.witness["path"]).items
        assert render_value(readers[reader.index]) == f3.witness["ma"]
        assert level2.witness["f"] == f3.witness["f"]
        for side in ("lhs", "rhs"):
            at_slot = parse_value(f3.witness[side]).items[slot.index]
            assert render_value(at_slot) == level2.witness[side]
    assert verdicts == [(False, False)] * 4 + [(True, True)] * 2


def test_suite_checks_validation():
    with pytest.raises(ValueError, match="laws: unknown law id 'NOPE'"):
        suite_checks(get_instance("maybe"), ("F1", "NOPE"))
    with pytest.raises(ValueError, match="view: unknown suite view 'wide'"):
        suite_checks(get_instance("maybe"), view="wide")
    with pytest.raises(ValueError, match="view: "):
        suite_checks(get_instance("maybe"), ("F1",), view="wide")


def test_named_laws_run_in_catalog_order_under_either_view():
    maybe = get_instance("maybe")
    assert suite_checks(maybe, ("T1", "KJ", "F1"), view="thin") == ("F1", "T1", "KJ")


def test_thin_suite_runs_20_laws():
    maybe = get_instance("maybe")
    reps = run_suite(maybe, suite_checks(maybe, view="thin"), DOMS2,
                     Quantifier(budget=100_000))
    assert len(reps) == 20
    assert "KJ" not in {r.law_id for r in reps}


def test_reports_are_deterministic():
    inst = get_instance("mutant-a")
    checks, q = suite_checks(inst), Quantifier(budget=100_000)
    one = [r.to_deterministic_dict() for r in run_suite(inst, checks, DOMS2, q)]
    two = [r.to_deterministic_dict() for r in run_suite(get_instance("mutant-a"), checks,
                                                         DOMS2, q)]
    assert one == two


def _bindings(law, inst):
    """Every binding of the law at sizes 2, in scan order, and their count."""
    variables = [_variable(vs, inst, DOMS2, DEFAULT_CARRIER_CAP) for vs in law.variables]
    return (itertools.product(*(v.candidates for v in variables)),
            math.prod(v.size for v in variables))


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_memo_never_changes_a_side(name):
    # a checker that has evaluated every earlier binding gives the same
    # sides as a fresh one, at the first and the last ten bindings
    inst = get_instance(name)
    for law in law_catalog():
        bindings, total = _bindings(law, inst)
        warm = _compile(law, inst)
        for i, binding in enumerate(bindings):
            sides = warm(*binding)
            if i < 10 or i >= total - 10:
                assert sides == _compile(law, inst)(*binding), (law.id, i)


def test_primed_side_makes_its_own_operation_calls():
    calls = collections.Counter()
    nondet = get_instance("nondet")

    def counted(op):
        def call(*args):
            calls[op] += 1
            return getattr(nondet, op)(*args)
        return call

    inst = dataclasses.replace(nondet, map=counted("map"), bind=counted("bind"))

    def calls_over_all_bindings(law):
        calls.clear()
        bindings, _ = _bindings(law, inst)
        sides = _compile(law, inst)
        for binding in bindings:
            sides(*binding)
        return sum(calls.values())

    for law_id in ("F3", "W4", "D4"):
        law = law_by_id(law_id)
        unprimed = calls_over_all_bindings(dataclasses.replace(law, rhs=ID))
        primed = calls_over_all_bindings(dataclasses.replace(law, lhs=ID))
        assert primed == unprimed > 0, law_id
        # next to the unprimed side, the primed one hits no cache of it
        assert calls_over_all_bindings(law) == unprimed + primed, law_id


# Composition preserves pointwise equality (f ≐ f', g ≐ g' -> g∘f ≐ g'∘f')
# is law D4 on the identity monad, whose Kleisli composition is function
# composition.


def test_comp_pres_ee_passes_exhaustively():
    rep = check_law(law_by_id("D4"), get_instance("identity"), DOMS2, Quantifier(budget=1000))
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
