"""Law catalog shape and the quantifying runner."""

from __future__ import annotations

import inspect

import pytest

from finmon.instances import INSTANCE_NAMES, get_instance, reader_functor
from finmon.laws import (
    LAW_IDS,
    SuiteProfile,
    check_law,
    law_by_id,
    law_catalog,
    run_suite,
)
from finmon.values import FiniteType, Quantifier

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
    # the scan binds checker arguments by position, in the order of the
    # law's variables; this pins that order by name
    instances = [get_instance(name) for name in INSTANCE_NAMES]
    instances.append(reader_functor(FiniteType("E", 2)))
    fitting = [i for i in instances if all(hasattr(i, op) for op in law.needs)]
    assert len(fitting) >= len(INSTANCE_NAMES)
    want = [v.name for v in law.variables]
    for inst in fitting:
        assert list(inspect.signature(law.make_checker(inst)).parameters) == want, inst.name


def test_checker_parameters_reach_reader_and_l1_order():
    reader = reader_functor(FiniteType("E", 2))
    functor_laws = [law.id for law in law_catalog()
                    if all(hasattr(reader, op) for op in law.needs)]
    assert functor_laws == ["F1", "F2", "F3"]
    assert [v.name for v in law_by_id("L1").variables] == ["g", "f", "ma"]


def test_law_by_id_unknown():
    with pytest.raises(KeyError):
        law_by_id("Z9")


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


def test_sampling_kicks_in_and_caps_evaluations():
    doms = {r: FiniteType(r, 3) for r in "ABCD"}
    rep = check_law(law_by_id("D3"), get_instance("nondet"), doms, Quantifier(budget=5, seed=1))
    assert any(q.mode == "sampled" for q in rep.quantifiers)
    assert rep.checked <= 5
    assert rep.passed


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


def test_run_suite_reader_appends_level2_check():
    reader = reader_functor(FiniteType("E", 2))
    prof = SuiteProfile(name="r", instance="reader", laws=("F1", "F2", "F3"))
    reps = run_suite(reader, prof)
    assert [r.law_id for r in reps] == ["F1", "F2", "F3", "F3L2"]
    assert all(r.passed for r in reps)


def test_run_suite_reader_all_laws_runs_what_applies():
    reader = reader_functor(FiniteType("E", 2))
    reps = run_suite(reader, SuiteProfile(name="r", instance="reader"))
    assert [r.law_id for r in reps] == ["F1", "F2", "F3", "F3L2"]


def test_run_suite_level2_check_selected_alone():
    reader = reader_functor(FiniteType("E", 2))
    prof = SuiteProfile(name="r", instance="reader", laws=("F1", "F3L2"))
    assert [r.law_id for r in run_suite(reader, prof)] == ["F1", "F3L2"]
    with pytest.raises(ValueError, match="reader-only"):
        run_suite(get_instance("maybe"), SuiteProfile(name="m", instance="maybe",
                                                      laws=("F3L2",)))


def test_run_suite_reader_explicit_monad_law_is_an_error():
    reader = reader_functor(FiniteType("E", 2))
    prof = SuiteProfile(name="r", instance="reader", laws=("F1", "T1"))
    with pytest.raises(ValueError):
        run_suite(reader, prof)


def test_suite_profile_validation():
    with pytest.raises(KeyError):
        SuiteProfile(name="x", instance="maybe", laws=("F1", "NOPE")).selected_laws()
    with pytest.raises(ValueError):
        SuiteProfile(name="x", instance="maybe", view="wide").selected_laws()


def test_thin_suite_runs_20_laws():
    reps = run_suite(get_instance("maybe"), SuiteProfile(name="t", instance="maybe", view="thin"))
    assert len(reps) == 20
    assert "KJ" not in {r.law_id for r in reps}


def test_reports_are_deterministic():
    prof = SuiteProfile(name="m", instance="mutant-a")
    one = [r.to_deterministic_dict() for r in run_suite(get_instance("mutant-a"), prof)]
    two = [r.to_deterministic_dict() for r in run_suite(get_instance("mutant-a"), prof)]
    assert one == two
