"""Law scans that evaluate one binding per renaming orbit.

An instance declared parametric has operations that never look at which
atom they hold, so an exhaustive law scan on it evaluates only the least
binding of each orbit under renaming the atoms of the law's roles. These
tests pin the renaming tables against renamed values, the number of
bindings evaluated against brute-force orbit counts, the declaration
against a property test (with mutant-b as its negative control), and
every report against the same run with the reduction off.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from finmon import laws
from finmon.cli import BUILTIN_SUITES, load_config, main, parse_config, run
from finmon.instances import INSTANCE_NAMES, get_instance, reader_functor
from finmon.laws import check_law, law_by_id, run_suite, suite_checks
from finmon.values import (
    Atom,
    Base,
    Dist,
    DistOf,
    FiniteType,
    FnOf,
    MaybeOf,
    Opt,
    Quantifier,
    Seq,
    SeqOf,
    Vec,
    canonical_key,
    enumerate_carrier,
    mk_dist,
    parse_value,
    relabeling,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FULL = (ROOT / "tests" / "golden" / "suite-full.json").read_text()
DOMS2 = {r: FiniteType(r, 2) for r in "ABCD"}
Q = Quantifier(budget=100_000)


# ---------------------------------------------------------------------------
# an oracle on values: rename atoms role by role, compare distributions as
# maps from values to weights


@functools.lru_cache(maxsize=None)
def _same(v):
    """A key equal for two values exactly when they are the same value,
    whatever order a distribution's entries come in."""
    t = type(v)
    if t is Atom:
        return v.index
    if t is Opt:
        return ("opt", None if v.content is None else _same(v.content))
    if t in (Seq, Vec):
        return (t.__name__, tuple(_same(x) for x in v.items))
    return frozenset((_same(x), w) for x, w in v.entries)


@functools.lru_cache(maxsize=None)
def _renamed(v, c, renaming):
    """v, a value of carrier c, with atom #j of each domain d renamed
    #perms[d][j] and a table's slot k moved to slot perms[domain][k], for
    the renaming's pairs (d, perms[d])."""
    perms = dict(renaming)
    if isinstance(c, Base):
        return Atom(perms[c.domain][v.index]) if c.domain in perms else v
    if isinstance(c, MaybeOf):
        return v if v.content is None else Opt(_renamed(v.content, c.inner, renaming))
    if isinstance(c, SeqOf):
        return Seq(tuple(_renamed(x, c.inner, renaming) for x in v.items))
    if isinstance(c, DistOf):
        return Dist(tuple((_renamed(x, c.inner, renaming), w) for x, w in v.entries))
    slots = [None] * len(v.items)
    for k, x in enumerate(v.items):
        slots[perms.get(c.domain, range(len(v.items)))[k]] = _renamed(x, c.codomain, renaming)
    return Vec(tuple(slots))


def _group(*domains):
    """Every renaming of the domains as (domain, permutation) pairs, the
    identity first."""
    return [tuple(zip(domains, g)) for g in
            itertools.product(*(itertools.permutations(range(d.size)) for d in domains))]


A, B = FiniteType("A", 2), FiniteType("B", 3)
CARRIERS = [
    Base(B), MaybeOf(MaybeOf(Base(B))), SeqOf(Base(B), 2), SeqOf(SeqOf(Base(A), 2), 2),
    DistOf(Base(B), 3), DistOf(DistOf(Base(A), 2), 2),
    # a vector carrier, spelled as a function of time: no renaming moves its slots
    pytest.param(FnOf(FiniteType("T", 2), Base(B)), id="Vec"),
    FnOf(A, SeqOf(Base(B), 2)), FnOf(B, DistOf(Base(A), 2)), FnOf(B, Base(B)),
    SeqOf(FnOf(A, Base(B)), 2),
]


@pytest.mark.parametrize("carrier", CARRIERS, ids=lambda c: type(c).__name__)
def test_relabeling_is_the_index_of_each_renamed_value(carrier):
    values = enumerate_carrier(carrier)
    index = {_same(v): i for i, v in enumerate(values)}
    assert len(index) == len(values)
    for renaming in _group(A, B):
        assert list(relabeling(carrier, dict(renaming))) == [
            index[_same(_renamed(v, carrier, renaming))] for v in values]


# ---------------------------------------------------------------------------
# the work counter


def _orbit_count(carrier, group) -> int:
    """The number of orbits of the carrier's values, by renaming each."""
    values = enumerate_carrier(carrier)
    index = {_same(v): i for i, v in enumerate(values)}
    return len({min(index[_same(_renamed(v, carrier, g))] for g in group) for v in values})


@pytest.mark.parametrize("name, orbits", [("nondet", 1_660), ("simpleprob", 15_640)])
def test_square_evaluates_one_binding_per_orbit(name, orbits):
    inst = get_instance(name)
    mmma = inst.carrier_of(inst.carrier_of(inst.carrier_of(Base(DOMS2["A"]))))
    assert _orbit_count(mmma, _group(DOMS2["A"])) == orbits
    rep = check_law(law_by_id("T3"), inst, DOMS2, Q)
    assert (rep.passed, rep.checked, rep.evaluated) == (True, 31_192 if name == "simpleprob"
                                                        else 3_307, orbits)


@pytest.mark.parametrize("name", ["nondet", "simpleprob"])
def test_kleisli_associativity_evaluates_one_binding_per_orbit(name):
    inst = get_instance(name)
    a, b, c, d = (DOMS2[r] for r in "ABCD")
    spaces = [FnOf(a, inst.carrier_of(Base(b))), FnOf(b, inst.carrier_of(Base(c))),
              FnOf(c, inst.carrier_of(Base(d))), Base(a)]
    group = _group(a, b, c, d)
    fixed = 0  # Burnside: the orbits are the mean number of fixed bindings
    for g in group:
        count = 1
        for space in spaces:
            count *= sum(_same(_renamed(v, space, g)) == _same(v)
                         for v in enumerate_carrier(space))
        fixed += count
    assert fixed == 15_148 * len(group)
    rep = check_law(law_by_id("D3"), inst, DOMS2, Q)
    assert (rep.passed, rep.checked, rep.evaluated) == (True, 235_298, 15_148)


def test_a_non_parametric_instance_evaluates_every_checked_binding():
    for inst, law_id in [(get_instance("mutant-b"), "F2"), (get_instance("mutant-a"), "T2"),
                         (dataclasses.replace(get_instance("nondet"), parametric=False), "D3")]:
        rep = check_law(law_by_id(law_id), inst, DOMS2, Q)
        assert rep.evaluated == rep.checked > 0


def test_the_json_timing_section_counts_evaluated_bindings(tmp_path):
    cfg = tmp_path / "d3.json"
    cfg.write_text(json.dumps({"seed": 0, "budget": 100_000, "suites": [
        {"name": "d3", "instance": "nondet", "laws": ["D3"]}]}))
    out = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["deterministic"]["results"][0]["checked"] == 235_298
    assert [c["evaluated"] for c in report["timing"]["checks"]] == [15_148]


# ---------------------------------------------------------------------------
# soundness of the declaration: every operation commutes with renaming

N = 4  # the atoms #0..#3 of one domain


def _rename(v, perm):
    """v with every atom #j renamed #perm[j], distribution entries put
    back in canonical order by a stable sort, never merged."""
    t = type(v)
    if t is Atom:
        return Atom(perm[v.index])
    if t is Opt:
        return v if v.content is None else Opt(_rename(v.content, perm))
    if t is Seq:
        return Seq(tuple(_rename(x, perm) for x in v.items))
    return Dist(tuple(sorted(((_rename(x, perm), w) for x, w in v.entries),
                             key=lambda e: canonical_key(e[0]))))


def _values(name, depth):
    """Values of M^depth over the N atoms, past the carrier bounds: lists
    up to length 4, distributions of up to 4 entries with weights such
    as 1/6 and 1/12."""
    if depth == 0:
        return st.integers(0, N - 1).map(Atom)
    inner = _values(name, depth - 1)
    if name == "identity":
        return inner
    if name == "maybe":
        return st.one_of(st.just(Opt(None)), inner.map(Opt))
    if name in ("nondet", "mutant-a"):
        return st.lists(inner, max_size=4).map(lambda xs: Seq(tuple(xs)))
    weighted = st.lists(st.tuples(inner, st.integers(1, 12)), min_size=1, max_size=4)
    return weighted.map(lambda ps: mk_dist([(v, Fraction(n, sum(m for _, m in ps)))
                                            for v, n in ps]))


@st.composite
def _cases(draw, name):
    """(renaming, operation, arguments): a table of N outputs for map and
    bind, applied to a value of M A."""
    perm = draw(st.permutations(range(N)))
    op = draw(st.sampled_from(("pure", "map", "join", "bind")))
    if op in ("pure", "join"):
        depth = draw(st.integers(0, 2) if op == "pure" else st.integers(2, 3))
        return perm, op, (draw(_values(name, depth)),)
    depth = draw(st.integers(0 if op == "map" else 1, 2))
    table = tuple(draw(st.lists(_values(name, depth), min_size=N, max_size=N)))
    return perm, op, (table, draw(_values(name, 1)))


def _commutes(inst, case) -> bool:
    perm, op, args = case
    inverse = sorted(range(N), key=perm.__getitem__)
    r = lambda v: _rename(v, perm)  # noqa: E731
    if op == "pure":
        return inst.pure(r(args[0])) == r(inst.pure(args[0]))
    if op == "join":
        return inst.join(r(args[0])) == r(inst.join(args[0]))
    table, mv = args
    f = lambda x: table[x.index]  # noqa: E731
    f_renamed = lambda x: r(table[inverse[x.index]])  # noqa: E731
    if op == "map":
        return inst.map(f_renamed, r(mv)) == r(inst.map(f, mv))
    return inst.bind(r(mv), f_renamed) == r(inst.bind(mv, f))


def test_the_lawful_instances_are_the_parametric_ones():
    assert [n for n in INSTANCE_NAMES if get_instance(n).parametric] == [
        "identity", "maybe", "nondet", "simpleprob"]
    assert not getattr(reader_functor(FiniteType("E", 2)), "parametric", False)


# mutant-a is not declared parametric, but its reversed join never reads
# an atom: the on/off test below forces it parametric
@pytest.mark.parametrize("name", ["identity", "maybe", "nondet", "simpleprob", "mutant-a"])
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_operations_commute_with_every_renaming(name, data):
    assert _commutes(get_instance(name), data.draw(_cases(name)))


@pytest.mark.parametrize("name, op, text", [
    ("nondet", "join", "[[#0, #1, #2], [#3, #0, #1, #2], [], [#3]]"),
    ("simpleprob", "join",
     "{{#0: 1/6, #1: 5/6}: 1/12, {#2: 1/12, #3: 11/12}: 1/6, {#1: 1/2, #3: 1/2}: 3/4}"),
    ("simpleprob", "join", "{{{#0: 1/6, #3: 5/6}: 1/2, {#1: 1}: 1/2}: 1/12,"
                           " {{#2: 1/12, #0: 11/12}: 1}: 11/12}"),
])
def test_values_past_the_bounds_commute_with_every_renaming(name, op, text):
    inst = get_instance(name)
    for perm in itertools.permutations(range(N)):
        assert _commutes(inst, (perm, op, (parse_value(text),)))


def test_renaming_refutes_mutant_b():
    inst = get_instance("mutant-b")
    case = find(_cases("mutant-b"), lambda c: not _commutes(inst, c),
                settings=settings(derandomize=True, max_examples=2_000, database=None,
                                  phases=[Phase.generate]))  # shrinking takes a minute
    assert not _commutes(inst, case)


# ---------------------------------------------------------------------------
# the same reports with the reduction on and off


def _deterministic(cfg, tmp_path) -> str:
    out = tmp_path / "report.json"
    run(cfg, fmt="json", out_path=str(out))
    report = json.loads(out.read_text())
    return json.dumps(report["deterministic"], sort_keys=True, indent=2) + "\n"


def _reduction_off(cfg):
    cfg.suites = [(dataclasses.replace(inst, parametric=False), *rest)
                  for inst, *rest in cfg.suites]
    return cfg


def test_full_reports_match_with_the_reduction_off(tmp_path):
    """--suite full and configs/full.json are one config, whose report
    with the reduction on test_golden.py pins."""
    cfg = parse_config(BUILTIN_SUITES["full"])
    assert load_config(ROOT / "configs" / "full.json").echo() == cfg.echo()
    assert _deterministic(_reduction_off(cfg), tmp_path) == GOLDEN_FULL


def test_mutant_a_forced_parametric_keeps_every_refutation():
    inst = get_instance("mutant-a")
    forced = dataclasses.replace(inst, parametric=True)
    checks = suite_checks(inst)
    on, off = (run_suite(i, checks, DOMS2, Q) for i in (forced, inst))
    assert [r.to_deterministic_dict() for r in on] == [r.to_deterministic_dict() for r in off]
    assert sum(not r.passed for r in on) == 7
    assert any(r.evaluated < r.checked for r in on if not r.passed)


@pytest.mark.parametrize("law_id", ["F2", "T5"])
def test_nondet_at_sizes_3_matches_with_the_reduction_off(law_id):
    inst = get_instance("nondet")
    doms3 = {r: FiniteType(r, 3) for r in "ABCD"}
    on = check_law(law_by_id(law_id), inst, doms3, Q)
    off = check_law(law_by_id(law_id), dataclasses.replace(inst, parametric=False), doms3, Q)
    assert on.to_deterministic_dict() == off.to_deterministic_dict()
    assert on.evaluated < on.checked == off.evaluated


def test_the_scan_reads_no_product_attribute(monkeypatch, tmp_path):
    """A traced run wraps enumerate_functions to return a plain iterator."""
    original = laws.enumerate_functions
    monkeypatch.setattr(laws, "enumerate_functions",
                        lambda *args, **kwargs: iter(list(original(*args, **kwargs))))
    out = tmp_path / "report.json"
    main(["--suite", "full", "--format", "json", "--out", str(out)])
    report = json.loads(out.read_text())
    assert json.dumps(report["deterministic"], sort_keys=True, indent=2) + "\n" == GOLDEN_FULL
    assert sum(c["evaluated"] for c in report["timing"]["checks"]) == 61_123


def test_past_the_table_cap_a_check_scans_every_binding(monkeypatch):
    inst, d3 = get_instance("nondet"), law_by_id("D3")
    # 16 renamings of A..D times 49 + 49 + 49 + 2 candidates
    monkeypatch.setattr(laws, "SYMMETRY_CAP", 16 * 149)
    assert check_law(d3, inst, DOMS2, Q).evaluated == 15_148
    monkeypatch.setattr(laws, "SYMMETRY_CAP", 16 * 149 - 1)
    assert check_law(d3, inst, DOMS2, Q).evaluated == 235_298
    monkeypatch.setattr(laws, "SYMMETRY_CAP", 0)
    checks = suite_checks(inst)
    capped = run_suite(inst, checks, DOMS2, Q)
    monkeypatch.undo()
    reduced = run_suite(inst, checks, DOMS2, Q)
    assert ([r.to_deterministic_dict() for r in capped]
            == [r.to_deterministic_dict() for r in reduced])
    assert all(r.evaluated == r.checked for r in capped)
    assert any(r.evaluated < r.checked for r in reduced)
