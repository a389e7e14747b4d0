"""The law catalog: every functor/monad property as a finite check.

Each law declares its bound variables (domain elements, carrier values,
or function tables) and a checker producing the two sides of a pointwise
equality. The runner enumerates the variable spaces in canonical order,
compares sides by canonical structural equality, and reports the first
failing assignment, which for fully exhaustive runs is the least
counterexample in the lexicographic order of the variable tuple.

Quantifier budgets apply per variable: a space that fits the budget is
visited exhaustively in canonical order, a larger one contributes
budget-many seeded samples (with replacement). When any variable is
sampled the overall product is also capped at the budget, since a full
product of sample lists would multiply far past the requested effort.

Premise-filtered laws (mapPresEE, kleisliPresEE, liftPresEE) quantify
over pointwise-equality classes of arrows. Function tables are
extensional by construction, so each class has exactly one member and
the primed arrow is the class representative itself. The checks still
run both sides through independent wrappers; what they certify is that
the operations are functions of the table, not of its identity.

Two suite views exist. The "fat" view checks all 25 laws, treating bind
and Kleisli composition as independent operations whose relationship to
join/map is itself a law (BJ, KJ) and whose agreement with the
bind-derived forms is checked (E1-E3). The "thin" view treats bind and
Kleisli composition as derived from join/map, so those five checks are
definitional and skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Union

from .exteq import ext_eq, extify_eq
from .instances import FunctorInstance, MonadInstance, reader_functor
from .reports import LawReport, QuantifierStat, Var, scan
from .values import (
    Base,
    CarrierDesc,
    FiniteType,
    FnOf,
    FnTable,
    Quantifier,
    Value,
    Vec,
    enumerate_carrier,
    enumerate_domain,
    enumerate_functions,
    function_space_size,
    render_carrier,
    render_table,
    render_value,
    sub_seed,
    table_fn,
    value_to_table,
    DEFAULT_CARRIER_CAP,
)

__all__ = [
    "VarSpec", "Law", "SuiteProfile", "law_catalog", "law_by_id",
    "check_law", "run_suite", "reader_pres_ee2_report", "LAW_IDS",
]

Instance = Union[MonadInstance, FunctorInstance]


@dataclass(frozen=True, slots=True)
class VarSpec:
    """One bound variable: an element of a role domain ("atom"), a value
    of a carrier expression ("carrier"), or a function table ("fn") from
    a role domain into a carrier expression. Carrier expressions are of
    the form "B", "M B", "M M A"."""

    kind: str
    name: str
    dom: str = ""
    cod: str = ""


@dataclass(frozen=True, eq=False)
class Law:
    id: str
    name: str
    statement: str
    variables: tuple[VarSpec, ...]
    make_checker: Callable[[Instance], Callable[..., tuple[Value, Value]]]
    needs: tuple[str, ...] = ("map",)
    views: tuple[str, ...] = ("thin", "fat")


def resolve_carrier(expr: str, inst: Instance, domains: dict[str, FiniteType]) -> CarrierDesc:
    parts = expr.split()
    role = parts[-1]
    if role not in domains:
        raise KeyError(f"law references role {role!r} missing from domain map")
    desc: CarrierDesc = Base(domains[role])
    for marker in parts[:-1]:
        if marker != "M":
            raise ValueError(f"bad carrier expression {expr!r}")
        desc = inst.carrier_of(desc)
    return desc


# ---------------------------------------------------------------------------
# checkers
#
# Each maker returns sides(*binding) -> (lhs, rhs), with one parameter per
# bound variable, named and ordered as the law's variables; check_law hands
# it to the scan as it is. Memo tables come from _memo inside the maker, so
# each check_law call starts with empty ones.


def _memo(fn):
    """fn memoized on its argument tuple, for the checks where the same
    arguments recur across the rest of the product. fn never returns
    None."""
    cache: dict = {}

    def memo(*args):
        got = cache.get(args)
        if got is None:
            got = cache[args] = fn(*args)
        return got

    return memo


def _mk_map_pres_id(inst):
    return lambda ma: (inst.map(lambda v: v, ma), ma)


def _mk_map_pres_comp(inst):
    def sides(f, g, ma):
        ff, gf = table_fn(f), table_fn(g)
        return inst.map(lambda v: gf(ff(v)), ma), inst.map(gf, inst.map(ff, ma))

    return sides


def _mk_map_pres_ee(inst):
    # the rhs maps the class representative of f
    return lambda f, ma: (inst.map(table_fn(f), ma), inst.map(table_fn(f), ma))


def _mk_triangle_left(inst):
    return lambda ma: (inst.join(inst.pure(ma)), ma)


def _mk_triangle_right(inst):
    return lambda ma: (inst.join(inst.map(inst.pure, ma)), ma)


def _mk_square(inst):
    return lambda mmma: (inst.join(inst.join(mmma)), inst.join(inst.map(inst.join, mmma)))


def _mk_pure_nat_trans(inst):
    def sides(f, a):
        ff = table_fn(f)
        return inst.map(ff, inst.pure(a)), inst.pure(ff(a))

    return sides


def _mk_join_nat_trans(inst):
    def sides(f, mma):
        ff = table_fn(f)
        lhs = inst.map(ff, inst.join(mma))
        return lhs, inst.join(inst.map(lambda inner: inst.map(ff, inner), mma))

    return sides


def _mk_kleisli_join_map_spec(inst):
    def sides(f, g, a):
        ff, gf = table_fn(f), table_fn(g)
        return inst.kleisli(ff, gf)(a), inst.join(inst.map(gf, ff(a)))

    return sides


def _mk_bind_join_map_spec(inst):
    def sides(f, ma):
        ff = table_fn(f)
        return inst.bind(ma, ff), inst.join(inst.map(ff, ma))

    return sides


def _mk_pure_left_id_kleisli(inst):
    def sides(f, a):
        ff = table_fn(f)
        return inst.kleisli(inst.pure, ff)(a), ff(a)

    return sides


def _mk_pure_right_id_kleisli(inst):
    def sides(f, a):
        ff = table_fn(f)
        return inst.kleisli(ff, inst.pure)(a), ff(a)

    return sides


def _kleisli_entries(inst):
    """Pointwise results of f >=> g per domain atom, memoized on the
    table pair. Shared by the associativity-shaped checkers, where the
    same composition is revisited across the rest of the product."""

    @_memo
    def entries(f: FnTable, g: FnTable) -> tuple[Value, ...]:
        kl = inst.kleisli(table_fn(f), table_fn(g))
        return tuple(kl(a) for a in enumerate_domain(f.domain))

    return entries


def _mk_kleisli_assoc(inst):
    entries = _kleisli_entries(inst)
    lift = _memo(lambda h, fga: inst.join(inst.map(table_fn(h), fga)))

    @_memo
    def rhs(g, h, fa):
        gh = entries(g, h)
        return inst.join(inst.map(lambda b: gh[b.index], fa))

    def sides(f, g, h, a):
        return lift(h, entries(f, g)[a.index]), rhs(g, h, f.entries[a.index])

    return sides


def _mk_kleisli_pres_ee(inst):
    def sides(f, g, a):
        lhs = inst.kleisli(table_fn(f), table_fn(g))(a)
        return lhs, inst.kleisli(table_fn(f), table_fn(g))(a)  # primed pair

    return sides


def _mk_kleisli_leapfrog(inst):
    def sides(f, g, a):
        ff, gf = table_fn(f), table_fn(g)
        lhs = inst.kleisli(ff, gf)(a)
        lift_g = inst.kleisli(lambda mv: mv, gf)
        return lhs, lift_g(ff(a))

    return sides


def _mk_pure_left_id_bind(inst):
    def sides(f, a):
        ff = table_fn(f)
        return inst.bind(inst.pure(a), ff), ff(a)

    return sides


def _mk_pure_right_id_bind(inst):
    return lambda ma: (inst.bind(ma, inst.pure), ma)


def _mk_bind_assoc(inst):
    bound = _memo(lambda g, mv: inst.bind(mv, table_fn(g)))

    def sides(f, g, ma):
        ff = table_fn(f)
        return bound(g, inst.bind(ma, ff)), inst.bind(ma, lambda a: bound(g, ff(a)))

    return sides


def _mk_lift_pres_ee(inst):
    # the rhs binds the class representative of f
    return lambda f, ma: (inst.bind(ma, table_fn(f)), inst.bind(ma, table_fn(f)))


def _mk_triangle_right_from_bind(inst):
    def sides(ma):
        lhs = inst.bind(inst.bind(ma, lambda a: inst.pure(inst.pure(a))), lambda x: x)
        return lhs, ma

    return sides


def _mk_map_from_bind(inst):
    def sides(f, ma):
        ff = table_fn(f)
        return inst.map(ff, ma), inst.bind(ma, lambda a: inst.pure(ff(a)))

    return sides


def _mk_join_from_bind(inst):
    return lambda mma: (inst.join(mma), inst.bind(mma, lambda x: x))


def _mk_kleisli_from_bind(inst):
    def sides(f, g, a):
        ff, gf = table_fn(f), table_fn(g)
        return inst.kleisli(ff, gf)(a), inst.bind(ff(a), gf)

    return sides


def _mk_map_join_lemma(inst):
    def sides(g, f, ma):
        gf, ff = table_fn(g), table_fn(f)
        lhs = inst.map(ff, inst.join(inst.map(gf, ma)))
        return lhs, inst.join(inst.map(lambda a: inst.map(ff, gf(a)), ma))

    return sides


def _mk_map_kleisli_lemma(inst):
    entries = _kleisli_entries(inst)

    def sides(f, g, h, a):
        hf, gf = table_fn(h), table_fn(g)
        lhs = inst.map(hf, entries(f, g)[a.index])
        return lhs, inst.kleisli(table_fn(f), lambda b: inst.map(hf, gf(b)))(a)

    return sides


# ---------------------------------------------------------------------------
# the catalog

_MONAD_OPS = ("map", "pure", "join", "bind", "kleisli")


def law_catalog() -> tuple[Law, ...]:
    """All 25 laws, in stable catalog order."""
    V = VarSpec
    laws = (
        Law("F1", "mapPresId", "map id ≐ id",
            (V("carrier", "ma", cod="M A"),), _mk_map_pres_id),
        Law("F2", "mapPresComp", "map (g ∘ f) ≐ map g ∘ map f",
            (V("fn", "f", dom="A", cod="B"), V("fn", "g", dom="B", cod="C"),
             V("carrier", "ma", cod="M A")), _mk_map_pres_comp),
        Law("F3", "mapPresEE", "f ≐ g -> map f ≐ map g",
            (V("fn", "f", dom="A", cod="B"), V("carrier", "ma", cod="M A")),
            _mk_map_pres_ee),
        Law("T1", "triangleLeft", "join ∘ pure ≐ id",
            (V("carrier", "ma", cod="M A"),), _mk_triangle_left,
            needs=("map", "pure", "join")),
        Law("T2", "triangleRight", "join ∘ map pure ≐ id",
            (V("carrier", "ma", cod="M A"),), _mk_triangle_right,
            needs=("map", "pure", "join")),
        Law("T3", "square", "join ∘ join ≐ join ∘ map join",
            (V("carrier", "mmma", cod="M M M A"),), _mk_square,
            needs=("map", "join")),
        Law("T4", "pureNatTrans", "map f ∘ pure ≐ pure ∘ f",
            (V("fn", "f", dom="A", cod="B"), V("atom", "a", dom="A")),
            _mk_pure_nat_trans, needs=("map", "pure")),
        Law("T5", "joinNatTrans", "map f ∘ join ≐ join ∘ map (map f)",
            (V("fn", "f", dom="A", cod="B"), V("carrier", "mma", cod="M M A")),
            _mk_join_nat_trans, needs=("map", "join")),
        Law("KJ", "kleisliJoinMapSpec", "(f >=> g) ≐ join ∘ map g ∘ f",
            (V("fn", "f", dom="A", cod="M B"), V("fn", "g", dom="B", cod="M C"),
             V("atom", "a", dom="A")), _mk_kleisli_join_map_spec,
            needs=_MONAD_OPS, views=("fat",)),
        Law("BJ", "bindJoinMapSpec", "(>>= f) ≐ join ∘ map f",
            (V("fn", "f", dom="A", cod="M B"), V("carrier", "ma", cod="M A")),
            _mk_bind_join_map_spec, needs=("map", "join", "bind"), views=("fat",)),
        Law("D1", "pureLeftIdKleisli", "(pure >=> f) ≐ f",
            (V("fn", "f", dom="A", cod="M B"), V("atom", "a", dom="A")),
            _mk_pure_left_id_kleisli, needs=_MONAD_OPS),
        Law("D2", "pureRightIdKleisli", "(f >=> pure) ≐ f",
            (V("fn", "f", dom="A", cod="M B"), V("atom", "a", dom="A")),
            _mk_pure_right_id_kleisli, needs=_MONAD_OPS),
        Law("D3", "kleisliAssoc", "((f >=> g) >=> h) ≐ (f >=> (g >=> h))",
            (V("fn", "f", dom="A", cod="M B"), V("fn", "g", dom="B", cod="M C"),
             V("fn", "h", dom="C", cod="M D"), V("atom", "a", dom="A")),
            _mk_kleisli_assoc, needs=_MONAD_OPS),
        Law("D4", "kleisliPresEE", "f ≐ f', g ≐ g' -> (f >=> g) ≐ (f' >=> g')",
            (V("fn", "f", dom="A", cod="M B"), V("fn", "g", dom="B", cod="M C"),
             V("atom", "a", dom="A")), _mk_kleisli_pres_ee, needs=_MONAD_OPS),
        Law("D5", "kleisliLeapfrog", "(f >=> g) ≐ (id >=> g) ∘ f",
            (V("fn", "f", dom="A", cod="M B"), V("fn", "g", dom="B", cod="M C"),
             V("atom", "a", dom="A")), _mk_kleisli_leapfrog, needs=_MONAD_OPS),
        Law("W1", "pureLeftIdBind", "(λ a => pure a >>= f) ≐ f",
            (V("fn", "f", dom="A", cod="M B"), V("atom", "a", dom="A")),
            _mk_pure_left_id_bind, needs=("pure", "bind")),
        Law("W2", "pureRightIdBind", "(>>= pure) ≐ id",
            (V("carrier", "ma", cod="M A"),), _mk_pure_right_id_bind,
            needs=("pure", "bind")),
        Law("W3", "bindAssoc", "(ma >>= f) >>= g ≐ ma >>= (λ a => f a >>= g)",
            (V("fn", "f", dom="A", cod="M B"), V("fn", "g", dom="B", cod="M C"),
             V("carrier", "ma", cod="M A")), _mk_bind_assoc, needs=("bind",)),
        Law("W4", "liftPresEE", "f ≐ g -> (>>= f) ≐ (>>= g)",
            (V("fn", "f", dom="A", cod="M B"), V("carrier", "ma", cod="M A")),
            _mk_lift_pres_ee, needs=("bind",)),
        Law("W5", "triangleRightFromBind", "(λ ma => (ma >>= pure ∘ pure) >>= id) ≐ id",
            (V("carrier", "ma", cod="M A"),), _mk_triangle_right_from_bind,
            needs=("pure", "bind")),
        Law("E1", "mapFromBindAgrees", "map f ≐ (>>= pure ∘ f)",
            (V("fn", "f", dom="A", cod="B"), V("carrier", "ma", cod="M A")),
            _mk_map_from_bind, needs=("map", "pure", "bind"), views=("fat",)),
        Law("E2", "joinFromBindAgrees", "join ≐ (>>= id)",
            (V("carrier", "mma", cod="M M A"),), _mk_join_from_bind,
            needs=("join", "bind"), views=("fat",)),
        Law("E3", "kleisliFromBindAgrees", "(f >=> g) ≐ (λ a => f a >>= g)",
            (V("fn", "f", dom="A", cod="M B"), V("fn", "g", dom="B", cod="M C"),
             V("atom", "a", dom="A")), _mk_kleisli_from_bind,
            needs=_MONAD_OPS, views=("fat",)),
        Law("L1", "mapJoinLemma", "(map f ∘ join ∘ map g) ≐ (join ∘ map (map f ∘ g))",
            (V("fn", "g", dom="A", cod="M B"), V("fn", "f", dom="B", cod="C"),
             V("carrier", "ma", cod="M A")), _mk_map_join_lemma,
            needs=("map", "join")),
        Law("L2", "mapKleisliLemma", "(map h ∘ (f >=> g)) ≐ (f >=> map h ∘ g)",
            (V("fn", "f", dom="A", cod="M B"), V("fn", "g", dom="B", cod="M C"),
             V("fn", "h", dom="C", cod="D"), V("atom", "a", dom="A")),
            _mk_map_kleisli_lemma, needs=_MONAD_OPS),
    )
    return laws


LAW_IDS = tuple(law.id for law in law_catalog())

_CATALOG_BY_ID = {law.id: law for law in law_catalog()}


def law_by_id(law_id: str) -> Law:
    try:
        return _CATALOG_BY_ID[law_id]
    except KeyError:
        raise KeyError(f"unknown law id {law_id!r}; known: {', '.join(LAW_IDS)}")


# ---------------------------------------------------------------------------
# the runner


def _candidates(
    vs: VarSpec,
    idx: int,
    inst: Instance,
    domains: dict[str, FiniteType],
    q: Quantifier,
    cap: int,
) -> Var:
    """The scan variable for one bound variable: candidates, space
    description, true space size and mode."""
    if vs.kind == "fn":
        dom = domains[vs.dom]
        cod = resolve_carrier(vs.cod, inst, domains)
        size = function_space_size(dom, cod)
        sub = Quantifier(budget=q.budget, seed=sub_seed(q.seed, idx))
        cands = list(enumerate_functions(dom, cod, sub, cap))
        mode = "exhaustive" if size <= q.budget else "sampled"
        return Var(vs.name, f"{vs.dom}->{render_carrier(cod)}", cands, size, mode)
    if vs.kind == "atom":
        full = enumerate_domain(domains[vs.dom])
        space = vs.dom
    elif vs.kind == "carrier":
        desc = resolve_carrier(vs.cod, inst, domains)
        full = enumerate_carrier(desc, cap)
        space = render_carrier(desc)
    else:
        raise ValueError(f"unknown variable kind {vs.kind!r}")
    size = len(full)
    if size <= q.budget:
        return Var(vs.name, space, full, size)
    rng = random.Random(sub_seed(q.seed, idx))
    cands = [full[rng.randrange(size)] for _ in range(q.budget)]
    return Var(vs.name, space, cands, size, "sampled")


def check_law(
    law: Law,
    inst: Instance,
    domains: dict[str, FiniteType],
    q: Quantifier,
    cap: int = DEFAULT_CARRIER_CAP,
) -> LawReport:
    """Quantify per the law's shape and evaluate its checker, recording
    the first (least, when exhaustive) counterexample."""
    report = LawReport(
        law_id=law.id,
        instance=getattr(inst, "name", "?"),
        sizes={k: d.size for k, d in sorted(domains.items())},
    )
    missing = [op for op in law.needs if not hasattr(inst, op)]
    if missing:
        raise ValueError(
            f"law {law.id} needs operations {missing} that instance "
            f"{report.instance!r} does not provide"
        )
    return scan(
        report,
        lambda: [_candidates(vs, i, inst, domains, q, cap)
                 for i, vs in enumerate(law.variables)],
        law.make_checker(inst),
        budget=q.budget,
    )


# ---------------------------------------------------------------------------
# suites


@dataclass(frozen=True, slots=True)
class SuiteProfile:
    """Declarative description of one suite run: which laws against which
    instance at which sizes, under which quantifier."""

    name: str
    instance: str
    laws: tuple[str, ...] = ()  # empty means: every law the view admits
    view: str = "fat"
    sizes: tuple[tuple[str, int], ...] = (("A", 2), ("B", 2), ("C", 2), ("D", 2))
    max_len: int = 2
    max_support: int = 2
    budget: int = 100_000
    seed: int = 0
    carrier_cap: int = DEFAULT_CARRIER_CAP

    def domain_map(self) -> dict[str, FiniteType]:
        return {role: FiniteType(role, n) for role, n in self.sizes}

    def selected_laws(self) -> tuple[Law, ...]:
        if self.view not in ("thin", "fat"):
            raise ValueError(f"unknown suite view {self.view!r}")
        bad = [i for i in self.laws if i not in _CATALOG_BY_ID and i != "F3L2"]
        if bad:
            raise KeyError(f"unknown law ids in suite {self.name!r}: {bad}")
        if self.laws:
            return tuple(law for law in law_catalog() if law.id in self.laws)
        return tuple(law for law in law_catalog() if self.view in law.views)


def run_suite(inst: Instance, profile: SuiteProfile) -> list[LawReport]:
    """Run every law the profile selects, in catalog order. Functor-only
    instances (reader) are limited to the functor laws; selecting F3 (or
    F3L2 alone) for the reader also appends the level-2 tower check, since
    pointwise equality of function-valued outputs has a second layer
    there."""
    domains = profile.domain_map()
    q = Quantifier(budget=profile.budget, seed=profile.seed)
    reports = []
    for law in profile.selected_laws():
        if any(not hasattr(inst, op) for op in law.needs):
            if profile.laws:
                raise ValueError(
                    f"suite {profile.name!r} selects law {law.id} but instance "
                    f"{getattr(inst, 'name', '?')!r} lacks an operation it needs"
                )
            continue  # "all laws" on a functor instance: run what applies
        reports.append(check_law(law, inst, domains, q, cap=profile.carrier_cap))
    is_reader = isinstance(inst, FunctorInstance) and inst.name == "reader"
    if "F3L2" in profile.laws and not is_reader:
        raise ValueError(f"suite {profile.name!r} selects F3L2, a reader-only check")
    if is_reader and (not profile.laws or {"F3", "F3L2"} & set(profile.laws)):
        env = domains.get("E") or FiniteType("E", 2)
        reports.append(reader_pres_ee2_report(
            env, domains["A"], domains["B"], budget=profile.budget, seed=profile.seed,
        ))
    return reports


def reader_pres_ee2_report(
    env: FiniteType,
    dom_a: FiniteType,
    dom_b: FiniteType,
    budget: int = 100_000,
    seed: int = 0,
) -> LawReport:
    """The Reader boundary case, checked both ways.

    For every arrow pair f ~ g (pointwise-equal tables are identical, so
    classes are singletons) and every reader r: level-1 ext_eq compares
    mapR f r against mapR g r as tables; then the maps themselves are
    tabulated over the whole reader carrier and compared with the level-2
    tower, which descends reader-then-environment to any disagreement.
    Its own loop, not a scan: checked counts slot comparisons, not
    evaluations.
    """
    reader = reader_functor(env)
    q = Quantifier(budget=budget, seed=seed)
    r_carrier = enumerate_carrier(FnOf(env, Base(dom_a)))
    f_space = function_space_size(dom_a, Base(dom_b))
    fs = list(enumerate_functions(dom_a, Base(dom_b), q))
    report = LawReport(law_id="F3L2", instance="reader")
    report.sizes = {"E": env.size, "A": dom_a.size, "B": dom_b.size}
    report.quantifiers = [
        QuantifierStat(
            "f", "A->B", f_space,
            "exhaustive" if f_space <= q.budget else "sampled", len(fs),
        ),
        QuantifierStat("r", "E->A", len(r_carrier), "exhaustive", len(r_carrier)),
    ]
    report.detail = "level-1 scan per reader plus level-2 tower over tabulated maps"
    checked = 0
    for f in fs:
        g = f  # representative of the pointwise-equality class
        fn_f, fn_g = table_fn(f), table_fn(g)
        mapped_f, mapped_g = [], []
        for r in r_carrier:
            out_f = reader.map(fn_f, r)
            out_g = reader.map(fn_g, r)
            mapped_f.append(out_f)
            mapped_g.append(out_g)
            level1 = ext_eq(
                value_to_table(env, Base(dom_b), out_f),
                value_to_table(env, Base(dom_b), out_g),
            )
            checked += level1.checked
            if not level1.equal:
                x, left, right = level1.witness
                report.witness = {
                    "f": render_table(f), "r": render_value(r), "x": render_value(x),
                }
                break
        else:
            tab_f = Vec(tuple(mapped_f), len(mapped_f))
            tab_g = Vec(tuple(mapped_g), len(mapped_g))
            level2 = extify_eq(2, tab_f, tab_g)
            checked += level2.checked
            if not level2.equal:
                path, left, right = level2.witness
                report.witness = {"f": render_table(f), "path": render_value(path)}
        if report.witness is not None:
            report.passed = False
            report.witness["lhs"] = render_value(left)
            report.witness["rhs"] = render_value(right)
            break
    report.checked = checked
    return report
