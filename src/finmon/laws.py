"""The law catalog: every functor/monad property as a finite check.

A law is data: its bound variables (domain elements, carrier values or
function tables) and two sides, lhs and rhs: point-free arrows, both
applied to the law's one atom or carrier variable. Arrows are built from
table leaves (one per fn variable), id, pure, join, ∘ (written @), map
and >>= (Bind); f >=> g (written >>) is (join ∘ map g) ∘ f, so that
join ∘ map g is a subterm of its own. A law needs the instance
operations its sides apply.

Premise laws (mapPresEE, kleisliPresEE, liftPresEE) quantify over
pointwise-equality classes of arrows. Tables are extensional by
construction: two tables agree at every point iff they are equal, so
pointwise equality is == and each class has one member. The primed
arrow f' is f itself: a leaf of its own that reads the table of f. These
checks certify that the operations are functions of the table, not of
its identity. On the reader, whose mapped values are functions of the
environment, F3 has a level-2 reading, F3L2 (reader_pres_ee2_report):
it runs F3's compiled sides at every reader and descends to the first
reader and slot where they differ.

Each check compiles the two terms into one function of the binding,
which calls the instance's operations where the terms apply them, and
hands it with the whole variable spaces to reports.scan. The scan visits
the whole product in canonical order when it fits the budget, so the
first failing binding is the least counterexample, and otherwise
samples (see reports._plan). On an instance declared parametric, whose
operations must commute with every renaming of atoms past the carrier
bounds too, a check declares that renaming the atoms of the law's role
domains commutes with its sides, and the scan decides when to evaluate
only the least binding of each renaming orbit; checked still counts
every binding up to the witness.

One memo rule decides what is cached. A side's root is not, and neither
is a subterm applied to the bound variable that reads every table: its
key would be the whole binding. Each maximal remaining subterm gets its
own lru_cache for the check, keyed on the tables it reads and its input,
and the rule applies again inside it, with its input and tables in
place of the bound variable and every table. A subterm that applies no
map, join or bind is never cached. Subterms holding a primed leaf get
caches of their own, so the primed side makes its own operation calls.

Two suite views exist. The "fat" view checks all 25 laws, with bind
and Kleisli composition's relation to join/map (BJ, KJ) and the
bind-derived forms (E1-E3). Bind is an operation of its own, but >> is
defined as join ∘ map g ∘ f, so KJ's two terms are identical and KJ
holds by construction. The "thin" view skips those five checks, which
are definitional when bind and Kleisli composition are derived from
join; W1-W5 run the instance's own bind in both views.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .instances import MonadInstance
from .reports import LawReport, Var, scan
from .values import (
    Atom,
    Base,
    CarrierDesc,
    FiniteType,
    FnOf,
    Quantifier,
    Seq,
    Value,
    carrier_size,
    enumerate_carrier,
    enumerate_domain,
    enumerate_functions,
    refuse_wide,
    render_carrier,
    stream_carrier,
    DEFAULT_CARRIER_CAP,
)

__all__ = [
    "Arrow", "VarSpec", "Law", "law_catalog", "law_by_id",
    "check_law", "suite_checks", "run_suite", "reader_pres_ee2_report", "LAW_IDS",
]


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


# ---------------------------------------------------------------------------
# terms

_INSTANCE_OPS = ("map", "pure", "join", "bind")


@dataclass(frozen=True)
class Arrow:
    """A point-free arrow. op is "id", "pure", "join", "comp" (args:
    outer, inner), "map" or "bind" (args: the mapped or bound arrow);
    any other op is a table leaf named after the fn variable it reads,
    and a primed leaf "f'" reads the table of f."""

    op: str
    args: tuple["Arrow", ...] = ()

    def __matmul__(self, inner: "Arrow") -> "Arrow":
        return Arrow("comp", (self, inner))

    def __rshift__(self, then: "Arrow") -> "Arrow":
        return JOIN @ Map(then) @ self

    @property
    def table(self) -> str | None:
        return None if self.args or self.op in ("id", "pure", "join") else self.op.rstrip("'")

    def nodes(self) -> Iterator["Arrow"]:
        yield self
        for arg in self.args:
            yield from arg.nodes()

    def reads(self) -> frozenset[str]:
        return frozenset(n.table for n in self.nodes() if n.table)


ID, PURE, JOIN = Arrow("id"), Arrow("pure"), Arrow("join")


def Map(arrow: Arrow) -> Arrow:
    return Arrow("map", (arrow,))


def Bind(arrow: Arrow) -> Arrow:
    return Arrow("bind", (arrow,))


@dataclass(frozen=True, eq=False)
class Law:
    id: str
    name: str
    statement: str
    variables: tuple[VarSpec, ...]
    lhs: Arrow
    rhs: Arrow
    views: tuple[str, ...] = ("thin", "fat")

    @property
    def needs(self) -> tuple[str, ...]:
        """The instance operations the sides apply."""
        used = {n.op for side in (self.lhs, self.rhs) for n in side.nodes()}
        return tuple(op for op in _INSTANCE_OPS if op in used)


def resolve_carrier(expr: str, inst: MonadInstance, domains: dict[str, FiniteType]) -> CarrierDesc:
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
# the compiler

# Cache bounds of the memo rule. Table-reading subterms must hold D3's
# 16,807 (g, h, f a) keys; table-free ones see few inputs that recur.
# Simpleprob T3 at sizes 2 is the widest: at this bound its outer joins, m0
# on join mmma and m2 on map join mmma, hit 2,175 and 9,423 times and miss
# 13,465 and 6,217 times, over 10,975 and 3,943 distinct keys. A bound of
# 65,536, holding them all, raised --suite full's peak RSS 19.6 -> 26.9 MB.
MEMO_TABLE_READING = 1 << 15
MEMO_TABLE_FREE = 1 << 10


def _compile(law: Law, inst: MonadInstance) -> Callable[..., tuple[Value, Value]]:
    """sides(*binding) -> (lhs, rhs) for law on inst, with fresh caches.

    The terms are compiled to source, not to a closure per node, so that
    a binding crosses one frame for both sides and one per cached
    subterm it misses."""
    order = [v.name for v in law.variables]
    every_table = frozenset(v.name for v in law.variables if v.kind == "fn")
    (var,) = (v.name for v in law.variables if v.kind != "fn")
    defs: list[str] = []
    fresh = itertools.count()

    def code(t: Arrow, x: str, scope: frozenset[str], on_input: bool, root: bool = False) -> str:
        """Python for t applied to x, inside a term keyed on the tables in
        scope: t is that term's root, or applied to its input if on_input."""
        reads = t.reads()
        if not (root or (on_input and reads == scope)
                or all(n.op not in ("map", "join", "bind") for n in t.nodes())):
            body = code(t, "x", reads, True, root=True)
            name = f"m{len(defs)}"
            args = [n for n in order if n in reads]
            bound = MEMO_TABLE_READING if reads else MEMO_TABLE_FREE
            defs.append(f"    @lru_cache({bound})\n"
                        f"    def {name}({', '.join(args + ['x'])}):\n"
                        f"        return {body}\n")
            return f"{name}({', '.join(args + [x])})"
        if t.table:
            return f"{t.table}.entries[{x}.index]"
        if t.op == "id":
            return x
        if t.op in ("pure", "join"):
            return f"{t.op}({x})"
        if t.op == "comp":
            outer, inner = t.args
            return code(outer, code(inner, x, scope, on_input), scope, False)
        v = f"v{next(fresh)}"
        body = code(t.args[0], v, scope, False)
        called = body.removesuffix(f"({v})")  # map(join, x), not map(lambda v: join(v), x)
        fn = called if called != body and called.isidentifier() else f"lambda {v}: {body}"
        return f"map({fn}, {x})" if t.op == "map" else f"bind({x}, {fn})"

    lhs, rhs = (code(side, var, every_table, True, root=True) for side in (law.lhs, law.rhs))
    # code reaches itself through its cell, and make (popped below) through its
    # globals: cycles that only the collector would free
    del code
    source = (f"def make({', '.join(_INSTANCE_OPS)}, lru_cache):\n{''.join(defs)}"
              f"    def sides({', '.join(order)}):\n"
              f"        return {lhs}, {rhs}\n"
              f"    return sides\n")
    namespace: dict = {}
    exec(source, namespace)
    return namespace.pop("make")(*(getattr(inst, op) for op in _INSTANCE_OPS), functools.lru_cache)


# ---------------------------------------------------------------------------
# the catalog


def law_catalog() -> tuple[Law, ...]:
    """All 25 laws, in stable catalog order."""
    V, fat = VarSpec, ("fat",)
    f, g, h, f_, g_ = (Arrow(n) for n in ("f", "g", "h", "f'", "g'"))
    a, ma = V("atom", "a", dom="A"), V("carrier", "ma", cod="M A")
    mma, mmma = V("carrier", "mma", cod="M M A"), V("carrier", "mmma", cod="M M M A")
    f_ab, f_amb = V("fn", "f", dom="A", cod="B"), V("fn", "f", dom="A", cod="M B")
    g_bc, g_bmc = V("fn", "g", dom="B", cod="C"), V("fn", "g", dom="B", cod="M C")
    return (
        Law("F1", "mapPresId", "map id ≐ id", (ma,), Map(ID), ID),
        Law("F2", "mapPresComp", "map (g ∘ f) ≐ map g ∘ map f", (f_ab, g_bc, ma),
            Map(g @ f), Map(g) @ Map(f)),
        Law("F3", "mapPresEE", "f ≐ g -> map f ≐ map g", (f_ab, ma), Map(f), Map(f_)),
        Law("T1", "triangleLeft", "join ∘ pure ≐ id", (ma,), JOIN @ PURE, ID),
        Law("T2", "triangleRight", "join ∘ map pure ≐ id", (ma,), JOIN @ Map(PURE), ID),
        Law("T3", "square", "join ∘ join ≐ join ∘ map join", (mmma,),
            JOIN @ JOIN, JOIN @ Map(JOIN)),
        Law("T4", "pureNatTrans", "map f ∘ pure ≐ pure ∘ f", (f_ab, a), Map(f) @ PURE, PURE @ f),
        Law("T5", "joinNatTrans", "map f ∘ join ≐ join ∘ map (map f)", (f_ab, mma),
            Map(f) @ JOIN, JOIN @ Map(Map(f))),
        Law("KJ", "kleisliJoinMapSpec", "(f >=> g) ≐ join ∘ map g ∘ f", (f_amb, g_bmc, a),
            f >> g, JOIN @ Map(g) @ f, fat),
        Law("BJ", "bindJoinMapSpec", "(>>= f) ≐ join ∘ map f", (f_amb, ma),
            Bind(f), JOIN @ Map(f), fat),
        Law("D1", "pureLeftIdKleisli", "(pure >=> f) ≐ f", (f_amb, a), PURE >> f, f),
        Law("D2", "pureRightIdKleisli", "(f >=> pure) ≐ f", (f_amb, a), f >> PURE, f),
        Law("D3", "kleisliAssoc", "((f >=> g) >=> h) ≐ (f >=> (g >=> h))",
            (f_amb, g_bmc, V("fn", "h", dom="C", cod="M D"), a),
            (f >> g) >> h, f >> (g >> h)),
        Law("D4", "kleisliPresEE", "f ≐ f', g ≐ g' -> (f >=> g) ≐ (f' >=> g')",
            (f_amb, g_bmc, a), f >> g, f_ >> g_),
        Law("D5", "kleisliLeapfrog", "(f >=> g) ≐ (id >=> g) ∘ f", (f_amb, g_bmc, a),
            f >> g, (ID >> g) @ f),
        Law("W1", "pureLeftIdBind", "(λ a => pure a >>= f) ≐ f", (f_amb, a), Bind(f) @ PURE, f),
        Law("W2", "pureRightIdBind", "(>>= pure) ≐ id", (ma,), Bind(PURE), ID),
        Law("W3", "bindAssoc", "(ma >>= f) >>= g ≐ ma >>= (λ a => f a >>= g)",
            (f_amb, g_bmc, ma), Bind(g) @ Bind(f), Bind(Bind(g) @ f)),
        Law("W4", "liftPresEE", "f ≐ g -> (>>= f) ≐ (>>= g)", (f_amb, ma), Bind(f), Bind(f_)),
        Law("W5", "triangleRightFromBind", "(λ ma => (ma >>= pure ∘ pure) >>= id) ≐ id",
            (ma,), Bind(ID) @ Bind(PURE @ PURE), ID),
        Law("E1", "mapFromBindAgrees", "map f ≐ (>>= pure ∘ f)", (f_ab, ma),
            Map(f), Bind(PURE @ f), fat),
        Law("E2", "joinFromBindAgrees", "join ≐ (>>= id)", (mma,), JOIN, Bind(ID), fat),
        Law("E3", "kleisliFromBindAgrees", "(f >=> g) ≐ (λ a => f a >>= g)",
            (f_amb, g_bmc, a), f >> g, Bind(g) @ f, fat),
        Law("L1", "mapJoinLemma", "(map f ∘ join ∘ map g) ≐ (join ∘ map (map f ∘ g))",
            (V("fn", "g", dom="A", cod="M B"), V("fn", "f", dom="B", cod="C"), ma),
            Map(f) @ JOIN @ Map(g), JOIN @ Map(Map(f) @ g)),
        Law("L2", "mapKleisliLemma", "(map h ∘ (f >=> g)) ≐ (f >=> map h ∘ g)",
            (f_amb, g_bmc, V("fn", "h", dom="C", cod="D"), a),
            Map(h) @ (f >> g), f >> (Map(h) @ g)),
    )


_CATALOG_BY_ID = {law.id: law for law in law_catalog()}

LAW_IDS = tuple(_CATALOG_BY_ID)


def law_by_id(law_id: str) -> Law:
    try:
        return _CATALOG_BY_ID[law_id]
    except KeyError:
        raise KeyError(f"unknown law id {law_id!r}; known: {', '.join(LAW_IDS)}")


# ---------------------------------------------------------------------------
# the runner


def _variable(
    vs: VarSpec, inst: MonadInstance, domains: dict[str, FiniteType], cap: int
) -> Var:
    """The scan variable for one bound variable: its whole space in
    canonical order, with the space's description and size, and the
    carrier it ranges over, FnOf(dom, cod) for tables; a carrier's is a
    one-shot stream. A domain or carrier past cap raises CarrierTooLarge
    before the space is sized."""
    if vs.kind == "fn":
        dom = domains[vs.dom]
        cod = resolve_carrier(vs.cod, inst, domains)
        fns = enumerate_functions(dom, cod, cap)
        fn = FnOf(dom, cod)
        return Var(vs.name, f"{vs.dom}->{render_carrier(cod)}", fns,
                   carrier_size(fn), carriers=(fn,))
    if vs.kind == "atom":
        desc = Base(domains[vs.dom])
        full = enumerate_domain(refuse_wide(desc.domain, cap))
        space = vs.dom
    elif vs.kind == "carrier":
        desc = resolve_carrier(vs.cod, inst, domains)
        full = stream_carrier(desc, cap)
        space = render_carrier(desc)
    else:
        raise ValueError(f"unknown variable kind {vs.kind!r}")
    return Var(vs.name, space, full, carrier_size(desc), carriers=(desc,))


def check_law(
    law: Law,
    inst: MonadInstance,
    domains: dict[str, FiniteType],
    q: Quantifier,
    cap: int = DEFAULT_CARRIER_CAP,
) -> LawReport:
    """Quantify per the law's shape and evaluate its two terms, recording
    the first (least, when exhaustive) counterexample."""
    report = LawReport(
        law_id=law.id,
        instance=inst.name,
        sizes={k: d.size for k, d in sorted(domains.items())},
    )
    missing = [op for op in law.needs if getattr(inst, op) is None]
    if missing:
        raise ValueError(
            f"law {law.id} needs operations {missing} that instance "
            f"{report.instance!r} does not provide"
        )

    roles = sorted({vs.dom for vs in law.variables if vs.dom}
                   | {vs.cod.split()[-1] for vs in law.variables if vs.cod})
    renamed = (list(dict.fromkeys(domains[r] for r in roles if r in domains))
               if inst.parametric else [])
    return scan(report, lambda: [_variable(vs, inst, domains, cap) for vs in law.variables],
                _compile(law, inst), q, renamed)


# ---------------------------------------------------------------------------
# suites


def suite_checks(inst: MonadInstance, ids: Sequence[str] = (),
                 view: str = "fat") -> tuple[str, ...]:
    """The ids of the checks a suite runs on inst, in catalog order: the
    laws that ids names or, when ids is empty, every law of the view that
    inst can run. The reader's level-2 check F3L2 follows when F3 runs or
    ids names it. This is the one place that chooses a suite's checks.

    A ValueError, its message led by the argument at fault ("laws" or
    "view"), rejects an unknown view or id, F3L2 on any instance but the
    reader, and a named law whose operations inst lacks."""
    if view not in ("thin", "fat"):
        raise ValueError(f"view: unknown suite view {view!r}")
    is_reader = inst.name == "reader"
    for law_id in ids:
        if law_id not in LAW_IDS and law_id != "F3L2":
            raise ValueError(f"laws: unknown law id {law_id!r} (known: {', '.join(LAW_IDS)})")
        if law_id == "F3L2" and not is_reader:
            raise ValueError("laws: F3L2 applies only to instance 'reader'")
    checks = []
    for law in _CATALOG_BY_ID.values():
        if law.id in ids if ids else view in law.views:
            if all(getattr(inst, op) is not None for op in law.needs):
                checks.append(law.id)
            elif ids:
                raise ValueError(f"laws: instance {inst.name!r} lacks an operation "
                                 f"that law {law.id} needs")
    if is_reader and ("F3" in checks or "F3L2" in ids):
        checks.append("F3L2")
    return tuple(checks)


def run_suite(
    inst: MonadInstance,
    checks: tuple[str, ...],
    domains: dict[str, FiniteType],
    q: Quantifier,
    cap: int = DEFAULT_CARRIER_CAP,
) -> list[LawReport]:
    """Run the checks suite_checks chose, in order."""
    return [
        reader_pres_ee2_report(inst, domains, q, cap)
        if c == "F3L2" else check_law(_CATALOG_BY_ID[c], inst, domains, q, cap)
        for c in checks
    ]


def reader_pres_ee2_report(
    inst: MonadInstance,
    domains: dict[str, FiniteType],
    q: Quantifier | None = None,
    cap: int = DEFAULT_CARRIER_CAP,
) -> LawReport:
    """The Reader boundary case: map respects pointwise equality at
    level 2, on the reader instance inst.

    mapR f and mapR f' are functions of the reader: they are equal at
    level 2 iff F3's two sides, map f ma and map f' ma, are equal tables
    (level 1) at every reader ma. For each arrow f (pointwise-equal
    tables are identical, so f' is f), F3's compiled sides run on every
    reader in canonical order, and a witness is the path (reader, slot)
    to the first disagreement with the two sides there. checked counts
    one evaluation per arrow.
    """
    sides = _compile(_CATALOG_BY_ID["F3"], inst)
    readers: list[Value] = []

    def variables():
        readers.extend(enumerate_carrier(resolve_carrier("M A", inst, domains), cap))
        dom, cod = domains["A"], Base(domains["B"])
        return [Var("f", "A->B", enumerate_functions(dom, cod, cap),
                    carrier_size(FnOf(dom, cod)))]

    def level2(f):
        for r, ma in enumerate(readers):
            lhs, rhs = sides(f, ma)
            for slot, (x, y) in enumerate(zip(lhs.items, rhs.items, strict=True)):
                if x != y:
                    return x, y, {"path": Seq((Atom(r), Atom(slot)))}
        return None, None  # equal at every reader and slot

    report = LawReport(
        law_id="F3L2", instance=inst.name, sizes={r: domains[r].size for r in "ABE"},
        detail="level-2 tower over mapR on every reader, implying level-1 per reader",
    )
    return scan(report, variables, level2, q)
