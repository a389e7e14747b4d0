"""Pointwise function equality, decidable because functions are tables.

Two flavours live here. ext_eq compares two FnTables input by input; it
is the executable reading of "f and g agree at every point of the
domain". extify_eq is the leveled tower: level 0 is plain canonical
equality of values, level k+1 compares two vector-encoded functions by
requiring level-k equality at every slot. Level 2 is what a functor with
a function-valued carrier (Reader) needs, because its mapped values are
themselves functions.

A collapse worth stating once, plainly: tables are extensional by
construction, so pointwise equality of two tables holds iff the tables
are structurally identical. Intensional equality (same representation)
and extensional equality (same behaviour) coincide at level 1 here. Both
APIs are kept anyway: the law catalog states some properties in terms of
each, and the level-2 tower has real content for function-valued
codomains, where slot-by-slot descent is not the same operation as a
single structural comparison (it reports the input path to the first
disagreement rather than a bare "not equal").
"""

from __future__ import annotations

from typing import Callable

from .reports import EqReport, LawReport, Var, scan
from .values import (
    Atom,
    Base,
    FiniteType,
    FnTable,
    Quantifier,
    Seq,
    Value,
    Vec,
    canonical_compare,
    enumerate_functions,
    function_space_size,
)

__all__ = [
    "ext_eq", "extify_eq", "compose_tables", "check_comp_pres_ee",
]


def ext_eq(f: FnTable, g: FnTable) -> EqReport:
    """Scan the shared domain in atom order; equal iff every output pair
    compares equal. The witness, if any, is the least disagreeing input."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ValueError(
            f"ext_eq over mismatched tables: {f.domain}/{g.domain}"
        )
    checked = 0
    for i in range(f.domain.size):
        checked += 1
        a, b = f.entries[i], g.entries[i]
        if canonical_compare(a, b) != 0:
            return EqReport(False, (Atom(i), a, b), checked)
    return EqReport(True, None, checked)


def extify_eq(level: int, f: Value, g: Value) -> EqReport:
    """Level-indexed equality on vector-encoded functions.

    level 0: canonical equality of the two values (empty input path).
    level k+1: f and g must be Vecs of one length; equal iff level-k
    equality holds slot by slot. The witness input is a Seq of the atoms
    indexing the path to the first level-0 disagreement.
    """
    if level < 0:
        raise ValueError("extify level must be non-negative")
    if level == 0:
        if canonical_compare(f, g) != 0:
            return EqReport(False, (Seq(()), f, g), 1)
        return EqReport(True, None, 1)
    if not isinstance(f, Vec) or not isinstance(g, Vec):
        raise ValueError(
            f"extify_eq level {level} needs vector-encoded functions, "
            f"got {f!r} / {g!r}"
        )
    if f.length != g.length:
        raise ValueError("extify_eq over functions with different domains")
    checked = 0
    for i in range(f.length):
        sub = extify_eq(level - 1, f.items[i], g.items[i])
        checked += sub.checked
        if not sub.equal:
            path, left, right = sub.witness
            return EqReport(
                False, (Seq((Atom(i),) + path.items), left, right), checked
            )
    return EqReport(True, None, checked)


def compose_tables(g: FnTable, f: FnTable) -> FnTable:
    """g after f. f's codomain must be the base carrier of g's domain."""
    if not isinstance(f.codomain, Base) or f.codomain.domain != g.domain:
        raise ValueError(
            f"cannot compose: inner table maps into {f.codomain}, "
            f"outer table expects {g.domain}"
        )
    return FnTable(
        f.domain, g.codomain, tuple(g.entries[v.index] for v in f.entries)
    )


def check_comp_pres_ee(
    dom_a: FiniteType,
    dom_b: FiniteType,
    dom_c: FiniteType,
    q: Quantifier,
    composer: Callable[[FnTable, FnTable], FnTable] = compose_tables,
) -> LawReport:
    """Composition preserves pointwise equality: f ~ f' and g ~ g' imply
    (g . f) ~ (g' . f').

    Pointwise-equal tables are identical, so each equality class has one
    member and the quantification enumerates (f, g) once, taking the
    primed pair from the same class. The composer argument exists for
    harness self-tests: inject a faulty composition and the check must
    fail with a witness.
    """
    report = LawReport(
        law_id="compPresEE", instance="-",
        sizes={"A": dom_a.size, "B": dom_b.size, "C": dom_c.size},
    )

    def fn_var(name: str, label: str, dom: FiniteType, cod: FiniteType) -> Var:
        size = function_space_size(dom, Base(cod))
        mode = "exhaustive" if size <= q.budget else "sampled"
        tables = list(enumerate_functions(dom, Base(cod), q))
        return Var(name, label, tables, size, mode)

    def sides(f, g):
        reference, candidate = compose_tables(g, f), composer(g, f)
        verdict = ext_eq(reference, candidate)
        if verdict.equal:
            return reference, candidate
        x, left, right = verdict.witness
        return left, right, {"x": x}

    return scan(
        report,
        lambda: [fn_var("f", "A->B", dom_a, dom_b), fn_var("g", "B->C", dom_b, dom_c)],
        sides,
    )
