"""Pointwise function equality, decidable because functions are tables.

extify_eq is the leveled tower: level 0 is plain canonical equality of
values, level k+1 compares two vector-encoded functions by requiring
level-k equality at every slot. Level 1 is the executable reading of "f
and g agree at every point of the domain". Level 2 is what a functor
with a function-valued carrier (Reader) needs, because its mapped values
are themselves functions.

A collapse worth stating once, plainly: tables are extensional by
construction, so pointwise equality of two tables holds iff the tables
are structurally identical. Intensional equality (same representation)
and extensional equality (same behaviour) coincide at level 1 here.
The level-2 tower has real content for function-valued codomains, where
slot-by-slot descent is not the same operation as a single structural
comparison (it reports the input path to the first disagreement rather
than a bare "not equal"). Composition preserving pointwise equality is
law D4 of the catalog on the identity monad, where Kleisli composition
is function composition.
"""

from __future__ import annotations

from .reports import EqReport
from .values import Atom, Seq, Value, Vec

__all__ = ["extify_eq"]


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
        if f != g:
            return EqReport(False, (Seq(()), f, g), 1)
        return EqReport(True, None, 1)
    if not isinstance(f, Vec) or not isinstance(g, Vec):
        raise ValueError(
            f"extify_eq level {level} needs vector-encoded functions, "
            f"got {f!r} / {g!r}"
        )
    if len(f.items) != len(g.items):
        raise ValueError("extify_eq over functions with different domains")
    checked = 0
    for i in range(len(f.items)):
        sub = extify_eq(level - 1, f.items[i], g.items[i])
        checked += sub.checked
        if not sub.equal:
            path, left, right = sub.witness
            return EqReport(
                False, (Seq((Atom(i),) + path.items), left, right), checked
            )
    return EqReport(True, None, checked)
