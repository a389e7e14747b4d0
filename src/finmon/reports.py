"""Report records shared by the equality engine, the law suite, the
dynamical-system checks and the DP checks, and the one scan engine that
every quantified check runs through.

An exhaustive scan whose variables all have images under a group of atom
renamings evaluates the least binding of each orbit only (Ip and Dill,
1996). Its caller vouches that renaming commutes with both sides, which
never return None, so the witness is among them. checked counts logical
bindings either way; evaluated counts the calls of sides."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from .values import (
    CarrierOverflow,
    CarrierTooLarge,
    FnTable,
    Quantifier,
    Value,
    render_table,
    render_value,
    sub_seed,
)


@dataclass(frozen=True, slots=True)
class EqReport:
    """Verdict of a pointwise function-equality check.

    equal is true iff witness is absent. A witness is the least differing
    input in canonical order: (input, left output, right output). For
    leveled checks the input is a Seq of the inputs along the path to the
    disagreement, outermost first.
    """

    equal: bool
    witness: tuple[Value, Value, Value] | None
    checked: int


@dataclass(frozen=True, slots=True)
class QuantifierStat:
    """How one bound variable was visited."""

    var: str
    space: str
    size: int
    mode: str  # "exhaustive" or "sampled"
    count: int


@dataclass(slots=True)
class LawReport:
    """Outcome of checking one named property for one instance.

    passed is true iff witness is absent. When every quantifier ran
    exhaustively the witness is the least counterexample in the
    lexicographic enumeration order of the bound-variable tuple. The
    witness maps variable names to canonically rendered values and always
    carries "lhs"/"rhs" renderings of the two disagreeing sides. elapsed_ms
    (wall-clock) and evaluated stay out of deterministic report sections.
    """

    law_id: str
    instance: str
    sizes: dict[str, int] = field(default_factory=dict)
    quantifiers: list[QuantifierStat] = field(default_factory=list)
    passed: bool = True
    checked: int = 0
    witness: dict[str, str] | None = None
    diagnostic: str | None = None
    detail: str = ""
    elapsed_ms: float = 0.0
    evaluated: int = 0

    def to_deterministic_dict(self) -> dict:
        out = {
            "law": self.law_id,
            "instance": self.instance,
            "sizes": dict(sorted(self.sizes.items())),
            "quantifiers": [dataclasses.asdict(s) for s in self.quantifiers],
            "pass": self.passed,
            "checked": self.checked,
        }
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        if self.diagnostic is not None:
            out["diagnostic"] = self.diagnostic
        if self.detail:
            out["detail"] = self.detail
        return out


# ---------------------------------------------------------------------------
# the scan engine


def render_any(v) -> str:
    """Canonical text of a binding or a side: tables, values and numbers."""
    if isinstance(v, FnTable):
        return render_table(v)
    if isinstance(v, int):
        return str(v)
    return render_value(v)


@dataclass(frozen=True, slots=True)
class Var:
    """One bound variable of a scan: candidates in visiting order, the
    label and true size of their space, and the witness rendering of a
    binding (a dict when one variable binds several names). Exhaustive
    scans iterate the candidates, the outermost one value at a time, so
    per-binding set-up computed there runs once; sampled scans index
    them, so they must then be a Sequence of length size. images holds
    the candidates' index permutation under each non-identity element
    of one renaming group, in the same order for every variable."""

    name: str
    space: str
    candidates: Iterable
    size: int
    render: Callable[[Any], str | dict[str, str]] = render_any
    images: Sequence[Sequence[int]] = ()


def _product(variables: Sequence[Var]) -> Iterable[tuple]:
    """The lexicographic product of the candidates. The outermost
    variable is consumed one value at a time, never materialized."""
    inner = [tuple(v.candidates) for v in variables[1:]]
    return itertools.chain.from_iterable(
        itertools.product((head,), *inner) for head in variables[0].candidates
    )


def exhaustive(sizes: Sequence[int], q: Quantifier | None) -> bool:
    """Whether a scan over spaces of these sizes visits their product."""
    return q is None or max(sizes) <= q.budget


def _orbit_least(variables: Sequence[Var]) -> Iterator[tuple[int, tuple]]:
    """(rank in the full product, binding) of each binding that no group
    element maps lower, in order. Elements that fix the prefix stay live;
    a candidate that a live one maps lower is skipped with its subtree."""
    spaces = [tuple(v.candidates) for v in variables]

    def visit(i, live, rank, prefix):
        if i == len(spaces):
            yield rank, prefix
            return
        for c, value in enumerate(spaces[i]):
            moved = [(variables[i].images[g][c], g) for g in live]
            if all(d >= c for d, _ in moved):
                fixing = [g for d, g in moved if d == c]
                yield from visit(i + 1, fixing, rank * len(spaces[i]) + c, prefix + (value,))

    return visit(0, range(len(variables[0].images)), 0, ())


def _plan(
    variables: Sequence[Var], q: Quantifier | None
) -> tuple[Iterable[tuple[int, tuple]], int, list[QuantifierStat]]:
    """The bindings a scan visits with their ranks, how many bindings
    the scan stands for, and the stat of each variable.

    Exhaustive, in lexicographic order, when exhaustive() says so, one
    binding per orbit when every variable has images, and vacuous,
    visiting nothing of any space, when a space is empty. Otherwise
    q.budget joint bindings drawn up front: variable i draws uniformly
    with replacement from its own stream, seeded with sub_seed(q.seed,
    i), so every variable varies and the first k draws are the same
    under any budget of at least k. A sampled variable reports how many
    distinct values it drew."""
    sizes = [v.size for v in variables]
    vacuous = 0 in sizes
    if vacuous or exhaustive(sizes, q):
        stats = [QuantifierStat(v.name, v.space, v.size, "exhaustive",
                                0 if vacuous else v.size) for v in variables]
        bindings = (() if vacuous else _orbit_least(variables)
                    if all(v.images for v in variables) else enumerate(_product(variables)))
        return bindings, math.prod(sizes), stats
    picks = []
    for i, n in enumerate(sizes):
        rng = random.Random(sub_seed(q.seed, i))
        picks.append([rng.randrange(n) for _ in range(q.budget)])
    stats = [QuantifierStat(v.name, v.space, v.size, "sampled", len(set(p)))
             for v, p in zip(variables, picks)]
    return enumerate(tuple(v.candidates[k] for v, k in zip(variables, ks))
                     for ks in zip(*picks)), q.budget, stats


def scan(
    report: LawReport,
    variables: Callable[[], Sequence[Var]],
    sides: Callable[..., tuple | None],
    q: Quantifier | None = None,
) -> LawReport:
    """Visit the bindings _plan chooses and stop at the first whose two
    sides differ: the least counterexample when the scan is exhaustive.

    variables() builds the variables inside the scan, so a carrier past
    its cap stops the check before its first evaluation. sides(*binding)
    returns (lhs, rhs), optionally with a dict of extra witness entries,
    or None for a binding outside the property's domain, which is not
    counted. A carrier past its cap, an overflowing operation or an
    evaluation nested past the interpreter's recursion limit fails the
    report with a diagnostic instead of a witness."""
    t0 = time.perf_counter()
    rank, skipped, evaluated = -1, 0, 0
    try:
        bound = variables()
        bindings, total, report.quantifiers = _plan(bound, q)
        for rank, binding in bindings:
            evaluated += 1
            out = sides(*binding)
            if out is None:
                skipped += 1
                continue
            if out[0] != out[1]:
                lhs, rhs, *extra = out
                report.passed = False
                report.witness = {}
                for v, value in zip(bound, binding):
                    shown = v.render(value)
                    if isinstance(shown, dict):
                        report.witness.update(shown)
                    else:
                        report.witness[v.name] = shown
                for entries in extra:
                    report.witness.update(
                        (k, render_any(x)) for k, x in entries.items()
                    )
                report.witness["lhs"] = render_any(lhs)
                report.witness["rhs"] = render_any(rhs)
                break
        else:
            rank = total - 1
    except (CarrierTooLarge, CarrierOverflow) as exc:
        report.passed = False
        report.diagnostic = str(exc)
    except RecursionError:
        report.passed = False
        report.diagnostic = (f"recursion too deep: evaluation passed the interpreter's "
                             f"limit of {sys.getrecursionlimit()} frames")
    # checked counts the bindings up to the one the scan stopped at
    report.checked, report.evaluated = rank + 1 - skipped, evaluated
    report.elapsed_ms = (time.perf_counter() - t0) * 1000
    return report
