"""Report records shared by the equality engine, the law suite, the
dynamical-system checks and the DP checks, and the one scan engine that
every quantified check runs through."""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

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
    is wall-clock and is kept out of deterministic report sections.
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
    if isinstance(v, (int, Fraction)):
        return str(v)
    return render_value(v)


@dataclass(frozen=True, slots=True)
class Var:
    """One bound variable of a scan: candidates in visiting order, the
    label and true size of their space, and the witness rendering of a
    binding (a dict when one variable binds several names). Exhaustive
    scans iterate the candidates, the outermost one value at a time, so
    per-binding set-up computed there runs once; sampled scans index
    them, so they must then be a Sequence of length size."""

    name: str
    space: str
    candidates: Iterable
    size: int
    render: Callable[[Any], str | dict[str, str]] = render_any


def _product(variables: Sequence[Var]) -> Iterable[tuple]:
    """The lexicographic product of the candidates. The outermost
    variable is consumed one value at a time, never materialized."""
    inner = [tuple(v.candidates) for v in variables[1:]]
    return itertools.chain.from_iterable(
        itertools.product((head,), *inner) for head in variables[0].candidates
    )


def _plan(
    variables: Sequence[Var], q: Quantifier | None
) -> tuple[Iterable[tuple], list[QuantifierStat]]:
    """The bindings a scan visits, with the stat of each variable.

    Exhaustive, in lexicographic order, without a quantifier or when
    every space fits its budget; vacuous when a space is empty.
    Otherwise q.budget joint bindings drawn up front: variable i draws
    uniformly with replacement from its own stream, seeded with
    sub_seed(q.seed, i), so every variable varies and the first k draws
    are the same under any budget of at least k. A sampled variable
    reports how many distinct values it drew."""
    sizes = [v.size for v in variables]
    vacuous = 0 in sizes
    if vacuous or q is None or max(sizes) <= q.budget:
        stats = [QuantifierStat(v.name, v.space, v.size, "exhaustive", v.size)
                 for v in variables]
        return (() if vacuous else _product(variables)), stats
    picks = []
    for i, n in enumerate(sizes):
        rng = random.Random(sub_seed(q.seed, i))
        picks.append([rng.randrange(n) for _ in range(q.budget)])
    stats = [QuantifierStat(v.name, v.space, v.size, "sampled", len(set(p)))
             for v, p in zip(variables, picks)]
    return (tuple(v.candidates[k] for v, k in zip(variables, ks))
            for ks in zip(*picks)), stats


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
    counted. A carrier past its cap or an overflowing operation fails
    the report with a diagnostic instead of a witness."""
    t0 = time.perf_counter()
    checked = 0
    try:
        bound = variables()
        bindings, report.quantifiers = _plan(bound, q)
        for binding in bindings:
            checked += 1
            out = sides(*binding)
            if out is None:
                checked -= 1
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
    except (CarrierTooLarge, CarrierOverflow) as exc:
        report.passed = False
        report.diagnostic = str(exc)
    report.checked = checked
    report.elapsed_ms = (time.perf_counter() - t0) * 1000
    return report
