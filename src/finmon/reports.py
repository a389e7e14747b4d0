"""The report record shared by the law suite, the dynamical-system
checks and the DP checks, and the one scan engine that every quantified
check runs through.

A check declares, as scan's renamed, the atom types whose renamings
commute with both of its sides: the role domains of a law on a
parametric instance, the states of mapLastLemma on a parametric system.
scan decides when to reduce. One walk serves every exhaustive scan: it
evaluates the least binding of each orbit (Ip and Dill, 1996), the
witness among them; under the trivial group it is the lexicographic
product. checked counts logical bindings, evaluated the calls of sides.
A scan keeps only what it visits: values and its own bookkeeping are
acyclic, so the cyclic collector is paused while it runs."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import operator
import random
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .values import (
    CarrierDesc,
    CarrierOverflow,
    CarrierTooLarge,
    FiniteType,
    Quantifier,
    relabeling,
    render_value,
    shown_count,
    sub_seed,
)


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

    passed is derived: true iff there is neither a witness nor a
    diagnostic. When every quantifier ran exhaustively the witness is the
    least counterexample in the lexicographic enumeration order of the
    bound-variable tuple. The witness maps variable names to canonically
    rendered values and always carries "lhs"/"rhs" renderings of the two
    disagreeing sides. elapsed_ms (wall-clock) and evaluated stay out of
    deterministic report sections.
    """

    law_id: str
    instance: str
    sizes: dict[str, int] = field(default_factory=dict)
    quantifiers: list[QuantifierStat] = field(default_factory=list)
    checked: int = 0
    witness: dict[str, str] | None = None
    diagnostic: str | None = None
    detail: str = ""
    elapsed_ms: float = 0.0
    evaluated: int = 0

    @property
    def passed(self) -> bool:
        return self.witness is None and self.diagnostic is None

    def to_deterministic_dict(self) -> dict:
        out = {
            "law": self.law_id,
            "instance": self.instance,
            "sizes": dict(sorted(self.sizes.items())),
            "quantifiers": [{**dataclasses.asdict(s), "size": shown_count(s.size)}
                            for s in self.quantifiers],
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


@dataclass(frozen=True, slots=True)
class Var:
    """One bound variable of a scan: candidates in visiting order, the
    label and true size of their space, and the witness rendering of a
    binding (a dict when one variable binds several names). candidates,
    iterated once, may be a one-shot stream: an exhaustive scan pulls the
    outermost lazily, never sized, so per-binding set-up computed there
    runs once, and makes a tuple of each inner level; a sampled scan
    indexes a Sequence (a Product) and makes a tuple of anything else.
    carriers are the carrier descriptors whose values the candidates
    enumerate end to end; a scan that renames atoms reads them."""

    name: str
    space: str
    candidates: Iterable
    size: int
    render: Callable[[Any], str | dict[str, str]] = render_value
    carriers: Sequence[CarrierDesc] = ()


def exhaustive(sizes: Sequence[int], q: Quantifier | None) -> bool:
    """Whether a scan over spaces of these sizes visits their product."""
    return q is None or max(sizes) <= q.budget


# The cap on |group| x Σ|space| past which a scan visits every binding:
# 2 MiB of 8-byte image entries, under 10% of laws-full's 23 MB peak RSS,
# and four times the widest check at the default sizes (simpleprob T3,
# 2 x 31,192). A check past it is out of reach anyway (nondet W3 at sizes 3).
SYMMETRY_CAP = 1 << 18


def _images(variables: Sequence[Var], renamed: Sequence[FiniteType]) -> list[list[array]]:
    """Each variable's index permutation under every renaming of the
    atoms of renamed but the identity, in a fixed order; none when the
    group is trivial or its tables pass SYMMETRY_CAP."""
    order = math.prod(math.factorial(min(d.size, 20)) for d in renamed)  # 20! passes any cap
    if order == 1 or order * sum(v.size for v in variables) > SYMMETRY_CAP:
        return []
    perms = itertools.product(*(itertools.permutations(range(d.size)) for d in renamed))
    group = [dict(zip(renamed, g)) for g in itertools.islice(perms, 1, None)]

    def image(descs, g):
        out = array("q")
        for desc in descs:
            offset = len(out)
            out.extend(offset + i for i in relabeling(desc, g))
        return out

    return [[image(v.carriers, g) for g in group] for v in variables]


def _walk(variables: Sequence[Var], images: list) -> Iterable[tuple[int, tuple]]:
    """(rank in the full product, binding) of each binding that no element
    of the group of images (as _images gives them, [] for the trivial
    group) maps lower, in lexicographic order. An outermost candidate, pulled
    one at a time, is kept iff its least image is not below it, and gets its
    stabilizer only if inner levels follow. Below, a candidate that an element
    fixing its prefix maps lower is pruned with its subtree; below a prefix
    only the identity fixes, the rest of the product is taken whole."""
    inner = [tuple(v.candidates) for v in variables[1:]]
    weights = [math.prod(map(len, inner[i:])) for i in range(len(variables))]
    heads, n, survivors = variables[0].candidates, len(variables), {}  # per (level, stabilizer)
    if not images:  # only the identity fixes the empty prefix
        return enumerate(itertools.chain.from_iterable(
            itertools.product((head,), *inner) for head in heads))
    kept = ((c, head) for c, head, least in zip(itertools.count(), heads, map(min, zip(*images[0])))
            if least >= c)
    if n == 1:
        return ((c, (head,)) for c, head in kept)

    def fixing(i, live, c):  # the stabilizer of candidate c, None if live maps it lower
        moved = [images[i][g][c] for g in live]
        if all(d >= c for d in moved):
            return tuple(g for g, d in zip(live, moved) if d == c)

    def below(i, live, rank, prefix):  # runs of the bindings that extend prefix
        stack = [(i, live, rank, prefix)]  # no recursion: a closure calling itself is a cycle
        while stack:
            i, live, rank, prefix = stack.pop()
            if i == n:
                yield ((rank, prefix),)
            elif not live:  # zip(prefix) gives the prefix's values as 1-tuples
                yield zip(itertools.count(rank), itertools.product(*zip(prefix), *inner[i - 1:]))
            else:
                if (i, live) not in survivors:
                    survivors[i, live] = [(c, x, stab) for c, x in enumerate(inner[i - 1])
                                          if (stab := fixing(i, live, c)) is not None]
                stack.extend((i + 1, stab, rank + c * weights[i], prefix + (x,))
                             for c, x, stab in reversed(survivors[i, live]))

    return itertools.chain.from_iterable(itertools.chain.from_iterable(
        below(1, tuple(g for g, image in enumerate(images[0]) if image[c] == c),
              c * weights[0], (head,)) for c, head in kept))


def _orbits(variables: Sequence[Var], images: list) -> int:
    """The orbits of the group of images on the variables' product, by Burnside's
    lemma: the mean over the group of the bindings each element fixes."""
    fixed = sum(math.prod(sum(map(operator.eq, image, range(len(image)))) for image in g)
                for g in zip(*images))
    return (math.prod(v.size for v in variables) + fixed) // (len(images[0]) + 1)


def _plan(
    variables: Sequence[Var], q: Quantifier | None, renamed: Sequence[FiniteType] = ()
) -> tuple[Iterable[tuple[int, tuple]], int, list[QuantifierStat], list]:
    """The bindings a scan visits with their ranks, how many bindings
    the scan stands for, each variable's stat and the group's image tables.

    Vacuous, visiting nothing of any space, when a space is empty.
    Exhaustive when exhaustive() says so: _walk visits, in lexicographic
    order, one binding per orbit under renaming the atoms of renamed, or
    every binding when _images gives no tables (the trivial group). Otherwise
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
        images = [] if vacuous else _images(variables, renamed)
        return () if vacuous else _walk(variables, images), math.prod(sizes), stats, images
    picks = []
    for i, n in enumerate(sizes):
        rng = random.Random(sub_seed(q.seed, i))
        picks.append([rng.randrange(n) for _ in range(q.budget)])
    stats = [QuantifierStat(v.name, v.space, v.size, "sampled", len(set(p)))
             for v, p in zip(variables, picks)]
    spaces = [c if isinstance(c := v.candidates, Sequence) else tuple(c) for v in variables]
    return enumerate(tuple(s[k] for s, k in zip(spaces, ks))
                     for ks in zip(*picks)), q.budget, stats, []


def scan(
    report: LawReport,
    variables: Callable[[], Sequence[Var]],
    sides: Callable[..., tuple],
    q: Quantifier | None = None,
    renamed: Sequence[FiniteType] = (),
) -> LawReport:
    """Visit the bindings _plan chooses and stop at the first whose two
    sides differ: the least counterexample when the scan is exhaustive.
    renamed are the atom types whose renamings commute with both sides,
    none by default; every variable then carries its carriers.

    variables() builds the variables inside the scan, so a carrier past
    its cap stops the check before its first evaluation. The cyclic
    collector is paused from then on, and enabled again at the end, also
    when the scan raises, iff it was enabled on entry. sides(*binding)
    returns (lhs, rhs), optionally with a dict of extra witness entries.
    A carrier past its cap, an overflowing operation, an evaluation nested
    past the recursion limit, or a passing reduced scan whose evaluations
    miss _orbits' count fails the report with a diagnostic, not a witness."""
    t0 = time.perf_counter()
    rank, evaluated = -1, 0
    collecting = gc.isenabled()
    gc.disable()  # values are acyclic: reference counting frees all a scan drops
    try:
        bound = variables()
        bindings, total, report.quantifiers, images = _plan(bound, q, renamed)
        for rank, binding in bindings:
            evaluated += 1
            out = sides(*binding)
            if out[0] != out[1]:
                lhs, rhs, *extra = out
                report.witness = {}
                for v, value in zip(bound, binding):
                    shown = v.render(value)
                    if isinstance(shown, dict):
                        report.witness.update(shown)
                    else:
                        report.witness[v.name] = shown
                for entries in (*extra, {"lhs": lhs, "rhs": rhs}):
                    report.witness.update((k, render_value(x)) for k, x in entries.items())
                break
        else:
            rank = total - 1
            if images and evaluated != (orbits := _orbits(bound, images)):
                report.diagnostic = (f"orbit count: the scan evaluated {evaluated} bindings, "
                                     f"but Burnside's lemma counts {orbits} orbits")
    except (CarrierTooLarge, CarrierOverflow) as exc:
        report.diagnostic = str(exc)
    except RecursionError:
        report.diagnostic = (f"recursion too deep: evaluation passed the interpreter's "
                             f"limit of {sys.getrecursionlimit()} frames")
    finally:
        if collecting:
            gc.enable()
    # checked counts the bindings up to the one the scan stopped at
    report.checked, report.evaluated = rank + 1, evaluated
    report.elapsed_ms = (time.perf_counter() - t0) * 1000
    return report
