"""Finite dynamical systems, deterministic and monadic.

A deterministic system is an endofunction table on a finite state
space; a monadic system steps into a monadic structure over the state
space. Flows iterate steps, trajectories record the visited states.
Every theorem about them here is a bounded check returning a report.

Conventions, fixed once:

* the left flow recursion peels steps off the front: one step first,
  then the rest of the flow. The right recursion does the opposite.
  `flow` with no suffix means the left monadic variant.
* `repr_table` materializes the Kleisli lift of a step as an honest
  lookup table over the enumerated bounded carrier. Its outputs are not
  constrained to that carrier: iterated stochastic steps leave the
  weight grid (half of a third is a sixth) and iterated nondeterminism
  outgrows any length bound. `check_repr_lemma` therefore evaluates the
  deterministic flow of the lift by functional iteration instead of by
  composing index tables, which would force exactly that constraint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .instances import MonadInstance
from .reports import LawReport, Var, scan
from .values import (
    Atom,
    Base,
    FiniteType,
    FnTable,
    Quantifier,
    Value,
    Vec,
    VecOf,
    enumerate_carrier,
    enumerate_domain,
    enumerate_functions,
    identity_table,
    table_fn,
    tabulate,
    DEFAULT_CARRIER_CAP,
)

__all__ = [
    "DetSys", "MonSys", "flow_det_left", "flow_det_right",
    "check_det_flow_lr", "embed", "flow_mon_left", "flow_mon_right",
    "flow", "repr_table", "trj", "map_last",
    "check_flow_lr", "check_flow_mon_r_lem", "check_flow_monoid",
    "check_repr_lemma", "check_last_lemma", "check_map_last_lemma",
    "check_flow_trj", "SYSTEM_CHECKS", "run_system_check",
]


@dataclass(frozen=True, slots=True)
class DetSys:
    """A deterministic dynamical system: one endofunction table."""

    name: str
    domain: FiniteType
    step: FnTable

    def __post_init__(self):
        if self.step.domain != self.domain or self.step.codomain != Base(self.domain):
            raise ValueError("deterministic step must be an endofunction table")


@dataclass(frozen=True, slots=True, eq=False)
class MonSys:
    """A monadic dynamical system: a step table into M over the states."""

    name: str
    monad: MonadInstance
    domain: FiniteType
    step: FnTable

    def __post_init__(self):
        want = self.monad.carrier_of(Base(self.domain))
        if self.step.domain != self.domain or self.step.codomain != want:
            raise ValueError(
                f"monadic step must map {self.domain} into {want}"
            )

    def step_fn(self) -> Callable[[Value], Value]:
        return table_fn(self.step)


def mon_sys(
    name: str,
    monad: MonadInstance,
    domain: FiniteType,
    fn: Callable[[Atom], Value],
) -> MonSys:
    carrier = monad.carrier_of(Base(domain))
    return MonSys(name, monad, domain, tabulate(domain, carrier, fn))


# ---------------------------------------------------------------------------
# deterministic flows


def flow_det_left(step: FnTable, n: int) -> FnTable:
    """n-fold iteration, peeling one step off the front."""
    out = identity_table(step.domain)
    for _ in range(n):
        out = FnTable(
            step.domain,
            step.codomain,
            tuple(out.entries[v.index] for v in step.entries),
        )
    return out


def flow_det_right(step: FnTable, n: int) -> FnTable:
    """n-fold iteration, appending one step at the end."""
    out = identity_table(step.domain)
    for _ in range(n):
        out = FnTable(
            step.domain,
            step.codomain,
            tuple(step.entries[v.index] for v in out.entries),
        )
    return out


def check_det_flow_lr(
    domain: FiniteType, n_max: int, q: Quantifier
) -> LawReport:
    """Both deterministic flow recursions agree, as tables, for every
    endofunction and every iteration count up to n_max. Tables are
    extensional by construction, so table equality settles it."""
    report = LawReport(law_id="flowDetLR", instance="det", sizes={"X": domain.size})
    return scan(
        report,
        lambda: [
            Var("f", "X->X", enumerate_functions(domain, Base(domain)),
                domain.size**domain.size),
            Var("n", f"0..{n_max}", range(n_max + 1), n_max + 1),
        ],
        lambda step, n: (flow_det_left(step, n), flow_det_right(step, n)),
        q,
    )


# ---------------------------------------------------------------------------
# monadic flows


def embed(det: DetSys, monad: MonadInstance, name: str | None = None) -> MonSys:
    """View a deterministic system as a monadic one through pure."""
    carrier = monad.carrier_of(Base(det.domain))
    det_fn = table_fn(det.step)
    return MonSys(
        name or det.name,
        monad,
        det.domain,
        tabulate(det.domain, carrier, lambda a: monad.pure(det_fn(a))),
    )


def flow_mon_left(sys: MonSys, n: int) -> FnTable:
    """Iterate by taking the flow so far, then one more step."""
    m = sys.monad
    if n == 0:
        return tabulate(
            sys.domain, sys.step.codomain, lambda a: m.pure(a)
        )
    prev = flow_mon_left(sys, n - 1)
    step_fn = sys.step_fn()
    return FnTable(
        sys.domain,
        sys.step.codomain,
        tuple(m.bind(mv, step_fn) for mv in prev.entries),
    )


def flow_mon_right(sys: MonSys, n: int) -> FnTable:
    """Iterate by taking one step, then the flow of the rest."""
    m = sys.monad
    if n == 0:
        return tabulate(sys.domain, sys.step.codomain, lambda a: m.pure(a))
    prev = flow_mon_right(sys, n - 1)
    prev_fn = table_fn(prev)
    return FnTable(
        sys.domain,
        sys.step.codomain,
        tuple(m.bind(mv, prev_fn) for mv in sys.step.entries),
    )


def flow(sys: MonSys, n: int) -> FnTable:
    """The flow of a monadic system; the left recursion is canonical."""
    return flow_mon_left(sys, n)


def _base_report(law_id: str, sys: MonSys) -> LawReport:
    return LawReport(
        law_id=law_id,
        instance=sys.monad.name,
        sizes={"X": sys.domain.size},
        detail=f"system={sys.name}",
    )


def _n_var(n_max: int, per_n: Callable[[int], tuple]) -> Var:
    """The step count as the outermost variable. per_n(n) runs once per
    n, when the scan reaches it, and its results ride along with n."""
    return Var("n", f"0..{n_max}", ((n, *per_n(n)) for n in range(n_max + 1)),
               n_max + 1, render=lambda nb: str(nb[0]))


def _x_var(domain: FiniteType) -> Var:
    return Var("x", "X", enumerate_domain(domain), domain.size)


def check_flow_lr(sys: MonSys, n_max: int) -> LawReport:
    """flow_mon_left f n is pointwise equal to flow_mon_right f n for
    every n up to n_max."""

    def sides(nb, a):
        _, left, right = nb
        return left.entries[a.index], right.entries[a.index]

    return scan(
        _base_report("flowLR", sys),
        lambda: [
            _n_var(n_max, lambda n: (flow_mon_left(sys, n), flow_mon_right(sys, n))),
            _x_var(sys.domain),
        ],
        sides,
    )


def check_flow_mon_r_lem(sys: MonSys, n_max: int) -> LawReport:
    """The right flow leapfrogs its step: flowR f n >=> f is pointwise
    equal to f >=> flowR f n."""
    m = sys.monad
    step_fn = sys.step_fn()

    def per_n(n):
        flow_n = flow_mon_right(sys, n)
        return flow_n, table_fn(flow_n)

    def sides(nb, a):
        _, flow_n, flow_fn = nb
        lhs = m.bind(flow_n.entries[a.index], step_fn)
        return lhs, m.bind(sys.step.entries[a.index], flow_fn)

    return scan(
        _base_report("flowMonRLem", sys),
        lambda: [_n_var(n_max, per_n), _x_var(sys.domain)],
        sides,
    )


def check_flow_monoid(sys: MonSys, total_max: int) -> LawReport:
    """flow is a monoid morphism from (N, +, 0) into Kleisli arrows:
    flow f 0 is pure and flow f (m + n) is flow f m >=> flow f n,
    checked pointwise for every split with m + n <= total_max.

    The split variable visits the unit first, then every split (m, n)
    by increasing total."""
    m = sys.monad
    flows: list[FnTable] = []
    fns: list[Callable[[Value], Value]] = []

    def variables():
        flows.extend(flow(sys, n) for n in range(total_max + 1))
        fns.extend(table_fn(f) for f in flows)
        splits = [(0, 0, True)] + [
            (mm, total - mm, False)
            for total in range(total_max + 1) for mm in range(total + 1)
        ]
        return [
            Var("(m, n)", f"unit, m+n<={total_max}", splits, len(splits),
                render=lambda sp: {"m": str(sp[0]), "n": str(sp[1])}),
            _x_var(sys.domain),
        ]

    def sides(split, a):
        mm, nn, unit = split
        if unit:
            return flows[0].entries[a.index], m.pure(a)
        return flows[mm + nn].entries[a.index], m.bind(flows[mm].entries[a.index], fns[nn])

    return scan(_base_report("flowMonoid", sys), variables, sides)


# ---------------------------------------------------------------------------
# representations


def repr_table(sys: MonSys, cap: int = DEFAULT_CARRIER_CAP) -> FnTable:
    """The Kleisli lift id >=> step of the system, written out as a
    table over the enumerated bounded carrier. Entry i is the result of
    binding carrier value i through the step; results may leave the
    bounded carrier (see the module docstring)."""
    m = sys.monad
    carrier = m.carrier_of(Base(sys.domain))
    vals = enumerate_carrier(carrier, cap)
    step_fn = sys.step_fn()
    synth = FiniteType(f"idx({sys.name})", len(vals))
    entries = tuple(m.bind(mv, step_fn) for mv in vals)
    return FnTable(synth, carrier, entries)


def check_repr_lemma(sys: MonSys, n_max: int, cap: int = DEFAULT_CARRIER_CAP) -> LawReport:
    """Lifting the n-step flow equals iterating the lifted step n times,
    over the whole bounded carrier of monadic states.

    The left side binds a carrier value through flow f n. The right side
    applies the lift n times by functional iteration; materializing it
    as an index-table composition would require every intermediate bind
    to land back inside the bounded carrier, which fails for stochastic
    weights and growing sequences."""
    m = sys.monad
    step_fn = sys.step_fn()

    def variables():
        carrier_vals = enumerate_carrier(m.carrier_of(Base(sys.domain)), cap)
        return [
            _n_var(n_max, lambda n: (table_fn(flow(sys, n)),)),
            Var("mx", "M X", carrier_vals, len(carrier_vals)),
        ]

    def sides(nb, mx):
        n, flow_fn = nb
        lhs = m.bind(mx, flow_fn)
        rhs = mx
        for _ in range(n):
            rhs = m.bind(rhs, step_fn)
        return lhs, rhs

    return scan(_base_report("reprLemma", sys), variables, sides)


# ---------------------------------------------------------------------------
# trajectories


def _prepend(x: Atom):
    return lambda vec: Vec((x,) + vec.items, vec.length + 1)


def trj(sys: MonSys, n: int, x: Atom) -> Value:
    """All n-step trajectories from x: an M-structure of state vectors
    of length n + 1, heads first."""
    m = sys.monad
    if n == 0:
        return m.map(_prepend(x), m.pure(Vec((), 0)))
    step_fn = sys.step_fn()
    return m.map(_prepend(x), m.bind(step_fn(x), lambda y: trj(sys, n - 1, y)))


def _last(vec: Value) -> Value:
    if not vec.items:
        raise ValueError("last of an empty vector")
    return vec.items[-1]


def map_last(sys: MonSys, mvx: Value) -> Value:
    return sys.monad.map(_last, mvx)


def _vectors_var(name: str, space: str, carrier_of, domain: FiniteType,
                 max_len: int, cap: int) -> Var:
    """Every structure of nonempty vectors up to max_len, shortest
    vectors first, each carrier enumerated once."""
    values = tuple(itertools.chain.from_iterable(
        enumerate_carrier(carrier_of(VecOf(Base(domain), ln)), cap)
        for ln in range(1, max_len + 1)
    ))
    return Var(name, f"{space}[X;len=1..{max_len}]", values, len(values))


def check_last_lemma(
    domain: FiniteType, max_len: int, cap: int = DEFAULT_CARRIER_CAP
) -> LawReport:
    """Prepending never changes the last element of a nonempty vector."""
    return scan(
        LawReport(law_id="lastLemma", instance="det", sizes={"X": domain.size}),
        lambda: [
            _x_var(domain),
            _vectors_var("vx", "Vec", lambda c: c, domain, max_len, cap),
        ],
        lambda x, vec: (_last(_prepend(x)(vec)), _last(vec)),
    )


def check_map_last_lemma(
    sys: MonSys, max_len: int, cap: int = DEFAULT_CARRIER_CAP
) -> LawReport:
    """Mapping last after mapping a prepend is just mapping last, over
    every monadic structure of nonempty vectors up to max_len."""
    m = sys.monad
    return scan(
        _base_report("mapLastLemma", sys),
        lambda: [
            _x_var(sys.domain),
            _vectors_var("mvx", "M Vec", m.carrier_of, sys.domain, max_len, cap),
        ],
        lambda x, mvx: (m.map(_last, m.map(_prepend(x), mvx)), m.map(_last, mvx)),
    )


def check_flow_trj(sys: MonSys, n_max: int) -> LawReport:
    """The flow is the trajectory structure with everything but the
    final state forgotten: flow f n x equals map last (trj f n x)."""
    return scan(
        _base_report("flowTrjLemma", sys),
        lambda: [_n_var(n_max, lambda n: (flow(sys, n),)), _x_var(sys.domain)],
        lambda nb, x: (nb[1].entries[x.index], map_last(sys, trj(sys, nb[0], x))),
    )


# ---------------------------------------------------------------------------
# trajectory mass cross-checks, used by tests and examples


def trajectory_count(sys: MonSys, n: int, x: Atom) -> int:
    """Number of recorded trajectories for sequence-shaped monads."""
    return len(trj(sys, n, x).items)


def trajectory_weight(sys: MonSys, n: int, x: Atom) -> Fraction:
    """Total probability mass of the trajectory distribution."""
    return sum((w for _, w in trj(sys, n, x).entries), Fraction(0))


# ---------------------------------------------------------------------------
# check registry, used by the command line front end

SYSTEM_CHECKS = {
    "flowLR": check_flow_lr,
    "flowMonRLem": check_flow_mon_r_lem,
    "flowMonoid": check_flow_monoid,
    "reprLemma": check_repr_lemma,
    "mapLastLemma": check_map_last_lemma,
    "flowTrjLemma": check_flow_trj,
}


def run_system_check(
    name: str, sys: MonSys, n_max: int, cap: int = DEFAULT_CARRIER_CAP
) -> LawReport:
    """Run one named check. n_max is the step count of the flow checks
    and the vector length of mapLastLemma; cap bounds the carriers that
    reprLemma and mapLastLemma enumerate."""
    try:
        fn = SYSTEM_CHECKS[name]
    except KeyError:
        raise KeyError(
            f"unknown system check {name!r}; known: {', '.join(sorted(SYSTEM_CHECKS))}"
        )
    if fn in (check_repr_lemma, check_map_last_lemma):
        return fn(sys, n_max, cap)
    return fn(sys, n_max)
