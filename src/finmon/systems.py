"""Finite monadic dynamical systems.

A monadic system steps each state into a monadic structure over the
finite state space. A deterministic system is a monadic system over the
identity monad, so one generic check covers both: function composition
is Kleisli composition in identity. Flows iterate steps, trajectories
record the visited states. Every theorem about them here is a bounded
check returning a report.

Conventions, fixed once:

* the left flow binds the flow so far through one more step,
  `flow (n+1) x = flow n x >>= step`; the right flow takes the step
  first, `step x >>= flow n`. `flow` with no suffix means the left one.
* `flow`, `flow_mon_left`, `flow_mon_right` and `trj` take their level
  at n - 1, over all states, as an optional `prev` and then grow only
  level n. Every flow check scans n ascending as its outermost variable
  and hands each level to the next: linear work in n_max, where
  rebuilding each level from pure was quadratic.
* a trajectory is a function of time: n steps from x are a vector of
  n + 1 states, a value of FnOf(T(n + 1), X) (values.Vec), heads first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .instances import MonadInstance
from .reports import LawReport, Var, scan
from .values import (
    Atom,
    Base,
    FiniteType,
    FnOf,
    FnTable,
    Value,
    Vec,
    enumerate_carrier,
    enumerate_domain,
    render_value,
    table_fn,
    tabulate,
    DEFAULT_CARRIER_CAP,
)

__all__ = [
    "MonSys", "flow_mon_left", "flow_mon_right",
    "flow", "trj", "map_last",
    "check_flow_lr", "check_flow_mon_r_lem", "check_flow_monoid",
    "check_repr_lemma", "check_map_last_lemma",
    "check_flow_trj", "SYSTEM_CHECKS", "run_system_check",
]


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
# monadic flows


def _flow(sys: MonSys, n: int, prev: FnTable | None, grow) -> FnTable:
    """The flow at n, grown one step by grow from prev, the flow at
    n - 1, when the caller holds it, else n steps from pure."""
    level, done = ((prev.entries, n - 1) if prev is not None else
                   (tuple(sys.monad.pure(y) for y in enumerate_domain(sys.domain)), 0))
    for _ in range(done, n):
        level = grow(level)
    return FnTable(sys.domain, sys.step.codomain, level)


def flow_mon_left(sys: MonSys, n: int, prev: FnTable | None = None) -> FnTable:
    """Iterate by taking the flow so far, then one more step; prev, the
    flow at n - 1, saves all steps but the last."""
    m, step_fn = sys.monad, sys.step_fn()
    return _flow(sys, n, prev, lambda level: tuple(m.bind(mv, step_fn) for mv in level))


def flow_mon_right(sys: MonSys, n: int, prev: FnTable | None = None) -> FnTable:
    """Iterate by taking one step, then the flow of the rest; prev as above."""
    m = sys.monad
    return _flow(sys, n, prev, lambda level: tuple(
        m.bind(mv, lambda z: level[z.index]) for mv in sys.step.entries))


def flow(sys: MonSys, n: int, prev: FnTable | None = None) -> FnTable:
    """The flow of a monadic system; the left recursion is canonical."""
    return flow_mon_left(sys, n, prev)


def _base_report(law_id: str, sys: MonSys) -> LawReport:
    return LawReport(
        law_id=law_id,
        instance=sys.monad.name,
        sizes={"X": sys.domain.size},
        detail=f"system={sys.name}",
    )


def _n_var(n_max: int, *builds: Callable) -> Var:
    """The step count as the outermost variable, ascending. Riding along
    with n is build(n, prev) of each build, grown from its level at
    n - 1 (None at 0) when the scan reaches n."""

    def levels():
        prev = (None,) * len(builds)
        for n in range(n_max + 1):
            prev = tuple(build(n, p) for build, p in zip(builds, prev))
            yield (n, *prev)

    return Var("n", f"0..{n_max}", levels(), n_max + 1, render=lambda nb: str(nb[0]))


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
        lambda: [_n_var(n_max, partial(flow_mon_left, sys), partial(flow_mon_right, sys)),
                 _x_var(sys.domain)],
        sides,
    )


def check_flow_mon_r_lem(sys: MonSys, n_max: int) -> LawReport:
    """The right flow leapfrogs its step: flowR f n >=> f is pointwise
    equal to f >=> flowR f n."""
    m = sys.monad
    step_fn = sys.step_fn()

    def sides(nb, a):
        _, flow_n = nb
        lhs = m.bind(flow_n.entries[a.index], step_fn)
        return lhs, m.bind(sys.step.entries[a.index], table_fn(flow_n))

    return scan(
        _base_report("flowMonRLem", sys),
        lambda: [_n_var(n_max, partial(flow_mon_right, sys)), _x_var(sys.domain)],
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

    def variables():
        for n in range(total_max + 1):
            flows.append(flow(sys, n, flows[-1] if n else None))
        # quadratically many splits, so yielded one at a time
        splits = itertools.chain([(0, 0, True)], (
            (mm, total - mm, False)
            for total in range(total_max + 1) for mm in range(total + 1)
        ))
        return [
            Var("(m, n)", f"unit, m+n<={total_max}", splits,
                1 + (total_max + 1) * (total_max + 2) // 2,
                render=lambda sp: {"m": str(sp[0]), "n": str(sp[1])}),
            _x_var(sys.domain),
        ]

    def sides(split, a):
        mm, nn, unit = split
        if unit:
            return flows[0].entries[a.index], m.pure(a)
        return flows[mm + nn].entries[a.index], m.bind(flows[mm].entries[a.index], table_fn(flows[nn]))

    return scan(_base_report("flowMonoid", sys), variables, sides)


# ---------------------------------------------------------------------------
# representations


def check_repr_lemma(sys: MonSys, n_max: int, cap: int = DEFAULT_CARRIER_CAP) -> LawReport:
    """Lifting the n-step flow equals iterating the lifted step n times,
    over the whole bounded carrier of monadic states.

    The left side binds a carrier value through flow f n. The right side
    applies the lift n times by functional iteration; materializing it
    as an index-table composition would require every intermediate bind
    to land back inside the bounded carrier, which fails for stochastic
    weights and growing sequences. As n ascends, the right side keeps
    each mx's latest iterate and lifts it once more."""
    m = sys.monad
    step_fn = sys.step_fn()
    iterates: list[Value] = []

    def variables():
        carrier_vals = enumerate_carrier(m.carrier_of(Base(sys.domain)), cap)
        iterates.extend(carrier_vals)
        return [
            _n_var(n_max, partial(flow, sys)),
            Var("mx", "M X", tuple(enumerate(carrier_vals)), len(carrier_vals),
                render=lambda im: render_value(im[1])),
        ]

    def sides(nb, im):
        (n, flow_n), (i, mx) = nb, im
        lhs = m.bind(mx, table_fn(flow_n))
        if n:
            iterates[i] = m.bind(iterates[i], step_fn)
        return lhs, iterates[i]

    return scan(_base_report("reprLemma", sys), variables, sides)


# ---------------------------------------------------------------------------
# trajectories


def _prepend(x: Atom):
    return lambda vec: Vec((x,) + vec.items)


def trj(sys: MonSys, n: int, x: Atom, prev: tuple[Value, ...] | None = None) -> Value:
    """All n-step trajectories from x: an M-structure of state vectors
    of length n + 1, heads first. Level k at y, built over all states at
    once from level k - 1, is map (prepend y) (step y >>= level k - 1)."""
    m = sys.monad

    def at(y, below):
        return m.map(_prepend(y), m.pure(Vec(())) if below is None else
                     m.bind(sys.step.entries[y.index], lambda z: below[z.index]))

    if prev is None:
        for _ in range(n):
            prev = tuple(at(y, prev) for y in enumerate_domain(sys.domain))
    return at(x, prev)


def _last(vec: Value) -> Value:
    if not vec.items:
        raise ValueError("last of an empty vector")
    return vec.items[-1]


def map_last(sys: MonSys, mvx: Value) -> Value:
    return sys.monad.map(_last, mvx)


def check_map_last_lemma(
    sys: MonSys, max_len: int, cap: int = DEFAULT_CARRIER_CAP
) -> LawReport:
    """Mapping last after mapping a prepend is just mapping last, over
    every monadic structure of nonempty vectors up to max_len, shortest
    vectors first, each carrier enumerated once and each structure's
    right side, which does not read x, computed once."""
    m = sys.monad

    def variables():
        values = tuple(
            (mvx, map_last(sys, mvx)) for ln in range(1, max_len + 1)
            for mvx in enumerate_carrier(
                m.carrier_of(FnOf(FiniteType("T", ln), Base(sys.domain))), cap))
        return [_x_var(sys.domain),
                Var("mvx", f"M Vec[X;len=1..{max_len}]", values, len(values),
                    render=lambda mp: render_value(mp[0]))]

    return scan(_base_report("mapLastLemma", sys), variables,
                lambda x, mp: (map_last(sys, m.map(_prepend(x), mp[0])), mp[1]))


def check_flow_trj(sys: MonSys, n_max: int) -> LawReport:
    """The flow is the trajectory structure with everything but the
    final state forgotten: flow f n x equals map last (trj f n x)."""

    def sides(nb, x):
        _, flow_n, trj_n = nb
        return flow_n.entries[x.index], map_last(sys, trj_n[x.index])

    def trj_level(n, prev):
        return tuple(trj(sys, n, y, prev) for y in enumerate_domain(sys.domain))

    return scan(
        _base_report("flowTrjLemma", sys),
        lambda: [_n_var(n_max, partial(flow, sys), trj_level), _x_var(sys.domain)],
        sides,
    )


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
