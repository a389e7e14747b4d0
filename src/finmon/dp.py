"""Finite-horizon sequential decision processes over a monad.

A process steps from state to state under chosen controls, collecting
exact rational rewards. The monad shapes the uncertainty of each step;
a measure turns a monadic structure of rewards into one number.

Two value functions are implemented. `val` is the textbook backward
recursion: it applies the measure at every node it evaluates. `val_spec`
first builds the full monadic structure of accumulated reward sums and
applies the measure exactly once at the root. The two agree exactly
when the measure is compatible with shifting rewards by a constant, and
`check_val_equiv` refuses to compare them under a measure that fails
that precondition, reporting the shift witness instead. An exhaustive
check memoizes each node on all it reads, as ints: t, x, the control
ps[0][x] and the later controls ps[1:]. val keeps every node, rews the
nodes below the root and val_spec each root's measured value. A sampled
check keeps no memo, as its long tails seldom recur.

Rewards ride inside monadic values as bare Fraction leaves, values of no
enumerated carrier, so monadic operations transport exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from typing import Callable

from .instances import MonadInstance
from .reports import LawReport, Var, exhaustive, scan
from .values import (
    Atom,
    Base,
    Dist,
    FiniteType,
    Opt,
    Product,
    Quantifier,
    Seq,
    Value,
    Vec,
    enumerate_carrier,
    enumerate_domain,
    render_value,
    DEFAULT_CARRIER_CAP,
)

__all__ = [
    "Measure", "MEASURES", "get_measure",
    "Sdp", "PolicySeq", "enumerate_policy_seqs",
    "val", "rews", "val_spec",
    "check_measure_shift", "check_val_equiv",
]


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True, slots=True)
class Measure:
    """Collapses one monadic structure of Fraction leaves to one; the
    instances are those whose structures it can measure."""

    name: str
    apply: Callable[[Value], Fraction]
    instances: tuple[str, ...] = ()


def _expected(mv: Value) -> Fraction:
    if not isinstance(mv, Dist):
        raise TypeError(f"expected-value measure needs a distribution, got {mv!r}")
    return sum((w * r for r, w in mv.entries), Fraction(0))


def _maximum(mv: Value) -> Fraction:
    if not isinstance(mv, Seq):
        raise TypeError(f"max measure needs a sequence, got {mv!r}")
    if not mv.items:
        raise ValueError("max measure is undefined on the empty sequence")
    return max(mv.items)


def _point(mv: Value) -> Fraction:
    if not isinstance(mv, Fraction):
        raise TypeError(f"point measure needs a bare rational, got {mv!r}")
    return mv


def _default_zero(mv: Value) -> Fraction:
    if not isinstance(mv, Opt):
        raise TypeError(f"default-zero measure needs an optional, got {mv!r}")
    if mv.content is None:
        return Fraction(0)
    return mv.content


MEASURES = {
    "expected": Measure("expected", _expected, ("simpleprob", "mutant-b")),
    "max": Measure("max", _maximum, ("nondet", "mutant-a")),
    "point": Measure("point", _point, ("identity",)),
    "default-zero": Measure("default-zero", _default_zero, ("maybe",)),
}


def get_measure(name: str) -> Measure:
    try:
        return MEASURES[name]
    except KeyError:
        raise KeyError(
            f"unknown measure {name!r}; known: {', '.join(sorted(MEASURES))}"
        )


# ---------------------------------------------------------------------------
# the process


@dataclass(frozen=True, slots=True, eq=False)
class Sdp:
    """A finite-horizon decision process.

    admissible(t, x) lists the controls allowed at time t in state x, in
    the order policies enumerate them. next(t, x, y) is the monadic step
    and reward(t, x, y, x1) the exact reward for that transition.
    """

    name: str
    horizon: int
    states: FiniteType
    controls: FiniteType
    monad: MonadInstance
    measure: Measure
    next: Callable[[int, Atom, Atom], Value]
    reward: Callable[[int, Atom, Atom, Atom], Fraction]
    admissible: Callable[[int, Atom], tuple[Atom, ...]] | None = None

    def controls_at(self, t: int, x: Atom) -> tuple[Atom, ...]:
        if self.admissible is None:
            return enumerate_domain(self.controls)
        ys = self.admissible(t, x)
        if not ys:
            raise ValueError(f"no admissible control at t={t}, x={render_value(x)}")
        return ys


# a policy assigns a control to every state; a policy sequence is one
# policy per remaining step
Policy = tuple[Atom, ...]
PolicySeq = tuple[Policy, ...]


def enumerate_policy_seqs(sdp: Sdp, steps: int) -> Product:
    """All policy sequences of the given length, lexicographically over
    admissible-control positions (the last state of the last step
    varies fastest); its size is their number."""
    choice_lists = [sdp.controls_at(t, x) for t in range(steps)
                    for x in enumerate_domain(sdp.states)]
    n = sdp.states.size
    return Product(choice_lists, lambda flat: tuple(
        tuple(flat[k * n : (k + 1) * n]) for k in range(steps)))


def render_policy_seq(ps: PolicySeq) -> str:
    return render_value(Seq(tuple(map(Vec, ps))))


# ---------------------------------------------------------------------------
# value functions


def _memoized(keep: Callable[[int], bool]):
    """Keep a value function's results in its memo at the times keep
    passes, keyed on all that a node reads, as ints: the time, the state,
    the control ps chooses there and every later control."""
    def wrap(fn):
        @wraps(fn)
        def memoized(sdp, ps, x, t=0, memo=None):
            if memo is None or not ps or not keep(t):
                return fn(sdp, ps, x, t, memo)
            key = (t, x.index, ps[0][x.index].index, *[y.index for p in ps[1:] for y in p])
            if key not in memo:
                memo[key] = fn(sdp, ps, x, t, memo)
            return memo[key]
        return memoized
    return wrap


@_memoized(lambda t: True)
def val(sdp: Sdp, ps: PolicySeq, x: Atom, t: int = 0, memo: dict | None = None) -> Fraction:
    """Backward-recursive value: measure at every node. A memo dict, if
    given, keeps every node's value, the root included, for later calls."""
    if not ps:
        return Fraction(0)
    y, tail = ps[0][x.index], ps[1:]
    return sdp.measure.apply(sdp.monad.map(
        lambda x1: sdp.reward(t, x, y, x1) + val(sdp, tail, x1, t + 1, memo),
        sdp.next(t, x, y),
    ))


@_memoized(lambda t: t > 0)
def rews(sdp: Sdp, ps: PolicySeq, x: Atom, t: int = 0, memo: dict | None = None) -> Value:
    """The monadic structure of total rewards along every future the
    policy sequence admits, with no measuring at all; memo below the root."""
    m = sdp.monad
    if not ps:
        return m.pure(Fraction(0))
    y, tail = ps[0][x.index], ps[1:]
    return m.bind(sdp.next(t, x, y), lambda x1: m.map(
        lambda r: sdp.reward(t, x, y, x1) + r, rews(sdp, tail, x1, t + 1, memo)))


@_memoized(lambda t: t == 0)
def val_spec(sdp: Sdp, ps: PolicySeq, x: Atom, t: int = 0, memo: dict | None = None) -> Fraction:
    """Measure the whole reward structure once, at the root; a memo keeps
    the measured value at t = 0, where rews keeps no structure."""
    return sdp.measure.apply(rews(sdp, ps, x, t, memo))


# ---------------------------------------------------------------------------
# the precondition and the equivalence


_SHIFT_RATES = (Fraction(0), Fraction(1), Fraction(1, 2))
_SHIFT_CONSTANTS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1))


def check_measure_shift(
    monad: MonadInstance, measure, cap: int = DEFAULT_CARRIER_CAP
) -> LawReport:
    """Shift compatibility: measuring a structure with every reward
    bumped by c must equal c plus the original measurement.

    Quantifies over the bounded carrier of a three-point reward space
    (rates 0, 1, 1/2) transported into the monad, and a small grid of
    shift constants. Structures where the measure itself is undefined
    (the maximum of an empty sequence) are outside the measure's domain
    and are skipped, not failed; the skip count lands in the detail
    line."""
    report = LawReport(
        law_id="measureShift",
        instance=monad.name,
        sizes={"R": len(_SHIFT_RATES)},
        detail=f"measure={measure.name}",
    )
    skipped = 0

    def measured(structures):
        """Each structure with its plain measurement, None where the
        measure is undefined; measured once, when the scan reaches it."""
        nonlocal skipped
        for mv in structures:
            try:
                yield mv, measure.apply(mv)
            except ValueError:
                skipped += 1
                yield mv, None

    def variables():
        carrier = monad.carrier_of(Base(FiniteType("R", len(_SHIFT_RATES))))
        structures = [
            monad.map(lambda a: _SHIFT_RATES[a.index], mv)
            for mv in enumerate_carrier(carrier, cap)
        ]
        return [
            Var("mv", "M R", measured(structures), len(structures),
                render=lambda mp: render_value(mp[0])),
            Var("c", "shift grid", _SHIFT_CONSTANTS, len(_SHIFT_CONSTANTS)),
        ]

    def sides(mp, c):
        mv, plain = mp
        if plain is None:
            return None
        return measure.apply(monad.map(lambda r: c + r, mv)), plain + c

    scan(report, variables, sides)
    if skipped and report.passed:
        report.detail += f" skipped={skipped} outside measure domain"
    return report


def check_val_equiv(sdp: Sdp, q: Quantifier, cap: int = DEFAULT_CARRIER_CAP) -> LawReport:
    """val and val_spec agree on every policy sequence and start state,
    provided the measure passes the shift-compatibility check, whose
    carrier the cap bounds. A failing precondition makes this report fail
    with the shift witness, or with the shift check's diagnostic when it
    could not run; the two value functions are not compared at all in
    that case."""
    report = LawReport(
        law_id="valSpec",
        instance=sdp.monad.name,
        sizes={
            "X": sdp.states.size,
            "Y": sdp.controls.size,
            "horizon": sdp.horizon,
        },
        detail=f"sdp={sdp.name} measure={sdp.measure.name}",
    )
    shift = check_measure_shift(sdp.monad, sdp.measure, cap)
    if not shift.passed:
        report.passed = False
        report.witness = shift.witness
        report.diagnostic = shift.diagnostic or (
            f"measure {sdp.measure.name!r} is not shift compatible; "
            "refusing to compare val with val_spec"
        )
        report.elapsed_ms = shift.elapsed_ms
        return report

    seqs = enumerate_policy_seqs(sdp, sdp.horizon)
    n = sdp.states.size
    vm, rm = ({}, {}) if exhaustive([seqs.size, n], q) else (None, None)
    variables = [
        Var("ps", f"policy sequences (h={sdp.horizon})", seqs, seqs.size,
            render=render_policy_seq),
        Var("x", "X", enumerate_domain(sdp.states), n),
    ]
    scan(report, lambda: variables,
         lambda ps, x: (val(sdp, ps, x, 0, vm), val_spec(sdp, ps, x, 0, rm)), q)
    report.elapsed_ms += shift.elapsed_ms
    return report
