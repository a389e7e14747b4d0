"""Finite-horizon sequential decision processes over a monad.

A process steps from state to state under chosen controls, collecting
exact rewards. The monad shapes the uncertainty of each step;
a measure turns a monadic structure of rewards into one number.

Both value functions run backward induction, with no recursion. `val`
measures at every node; `val_spec` measures once, at the root, the full
structure of reward sums that `rews` builds. The two agree exactly when
the measure is compatible with shifting rewards by a constant, and
`check_val_equiv` refuses to compare them under a measure that fails
that precondition, reporting the shift witness instead. An exhaustive
check shares one memo of nodes per value function and one of roots.

Rewards ride inside monadic values as bare leaves of no enumerated
carrier, ints when integral and Fractions otherwise, so sums stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    refuse_count,
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

Reward = int | Fraction  # an int when integral, so sums stay C arithmetic


@dataclass(frozen=True, slots=True)
class Measure:
    """Collapses one monadic structure of int or Fraction reward leaves
    to one; the instances are those whose structures it can measure."""

    name: str
    apply: Callable[[Value], Reward]
    instances: tuple[str, ...] = ()


def _expected(mv: Value) -> Fraction:
    if not isinstance(mv, Dist):
        raise TypeError(f"expected-value measure needs a distribution, got {mv!r}")
    return Fraction(sum(n * r for r, n in zip(mv.support, mv.nums)), mv.den)


def _maximum(mv: Value) -> Reward:
    if not isinstance(mv, Seq):
        raise TypeError(f"max measure needs a sequence, got {mv!r}")
    if not mv.items:
        raise ValueError("max measure is undefined on the empty sequence")
    return max(mv.items)


def _point(mv: Value) -> Reward:
    if type(mv) is not int and not isinstance(mv, Fraction):
        raise TypeError(f"point measure needs a bare int or Fraction reward, got {mv!r}")
    return mv


def _default_zero(mv: Value) -> Reward:
    if not isinstance(mv, Opt):
        raise TypeError(f"default-zero measure needs an optional, got {mv!r}")
    if mv.content is None:
        return 0
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
    reward: Callable[[int, Atom, Atom, Atom], Reward]
    admissible: Callable[[int, Atom], tuple[Atom, ...]] | None = None

    def controls_at(self, t: int, x: Atom) -> tuple[Atom, ...]:
        if self.admissible is None:
            return enumerate_domain(self.controls)
        ys = self.admissible(t, x)
        if not ys:
            raise ValueError(f"no admissible control at t={t}, x={render_value(x)}")
        return ys


# a policy sequence holds, for each remaining step, a control per state
PolicySeq = tuple[tuple[Atom, ...], ...]


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


def _backward(sdp: Sdp, ps: PolicySeq, x: Atom, memo: dict | None, zero, node):
    """The value of ps at (0, x): zero past the horizon, then each level
    t = h-1 ... 1 over all states (node gives one from the level below),
    and the root last. A memo, for one sdp and horizon, keeps a node under
    its state, its control and an int id of ps[t+1:]; a suffix id is
    interned from its head and its tail's id, beside its level."""
    if not ps:
        return zero
    memo = {} if memo is None else memo
    below, suffix = [zero] * sdp.states.size, -1  # -1 is the empty suffix's id
    for t in range(len(ps) - 1, 0, -1):
        policy = ps[t]
        known = memo.get((policy, suffix))
        if known is None:
            level = []
            for x1, y1 in zip(enumerate_domain(sdp.states), policy):
                key = (x1, y1, suffix)
                v = memo.get(key)
                if v is None:
                    v = memo[key] = node(sdp, t, x1, y1, below)
                level.append(v)
            known = memo[policy, suffix] = (len(memo), level)  # the memo only grows
        suffix, below = known
    return node(sdp, 0, x, ps[0][x.index], below)


def _val_node(sdp: Sdp, t: int, x: Atom, y: Atom, below: list) -> Reward:
    return sdp.measure.apply(sdp.monad.map(
        lambda x1: sdp.reward(t, x, y, x1) + below[x1.index], sdp.next(t, x, y)))


def _rews_node(sdp: Sdp, t: int, x: Atom, y: Atom, below: list) -> Value:
    return sdp.monad.bind(sdp.next(t, x, y), lambda x1: sdp.monad.map(
        lambda r: sdp.reward(t, x, y, x1) + r, below[x1.index]))


def val(sdp: Sdp, ps: PolicySeq, x: Atom, memo: dict | None = None) -> Reward:
    """The textbook value: the measure applied at every node."""
    return _backward(sdp, ps, x, memo, 0, _val_node)


def rews(sdp: Sdp, ps: PolicySeq, x: Atom, memo: dict | None = None) -> Value:
    """The monadic structure of total rewards along every future the
    policy sequence admits, with no measuring at all."""
    return _backward(sdp, ps, x, memo, sdp.monad.pure(0), _rews_node)


def val_spec(sdp: Sdp, ps: PolicySeq, x: Atom, memo: dict | None = None) -> Reward:
    """Measure the whole reward structure once, at the root."""
    return sdp.measure.apply(rews(sdp, ps, x, memo))


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
    shift constants. A structure where the measure itself is undefined
    (raises ValueError, as the maximum of an empty sequence does) is
    outside the measure's domain, and is left out of the mv space before
    the scan starts."""
    report = LawReport(
        law_id="measureShift",
        instance=monad.name,
        sizes={"R": len(_SHIFT_RATES)},
        detail=f"measure={measure.name}",
    )

    def variables():
        carrier = monad.carrier_of(Base(FiniteType("R", len(_SHIFT_RATES))))
        measured = []  # each structure in the domain, with its plain measurement
        for mv in enumerate_carrier(carrier, cap):
            mv = monad.map(lambda a: _SHIFT_RATES[a.index], mv)
            try:
                measured.append((mv, measure.apply(mv)))
            except ValueError:
                pass
        return [
            Var("mv", "M R", measured, len(measured), render=lambda mp: render_value(mp[0])),
            Var("c", "shift grid", _SHIFT_CONSTANTS, len(_SHIFT_CONSTANTS)),
        ]

    def sides(mp, c):
        mv, plain = mp
        return measure.apply(monad.map(lambda r: c + r, mv)), plain + c

    return scan(report, variables, sides)


def check_val_equiv(sdp: Sdp, q: Quantifier, cap: int = DEFAULT_CARRIER_CAP) -> LawReport:
    """val and val_spec agree on every policy sequence and start state,
    provided the measure passes the shift-compatibility check, whose
    carrier the cap bounds. A failing precondition makes this report fail
    with the shift witness, or with the shift check's diagnostic when it
    could not run; the two value functions are not compared at all in
    that case. The cap also bounds the horizon x states slots of a policy
    sequence, as it bounds a table's domain. Its timing includes the gate's."""
    report = LawReport(
        law_id="valSpec",
        instance=sdp.monad.name,
        sizes={"X": sdp.states.size, "Y": sdp.controls.size, "horizon": sdp.horizon},
        detail=f"sdp={sdp.name} measure={sdp.measure.name}",
    )
    memos = []  # the roots', val's and val_spec's, shared when the scan is exhaustive

    def variables():
        n = sdp.states.size
        refuse_count("policy sequences", f"h={sdp.horizon} x X({n})", sdp.horizon * n, cap, "slots")
        seqs = enumerate_policy_seqs(sdp, sdp.horizon)
        if exhaustive([seqs.size, n], q):
            memos.extend(({}, {}, {}))
        return [
            Var("ps", f"policy sequences (h={sdp.horizon})", seqs, seqs.size,
                render=render_policy_seq),
            Var("x", "X", enumerate_domain(sdp.states), n),
        ]

    def sides(ps, x):
        roots, val_memo, spec_memo = memos or ({}, {}, {})  # fresh per sampled evaluation
        root = (x, ps and ps[0][x.index], ps[1:])  # all that a root reads
        if (pair := roots.get(root)) is None:
            pair = roots[root] = val(sdp, ps, x, val_memo), val_spec(sdp, ps, x, spec_memo)
        return pair

    shift = check_measure_shift(sdp.monad, sdp.measure, cap)
    if shift.passed:
        scan(report, variables, sides, q)
    else:
        report.witness = shift.witness
        report.diagnostic = shift.diagnostic or (
            f"measure {sdp.measure.name!r} is not shift compatible; "
            "refusing to compare val with val_spec"
        )
    report.elapsed_ms += shift.elapsed_ms
    report.evaluated += shift.evaluated
    return report
