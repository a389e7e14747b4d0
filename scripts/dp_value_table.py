"""Evaluate two tiny sequential decision problems by backward recursion.

Prints the value of every policy sequence (or the best few when the space
is large), the value table per start state, and then demonstrates the
shift-compatibility gate: the default-zero measure on the maybe monad is
rejected before any value comparison happens.
"""

from __future__ import annotations

from fractions import Fraction

from finmon.dp import (
    Sdp,
    check_measure_shift,
    check_val_equiv,
    enumerate_policy_seqs,
    get_measure,
    render_policy_seq,
    val,
)
from finmon.instances import get_instance
from finmon.values import Atom, FiniteType, Quantifier, parse_value


def greedy_walk(horizon: int) -> Sdp:
    """Nondeterministic stay-or-advance walk on three states, reward = landing index."""
    x3, y2 = FiniteType("X", 3), FiniteType("Y", 2)
    nxt = {
        (0, 0): "[#0]", (0, 1): "[#0, #1]",
        (1, 0): "[#1]", (1, 1): "[#1, #2]",
        (2, 0): "[#2]", (2, 1): "[#2]",
    }
    return Sdp(
        name="greedy-walk", horizon=horizon, states=x3, controls=y2,
        monad=get_instance("nondet"), measure=get_measure("max"),
        next=lambda t, x, y: parse_value(nxt[(x.index, y.index)]),
        reward=lambda t, x, y, x1: Fraction(x1.index),
    )


def coin_walk(horizon: int) -> Sdp:
    x2, y1 = FiniteType("X", 2), FiniteType("Y", 1)
    nxt = {0: "{#0: 1/2, #1: 1/2}", 1: "{#1: 1}"}
    return Sdp(
        name="coin-walk", horizon=horizon, states=x2, controls=y1,
        monad=get_instance("simpleprob"), measure=get_measure("expected"),
        next=lambda t, x, y: parse_value(nxt[x.index]),
        reward=lambda t, x, y, x1: Fraction(x1.index),
    )


def value_table(sdp: Sdp, top: int = 5) -> None:
    seqs = enumerate_policy_seqs(sdp, sdp.horizon)
    print(f"== {sdp.name} (h={sdp.horizon}, {seqs.size} policy sequences) ==")
    scored = []
    for ps in seqs:
        worth = {i: val(sdp, ps, Atom(i)) for i in range(sdp.states.size)}
        scored.append((worth[0], render_policy_seq(ps), worth))
    scored.sort(key=lambda t: t[0], reverse=True)
    for worth0, shown, worth in scored[:top]:
        cells = "  ".join(f"x{i}:{worth[i]}" for i in sorted(worth))
        print(f"  {shown}  ->  {cells}")
    best = scored[0]
    print(f"  best from x0: {best[0]} via {best[1]}")


if __name__ == "__main__":
    value_table(greedy_walk(2))
    value_table(coin_walk(3))

    q = Quantifier(seed=0, budget=100_000)
    for sdp in (greedy_walk(2), coin_walk(3)):
        rep = check_val_equiv(sdp, q)
        mark = "ok  " if rep.passed else "FAIL"
        print(f"{mark} valSpec on {sdp.name} checked={rep.checked}")

    gate = check_measure_shift(get_instance("maybe"), get_measure("default-zero"))
    print(f"default-zero on maybe shift-compatible: {gate.passed}")
    if not gate.passed:
        print(f"  witness: {gate.witness}")
        print("  any val/valSpec comparison under this pairing would be refused")
