"""Iterate a few small monadic systems and print what their flows look like.

For each system the script shows flow f n at every state for n up to 3,
then the full trajectory bundle at the largest n, then runs the
structural checks (left/right agreement, monoid action, trajectory lemma).
"""

from __future__ import annotations

from fractions import Fraction

from finmon.instances import get_instance
from finmon.systems import (
    flow,
    mon_sys,
    run_system_check,
    trj,
)
from finmon.values import Atom, FiniteType, parse_value, render_value

X3 = FiniteType("X", 3)


def trajectory_count(sys_, n: int, x: Atom) -> int:
    """Number of recorded trajectories for sequence-shaped monads."""
    return len(trj(sys_, n, x).items)


def trajectory_weight(sys_, n: int, x: Atom) -> Fraction:
    """Total probability mass of the trajectory distribution."""
    return sum((w for _, w in trj(sys_, n, x).entries), Fraction(0))


SYSTEMS = [
    ("branch", "nondet", ["[#0, #1]", "[#1, #2]", "[#2, #0]"]),
    ("walk", "simpleprob", ["{#0: 1/2, #1: 1/2}", "{#1: 1/2, #2: 1/2}", "{#2: 1}"]),
    ("drop", "maybe", ["some #1", "some #2", "none"]),
]

CHECKS = ["flowLR", "flowMonRLem", "flowMonoid", "flowTrjLemma"]


def show(name: str, instance: str, step_src: list[str]) -> None:
    inst = get_instance(instance)
    step = [parse_value(s) for s in step_src]
    sys_ = mon_sys(name, inst, X3, lambda a: step[a.index])
    print(f"== {name} ({instance}) ==")
    for n in range(4):
        cells = [render_value(v) for v in flow(sys_, n)]
        print(f"  flow n={n}: " + "  ".join(cells))
    bundle = trj(sys_, 3, Atom(0))
    print(f"  trj n=3 from #0: {render_value(bundle)}")
    if instance == "nondet":
        print(f"    paths recorded: {trajectory_count(sys_, 3, Atom(0))}")
    elif instance == "simpleprob":
        print(f"    total mass: {trajectory_weight(sys_, 3, Atom(0))}")
    for check in CHECKS:
        rep = run_system_check(check, sys_, n_max=3)
        mark = "ok  " if rep.passed else "FAIL"
        print(f"  {mark} {check} checked={rep.checked}")
    print()


if __name__ == "__main__":
    for name, instance, step_src in SYSTEMS:
        show(name, instance, step_src)
    # sanity: probabilistic bundles carry total mass 1 at any depth
    inst = get_instance("simpleprob")
    coin_step = [parse_value("{#0: 1/2, #1: 1/2}"), parse_value("{#1: 1}")]
    coin = mon_sys("coin", inst, FiniteType("X", 2), lambda a: coin_step[a.index])
    for n in range(4):
        w = trajectory_weight(coin, n, Atom(0))
        assert w == Fraction(1), (n, w)
    print("coin bundle mass is exactly 1 for n <= 3")
