"""Run the whole law catalog against the two sabotaged instances.

Prints one line per law, and for every failure the least counterexample
the exhaustive scan found. Useful as a smoke test that the runner can
actually tell a lawful instance from a subtly broken one.
"""

from __future__ import annotations

from finmon.instances import get_instance
from finmon.laws import run_suite, suite_checks
from finmon.values import FiniteType, Quantifier


def hunt(name: str) -> list[str]:
    inst = get_instance(name)
    domains = {role: FiniteType(role, 2) for role in "ABCD"}
    broken = []
    print(f"== {name} ==")
    for rep in run_suite(inst, suite_checks(inst), domains, Quantifier(budget=100_000)):
        mark = "ok  " if rep.passed else "FAIL"
        print(f"  {mark} {rep.law_id:4s} checked={rep.checked}")
        if not rep.passed:
            broken.append(rep.law_id)
            for key, val in (rep.witness or {}).items():
                print(f"         {key} = {val}")
    print(f"  broken: {', '.join(broken) if broken else 'none'}")
    return broken


if __name__ == "__main__":
    a = hunt("mutant-a")
    b = hunt("mutant-b")
    # the two sabotages live in different operations, so the failure
    # sets should be visibly different
    print(f"\nmutant-a breaks {len(a)} laws, mutant-b breaks {len(b)} laws")
    print(f"overlap: {sorted(set(a) & set(b))}")
