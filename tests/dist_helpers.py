"""Dist builders for the tests: one independent of the integer core, and
one that reaches it through the closers under test."""

from __future__ import annotations

import math
from fractions import Fraction

from finmon.instances import mutant_b_monad
from finmon.values import Atom, Dist, canonical_dist


def dist_of_entries(entries) -> Dist:
    """The Dist whose entries are the (value, weight) pairs as given, in
    that order, over the lcm of the weights' denominators. It builds the
    fields directly: it merges, sorts and checks nothing, and never calls
    a closer, so a reference built with it does not lean on the code
    under test."""
    entries = [(v, Fraction(w)) for v, w in entries]
    den = math.lcm(*[w.denominator for _, w in entries])
    return Dist(tuple(v for v, _ in entries),
                tuple(w.numerator * (den // w.denominator) for _, w in entries), den)


def dist_of_terms(terms, den: int, merge: bool = True) -> Dist:
    """The terms (value, numerator) over den closed by the code under
    test: merged by value into canonical_dist or, with merge off, by
    mutant-b's map, which sorts them stably and checks them unmerged."""
    if merge:
        acc: dict = {}
        for v, n in terms:
            acc[v] = acc.get(v, 0) + n
        return canonical_dist(acc, den)
    indices = Dist(tuple(Atom(i) for i in range(len(terms))), tuple(n for _, n in terms), den)
    return mutant_b_monad().map(lambda a: terms[a.index][0], indices)
