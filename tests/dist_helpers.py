"""One Dist builder for the tests, independent of the integer core."""

from __future__ import annotations

import math
from fractions import Fraction

from finmon.values import Dist


def dist_of_entries(entries) -> Dist:
    """The Dist whose entries are the (value, weight) pairs as given, in
    that order, over the lcm of the weights' denominators. It builds the
    fields directly: it merges, sorts and checks nothing, and never calls
    dist_of_terms, so a reference built with it does not lean on the code
    under test."""
    entries = [(v, Fraction(w)) for v, w in entries]
    den = math.lcm(*[w.denominator for _, w in entries])
    return Dist(tuple(v for v, _ in entries),
                tuple(w.numerator * (den // w.denominator) for _, w in entries), den)
