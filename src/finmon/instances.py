"""Uncertainty-monad instances as first-class records of operations.

Each instance packages pure, map, join and bind over the closed value
universe, plus a carrier constructor so the law suite can enumerate
M A, M (M A) and deeper nestings. Distributions are put in canonical
form as they are built: map, bind and join add integer numerators over
one denominator into a dict keyed by value, closed by canonical_dist, and
the join of maybe and nondet is their own bind with the identity. One
table maps each name to its builder: four lawful instances (identity,
maybe, nondet, simpleprob) and two deliberately broken ones that prove
the harness can refute:

  mutant-a  nondet whose join concatenates the reversed outer sequence
  mutant-b  simpleprob whose canonical form skips merging equal values

map and bind take plain value-to-value callables rather than tables:
compiled law terms look quantified tables up by atom index, and
operations like "map join" need callables whose domain is itself a
carrier. Kleisli composition is not an operation: the law terms write
f >=> g as join . map g . f.

The Reader functor is exposed functor-only. Its mapped values are
functions of the environment, so map respecting pointwise equality is
also checked at level 2, as functions of the reader; see
laws.reader_pres_ee2_report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .values import (
    CarrierDesc,
    CarrierOverflow,
    Dist,
    DistOf,
    FiniteType,
    FnOf,
    MaybeOf,
    Opt,
    Seq,
    SeqOf,
    Value,
    Vec,
    canonical_dist,
    dist_of_terms,
    mk_dist,  # noqa: F401  perfbench/tracer.py wraps instances.mk_dist
)

__all__ = [
    "MonadInstance", "FunctorInstance",
    "identity_monad", "maybe_monad", "nondet_monad", "simpleprob_monad",
    "reader_functor", "get_instance",
    "INSTANCE_NAMES", "DEFAULT_SEQ_LENGTH_CAP",
]

# Hard ceiling on sequence lengths produced by nondet join/bind. Hitting
# it means the requested check was configured past desk scale; the
# operation raises instead of silently truncating.
DEFAULT_SEQ_LENGTH_CAP = 100_000

MapFn = Callable[[Value], Value]


@dataclass(frozen=True, eq=False)
class MonadInstance:
    """parametric declares that the operations never look at which atom
    they hold, inside the carrier bounds or past them. Law scans then
    skip renamed bindings, so a false declaration can hide a witness."""

    name: str
    carrier_of: Callable[[CarrierDesc], CarrierDesc]
    pure: Callable[[Value], Value]
    map: Callable[[MapFn, Value], Value]
    join: Callable[[Value], Value]
    bind: Callable[[Value, MapFn], Value]
    parametric: bool = False


@dataclass(frozen=True, eq=False)
class FunctorInstance:
    name: str
    carrier_of: Callable[[CarrierDesc], CarrierDesc]
    map: Callable[[MapFn, Value], Value]


# ---------------------------------------------------------------------------
# lawful instances


def identity_monad() -> MonadInstance:
    ident: MapFn = lambda v: v
    return MonadInstance(
        name="identity",
        carrier_of=lambda c: c,
        pure=ident,
        map=lambda fn, v: fn(v),
        join=ident,
        bind=lambda v, fn: fn(v),
        parametric=True,
    )


def maybe_monad() -> MonadInstance:
    def mmap(fn: MapFn, mv: Value) -> Value:
        if mv.content is None:
            return mv
        return Opt(fn(mv.content))

    def mbind(mv: Value, fn: MapFn) -> Value:
        if mv.content is None:
            return mv
        return fn(mv.content)

    return MonadInstance(
        name="maybe",
        carrier_of=MaybeOf,
        pure=lambda v: Opt(v),
        map=mmap,
        join=lambda mmv: mbind(mmv, lambda m: m),
        bind=mbind,
        parametric=True,
    )


def nondet_monad(max_len: int = 2) -> MonadInstance:
    """List-style nondeterminism. Equality is order-sensitive sequence
    equality, so join and bind must preserve element order exactly."""
    if max_len < 1:
        raise ValueError("nondet needs max_len >= 1")

    def nmap(fn: MapFn, mv: Value) -> Value:
        return Seq(tuple(fn(x) for x in mv.items))

    def nbind(mv: Value, fn: MapFn) -> Value:
        out: list[Value] = []
        for x in mv.items:
            out.extend(fn(x).items)
        if len(out) > DEFAULT_SEQ_LENGTH_CAP:
            raise CarrierOverflow(
                f"nondet result length {len(out)} exceeds cap {DEFAULT_SEQ_LENGTH_CAP}")
        return Seq(tuple(out))

    return MonadInstance(
        name="nondet",
        carrier_of=lambda c: SeqOf(c, max_len),
        pure=lambda v: Seq((v,)),
        map=nmap,
        join=lambda mmv: nbind(mmv, lambda s: s),
        bind=nbind,
        parametric=True,
    )


def _prob_monad(name: str, max_support: int, merge: bool) -> MonadInstance:
    """Finite probability over the integer core of values; merge=False is
    mutant-b's broken canonical form, its terms unmerged by dist_of_terms."""

    def pmap(fn: MapFn, mv: Value) -> Value:
        if not merge:
            return dist_of_terms(list(zip(map(fn, mv.support), mv.nums)), mv.den, merge)
        acc: dict[Value, int] = {}
        for y, n in zip(map(fn, mv.support), mv.nums):
            acc[y] = acc.get(y, 0) + n
        return canonical_dist(acc, mv.den)

    def mix(nums: tuple[int, ...], den: int, inner) -> Value:
        """The mixture of the inner distributions, the i-th weighted nums[i] / den."""
        common = inner[0].den if inner else 1
        for d in inner:
            if d.den != common:
                common = math.lcm(common, d.den)
        if not merge:
            return dist_of_terms([(y, w * (common // d.den) * p) for w, d in zip(nums, inner)
                                  for y, p in zip(d.support, d.nums)], den * common, merge)
        acc: dict[Value, int] = {}
        for w, d in zip(nums, inner):
            w *= common // d.den
            for y, p in zip(d.support, d.nums):
                acc[y] = acc.get(y, 0) + w * p
        return canonical_dist(acc, den * common)

    return MonadInstance(
        name=name,
        carrier_of=lambda c: DistOf(c, max_support),
        pure=lambda v: Dist((v,), (1,), 1),
        map=pmap,
        join=lambda mmv: mix(mmv.nums, mmv.den, mmv.support),
        bind=lambda mv, fn: mix(mv.nums, mv.den, [fn(x) for x in mv.support]),
        # unmerged entries of one value keep an order set by the atoms' names
        parametric=merge,
    )


def simpleprob_monad(max_support: int = 2) -> MonadInstance:
    """Finite probability with exact rational weights. All operations
    return canonical distributions: sorted, merged, total weight exactly 1
    (canonical_dist checks each result; no input is trusted as canonical)."""
    if max_support < 1:
        raise ValueError("simpleprob needs max_support >= 1")
    return _prob_monad("simpleprob", max_support, merge=True)


# ---------------------------------------------------------------------------
# deliberately broken instances


def mutant_a_monad(max_len: int = 2) -> MonadInstance:
    """nondet with join replaced by concatenation of the reversed outer
    sequence. Singleton outer sequences are unaffected (reversal is the
    identity there), so unit-shaped laws still pass; anything that joins
    a genuinely ordered outer structure comes out backwards."""
    good = nondet_monad(max_len=max_len)

    def bad_join(mmv: Value) -> Value:
        out: list[Value] = []
        for inner in reversed(mmv.items):
            out.extend(inner.items)
        return Seq(tuple(out))

    return MonadInstance(
        name="mutant-a",
        carrier_of=good.carrier_of,
        pure=good.pure,
        map=good.map,
        join=bad_join,
        bind=lambda mv, fn: bad_join(good.map(fn, mv)),
    )


def mutant_b_monad(max_support: int = 2) -> MonadInstance:
    """simpleprob whose canonical form skips merging equal values:
    mixtures that hit the same point twice keep duplicate entries, which
    no longer compare equal to the properly merged result."""
    return _prob_monad("mutant-b", max_support, merge=False)


# ---------------------------------------------------------------------------
# Reader, functor-only


def reader_functor(env: FiniteType) -> FunctorInstance:
    """Functions out of a fixed finite environment. map post-composes:
    mapped values transform the reader's outputs, they do not inspect the
    environment. Function values use the Vec encoding (slot i = output at
    #i), so map is slot-wise application."""

    def rmap(fn: MapFn, r: Value) -> Value:
        return Vec(tuple(fn(x) for x in r.items))

    return FunctorInstance(
        name="reader",
        carrier_of=lambda c: FnOf(env, c),
        map=rmap,
    )


# ---------------------------------------------------------------------------
# registry

_BUILDERS: dict[str, Callable[[int, int], MonadInstance]] = {
    "identity": lambda max_len, max_support: identity_monad(),
    "maybe": lambda max_len, max_support: maybe_monad(),
    "nondet": lambda max_len, max_support: nondet_monad(max_len),
    "simpleprob": lambda max_len, max_support: simpleprob_monad(max_support),
    "mutant-a": lambda max_len, max_support: mutant_a_monad(max_len),
    "mutant-b": lambda max_len, max_support: mutant_b_monad(max_support),
}

INSTANCE_NAMES = tuple(_BUILDERS)


def get_instance(
    name: str, max_len: int = 2, max_support: int = 2
) -> MonadInstance:
    build = _BUILDERS.get(name)
    if build is None:
        raise KeyError(f"unknown instance {name!r}; known: {', '.join(INSTANCE_NAMES)}")
    return build(max_len, max_support)
