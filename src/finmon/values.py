"""Closed value universe, finite domains, function tables, enumeration.

Everything the law checker quantifies over lives here: a small recursive
universe of runtime values (atoms, optionals, sequences, finite
distributions with exact rational weights, fixed-length vectors), carrier
descriptors that make every monadic carrier finitely enumerable, and
extensional function tables over enumerated domains.

Functions are tables, not code. That single choice makes pointwise
function equality decidable: two tables agree everywhere iff their entry
tuples are equal. Distributions carry exact rationals (fractions.Fraction)
so every equality check is a decision, never a tolerance.

Canonical textual rendering (the bit-exact witness format used in
reports, and the syntax accepted by parse_value):

    atoms          #0  #1  ...
    optionals      none | some v
    sequences      [] | [v, v, ...]
    distributions  {v: p/q, v: p/q, ...}   entries in canonical order
    vectors        <> | <v, v, ...>
    rationals      p/q or p                (numeric leaves, reward sums)

Function-valued carriers (FnOf) have no constructor of their own: a table
over a domain of size n is encoded as a Vec of n entries, slot i holding
the output at atom #i.

Value identity is cheap: Opt, Seq, Dist, Vec and FnTable compute their hash
once, on first use, and keep it in a slot that equality and repr ignore.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

__all__ = [
    "Atom", "Opt", "Seq", "Dist", "Vec", "Rat", "Value",
    "FiniteType", "Base", "MaybeOf", "SeqOf", "DistOf", "VecOf", "FnOf",
    "CarrierDesc", "FnTable", "Quantifier", "Product", "sub_seed",
    "CarrierTooLarge", "CarrierOverflow",
    "WEIGHT_GRID", "weight_tuples",
    "canonical_key", "canonical_compare", "mk_dist", "check_member",
    "enumerate_domain", "enumerate_carrier", "carrier_size",
    "function_space_size", "enumerate_functions",
    "tabulate", "identity_table", "table_fn", "table_to_value",
    "value_to_table", "render_value", "render_table", "parse_value",
    "DEFAULT_CARRIER_CAP",
]

# Refuse to materialize carriers beyond this many values unless the caller
# raises the cap explicitly. Keeps exhaustive checks at desk scale.
DEFAULT_CARRIER_CAP = 1_000_000


class CarrierTooLarge(Exception):
    """A carrier descriptor would enumerate past the configured cap."""


class CarrierOverflow(Exception):
    """An operation produced a value outside the configured bounds."""


# ---------------------------------------------------------------------------
# values


def _cached_identity(cls):
    """Give a frozen slotted dataclass with a `_hash` slot a hash computed
    once: the dataclass's own hash of its compared fields, so dict and set
    behaviour is unchanged. The slot stays empty until the first hash, so
    construction costs nothing more; copies and pickles carry only the
    compared fields and re-hash on first use."""
    compute = cls.__hash__
    names = tuple(f.name for f in fields(cls) if f.compare)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = compute(self)
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        return tuple(getattr(self, name) for name in names)

    def __setstate__(self, state):
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    cls.__setstate__ = __setstate__
    return cls


def _hash_slot():
    # no default: the slot is filled by the first hash, not by __init__
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Atom:
    index: int


@_cached_identity
@dataclass(frozen=True, slots=True)
class Opt:
    content: Union["Value", None]
    _hash: int = _hash_slot()


@_cached_identity
@dataclass(frozen=True, slots=True)
class Seq:
    items: tuple["Value", ...]
    _hash: int = _hash_slot()


@_cached_identity
@dataclass(frozen=True, slots=True)
class Dist:
    """Finite distribution. Canonical form: entries sorted by canonical
    value order, no duplicate values, strictly positive weights summing
    to exactly 1."""

    entries: tuple[tuple["Value", Fraction], ...]
    _hash: int = _hash_slot()


@_cached_identity
@dataclass(frozen=True, slots=True)
class Vec:
    items: tuple["Value", ...]
    length: int
    _hash: int = _hash_slot()

    def __post_init__(self) -> None:
        if self.length != len(self.items):
            raise ValueError(
                f"Vec declared length {self.length} != item count {len(self.items)}"
            )


@dataclass(frozen=True, slots=True)
class Rat:
    """Numeric leaf. Not part of any enumerable carrier; exists so monadic
    structures over reward sums (M of rationals) are ordinary values."""

    value: Fraction


Value = Union[Atom, Opt, Seq, Dist, Vec, Rat]


def canonical_key(v: Value):
    """Total-order sort key. Shorter sequences sort before longer ones,
    then lexicographically; dist entries compare as (value, weight) pairs."""
    t = type(v)
    if t is Atom:
        return (0, v.index)
    if t is Rat:
        return (1, v.value)
    if t is Opt:
        if v.content is None:
            return (2, 0)
        return (2, 1, canonical_key(v.content))
    if t is Seq:
        return (3, len(v.items), tuple(canonical_key(x) for x in v.items))
    if t is Dist:
        return (4, len(v.entries),
                tuple((canonical_key(x), w) for x, w in v.entries))
    if t is Vec:
        return (5, v.length, tuple(canonical_key(x) for x in v.items))
    raise TypeError(f"not a Value: {v!r}")


def canonical_compare(a: Value, b: Value) -> int:
    """-1, 0 or 1. Values must come from the same carrier (same top-level
    shape); comparing across carriers is a usage bug."""
    if type(a) is not type(b):
        raise ValueError(f"values from different carriers: {a!r} vs {b!r}")
    ka, kb = canonical_key(a), canonical_key(b)
    return -1 if ka < kb else (0 if ka == kb else 1)


def mk_dist(pairs, merge: bool = True) -> Dist:
    """Build a distribution in canonical form: sort by value, merge equal
    values, demand strictly positive weights summing to exactly 1.

    merge=False is the hook the deliberately broken instance uses; it
    still sorts and validates the total."""
    cleaned = []
    total = Fraction(0)
    for v, w in pairs:
        if type(w) is not Fraction:
            w = Fraction(w)
        if w <= 0:
            raise ValueError(f"distribution weight must be positive, got {w}")
        cleaned.append((v, w))
        total += w
    if total != 1:
        raise ValueError(f"distribution weights must sum to 1, got {total}")
    cleaned.sort(key=lambda p: canonical_key(p[0]))
    if merge:
        merged: list[tuple[Value, Fraction]] = []
        for v, w in cleaned:
            if merged and merged[-1][0] == v:
                merged[-1] = (v, merged[-1][1] + w)
            else:
                merged.append((v, w))
        cleaned = merged
    return Dist(tuple(cleaned))


# ---------------------------------------------------------------------------
# domains and carrier descriptors


@dataclass(frozen=True, slots=True)
class FiniteType:
    """A named enumerable domain; elements are atoms #0 .. #(size-1).
    Size 0 is legal, quantified checks over it pass vacuously."""

    name: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("FiniteType size must be non-negative")


@dataclass(frozen=True, slots=True)
class Base:
    domain: FiniteType


@dataclass(frozen=True, slots=True)
class MaybeOf:
    inner: "CarrierDesc"


@dataclass(frozen=True, slots=True)
class SeqOf:
    inner: "CarrierDesc"
    max_len: int


@dataclass(frozen=True, slots=True)
class DistOf:
    inner: "CarrierDesc"
    max_support: int


@dataclass(frozen=True, slots=True)
class VecOf:
    inner: "CarrierDesc"
    length: int


@dataclass(frozen=True, slots=True)
class FnOf:
    domain: FiniteType
    codomain: "CarrierDesc"


CarrierDesc = Union[Base, MaybeOf, SeqOf, DistOf, VecOf, FnOf]


def render_carrier(c: CarrierDesc) -> str:
    if isinstance(c, Base):
        return f"{c.domain.name}({c.domain.size})"
    if isinstance(c, MaybeOf):
        return f"Maybe[{render_carrier(c.inner)}]"
    if isinstance(c, SeqOf):
        return f"Seq[{render_carrier(c.inner)};maxLen={c.max_len}]"
    if isinstance(c, DistOf):
        return f"Dist[{render_carrier(c.inner)};maxSupport={c.max_support}]"
    if isinstance(c, VecOf):
        return f"Vec[{render_carrier(c.inner)};len={c.length}]"
    if isinstance(c, FnOf):
        return f"Fn[{c.domain.name}({c.domain.size})->{render_carrier(c.codomain)}]"
    raise TypeError(f"not a carrier descriptor: {c!r}")


def check_member(v: Value, c: CarrierDesc) -> None:
    """Raise ValueError unless v has the shape of carrier c with every
    atom inside its domain. Sequence lengths and distribution supports
    are not bounded here: flows and binds leave the bounded carrier by
    design, so only shape and atoms decide membership."""
    if isinstance(c, Base):
        if type(v) is Atom and v.index < c.domain.size:
            return
    elif isinstance(c, MaybeOf):
        if type(v) is Opt:
            if v.content is not None:
                check_member(v.content, c.inner)
            return
    elif isinstance(c, SeqOf):
        if type(v) is Seq:
            for x in v.items:
                check_member(x, c.inner)
            return
    elif isinstance(c, DistOf):
        if type(v) is Dist:
            for x, _ in v.entries:
                check_member(x, c.inner)
            return
    elif isinstance(c, (VecOf, FnOf)):
        inner, n = (c.inner, c.length) if isinstance(c, VecOf) else (c.codomain, c.domain.size)
        if type(v) is Vec and v.length == n:
            for x in v.items:
                check_member(x, inner)
            return
    raise ValueError(f"{render_value(v)} is not a value of {render_carrier(c)}")


# ---------------------------------------------------------------------------
# the weight grid

# Exactly the configured grid: every enumerated distribution draws its
# weights from here, in tuples summing to exactly 1.
WEIGHT_GRID: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(1, 4),
    Fraction(3, 4),
)


@lru_cache(maxsize=None)
def weight_tuples(k: int) -> tuple[tuple[Fraction, ...], ...]:
    """All ordered k-tuples over the grid summing to exactly 1.
    Empty for k > 4 since the smallest grid weight is 1/4."""
    if k < 1 or k * min(WEIGHT_GRID) > 1:
        return ()
    out = []
    for combo in itertools.product(WEIGHT_GRID, repeat=k):
        if sum(combo) == 1:
            out.append(combo)
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_domain(d: FiniteType) -> tuple[Atom, ...]:
    return tuple(Atom(i) for i in range(d.size))


def carrier_size(c: CarrierDesc) -> int:
    """Closed-form count of enumerate_carrier output (documented per
    constructor; the test suite pins these against direct counting)."""
    if isinstance(c, Base):
        return c.domain.size
    if isinstance(c, MaybeOf):
        return 1 + carrier_size(c.inner)
    if isinstance(c, SeqOf):
        n = carrier_size(c.inner)
        return sum(n ** k for k in range(c.max_len + 1))
    if isinstance(c, DistOf):
        n = carrier_size(c.inner)
        total = 0
        for k in range(1, min(c.max_support, n) + 1):
            total += math.comb(n, k) * len(weight_tuples(k))
        return total
    if isinstance(c, VecOf):
        return carrier_size(c.inner) ** c.length
    if isinstance(c, FnOf):
        return carrier_size(c.codomain) ** c.domain.size
    raise TypeError(f"not a carrier descriptor: {c!r}")


@lru_cache(maxsize=None)
def _enumerate_carrier_cached(c: CarrierDesc, cap: int) -> tuple[Value, ...]:
    size = carrier_size(c)
    if size > cap:
        raise CarrierTooLarge(
            f"carrier too large: {render_carrier(c)} has {size} values, cap {cap}"
        )
    if isinstance(c, Base):
        return enumerate_domain(c.domain)
    if isinstance(c, MaybeOf):
        inner = _enumerate_carrier_cached(c.inner, cap)
        return (Opt(None),) + tuple(Opt(v) for v in inner)
    if isinstance(c, SeqOf):
        inner = _enumerate_carrier_cached(c.inner, cap)
        out: list[Value] = []
        for k in range(c.max_len + 1):
            for combo in itertools.product(inner, repeat=k):
                out.append(Seq(combo))
        return tuple(out)
    if isinstance(c, DistOf):
        inner = _enumerate_carrier_cached(c.inner, cap)
        out = []
        for k in range(1, min(c.max_support, len(inner)) + 1):
            wts = weight_tuples(k)
            for support in itertools.combinations(inner, k):
                for wt in wts:
                    out.append(Dist(tuple(zip(support, wt))))
        return tuple(out)
    if isinstance(c, VecOf):
        inner = _enumerate_carrier_cached(c.inner, cap)
        return tuple(
            Vec(combo, c.length)
            for combo in itertools.product(inner, repeat=c.length)
        )
    if isinstance(c, FnOf):
        cod = _enumerate_carrier_cached(c.codomain, cap)
        n = c.domain.size
        return tuple(
            Vec(combo, n) for combo in itertools.product(cod, repeat=n)
        )
    raise TypeError(f"not a carrier descriptor: {c!r}")


def enumerate_carrier(c: CarrierDesc, cap: int = DEFAULT_CARRIER_CAP) -> tuple[Value, ...]:
    """All canonical values of the carrier, in a fixed canonical order:
    Base by atom index; MaybeOf none first; SeqOf by length then
    lexicographically; DistOf by support size, then support combination,
    then grid tuple order; VecOf/FnOf lexicographically with the last
    slot varying fastest. Re-running yields the identical sequence."""
    return _enumerate_carrier_cached(c, cap)


# ---------------------------------------------------------------------------
# function tables


@_cached_identity
@dataclass(frozen=True, slots=True)
class FnTable:
    """A function represented extensionally: entry i is the output at
    atom #i of the domain. The unit of every pointwise-equality check."""

    domain: FiniteType
    codomain: CarrierDesc
    entries: tuple[Value, ...]
    _hash: int = _hash_slot()

    def __post_init__(self) -> None:
        if len(self.entries) != self.domain.size:
            raise ValueError(
                f"table over {self.domain.name} needs {self.domain.size} entries, "
                f"got {len(self.entries)}"
            )


def tabulate(dom: FiniteType, cod: CarrierDesc, fn: Callable[[Atom], Value]) -> FnTable:
    return FnTable(dom, cod, tuple(fn(a) for a in enumerate_domain(dom)))


def identity_table(d: FiniteType) -> FnTable:
    return FnTable(d, Base(d), enumerate_domain(d))


def table_fn(t: FnTable) -> Callable[[Value], Value]:
    entries = t.entries
    return lambda v: entries[v.index]


def table_to_value(t: FnTable) -> Vec:
    """Vec encoding of a table (slot i = output at #i), the form FnOf
    carriers enumerate to and extify levels walk."""
    return Vec(t.entries, t.domain.size)


def value_to_table(dom: FiniteType, cod: CarrierDesc, v: Vec) -> FnTable:
    return FnTable(dom, cod, v.items)


def function_space_size(dom: FiniteType, cod: CarrierDesc) -> int:
    return carrier_size(cod) ** dom.size


@dataclass(frozen=True, slots=True)
class Quantifier:
    """Budgeted quantification. A scan whose spaces all fit the budget
    is exhaustive (canonical order); otherwise it evaluates `budget`
    joint bindings drawn uniformly with replacement from the given
    64-bit seed (reports.scan). Bit-reproducible."""

    budget: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("quantifier budget must be at least 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")


def sub_seed(seed: int, i: int) -> int:
    """Deterministic per-quantifier child seed."""
    return (seed ^ ((i + 1) * 0x9E3779B97F4A7C15)) % (2 ** 64)


class Product(Sequence):
    """The cartesian product of finite factors, each tuple of picks
    passed through build. Iterating gives itertools.product order (last
    factor fastest); [i] decodes i mixed-radix, first factor most
    significant: the i-th element of that order, building no other.
    size counts the elements; len() overflows past sys.maxsize."""

    def __init__(self, factors, build: Callable[[tuple], object]):
        self.factors = tuple(tuple(f) for f in factors)
        self.build = build
        self.size = math.prod(len(f) for f in self.factors)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return map(self.build, itertools.product(*self.factors))

    def __getitem__(self, i: int):
        if not 0 <= i < self.size:
            raise IndexError(i)
        picks = []
        for f in reversed(self.factors):
            i, r = divmod(i, len(f))
            picks.append(f[r])
        return self.build(tuple(reversed(picks)))


def enumerate_functions(
    dom: FiniteType, cod: CarrierDesc, cap: int = DEFAULT_CARRIER_CAP
) -> Product:
    """All tables dom -> cod in mixed-radix order: the entry at the
    highest atom index varies fastest."""
    return Product(
        (enumerate_carrier(cod, cap),) * dom.size,
        lambda combo: FnTable(dom, cod, combo),
    )


# ---------------------------------------------------------------------------
# rendering and parsing


def render_value(v: Value) -> str:
    t = type(v)
    if t is Atom:
        return f"#{v.index}"
    if t is Rat:
        return str(v.value)
    if t is Opt:
        return "none" if v.content is None else f"some {render_value(v.content)}"
    if t is Seq:
        return "[" + ", ".join(render_value(x) for x in v.items) + "]"
    if t is Dist:
        body = ", ".join(f"{render_value(x)}: {w}" for x, w in v.entries)
        return "{" + body + "}"
    if t is Vec:
        return "<" + ", ".join(render_value(x) for x in v.items) + ">"
    raise TypeError(f"not a Value: {v!r}")


def render_table(t: FnTable) -> str:
    return render_value(table_to_value(t))


_TOKEN_RE = re.compile(
    r"\s*(#\d+|none|some|[\[\]{}<>,:]|-?\d+/\d+|-?\d+)"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot tokenize value text at: {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_value(text: str) -> Value:
    """Parse the canonical textual rendering back into a Value. Accepts
    exactly the grammar render_value emits; distributions are
    canonicalized (and validated) on the way in."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of value text")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def node() -> Value:
        tok = take()
        if tok.startswith("#"):
            return Atom(int(tok[1:]))
        if tok == "none":
            return Opt(None)
        if tok == "some":
            return Opt(node())
        if tok in ("[", "<"):
            close = "]" if tok == "[" else ">"
            items = []
            if peek() != close:
                items.append(node())
                while peek() == ",":
                    take(",")
                    items.append(node())
            take(close)
            return Seq(tuple(items)) if tok == "[" else Vec(tuple(items), len(items))
        if tok == "{":
            pairs = []
            if peek() != "}":
                while True:
                    v = node()
                    take(":")
                    w = Fraction(take())
                    pairs.append((v, w))
                    if peek() == ",":
                        take(",")
                        continue
                    break
            take("}")
            return mk_dist(pairs)
        if re.fullmatch(r"-?\d+(/\d+)?", tok):
            return Rat(Fraction(tok))
        raise ValueError(f"unexpected token {tok!r}")

    result = node()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens after value: {tokens[pos:]!r}")
    return result
