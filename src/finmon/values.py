"""Closed value universe, finite domains, function tables, enumeration.

Everything the law checker quantifies over lives here: a small recursive
universe of runtime values (atoms, optionals, sequences, finite
distributions with exact rational weights, vectors), carrier
descriptors that make every monadic carrier finitely enumerable, and
extensional function tables over enumerated domains.

Functions are tables, not code. That single choice makes pointwise
function equality decidable: two tables agree everywhere iff their entry
tuples are equal. Distributions carry exact rationals in integer form,
so every equality check is a decision, never a tolerance: a support
tuple, positive integer numerators and one denominator, reduced so that
equal distributions have one representation. One closer, canonical_dist,
builds them from numerators merged by value; checked_dist, the checked
constructor it ends in, also closes a mutant's unmerged terms. Fractions
appear at the edges (rendering, parsing, the expected measure and the
read-only entries) and in canonical_key, which keys each weight by an
integer and compares its interned Fraction only when two integer keys tie.

Canonical textual rendering (the bit-exact witness format used in
reports, read back by one recursive reader over the tokens, parse_value):

    atoms          #0  #1  ...
    optionals      none | some v
    sequences      [] | [v, v, ...]
    distributions  {v: p/q, v: p/q, ...}   entries in canonical order
    vectors        <> | <v, v, ...>
    rationals      p/q or p                (int or Fraction leaves, reward sums)

A function is its outputs, slot i at atom #i, held by role: a table a
law quantifies over is an interned FnTable, rendered as its Vec; a value
of FnOf(domain, inner) inside a structure is a Vec of inner values, so a
vector of length n is a value of FnOf(T(n), X); and a level over the
states (a system's step, a flow) is a plain tuple, applied by table_fn.
Rewards are bare ints when integral and Fractions otherwise, values of
no enumerable carrier; an int keys and renders as the equal Fraction.

Value identity is decided in C: atoms and quantified tables are interned
(hash-consed, Filliâtre and Conchon, 2006), so equality and hash are
identity; every other value is the tuple (tag, *fields), the tag keeping
types apart. An atom holds its canonical key from birth, a Dist from its
first sort, outside the fields that repr, == and hash read.
"""

from __future__ import annotations

import itertools
import math
import re
import weakref
from array import array
from collections import Counter, _tuplegetter  # namedtuple's field descriptor, in C
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Union

__all__ = [
    "Atom", "Opt", "Seq", "Dist", "Vec", "Value",
    "FiniteType", "Base", "MaybeOf", "SeqOf", "DistOf", "FnOf",
    "CarrierDesc", "FnTable", "Quantifier", "Product", "sub_seed",
    "CarrierTooLarge", "CarrierOverflow",
    "WEIGHT_GRID", "weight_tuples",
    "canonical_key", "canonical_dist", "checked_dist", "mk_dist", "check_member",
    "enumerate_domain", "refuse_count", "refuse_wide", "enumerate_carrier", "carrier_size",
    "relabeling", "enumerate_functions", "shown_count", "stream_carrier",
    "table_fn",
    "render_value", "parse_value",
    "DEFAULT_CARRIER_CAP", "EXACT_BITS", "RATIONAL",
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


class _Frozen:
    """Base of every value but ints and Fractions: immutable, shown as
    Type(field=value, ...), and copied or unpickled by building again from
    its fields, which returns the one object of an interned type."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


def _interned(cls, values):
    """A new object of the interned type cls, its slots set to values."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


_ATOMS: dict[int, "Atom"] = {}


class Atom(_Frozen):
    """The domain element #index, one object per index, holding its
    canonical_key (0, index) in a slot that repr and pickling skip."""

    _fields = ("index",)
    __slots__ = ("index", "key")

    def __new__(cls, index: int) -> "Atom":
        return _ATOMS.get(index) or _ATOMS.setdefault(index, _interned(cls, (index, (0, index))))


_new = tuple.__new__


class _Tagged(_Frozen, tuple):
    """Base of the composite values: the tuple (tag, *fields), the tag being
    the first entry of the type's canonical_key, so == and hash are the
    tuple's, in C, and equal fields under two types compare unequal."""

    __slots__ = ()
    key = None  # canonical_key's cache: only a Dist keeps its key


class Opt(_Tagged):
    __slots__ = ()
    _fields = ("content",)
    content = _tuplegetter(1, None)

    def __new__(cls, content: Union["Value", None]) -> "Opt":
        return _new(cls, (2, content))


class Seq(_Tagged):
    __slots__ = ()
    _fields = ("items",)
    items = _tuplegetter(1, None)

    def __new__(cls, items: tuple["Value", ...]) -> "Seq":
        return _new(cls, (3, items))


class Dist(_Tagged):
    """Finite distribution in integer form: support[i] has weight
    nums[i] / den. Canonical form: support sorted by canonical value
    order, no duplicate values, numerators positive and summing to den,
    gcd(den, *nums) == 1. Enumerated values share nums with the grid."""

    _fields = ("support", "nums", "den")
    support, nums, den = (_tuplegetter(i, None) for i in (1, 2, 3))

    def __new__(cls, support: tuple["Value", ...], nums: tuple[int, ...], den: int) -> "Dist":
        return _new(cls, (4, support, nums, den))

    @property
    def entries(self) -> tuple[tuple["Value", Fraction], ...]:
        """(value, weight) pairs with interned Fraction weights, built
        on each read: for rendering, tests and scripts."""
        den = self.den
        return tuple([(x, _WEIGHTS[n, den]) for x, n in zip(self.support, self.nums)])


class Vec(_Tagged):
    __slots__ = ()
    _fields = ("items",)
    items = _tuplegetter(1, None)

    def __new__(cls, items: tuple["Value", ...]) -> "Vec":
        return _new(cls, (5, items))


Value = Union[Atom, Opt, Seq, Dist, Vec, int, Fraction]
_TAGS = {Atom: 0, Opt: 2, Seq: 3, Dist: 4, Vec: 5}  # each key's first entry; ints and Fractions 1


def canonical_key(v: Value):
    """Total-order sort key, kept on an atom and on a Dist. Shorter
    sequences sort before longer ones, then lexicographically; dist entries
    compare as (value, weight) pairs, each weight n / den keyed by (n << 64)
    // den before its interned Fraction: the floor is monotone, so the order
    is the Fractions' own, and only a tie compares them."""
    t = type(v)
    if t is int or t is Fraction:
        return (1, v)
    if t not in _TAGS:
        raise TypeError(f"not a Value: {v!r}")
    key = v.key
    if key is None:
        if t is Opt:
            key = (2, 0) if v.content is None else (2, 1, canonical_key(v.content))
        elif t is Dist:
            den = v.den
            key = (4, len(v.nums), tuple([
                (x.key if type(x) is Atom else canonical_key(x), (n << 64) // den, _WEIGHTS[n, den])
                for x, n in zip(v.support, v.nums)]))
            v.__dict__["key"] = key
        else:
            key = (_TAGS[t], len(v.items),
                   tuple([x.key if type(x) is Atom else canonical_key(x) for x in v.items]))
    return key


class _Weights(dict):
    """(n, d) -> the interned Fraction n/d, one object per value."""

    def __missing__(self, key):
        g = math.gcd(*key)
        w = self[key] = Fraction(*key) if g == 1 else self[key[0] // g, key[1] // g]
        return w


_WEIGHTS = _Weights()


def canonical_dist(acc: dict[Value, int], den: int) -> Dist:
    """The canonical Dist of acc, each value's merged numerator over the
    common denominator den > 0: the one closer of every lawful distribution.
    The support is sorted once, two values by one key comparison."""
    support = tuple(sorted(acc, key=canonical_key) if len(acc) > 2 else acc)
    if len(support) == 2 and canonical_key(support[1]) < canonical_key(support[0]):
        support = support[::-1]
    return checked_dist(support, tuple(map(acc.__getitem__, support)), den)


def checked_dist(support: tuple[Value, ...], nums: tuple[int, ...], den: int) -> Dist:
    """The Dist of the sorted support once its numerators are checked to
    be positive and to sum to den, reduced by gcd(den, *nums)."""
    if sum(nums) != den:
        raise ValueError(f"distribution weights must sum to 1, got {Fraction(sum(nums), den)}")
    if min(nums) <= 0:
        raise ValueError(f"distribution weight must be positive, got {Fraction(min(nums), den)}")
    g = math.gcd(den, *nums)
    if g != 1:
        nums, den = tuple([n // g for n in nums]), den // g
    return _new(Dist, (4, support, nums, den))


def mk_dist(pairs) -> Dist:
    """The canonical Dist of (value, weight) pairs, each weight positive
    and made a Fraction if it is not one, merged by value over the lcm."""
    pairs = [(v, w if type(w) is Fraction else Fraction(w)) for v, w in pairs]
    den = math.lcm(*[w.denominator for _, w in pairs])
    acc: dict[Value, int] = {}
    for v, w in pairs:
        if w <= 0:
            raise ValueError(f"distribution weight must be positive, got {w}")
        acc[v] = acc.get(v, 0) + w.numerator * (den // w.denominator)
    return canonical_dist(acc, den)


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
class FnOf:
    domain: FiniteType
    inner: "CarrierDesc"


CarrierDesc = Union[Base, MaybeOf, SeqOf, DistOf, FnOf]
# the tuple lengths of a Maybe, Seq or Fn carrier c, one block of values each
_LENGTHS = {MaybeOf: lambda c: (0, 1), SeqOf: lambda c: range(c.max_len + 1),
            FnOf: lambda c: (c.domain.size,)}


def render_carrier(c: CarrierDesc) -> str:
    if isinstance(c, Base):
        return f"{c.domain.name}({c.domain.size})"
    if isinstance(c, MaybeOf):
        return f"Maybe[{render_carrier(c.inner)}]"
    if isinstance(c, SeqOf):
        return f"Seq[{render_carrier(c.inner)};maxLen={c.max_len}]"
    if isinstance(c, DistOf):
        return f"Dist[{render_carrier(c.inner)};maxSupport={c.max_support}]"
    if isinstance(c, FnOf):
        return f"Fn[{c.domain.name}({c.domain.size})->{render_carrier(c.inner)}]"
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
            for x in v.support:
                check_member(x, c.inner)
            return
    elif isinstance(c, FnOf):
        if type(v) is Vec and len(v.items) == c.domain.size:
            for x in v.items:
                check_member(x, c.inner)
            return
    raise ValueError(f"{render_value(v)} is not a value of {render_carrier(c)}")


# ---------------------------------------------------------------------------
# the weight grid

# Exactly the configured grid: every enumerated distribution draws its
# weights from here, in tuples summing to exactly 1.
WEIGHT_GRID: tuple[Fraction, ...] = tuple(
    _WEIGHTS[w] for w in ((1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4))
)


@lru_cache(maxsize=None)
def weight_tuples(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All ordered k-tuples over the grid summing to exactly 1, each as
    its numerators over their lcm denominator, (nums, den), reduced and
    shared by every value that enumerate_carrier builds with it. Empty
    for k > 4 since the smallest grid weight is 1/4."""
    if k < 1 or k * min(WEIGHT_GRID) > 1:
        return ()
    tuples = [t for t in itertools.product(WEIGHT_GRID, repeat=k) if sum(t) == 1]
    dens = [math.lcm(*[w.denominator for w in t]) for t in tuples]
    return tuple((tuple([int(w * d) for w in t]), d) for t, d in zip(tuples, dens))


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def enumerate_domain(d: FiniteType) -> tuple[Atom, ...]:
    return tuple(Atom(i) for i in range(d.size))


def refuse_count(kind: str, space: str, count: int, cap: int, unit: str = "values") -> None:
    """CarrierTooLarge, naming the space, if its count passes the cap."""
    if count > cap:
        raise CarrierTooLarge(
            f"{kind} too large: {space} has {shown_count(count)} {unit}, cap {cap}")


def refuse_wide(d: FiniteType, cap: int) -> FiniteType:
    """d itself; CarrierTooLarge if it has more than cap atoms."""
    refuse_count("domain", render_carrier(Base(d)), d.size, cap, "atoms")
    return d


EXACT_BITS = 1 << 20  # counts below 2^(2^20) are exact: a pow that size takes about 0.1 s


def carrier_size(c: CarrierDesc, bits: int | None = None) -> int:
    """Closed-form count of enumerate_carrier output, pinned by the tests
    against direct counting: n ** k tuples in each block of length k over n
    inner values. Given bits, a count of more than bits + 1 bits may come
    back as a smaller count past 2^bits, bounded by bit length before any pow."""
    if isinstance(c, Base):
        return c.domain.size
    n = carrier_size(c.inner, bits)
    if isinstance(c, DistOf):
        size = sum(math.comb(n, k) * len(weight_tuples(k))  # no grid tuple is longer than 4
                   for k in range(1, min(c.max_support, n, 4) + 1))
    else:
        lengths = _LENGTHS[type(c)](c)
        if bits is not None and lengths[-1] * (n.bit_length() - 1) > bits:  # n ** k >= 2^(bits + 1)
            return (1 << bits) + 1
        if len(lengths) > 2:  # 0..max_len: the geometric sum, with one pow
            size = len(lengths) if n == 1 else (n ** len(lengths) - 1) // (n - 1)
        else:  # one or two pows, and no division, which is slow on a huge count
            size = sum(n ** k for k in lengths)
    return size if bits is None or size.bit_length() <= bits + 1 else (1 << bits) + 1


def shown_count(n: int) -> int | str:
    """n itself below 2^128; past it "2^k", or "more than 2^k" with k =
    floor(log2 n), so that no huge count is ever converted to text."""
    k = n.bit_length() - 1
    if k < 128:
        return n
    return f"2^{k}" if n.bit_count() == 1 else f"more than 2^{k}"


def stream_carrier(c: CarrierDesc, cap: int = DEFAULT_CARRIER_CAP) -> Iterator[Value]:
    """enumerate_carrier(c, cap)'s values, built one at a time as they are
    pulled and kept by no cache: the one enumeration rule. c, and every
    carrier inside it, whose cached tuple the stream reads, is refused past
    the cap at the call."""
    refuse_count("carrier", render_carrier(c), carrier_size(c, EXACT_BITS), cap)
    if isinstance(c, Base):
        return iter(enumerate_domain(c.domain))
    inner = _enumerate_carrier_cached(c.inner, cap)
    if isinstance(c, MaybeOf):
        return itertools.chain((Opt(None),), map(Opt, inner))
    if isinstance(c, DistOf):
        return (Dist(support, nums, den)
                for k in range(1, min(c.max_support, len(inner), 4) + 1)
                for support in itertools.combinations(inner, k)
                for nums, den in weight_tuples(k))
    build = Seq if isinstance(c, SeqOf) else Vec
    return itertools.chain.from_iterable(
        map(build, itertools.product(inner, repeat=k)) for k in _LENGTHS[type(c)](c))


@lru_cache(maxsize=None)
def _enumerate_carrier_cached(c: CarrierDesc, cap: int) -> tuple[Value, ...]:
    return tuple(stream_carrier(c, cap))


def enumerate_carrier(c: CarrierDesc, cap: int = DEFAULT_CARRIER_CAP) -> tuple[Value, ...]:
    """All canonical values of the carrier, in a fixed canonical order:
    Base by atom index; MaybeOf, SeqOf and FnOf in blocks of tuples of inner
    values, one per length (0 and 1, none and some v; 0..max_len; domain.size)
    in turn, the last slot fastest; DistOf by support size, then support
    combination, then grid tuple order. Re-running yields the identical,
    cached tuple; stream_carrier builds the same values without keeping them."""
    return _enumerate_carrier_cached(c, cap)


def relabeling(c: CarrierDesc, perms: dict[FiniteType, Sequence[int]]) -> array:
    """The index permutation of enumerate_carrier(c) renaming atom #j of
    each domain d to #perms[d][j], and an FnOf's slot k to perms[domain][k].
    Built on indices, a tuple's index being its block's offset plus its
    inner indices in base n, first slot most significant: nested
    distributions do not enumerate in canonical order, so a value renamed
    by map need not be an enumerated one."""
    if isinstance(c, Base):
        return array("q", perms.get(c.domain, range(c.domain.size)))
    inner = relabeling(c.inner, perms)
    n = len(inner)
    out = array("q")  # one block after another
    if isinstance(c, DistOf):
        # only supports of up to 4 values have grid tuples: at most 4! sort orders
        for k in filter(weight_tuples, range(1, min(c.max_support, n) + 1)):
            # a tuple's nums sum to its den, so nums alone rank the grid
            grid, offset = [nums for nums, _ in weight_tuples(k)], len(out)
            supports = list(itertools.combinations(range(n), k))
            support_rank = {s: r for r, s in enumerate(supports)}
            grid_rank = {t: r for r, t in enumerate(grid)}
            ranks = {order: [grid_rank[tuple(t[j] for j in order)] for t in grid]
                     for order in itertools.permutations(range(k))}
            for support in supports:
                renamed = [inner[x] for x in support]
                order = tuple(sorted(range(k), key=renamed.__getitem__))
                base = offset + support_rank[tuple(renamed[j] for j in order)] * len(grid)
                out.extend(base + r for r in ranks[order])
        return out
    for k in _LENGTHS[type(c)](c):  # only an FnOf's slots move
        moved = perms.get(c.domain, range(k)) if isinstance(c, FnOf) else range(k)
        block = [len(out)]
        for w in [n ** (k - 1 - m) for m in moved]:  # slot j weighs n ** (k - 1 - moved[j])
            block = [x + p * w for x in block for p in inner]
        out.extend(block)
    return out


# ---------------------------------------------------------------------------
# function tables


_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class FnTable(_Frozen):
    """A table a law quantifies over: entry i is the output at atom #i.
    Interned on its entries in a weak pool: equal tables are one object
    while any is alive, and a table no one holds leaves the pool."""

    _fields = ("entries",)
    __slots__ = _fields + ("__weakref__",)

    def __new__(cls, entries: tuple[Value, ...]) -> "FnTable":
        return _TABLES.get(entries) or _TABLES.setdefault(entries, _interned(cls, (entries,)))


def table_fn(level: Sequence[Value]) -> Callable[[Value], Value]:
    """The function whose output at atom #i is level[i]."""
    return lambda v: level[v.index]


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
        self.size = math.prod(n ** k for n, k in Counter(map(len, self.factors)).items())

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
    highest atom index varies fastest. Like the codomain's carrier, the
    domain is refused past the cap, before the space is sized."""
    return Product(
        (enumerate_carrier(cod, cap),) * refuse_wide(dom, cap).size,
        FnTable,
    )


# ---------------------------------------------------------------------------
# rendering and parsing


def render_value(v: Value) -> str:
    t = type(v)
    if t is Atom:
        return f"#{v.index}"
    if t is int or t is Fraction:
        return str(v)
    if t is Opt:
        return "none" if v.content is None else f"some {render_value(v.content)}"
    if t is Seq:
        return "[" + ", ".join(render_value(x) for x in v.items) + "]"
    if t is Dist:
        body = ", ".join(f"{render_value(x)}: {w}" for x, w in v.entries)
        return "{" + body + "}"
    if t is Vec:
        return "<" + ", ".join(render_value(x) for x in v.items) + ">"
    if t is FnTable:
        return render_value(Vec(v.entries))
    raise TypeError(f"not a Value: {v!r}")


_TOKEN_RE = re.compile(
    r"\s*(#\d+|none|some|[\[\]{}<>,:]|-?\d+/\d+|-?\d+)"
)
RATIONAL = re.compile(r"-?\d+(/\d+)?")  # the text of a rational leaf


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


_CLOSE = {"[": "]", "<": ">", "{": "}"}


def _expect(tokens: list[str], i: int, token: str) -> int:
    """The index past tokens[i], which must be token."""
    if tokens[i] != token:
        raise ValueError(f"expected {token!r}, got {tokens[i]!r}" if tokens[i]
                         else "unexpected end of value text")
    return i + 1


def _read(tokens: list[str], i: int, rational: bool = False) -> tuple[Value, int]:
    """The value whose text starts at tokens[i], or with rational the
    rational token there, and the index past it. tokens end with "",
    which no text reaches: a weight is a rational token, never a value."""
    tok = tokens[i]
    if not tok:
        raise ValueError("unexpected end of value text")
    i += 1
    if rational or RATIONAL.fullmatch(tok):
        try:
            return Fraction(tok), i
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {tok!r}") from None
    if tok.startswith("#"):
        return Atom(int(tok[1:])), i
    if tok == "none":
        return Opt(None), i
    if tok == "some":
        content, i = _read(tokens, i)
        return Opt(content), i
    if tok not in _CLOSE:
        raise ValueError(f"unexpected token {tok!r}")
    items, more = [], tokens[i] != _CLOSE[tok]
    while more:
        item, i = _read(tokens, i)
        if tok == "{":
            weight, i = _read(tokens, _expect(tokens, i, ":"), rational=True)
            item = (item, weight)
        items.append(item)
        more = tokens[i] == ","
        i += more
    i = _expect(tokens, i, _CLOSE[tok])
    return mk_dist(items) if tok == "{" else (Seq if tok == "[" else Vec)(tuple(items)), i


def parse_value(text: str) -> Value:
    """Parse the canonical textual rendering back into a Value. Accepts
    exactly the grammar render_value emits; distributions are
    canonicalized (and validated) on the way in."""
    tokens = _tokenize(text) + [""]
    value, i = _read(tokens, 0)
    if i != len(tokens) - 1:
        raise ValueError(f"trailing tokens after value: {tokens[i:-1]!r}")
    return value
