"""Expectations for finmon reports, computed without finmon.

`check_report(report, config)` returns the number of checks the config
asks for and a list of problems, each naming the check it concerns.
Everything it compares against is derived here from the config alone:

* the rows a report must hold, in order (suites in config order with
  the 25 laws of the fat view in catalog order, then one row per system
  check, then one per decision problem);
* each exhaustive check's `checked` count, from closed-form carrier and
  function-space sizes;
* the verdict: every law holds on the lawful instances and every system
  and decision-problem check holds; on the two mutants exactly the laws
  in `REFUTED` fail;
* for a refuted law, `checked` is one more than the rank of the witness
  tuple in the canonical enumeration order, and a small reference
  implementation of the mutant's operations re-evaluates both sides
  from the witness bindings. The sides must render as the report says,
  differ, and still agree as multisets (mutant-a, which reverses the
  outer list in join) or after merging equal values (mutant-b, which
  skips the merge).
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------------------
# values: ("#", i) | ("none",) | ("some", v) | ("seq", items)
#         | ("dist", ((v, w), ...)) | ("vec", items)

_TOKEN = re.compile(r"\s*(#\d+|none|some|[\[\]{}<>,:]|\d+/\d+|\d+)")


def parse(text: str):
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read value text at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    it = iter(tokens + [None])
    tok = [next(it)]

    def take():
        t = tok[0]
        tok[0] = next(it)
        return t

    def items(close):
        out = []
        while tok[0] != close:
            out.append(node())
            if tok[0] == ",":
                take()
        take()
        return tuple(out)

    def node():
        t = take()
        if t is None:
            raise ValueError("value text ends early")
        if t.startswith("#"):
            return ("#", int(t[1:]))
        if t == "none":
            return ("none",)
        if t == "some":
            return ("some", node())
        if t == "[":
            return ("seq", items("]"))
        if t == "<":
            return ("vec", items(">"))
        if t == "{":
            pairs = []
            while tok[0] != "}":
                v = node()
                if take() != ":":
                    raise ValueError("expected ':' in a distribution")
                pairs.append((v, Fraction(take())))
                if tok[0] == ",":
                    take()
            take()
            return ("dist", tuple(pairs))
        raise ValueError(f"unexpected token {t!r}")

    value = node()
    if tok[0] is not None:
        raise ValueError(f"trailing text in value {text!r}")
    return value


def render(v) -> str:
    tag = v[0]
    if tag == "#":
        return f"#{v[1]}"
    if tag == "none":
        return "none"
    if tag == "some":
        return f"some {render(v[1])}"
    if tag == "seq":
        return "[" + ", ".join(render(x) for x in v[1]) + "]"
    if tag == "vec":
        return "<" + ", ".join(render(x) for x in v[1]) + ">"
    if tag == "dist":
        return "{" + ", ".join(f"{render(x)}: {w}" for x, w in v[1]) + "}"
    raise ValueError(f"not a value: {v!r}")


def order_key(v):
    """finmon's canonical value order: by constructor, then by length,
    then lexicographically (distribution entries as (value, weight))."""
    tag = v[0]
    if tag == "#":
        return (0, v[1])
    if tag == "none":
        return (2, 0)
    if tag == "some":
        return (2, 1, order_key(v[1]))
    if tag == "seq":
        return (3, len(v[1]), tuple(order_key(x) for x in v[1]))
    if tag == "dist":
        return (4, len(v[1]), tuple((order_key(x), w) for x, w in v[1]))
    if tag == "vec":
        return (5, len(v[1]), tuple(order_key(x) for x in v[1]))
    raise ValueError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# carriers: closed-form sizes and ranks in enumeration order

GRID = tuple(Fraction(s) for s in ("1", "1/2", "1/3", "2/3", "1/4", "3/4"))


@lru_cache(maxsize=None)
def weight_tuples(k: int) -> tuple:
    """Ordered k-tuples over the weight grid summing to 1, in product order."""
    return tuple(c for c in itertools.product(GRID, repeat=k) if sum(c) == 1)


class Carrier:
    """M^depth over a base of `base` atoms, for one instance kind."""

    def __init__(self, kind: str, depth: int, base: int, max_len: int, max_support: int):
        self.kind, self.depth, self.base = kind, depth, base
        self.max_len, self.max_support = max_len, max_support

    def inner(self) -> "Carrier":
        return Carrier(self.kind, self.depth - 1, self.base, self.max_len, self.max_support)

    def size(self) -> int:
        if self.depth == 0:
            return self.base
        n = self.inner().size()
        if self.kind == "identity":
            return n
        if self.kind == "maybe":
            return 1 + n
        if self.kind == "list":
            return sum(n ** k for k in range(self.max_len + 1))
        return sum(math.comb(n, k) * len(weight_tuples(k))
                   for k in range(1, min(self.max_support, n) + 1))

    def rank(self, v) -> int:
        """Position of v in finmon's enumeration of this carrier."""
        if self.depth == 0:
            return v[1]
        inner = self.inner()
        if self.kind == "identity":
            return inner.rank(v)
        if self.kind == "maybe":
            return 0 if v[0] == "none" else 1 + inner.rank(v[1])
        n = inner.size()
        if self.kind == "list":
            items = v[1]
            shorter = sum(n ** k for k in range(len(items)))
            return shorter + _mixed_radix([inner.rank(x) for x in items], n)
        entries = v[1]
        k = len(entries)
        before = sum(math.comb(n, j) * len(weight_tuples(j)) for j in range(1, k))
        support = [inner.rank(x) for x, _ in entries]
        weights = tuple(w for _, w in entries)
        return (before + _comb_rank(support, n) * len(weight_tuples(k))
                + weight_tuples(k).index(weights))


def _mixed_radix(digits: list[int], base: int) -> int:
    r = 0
    for d in digits:
        r = r * base + d
    return r


def _comb_rank(chosen: list[int], n: int) -> int:
    """Rank of an increasing index list among itertools.combinations(range(n), k)."""
    k = len(chosen)
    if chosen != sorted(set(chosen)):
        raise ValueError("support is not in enumeration order")
    r, prev = 0, -1
    for i, c in enumerate(chosen):
        for skipped in range(prev + 1, c):
            r += math.comb(n - skipped - 1, k - i - 1)
        prev = c
    return r


# ---------------------------------------------------------------------------
# the law catalog: variables (name, kind, domain role, carrier) and sides

KIND = {"identity": "identity", "maybe": "maybe", "nondet": "list",
        "mutant-a": "list", "simpleprob": "prob", "mutant-b": "prob"}

# carrier "M A" is ("A", 1); a plain role "B" is ("B", 0)
LAWS = (
    ("F1", (("ma", "carrier", None, ("A", 1)),)),
    ("F2", (("f", "fn", "A", ("B", 0)), ("g", "fn", "B", ("C", 0)), ("ma", "carrier", None, ("A", 1)))),
    ("F3", (("f", "fn", "A", ("B", 0)), ("ma", "carrier", None, ("A", 1)))),
    ("T1", (("ma", "carrier", None, ("A", 1)),)),
    ("T2", (("ma", "carrier", None, ("A", 1)),)),
    ("T3", (("mmma", "carrier", None, ("A", 3)),)),
    ("T4", (("f", "fn", "A", ("B", 0)), ("a", "atom", "A", None))),
    ("T5", (("f", "fn", "A", ("B", 0)), ("mma", "carrier", None, ("A", 2)))),
    ("KJ", (("f", "fn", "A", ("B", 1)), ("g", "fn", "B", ("C", 1)), ("a", "atom", "A", None))),
    ("BJ", (("f", "fn", "A", ("B", 1)), ("ma", "carrier", None, ("A", 1)))),
    ("D1", (("f", "fn", "A", ("B", 1)), ("a", "atom", "A", None))),
    ("D2", (("f", "fn", "A", ("B", 1)), ("a", "atom", "A", None))),
    ("D3", (("f", "fn", "A", ("B", 1)), ("g", "fn", "B", ("C", 1)), ("h", "fn", "C", ("D", 1)),
            ("a", "atom", "A", None))),
    ("D4", (("f", "fn", "A", ("B", 1)), ("g", "fn", "B", ("C", 1)), ("a", "atom", "A", None))),
    ("D5", (("f", "fn", "A", ("B", 1)), ("g", "fn", "B", ("C", 1)), ("a", "atom", "A", None))),
    ("W1", (("f", "fn", "A", ("B", 1)), ("a", "atom", "A", None))),
    ("W2", (("ma", "carrier", None, ("A", 1)),)),
    ("W3", (("f", "fn", "A", ("B", 1)), ("g", "fn", "B", ("C", 1)), ("ma", "carrier", None, ("A", 1)))),
    ("W4", (("f", "fn", "A", ("B", 1)), ("ma", "carrier", None, ("A", 1)))),
    ("W5", (("ma", "carrier", None, ("A", 1)),)),
    ("E1", (("f", "fn", "A", ("B", 0)), ("ma", "carrier", None, ("A", 1)))),
    ("E2", (("mma", "carrier", None, ("A", 2)),)),
    ("E3", (("f", "fn", "A", ("B", 1)), ("g", "fn", "B", ("C", 1)), ("a", "atom", "A", None))),
    ("L1", (("g", "fn", "A", ("B", 1)), ("f", "fn", "B", ("C", 0)), ("ma", "carrier", None, ("A", 1)))),
    ("L2", (("f", "fn", "A", ("B", 1)), ("g", "fn", "B", ("C", 1)), ("h", "fn", "C", ("D", 0)),
            ("a", "atom", "A", None))),
)

# The laws each mutant breaks at sizes 2: mutant-a's reversed join shows
# wherever a join sees an outer list of two or more non-empty parts;
# mutant-b's unmerged entries show wherever two paths reach one value.
REFUTED = {
    "mutant-a": {"T2", "T3", "D2", "D3", "W2", "W3", "E1"},
    "mutant-b": {"F2", "T3", "T5", "BJ", "D3", "W3", "E3", "L1", "L2"},
}


class Spaces:
    """Variable spaces of one suite: sizes and ranks of bindings."""

    def __init__(self, suite: dict):
        self.kind = KIND[suite["instance"]]
        self.sizes = {"A": 2, "B": 2, "C": 2, "D": 2, **suite.get("sizes", {})}
        self.max_len = suite.get("max_len", 2)
        self.max_support = suite.get("max_support", 2)

    def carrier(self, role: str, depth: int) -> Carrier:
        return Carrier(self.kind, depth, self.sizes[role], self.max_len, self.max_support)

    def var_size(self, var) -> int:
        _, kind, dom, cod = var
        if kind == "atom":
            return self.sizes[dom]
        if kind == "carrier":
            return self.carrier(*cod).size()
        return self.carrier(*cod).size() ** self.sizes[dom]

    def var_rank(self, var, text: str) -> int:
        _, kind, dom, cod = var
        v = parse(text)
        if kind == "atom":
            return v[1]
        if kind == "carrier":
            return self.carrier(*cod).rank(v)
        if v[0] != "vec" or len(v[1]) != self.sizes[dom]:
            raise ValueError(f"not a table over {dom}: {text}")
        cod_c = self.carrier(*cod)
        return _mixed_radix([cod_c.rank(x) for x in v[1]], cod_c.size())


# ---------------------------------------------------------------------------
# reference operations of the two mutants


def _list_ops():
    def join(mm):
        return ("seq", tuple(x for inner in reversed(mm[1]) for x in inner[1]))

    def fmap(f, m):
        return ("seq", tuple(f(x) for x in m[1]))

    return {
        "pure": lambda v: ("seq", (v,)),
        "map": fmap,
        "join": join,
        "bind": lambda m, f: join(fmap(f, m)),
    }


def _unmerged(pairs):
    return ("dist", tuple(sorted(pairs, key=lambda p: order_key(p[0]))))


def _prob_ops():
    return {
        "pure": lambda v: ("dist", ((v, Fraction(1)),)),
        "map": lambda f, m: _unmerged([(f(x), w) for x, w in m[1]]),
        "join": lambda mm: _unmerged([(x, w * p) for inner, w in mm[1] for x, p in inner[1]]),
        "bind": lambda m, f: _unmerged([(y, w * p) for x, w in m[1] for y, p in f(x)[1]]),
    }


REFERENCE_OPS = {"mutant-a": _list_ops, "mutant-b": _prob_ops}


def law_sides(law: str, ops: dict, env: dict):
    """Both sides of one law for the bindings in env, with ops."""
    pure, fmap, join, bind = ops["pure"], ops["map"], ops["join"], ops["bind"]

    def kl(f, g):
        return lambda a: join(fmap(g, f(a)))

    def fn(name):
        table = env[name][1]
        return lambda atom: table[atom[1]]

    ident = lambda v: v  # noqa: E731
    f = fn("f") if "f" in env else None
    g = fn("g") if "g" in env else None
    h = fn("h") if "h" in env else None
    a, ma, mma, mmma = (env.get(k) for k in ("a", "ma", "mma", "mmma"))
    sides = {
        "F1": lambda: (fmap(ident, ma), ma),
        "F2": lambda: (fmap(lambda v: g(f(v)), ma), fmap(g, fmap(f, ma))),
        "F3": lambda: (fmap(f, ma), fmap(f, ma)),
        "T1": lambda: (join(pure(ma)), ma),
        "T2": lambda: (join(fmap(pure, ma)), ma),
        "T3": lambda: (join(join(mmma)), join(fmap(join, mmma))),
        "T4": lambda: (fmap(f, pure(a)), pure(f(a))),
        "T5": lambda: (fmap(f, join(mma)), join(fmap(lambda m: fmap(f, m), mma))),
        "KJ": lambda: (kl(f, g)(a), join(fmap(g, f(a)))),
        "BJ": lambda: (bind(ma, f), join(fmap(f, ma))),
        "D1": lambda: (kl(pure, f)(a), f(a)),
        "D2": lambda: (kl(f, pure)(a), f(a)),
        "D3": lambda: (join(fmap(h, kl(f, g)(a))), join(fmap(kl(g, h), f(a)))),
        "D4": lambda: (kl(f, g)(a), kl(f, g)(a)),
        "D5": lambda: (kl(f, g)(a), kl(ident, g)(f(a))),
        "W1": lambda: (bind(pure(a), f), f(a)),
        "W2": lambda: (bind(ma, pure), ma),
        "W3": lambda: (bind(bind(ma, f), g), bind(ma, lambda x: bind(f(x), g))),
        "W4": lambda: (bind(ma, f), bind(ma, f)),
        "W5": lambda: (bind(bind(ma, lambda x: pure(pure(x))), ident), ma),
        "E1": lambda: (fmap(f, ma), bind(ma, lambda x: pure(f(x)))),
        "E2": lambda: (join(mma), bind(mma, ident)),
        "E3": lambda: (kl(f, g)(a), bind(f(a), g)),
        "L1": lambda: (fmap(f, join(fmap(g, ma))), join(fmap(lambda x: fmap(f, g(x)), ma))),
        "L2": lambda: (fmap(h, kl(f, g)(a)), kl(f, lambda b: fmap(h, g(b)))(a)),
    }
    return sides[law]()


def _merged(d):
    acc: dict = {}
    for v, w in d[1]:
        acc[v] = acc.get(v, 0) + w
    return sorted(acc.items(), key=lambda p: order_key(p[0]))


def _same_up_to_fault(instance: str, lhs, rhs) -> bool:
    if instance == "mutant-a":
        return Counter(lhs[1]) == Counter(rhs[1])
    return _merged(lhs) == _merged(rhs)


# ---------------------------------------------------------------------------
# expected rows


def _system_checked(check: str, entry: dict) -> int:
    n, x = entry.get("n_max", 3), entry["size"]
    if check in ("flowLR", "flowMonRLem", "flowTrjLemma"):
        return (n + 1) * x
    if check == "flowMonoid":
        return x * (1 + (n + 1) * (n + 2) // 2)
    kind = KIND[entry["instance"]]
    ml, ms = entry.get("max_len", 2), entry.get("max_support", 2)
    if check == "reprLemma":
        return (n + 1) * Carrier(kind, 1, x, ml, ms).size()
    if check == "mapLastLemma":
        # n_max is passed on as the longest vector length
        return x * sum(Carrier(kind, 1, x ** ln, ml, ms).size() for ln in range(1, n + 1))
    raise ValueError(f"no expectation for system check {check!r}")


def expected_rows(config: dict) -> list[dict]:
    rows = []
    for suite in config.get("suites", []):
        if suite.get("view", "fat") != "fat" or suite.get("laws"):
            raise ValueError("expectations cover whole fat-view suites only")
        spaces = Spaces(suite)
        refuted = REFUTED.get(suite["instance"], set())
        for law, variables in LAWS:
            rows.append({
                "group": f"suite:{suite['name']}", "law": law,
                "instance": suite["instance"], "pass": law not in refuted,
                "checked": math.prod(spaces.var_size(v) for v in variables),
                "spaces": spaces, "variables": variables,
            })
    for entry in config.get("systems", []):
        for check in entry["checks"]:
            rows.append({
                "group": f"system:{entry['name']}", "law": check,
                "instance": entry["instance"], "pass": True,
                "checked": _system_checked(check, entry),
            })
    for entry in config.get("sdps", []):
        rows.append({
            "group": f"sdp:{entry['name']}", "law": "valSpec",
            "instance": entry["instance"], "pass": True,
            "checked": entry["controls"] ** (entry["states"] * entry["horizon"])
            * entry["states"],
        })
    return rows


def _witness_problem(exp: dict, row: dict) -> str | None:
    witness = row.get("witness") or {}
    variables = exp["variables"]
    names = [v[0] for v in variables]
    missing = [k for k in names + ["lhs", "rhs"] if k not in witness]
    if missing:
        return f"witness lacks {', '.join(missing)}"
    spaces = exp["spaces"]
    try:
        rank = 0
        for v in variables:
            rank = rank * spaces.var_size(v) + spaces.var_rank(v, witness[v[0]])
        env = {name: parse(witness[name]) for name in names}
        lhs, rhs = law_sides(exp["law"], REFERENCE_OPS[exp["instance"]](), env)
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return f"witness does not re-evaluate: {exc}"
    if row.get("checked") != rank + 1:
        return (f"checked={row.get('checked')} but the witness is enumerated "
                f"at position {rank + 1}")
    if (render(lhs), render(rhs)) != (witness["lhs"], witness["rhs"]):
        return (f"reference sides {render(lhs)} / {render(rhs)} differ from the "
                f"report's {witness['lhs']} / {witness['rhs']}")
    if render(lhs) == render(rhs):
        return "witness sides are equal"
    if not _same_up_to_fault(exp["instance"], lhs, rhs):
        return "witness sides differ by more than the mutant's fault"
    return None


def check_report(report: dict, config: dict) -> tuple[int, list[str]]:
    """(checks attempted, problems). One problem per failing check, plus
    one for each report-level mismatch."""
    expected = expected_rows(config)
    det = report.get("deterministic", {})
    rows = det.get("results", [])
    problems = []
    for i, exp in enumerate(expected):
        label = f"{exp['group']} {exp['law']}"
        if i >= len(rows):
            problems.append(f"{label}: missing from the report")
            continue
        row = rows[i]
        where = (row.get("group"), row.get("law"), row.get("instance"))
        if where != (exp["group"], exp["law"], exp["instance"]):
            problems.append(f"{label}: report has {where} in its place")
            continue
        if row.get("pass") is not exp["pass"]:
            problem = f"pass={row.get('pass')}, expected {exp['pass']}"
        elif not exp["pass"]:
            problem = _witness_problem(exp, row)
        elif row.get("checked") != exp["checked"]:
            problem = f"checked={row.get('checked')}, expected {exp['checked']}"
        elif row.get("witness"):
            problem = "a passing check carries a witness"
        else:
            problem = None
        if problem:
            problems.append(f"{label}: {problem}")
    if len(rows) > len(expected):
        problems.append(f"report has {len(rows) - len(expected)} unexpected rows")
    failures = sum(1 for e in expected if not e["pass"])
    if det.get("counts") != {"checks": len(expected), "failures": failures}:
        problems.append(f"counts {det.get('counts')} disagree with the rows")
    if det.get("pass") is not (failures == 0):
        problems.append("aggregate verdict disagrees with the rows")
    return len(expected), problems
