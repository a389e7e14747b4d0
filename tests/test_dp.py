"""Decision processes: value functions, measures, the shift precondition."""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import pytest

from finmon.dp import (
    MEASURES,
    Measure,
    Sdp,
    check_measure_shift,
    check_val_equiv,
    enumerate_policy_seqs,
    get_measure,
    render_policy_seq,
    rews,
    val,
    val_spec,
)
from finmon.instances import get_instance
from finmon.reports import LawReport, Var, scan
from finmon.values import (
    Atom, FiniteType, Quantifier, enumerate_domain, parse_value, render_value,
)

X3 = FiniteType("X", 3)
Y2 = FiniteType("Y", 2)
Y1 = FiniteType("Y", 1)
Q = Quantifier(budget=100_000)


class CountingMeasure:
    """Instrumented wrapper: same measure, plus an application counter."""

    def __init__(self, inner: Measure):
        self.inner = inner
        self.name = inner.name
        self.count = 0

    def apply(self, mv):
        self.count += 1
        return self.inner.apply(mv)


def idx_reward(t, x, y, x1):
    return Fraction(x1.index)


def greedy_walk(horizon=2, measure="max") -> Sdp:
    def nd_next(t, x, y):
        if y.index == 0:
            return parse_value(f"[#{x.index}]")
        return parse_value(f"[#{x.index}, #{(x.index + 1) % 3}]")

    return Sdp("greedy-walk", horizon, X3, Y2, get_instance("nondet"),
               get_measure(measure), nd_next, idx_reward)


def coin_walk(horizon=2, measure=None) -> Sdp:
    def coin_next(t, x, y):
        return parse_value(f"{{#{x.index}: 1/2, #{(x.index + 1) % 3}: 1/2}}")

    return Sdp("coin-walk", horizon, X3, Y1, get_instance("simpleprob"),
               measure or get_measure("expected"), coin_next, idx_reward)


def drop_chain(horizon=2) -> Sdp:
    def mb_next(t, x, y):
        if x.index == 2:
            return parse_value("none")
        return parse_value(f"some #{x.index + 1}")

    return Sdp("drop-chain", horizon, X3, Y1, get_instance("maybe"),
               get_measure("default-zero"), mb_next, idx_reward)


def test_measure_registry():
    assert set(MEASURES) == {"expected", "max", "point", "default-zero"}
    with pytest.raises(KeyError):
        get_measure("entropy")


def test_measure_type_guards():
    with pytest.raises(TypeError):
        get_measure("expected").apply(parse_value("[#0]"))
    with pytest.raises(TypeError):
        get_measure("max").apply(parse_value("{#0: 1}"))
    with pytest.raises(ValueError):
        get_measure("max").apply(parse_value("[]"))


def test_expected_value_oracle():
    mv = parse_value("{0: 1/4, 1: 1/4, 2: 1/4, 3: 1/4}")
    assert get_measure("expected").apply(mv) == Fraction(3, 2)


def test_coin_value_matches_explicit_path_expectation():
    """Independent oracle: enumerate the four two-step paths by hand."""
    sdp = coin_walk(horizon=2)
    ps = enumerate_policy_seqs(sdp, 2)[0]
    total = Fraction(0)
    for moves in itertools.product([0, 1], repeat=2):
        xs = [0]
        for m in moves:
            xs.append((xs[-1] + m) % 3)
        reward = sum(xs[1:])
        total += Fraction(1, 4) * reward
    assert total == Fraction(3, 2)
    assert val(sdp, ps, Atom(0)) == total
    assert val_spec(sdp, ps, Atom(0)) == total


def test_coin_single_step_value():
    sdp = coin_walk(horizon=1)
    ps = enumerate_policy_seqs(sdp, 1)[0]
    assert val(sdp, ps, Atom(0)) == Fraction(1, 2)


def test_greedy_walk_best_value_is_three():
    # with two steps the best play from #0 hops 0 -> 1 -> 2, worth 1 + 2
    sdp = greedy_walk(horizon=2)
    seqs = enumerate_policy_seqs(sdp, 2)
    assert len(seqs) == 64
    assert max(val(sdp, ps, Atom(0)) for ps in seqs) == 3


def test_rews_structure_oracle():
    sdp = coin_walk(horizon=2)
    ps = enumerate_policy_seqs(sdp, 2)[0]
    out = rews(sdp, ps, Atom(0))
    assert render_value(out) == "{0: 1/4, 1: 1/4, 2: 1/4, 3: 1/4}"


def test_empty_policy_sequence_is_worth_zero():
    sdp = coin_walk(horizon=0)
    assert val(sdp, (), Atom(1)) == 0
    assert val_spec(sdp, (), Atom(1)) == 0
    assert rews(sdp, (), Atom(1)) == parse_value("{0: 1}")


def test_measure_application_counts():
    """val measures at every node, val_spec exactly once."""
    cm = CountingMeasure(get_measure("expected"))
    sdp = coin_walk(horizon=3, measure=cm)
    ps = enumerate_policy_seqs(sdp, 3)[0]
    cm.count = 0
    val(sdp, ps, Atom(0))
    # one application per visited node: 1 + 2 + 4 under branching 2
    assert cm.count == 7
    cm.count = 0
    val_spec(sdp, ps, Atom(0))
    assert cm.count == 1


@pytest.mark.parametrize("mk,horizon,inst,measure", [
    (greedy_walk, 3, "nondet", "max"),
    (coin_walk, 6, "simpleprob", "expected"),
    (greedy_walk, 3, "mutant-a", "max"),
    (coin_walk, 6, "mutant-b", "expected"),
])
def test_memo_never_changes_a_value(mk, horizon, inst, measure):
    # one warm memo per value function, shared over every (ps, x) as in
    # check_val_equiv, gives what a fresh uncached call gives
    sdp = dataclasses.replace(mk(horizon=horizon), monad=get_instance(inst),
                              measure=get_measure(measure))
    val_memo, rews_memo, spec_memo = {}, {}, {}
    for ps in enumerate_policy_seqs(sdp, horizon):
        for x in enumerate_domain(sdp.states):
            assert val(sdp, ps, x, 0, val_memo) == val(sdp, ps, x)
            assert rews(sdp, ps, x, 0, rews_memo) == rews(sdp, ps, x)
            assert val_spec(sdp, ps, x, 0, spec_memo) == val_spec(sdp, ps, x)
    # val keeps every node, the root included; rews only the nodes below
    # the root; val_spec adds each root's measured value to rews's nodes
    assert {key[0] for key in val_memo} == set(range(horizon))
    assert rews_memo.keys() == {key for key in val_memo if key[0]}
    assert spec_memo.keys() == val_memo.keys()
    assert all(isinstance(v, Fraction) == (key[0] == 0) for key, v in spec_memo.items())


@pytest.mark.parametrize(
    "inst,measure",
    [("simpleprob", "expected"), ("nondet", "max"), ("identity", "point")],
)
def test_shift_compatible_measures(inst, measure):
    rep = check_measure_shift(get_instance(inst), get_measure(measure))
    assert rep.passed, rep.witness


def test_max_shift_check_skips_empty_sequence():
    rep = check_measure_shift(get_instance("nondet"), get_measure("max"))
    assert "skipped=1" in rep.detail


def test_default_zero_shift_witness():
    rep = check_measure_shift(get_instance("maybe"), get_measure("default-zero"))
    assert not rep.passed
    assert rep.witness["mv"] == "none"
    assert rep.witness["c"] == "1"


def test_val_equiv_green_cases():
    assert check_val_equiv(greedy_walk(horizon=2), Q).passed
    assert check_val_equiv(coin_walk(horizon=2), Q).passed


def test_val_equiv_refuses_incompatible_measure():
    rep = check_val_equiv(drop_chain(), Q)
    assert not rep.passed
    assert rep.witness == {"mv": "none", "c": "1", "lhs": "0", "rhs": "1"}
    assert "refusing" in rep.diagnostic


def test_val_and_val_spec_genuinely_differ_under_default_zero():
    # the refusal is not hypothetical: the two value functions disagree
    sdp = drop_chain(horizon=2)
    disagreements = [
        x for x in (Atom(0), Atom(1), Atom(2))
        if val(sdp, ((Atom(0),) * 3, (Atom(0),) * 3), x)
        != val_spec(sdp, ((Atom(0),) * 3, (Atom(0),) * 3), x)
    ]
    assert disagreements


def test_policy_enumeration_counts_and_order():
    sdp = greedy_walk(horizon=1)
    seqs = enumerate_policy_seqs(sdp, 1)
    listing = list(seqs)
    assert len(listing) == 8 == len(seqs)
    assert listing[0] == ((Atom(0), Atom(0), Atom(0)),)
    assert listing[1] == ((Atom(0), Atom(0), Atom(1)),)  # last slot fastest
    assert render_policy_seq(listing[1]) == "[<#0, #0, #1>]"


def test_policy_sampling_reproducible():
    sdp = greedy_walk(horizon=4)
    seqs = enumerate_policy_seqs(sdp, 4)
    assert len(seqs) == 2**12
    # sampling indexes the space: seqs[i] is the i-th sequence in order
    listing = list(seqs)
    assert all(seqs[i] == listing[i] for i in (0, 1, 7, 2**11, 2**12 - 1))

    def visited(seed):
        seen = []
        scan(LawReport("t", "-"), lambda: [Var("ps", "policies", seqs, len(seqs))],
             lambda ps: seen.append(ps) or (0, 0), Quantifier(budget=50, seed=seed))
        return seen

    one = visited(3)
    assert one == visited(3) and len(one) == 50
    assert one != visited(4)


def test_val_equiv_sampled_mode():
    sdp = greedy_walk(horizon=4)
    rep = check_val_equiv(sdp, Quantifier(budget=100, seed=0))
    assert rep.passed
    assert rep.quantifiers[0].mode == "sampled"
    assert rep.quantifiers[1].mode == "sampled"  # x is drawn as well
    assert rep.checked == 100  # budget joint draws of (ps, x)


def _root_memos(monkeypatch) -> list:
    """Record the memo of every root call of val and val_spec, in order."""
    import finmon.dp as dp

    memos = []

    def seen(real):
        def wrapped(sdp, ps, x, t=0, memo=None):
            if t == 0:
                memos.append(memo)
            return real(sdp, ps, x, t, memo)
        return wrapped

    monkeypatch.setattr(dp, "val", seen(dp.val))
    monkeypatch.setattr(dp, "val_spec", seen(dp.val_spec))
    return memos


@pytest.mark.parametrize("budget,memoized", [(64, True), (63, False)])
def test_only_an_exhaustive_val_equiv_keeps_memos(monkeypatch, budget, memoized):
    # 64 policy sequences: a budget of 63 samples them, and a sampled
    # scan seldom meets a long tail twice, so it keeps no memo
    memos = _root_memos(monkeypatch)
    rep = check_val_equiv(greedy_walk(horizon=2), Quantifier(budget=budget, seed=0))
    assert rep.passed
    assert rep.quantifiers[0].mode == ("exhaustive" if memoized else "sampled")
    assert len(memos) == 2 * rep.checked
    assert {type(m) for m in memos} == ({dict} if memoized else {type(None)})
    if memoized:
        # one dict for val, one for val_spec, each with a value at every
        # root: 3 states, 2 controls there, 2^3 later policies
        val_memo, spec_memo = {id(m): m for m in memos}.values()
        roots = {key for key in val_memo if key[0] == 0}
        assert roots == {key for key in spec_memo if key[0] == 0}
        assert len(roots) == 3 * 2 * 2 ** 3
        assert all(isinstance(spec_memo[key], Fraction) for key in roots)


def test_sequences_that_differ_only_at_other_states_share_a_root():
    # the root at #0 reads only ps[0][#0] and ps[1:], so the second
    # sequence is answered from the memo without a single measure
    cm = CountingMeasure(get_measure("max"))
    sdp = dataclasses.replace(greedy_walk(horizon=2), measure=cm)
    y0, y1 = enumerate_domain(Y2)
    first = ((y1, y0, y0), (y1, y1, y0))
    other = ((y1, y1, y1), (y1, y1, y0))
    for fn in (val, val_spec):
        memo = {}
        fn(sdp, first, Atom(0), 0, memo)
        cm.count, entries = 0, len(memo)
        got = fn(sdp, other, Atom(0), 0, memo)
        assert cm.count == 0 and len(memo) == entries
        assert got == fn(sdp, other, Atom(0))


@pytest.mark.parametrize("mk,horizon", [(greedy_walk, 3), (coin_walk, 6)])
def test_memo_keys_hold_only_ints(monkeypatch, mk, horizon):
    memos = _root_memos(monkeypatch)
    assert check_val_equiv(mk(horizon=horizon), Q).passed
    keys = [key for memo in {id(m): m for m in memos}.values() for key in memo]
    assert keys and all(type(i) is int for key in keys for i in key)


def test_memo_entries_are_the_distinct_nodes():
    # brute force: every (ps, x) walked down to its reachable nodes, each
    # counted once as (t, x, ps[0][x], ps[1:])
    sdp = greedy_walk(horizon=2)
    nodes = set()

    def walk(ps, x, t):
        if ps:
            nodes.add((t, x, ps[0][x.index], ps[1:]))
            for x1 in sdp.next(t, x, ps[0][x.index]).items:
                walk(ps[1:], x1, t + 1)

    val_memo, rews_memo, spec_memo = {}, {}, {}
    for ps in enumerate_policy_seqs(sdp, 2):
        for x in enumerate_domain(sdp.states):
            walk(ps, x, 0)
            val(sdp, ps, x, 0, val_memo)
            rews(sdp, ps, x, 0, rews_memo)
            val_spec(sdp, ps, x, 0, spec_memo)
    assert len(nodes) == 3 * 2 * 2 ** 3 + 3 * 2  # the roots, then t = 1
    assert len(val_memo) == len(spec_memo) == len(nodes)
    assert len(rews_memo) == len({node for node in nodes if node[0]})


def test_val_equiv_samples_more_policy_sequences_than_sys_maxsize():
    def shift_next(t, x, y):
        return Atom((x.index + y.index) % 3)

    sdp = Sdp("long-shift", 22, X3, Y2, get_instance("identity"),
              get_measure("point"), shift_next, idx_reward)
    assert enumerate_policy_seqs(sdp, 22).size == 2 ** 66
    rep = check_val_equiv(sdp, Quantifier(budget=50, seed=3))
    assert rep.passed, rep.diagnostic
    assert rep.checked == 50
    assert rep.quantifiers[0].size == 2 ** 66
    assert rep.quantifiers[0].mode == "sampled"


def test_admissible_controls_respected():
    def only_stay_at_two(t, x):
        if x.index == 2:
            return (Atom(0),)
        return (Atom(0), Atom(1))

    sdp = Sdp("guarded", 1, X3, Y2, get_instance("nondet"), get_measure("max"),
              greedy_walk().next, idx_reward, admissible=only_stay_at_two)
    assert len(enumerate_policy_seqs(sdp, 1)) == 4
    for ps in enumerate_policy_seqs(sdp, 1):
        assert ps[0][2] == Atom(0)


def test_empty_admissible_set_raises():
    sdp = Sdp("stuck", 1, X3, Y2, get_instance("nondet"), get_measure("max"),
              greedy_walk().next, idx_reward, admissible=lambda t, x: ())
    with pytest.raises(ValueError):
        enumerate_policy_seqs(sdp, 1)
