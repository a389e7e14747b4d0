"""Decision processes: value functions, measures, the shift precondition."""

from __future__ import annotations

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
from finmon.values import Atom, FiniteType, Quantifier, Rat, parse_value, render_value

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
    assert render_policy_seq(listing[1], 3) == "[<#0, #0, #1>]"


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
