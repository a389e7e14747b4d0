"""Decision processes: value functions, measures, the shift precondition."""

from __future__ import annotations

import dataclasses
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from finmon.cli import load_config, main
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
    # one application per node built: the root, then levels 1 and 2 over
    # all three states, 1 + 3 + 3
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
            assert val(sdp, ps, x, val_memo) == val(sdp, ps, x)
            assert rews(sdp, ps, x, rews_memo) == rews(sdp, ps, x)
            assert val_spec(sdp, ps, x, spec_memo) == val_spec(sdp, ps, x)
    # the three memos keep the same nodes and suffixes under the same keys
    assert val_memo.keys() == rews_memo.keys() == spec_memo.keys()


@pytest.mark.parametrize(
    "inst,measure",
    [("simpleprob", "expected"), ("nondet", "max"), ("identity", "point")],
)
def test_shift_compatible_measures(inst, measure):
    rep = check_measure_shift(get_instance(inst), get_measure(measure))
    assert rep.passed, rep.witness


def test_max_shift_check_skips_empty_sequence():
    # the 13 sequences of length up to 2 over three rates, but for [],
    # where max is undefined, each shifted by the four constants
    rep = check_measure_shift(get_instance("nondet"), get_measure("max"))
    assert rep.passed and rep.detail == "measure=max"
    mv, c = rep.quantifiers
    assert (mv.var, mv.size, mv.count, c.size) == ("mv", 12, 12, 4)
    assert rep.checked == 48


def test_default_zero_shift_witness():
    rep = check_measure_shift(get_instance("maybe"), get_measure("default-zero"))
    assert not rep.passed
    assert rep.witness["mv"] == "none"
    assert rep.witness["c"] == "1"


def test_val_equiv_green_cases():
    assert check_val_equiv(greedy_walk(horizon=2), Q).passed
    assert check_val_equiv(coin_walk(horizon=2), Q).passed
    # horizon 0: the one empty sequence, worth 0 at every state, whether
    # the three states are scanned or sampled
    for q, mode in ((Q, "exhaustive"), (Quantifier(budget=2, seed=0), "sampled")):
        rep = check_val_equiv(greedy_walk(horizon=0), q)
        assert rep.passed and rep.quantifiers[1].mode == mode


def test_val_equiv_refuses_incompatible_measure():
    rep = check_val_equiv(drop_chain(), Q)
    assert not rep.passed
    assert rep.witness == {"mv": "none", "c": "1", "lhs": "0", "rhs": "1"}
    assert "refusing" in rep.diagnostic


def test_val_equiv_counts_the_gate_s_evaluations(tmp_path):
    # the timing section counts the measureShift gate's evaluations with
    # valSpec's own, as it adds the gate's time
    out = tmp_path / "report.json"
    config = Path(__file__).resolve().parent.parent / "configs" / "dp.json"
    assert main(["--config", str(config), "--format", "json", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["timing"]["checks"]
    assert {c["group"]: c["evaluated"] for c in checks} == {"sdp:greedy-walk": 240,
                                                            "sdp:coin-walk": 75}
    assert check_measure_shift(get_instance("simpleprob"), get_measure("expected")).evaluated == 72
    gate = check_measure_shift(get_instance("maybe"), get_measure("default-zero"))
    rep = check_val_equiv(drop_chain(), Q)
    assert not rep.passed and rep.evaluated == gate.evaluated > 0


def int_reward(t, x, y, x1):
    return x1.index


@pytest.mark.parametrize("mk,horizon", [(greedy_walk, 3), (coin_walk, 4), (drop_chain, 2)])
def test_int_rewards_change_no_verdict(mk, horizon):
    # max/nondet, expected/simpleprob and the refused default-zero/maybe
    sdp = mk(horizon=horizon)
    as_ints = dataclasses.replace(sdp, reward=int_reward)
    assert (check_val_equiv(as_ints, Q).to_deterministic_dict()
            == check_val_equiv(sdp, Q).to_deterministic_dict())


def test_int_rewards_sum_as_ints():
    sdp = dataclasses.replace(greedy_walk(horizon=2), reward=int_reward)
    ps = ((Atom(1),) * 3, (Atom(1),) * 3)
    assert type(val(sdp, ps, Atom(0))) is int
    assert val(sdp, ps, Atom(0)) == val_spec(sdp, ps, Atom(0)) == 3
    structure = rews(sdp, ps, Atom(0)).items
    assert structure == (0, 1, 2, 3) and {type(r) for r in structure} == {int}


def test_point_measure_takes_int_and_fraction_rewards():
    point = get_measure("point")
    assert point.apply(3) == 3 and type(point.apply(3)) is int
    assert point.apply(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(TypeError, match="point measure"):
        point.apply(Atom(0))


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


def _counting_next(sdp: Sdp) -> tuple[Sdp, list]:
    """sdp with a next that counts its calls in the returned one-item list."""
    calls = [0]

    def counted(t, x, y):
        calls[0] += 1
        return sdp.next(t, x, y)

    return dataclasses.replace(sdp, next=counted), calls


@pytest.mark.parametrize("budget,exhaustive", [(64, True), (63, False)])
def test_an_exhaustive_val_equiv_shares_memos_and_a_sampled_one_starts_fresh(
        monkeypatch, budget, exhaustive):
    # 64 policy sequences: a budget of 63 samples them
    import finmon.dp as dp

    memos, sizes = [], []  # each call's memo, and its size at the call

    def seen(real):
        def wrapped(sdp, ps, x, memo=None):
            memos.append(memo)
            sizes.append(len(memo))
            return real(sdp, ps, x, memo)
        return wrapped

    monkeypatch.setattr(dp, "val", seen(dp.val))
    monkeypatch.setattr(dp, "val_spec", seen(dp.val_spec))
    sdp, calls = _counting_next(greedy_walk(horizon=2))
    rep = check_val_equiv(sdp, Quantifier(budget=budget, seed=0))
    assert rep.passed
    assert rep.quantifiers[0].mode == ("exhaustive" if exhaustive else "sampled")
    if exhaustive:
        # one dict for val, one for val_spec, each called once per root:
        # 3 states, 2 controls there, 2^3 later policies
        assert len({id(m) for m in memos}) == 2
        assert len(memos) == 2 * 3 * 2 * 2 ** 3 and max(sizes) > 0
    else:
        # every evaluation starts from empty memos, so it builds its root
        # and the three nodes of level 1, for val and for val_spec's rews
        assert len(memos) == 2 * rep.checked and set(sizes) == {0}
        assert calls[0] == 2 * rep.checked * (3 + 1)


ROOT = Path(__file__).resolve().parent.parent


def _config_sdp(config: str, name: str):
    cfg = load_config(ROOT / config)
    (sdp,) = [sdp for sdp, _ in cfg.sdps if sdp.name == name]
    return sdp, Quantifier(budget=cfg.budget, seed=cfg.seed), cfg.carrier_cap


def test_sequences_that_differ_only_at_other_states_share_a_root():
    # configs/dp.json's greedy-walk: a root reads only its state, ps[0]
    # there and ps[1:], so of the 64 x 3 bindings only 3 x 2 x 2^3 roots
    # are built, and the 3 x 2 nodes at t = 1 below them, once for val
    # and once for val_spec's rews
    sdp, q, cap = _config_sdp("configs/dp.json", "greedy-walk")
    sdp, calls = _counting_next(sdp)
    rep = check_val_equiv(sdp, q, cap)
    assert rep.passed and rep.checked == 64 * 3
    assert calls[0] == 2 * (3 * 2 * 2 ** 3 + 3 * 2) == 108


@pytest.mark.parametrize("config,name,calls", [
    pytest.param("perfbench/workloads/dynamics.json", "greedy-walk", 7_020, id="dynamics"),
    # sampled: each of the 30 draws builds 7 levels of 3 states and a
    # root, for val and for rews
    pytest.param("configs/sampled.json", "walk2", 2 * 30 * (7 * 3 + 1), id="sampled"),
])
def test_next_call_counts(config, name, calls):
    sdp, q, cap = _config_sdp(config, name)
    sdp, counted = _counting_next(sdp)
    assert check_val_equiv(sdp, q, cap).passed
    assert counted[0] == calls


def test_memo_entries_are_the_distinct_nodes():
    # brute force: every (ps, x) walked down to its reachable nodes below
    # the root, each counted once as (t, x, ps[t][x], ps[t+1:])
    sdp = greedy_walk(horizon=3)
    nodes = set()

    def walk(ps, x, t):
        if t < len(ps):
            if t:
                nodes.add((t, x, ps[t][x.index], ps[t + 1:]))
            for x1 in sdp.next(t, x, ps[t][x.index]).items:
                walk(ps, x1, t + 1)

    memo = {}
    for ps in enumerate_policy_seqs(sdp, 3):
        for x in enumerate_domain(sdp.states):
            walk(ps, x, 0)
            val(sdp, ps, x, memo)
    assert len(nodes) == 3 * 2 * 2 ** 3 + 3 * 2  # t = 1, then t = 2
    # a node's key is its state, its control and an int suffix id; the
    # other entries intern one id per distinct suffix ps[t:], t >= 1
    keys = [key for key in memo if len(key) == 3]
    assert len(keys) == len(nodes)
    assert all(type(x) is Atom and type(y) is Atom and type(i) is int for x, y, i in keys)
    assert len(memo) - len(keys) == 2 ** 6 + 2 ** 3


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


def test_policy_space_is_sized_in_closed_form():
    # 80,000 steps over 2 states are 160,000 two-way slots; the space is
    # sized with one pow per distinct choice-list length
    sdp = Sdp("long-walk", 80_000, FiniteType("X", 2), Y2, get_instance("identity"),
              get_measure("point"), lambda t, x, y: Atom((x.index + y.index) % 2), idx_reward)
    seqs = enumerate_policy_seqs(sdp, 80_000)
    assert seqs.size == 2 ** 160_000
    assert seqs[0] == ((Atom(0),) * 2,) * 80_000


def test_without_admissible_every_slot_shares_one_choice_list():
    seqs = enumerate_policy_seqs(greedy_walk(horizon=4), 4)
    assert len(seqs.factors) == 4 * X3.size
    assert all(f is enumerate_domain(Y2) for f in seqs.factors)


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


def test_cap_bounds_the_policy_slots():
    # a policy sequence picks a control in each of horizon x 3 states
    def shift_next(t, x, y):
        return Atom((x.index + y.index) % 3)

    def shift(horizon):
        return Sdp("shift", horizon, X3, Y2, get_instance("identity"), get_measure("point"),
                   shift_next, idx_reward)

    assert check_val_equiv(shift(2), Q, cap=6).passed
    rep = check_val_equiv(shift(3), Q, cap=6)
    assert not rep.passed and rep.checked == 0 and rep.witness is None
    assert rep.diagnostic == "policy sequences too large: h=3 x X(3) has 9 slots, cap 6"
    # a horizon of 2^62 is refused before a choice list is built
    rep = check_val_equiv(shift(1 << 62), Q)
    assert rep.checked == 0 and rep.diagnostic.startswith("policy sequences too large: ")
