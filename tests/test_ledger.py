import math
import random
from collections import deque

import pytest

from tanglesim.engine import MAX_EXPECTED_TX
from tanglesim.ledger import (
    _CONFIRMED,
    ParentArity,
    TimeRegression,
    UnknownParent,
    TangleLedger,
)
from tanglesim.oracle import (
    brute_force_cumulative_weights,
    brute_force_tips,
    future_cones,
    random_dag,
)


def build_chain(theta=8, visibility_delay=0.0, aging_threshold=None):
    """genesis <- A <- B, issued at 0, 1 and 2"""
    ledger = TangleLedger(theta, visibility_delay, aging_threshold)
    a = ledger.add_transaction([ledger.genesis], 1.0)
    b = ledger.add_transaction([a], 2.0)
    return ledger, a, b


def build_diamond():
    """A and B both approve genesis, C approves [A, B]."""
    ledger = TangleLedger(8)
    a = ledger.add_transaction([ledger.genesis], 1.0)
    b = ledger.add_transaction([ledger.genesis], 2.0)
    c = ledger.add_transaction([a, b], 3.0)
    return ledger, a, b, c


def tips(ledger):
    """Every tip, in id order: the tip candidates with all ids revealed."""
    ledger.reveal(math.inf)
    return ledger.pools.tips


def parents_of(ledger):
    return [r.parents for r in ledger.records()]


class TestGenesis:
    def test_fresh_ledger_has_only_genesis_tip(self):
        ledger = TangleLedger(8)
        assert tips(ledger) == [ledger.genesis]
        assert len(tips(ledger)) == 1
        assert len(ledger) == 1

    def test_genesis_weight_is_one(self):
        ledger = TangleLedger(8)
        assert ledger.weights() == [1]

    def test_no_confirmation_below_threshold(self):
        ledger = TangleLedger(8)
        assert ledger.confirmation_sweep(0.0) == set()
        assert ledger.confirmed_set == set()


class TestAddTransaction:
    def test_first_approval_moves_tip(self):
        ledger = TangleLedger(8)
        new = ledger.add_transaction([ledger.genesis], 1.0)
        assert tips(ledger) == [new]

    def test_chain_weights(self):
        ledger, a, b = build_chain()
        assert ledger.weights() == [3, 2, 1]

    def test_diamond_counts_shared_ancestor_once(self):
        ledger, a, b, c = build_diamond()
        assert ledger.weights() == [4, 2, 2, 1]

    def test_duplicate_parents_deduplicated(self):
        ledger = TangleLedger(8)
        new = ledger.add_transaction([ledger.genesis, ledger.genesis], 1.0)
        assert parents_of(ledger) == [(), (ledger.genesis,)]
        assert tips(ledger) == [new]
        assert ledger.weights() == [2, 1]

    def test_duplicate_parents_raise_weight_once(self):
        # the walk enters each distinct parent once
        ledger, a, b = build_chain()
        c = ledger.add_transaction([b, a, b], 3.0)
        assert parents_of(ledger)[c] == (a, b)
        assert ledger.weights() == [4, 3, 2, 1]
        assert tips(ledger) == [c]

    def test_unknown_parent(self):
        ledger = TangleLedger(8)
        with pytest.raises(UnknownParent):
            ledger.add_transaction([99], 1.0)

    @pytest.mark.parametrize("order", [[1, 2], [2, 1], (2, 1)])
    def test_two_parents_stored_sorted(self, order):
        # two parents take a path of their own: one comparison, no set or sort
        ledger = TangleLedger(8)
        a = ledger.add_transaction([ledger.genesis], 1.0)
        b = ledger.add_transaction([ledger.genesis], 2.0)
        c = ledger.add_transaction(order, 3.0)
        assert parents_of(ledger)[c] == (a, b) == (1, 2)
        assert ledger.weights() == [4, 2, 2, 1]
        assert tips(ledger) == [c]

    @pytest.mark.parametrize("bad", [-1, 2])  # 2 is the id the insertion would take
    def test_unknown_one_of_two_parents(self, bad):
        ledger = TangleLedger(8)
        a = ledger.add_transaction([ledger.genesis], 1.0)
        for order in ([a, bad], [bad, a]):
            with pytest.raises(UnknownParent):
                ledger.add_transaction(order, 2.0)
        assert len(ledger) == 2
        assert ledger.weights() == [2, 1]

    @pytest.mark.parametrize("count", [0, 9])
    def test_parent_arity(self, count):
        ledger = TangleLedger(8)
        with pytest.raises(ParentArity):
            ledger.add_transaction([ledger.genesis] * count, 1.0)

    def test_time_regression(self):
        ledger = TangleLedger(8)
        ledger.add_transaction([ledger.genesis], 5.0)
        with pytest.raises(TimeRegression):
            ledger.add_transaction([ledger.genesis], 4.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_issue_time(self, bad):
        # a stored NaN would let the next insertion go back in time and break
        # the time-ordered prefix that reveal bisects
        ledger = TangleLedger(8)
        ledger.add_transaction([ledger.genesis], 5.0)
        with pytest.raises(TimeRegression):
            ledger.add_transaction([ledger.genesis], bad)
        with pytest.raises(TimeRegression):
            ledger.add_transaction([ledger.genesis], 1.0)
        assert len(ledger) == 2
        ledger.reveal(2.0)  # genesis alone
        assert ledger.pools.tips == [ledger.genesis]


class TestTips:
    def test_chain_head_only(self):
        ledger, a, b = build_chain()
        assert tips(ledger) == [b]

    def test_two_independent_children(self):
        ledger = TangleLedger(8)
        a = ledger.add_transaction([ledger.genesis], 1.0)
        b = ledger.add_transaction([ledger.genesis], 2.0)
        assert tips(ledger) == [a, b]
        assert len(tips(ledger)) == 2


def pools(ledger):
    """Copies of the revealed priority ids, tips and common tips."""
    return list(ledger.pools.priority), list(ledger.pools.tips), list(ledger.pools.common)


class TestReveal:
    def test_fresh_view_is_genesis_alone(self):
        ledger = TangleLedger(8, 1.0, 3.0)
        assert pools(ledger) == ([], [ledger.genesis], [ledger.genesis])
        # an insertion touches nothing of the view, nor do negative visible
        # and aged cutoffs (-0.5 and -2.5)
        ledger.add_transaction([ledger.genesis], 1.0, priority_flag=True)
        ledger.reveal(0.5)
        assert pools(ledger) == ([], [ledger.genesis], [ledger.genesis])
        assert [r.promoted_at for r in ledger.records()] == [None, None]

    def test_flagged_id_confirmed_unrevealed_is_common_tip(self):
        ledger = TangleLedger(1)  # a tip weighs 1, so a sweep confirms it
        hp = ledger.add_transaction([ledger.genesis], 1.0, priority_flag=True)
        ledger.confirmation_sweep(1.0)
        assert hp in ledger.confirmed_set
        ledger.reveal(1.0)
        assert pools(ledger) == ([], [hp], [hp])

    def test_revealed_id_is_tip_until_a_revealed_id_approves_it(self):
        ledger, a, b = build_chain()
        ledger.reveal(0.0)  # genesis, approved by a, which is not revealed yet
        assert pools(ledger) == ([], [ledger.genesis], [ledger.genesis])
        ledger.reveal(1.0)  # a, approved by b, which is not revealed yet
        assert pools(ledger) == ([], [a], [a])
        ledger.reveal(2.0)
        assert pools(ledger) == ([], [b], [b])

    def test_smaller_prefix_reveals_nothing(self):
        ledger, a, b = build_chain()
        ledger.reveal(2.0)
        before = pools(ledger)
        c = ledger.add_transaction([ledger.genesis], 3.0)
        ledger.reveal(0.0)
        ledger.reveal(2.0)
        assert pools(ledger) == before
        ledger.reveal(3.0)
        assert pools(ledger) == ([], [b, c], [b, c])

    def test_promote_never_reaches_unrevealed_id(self):
        # a threshold below the delay: the aged cutoff is the visible one
        ledger, a, b = build_chain(visibility_delay=5.0, aging_threshold=1.0)
        ledger.reveal(5.0)
        # promotion stops at the revealed prefix: genesis, approved by no revealed id
        assert [r.promoted_at for r in ledger.records()] == [5.0, None, None]
        assert pools(ledger) == ([ledger.genesis], [ledger.genesis], [])
        ledger.reveal(6.0)  # and resumes from its cursor as the prefix grows
        assert [r.promoted_at for r in ledger.records()] == [5.0, 6.0, None]
        assert pools(ledger) == ([ledger.genesis, a], [a], [])

    def test_promote_at_or_below_cursor_changes_nothing(self):
        ledger, a, b = build_chain(aging_threshold=4.0)
        ledger.reveal(5.0)  # reveals all three, and ages genesis and a
        before = pools(ledger), ledger.records()
        ledger.reveal(5.0)
        ledger.reveal(4.0)
        assert (pools(ledger), ledger.records()) == before
        ledger.reveal(9.0)  # reveals nothing, and still ages b
        assert [r.promoted_at for r in ledger.records()] == [5.0, 5.0, 9.0]
        assert pools(ledger) == ([ledger.genesis, a, b], [b], [])

    def test_aging_cursor_at_the_end_changes_nothing(self):
        # every id visible and aged: aging's cursor stands at the visible one,
        # past the last issue time, and must not read beyond it
        ledger, a, b = build_chain(visibility_delay=1.0, aging_threshold=2.0)
        ledger.reveal(math.inf)
        before = pools(ledger), ledger.records()
        assert before[0] == ([ledger.genesis, a, b], [b], [])
        ledger.reveal(math.inf)
        assert (pools(ledger), ledger.records()) == before

    def test_aging_off_at_infinite_now_promotes_nothing(self):
        # aging off is no infinite threshold: inf - inf is NaN, and a NaN
        # cutoff bisects to the end, which would promote every unflagged id
        ledger = TangleLedger(8)
        a = ledger.add_transaction([ledger.genesis], 1.0, priority_flag=True)
        b = ledger.add_transaction([a], 2.0)
        c = ledger.add_transaction([ledger.genesis, b], 3.0, priority_flag=True)
        ledger.reveal(math.inf)
        assert [r.promoted_at for r in ledger.records()] == [None] * 4
        assert ledger.pools.priority == [a, c]


class TestColumns:
    def test_columns_are_the_ledger_own_lists(self):
        ledger, a, b = build_chain(theta=3)
        ledger.add_transaction([b], 3.0, priority_flag=True)
        ledger.confirmation_sweep(3.0)  # genesis and a
        issued_at, flags, parents, confirmed_at = (
            ledger.issued, ledger.flags, ledger.parents, ledger.confirmed_at)
        assert [
            (r.issued_at, r.tx_class == "priority", r.parents, r.confirmed_at)
            for r in ledger.records()
        ] == [(issued_at[i], flags[i], parents[i], confirmed_at.get(i)) for i in range(4)]
        assert confirmed_at == {ledger.genesis: 3.0, a: 3.0}
        ledger.add_transaction([a], 4.0)
        assert len(issued_at) == len(flags) == len(parents) == len(ledger) == 5


class TestCumulativeWeight:
    def test_tip_weight_is_one(self):
        ledger, a, b, c = build_diamond()
        assert ledger.weights()[c] == 1

    def test_weights_is_a_copy(self):
        ledger, a, b = build_chain()
        ledger.weights()[0] = 99
        assert ledger.weights() == [3, 2, 1]


class TestConfirmationSweep:
    def test_confirmed_stamp_is_a_small_int_above_every_id(self):
        # one CPython digit, so the stamp comparisons take the int fast path;
        # and far above the ids of any run a config admits
        assert _CONFIRMED < 2**30
        assert _CONFIRMED > 100 * MAX_EXPECTED_TX

    def test_theta_one_confirms_everything(self):
        ledger, a, b = build_chain(theta=1)
        newly = ledger.confirmation_sweep(2.0)
        assert newly == {ledger.genesis, a, b}
        assert [r.confirmed_at for r in ledger.records()] == [2.0, 2.0, 2.0]

    def test_theta_one_confirms_each_arrival(self):
        # genesis weighs theta from construction, and each new id from insertion
        ledger = TangleLedger(1)
        assert ledger.confirmation_sweep(0.0) == {ledger.genesis}
        new = ledger.add_transaction([ledger.genesis], 1.0)
        assert ledger.confirmation_sweep(1.0) == {new}
        assert [r.confirmed_at for r in ledger.records()] == [0.0, 1.0]

    def test_theta_one_new_id_ripe_at_insertion(self):
        # the new id is ripe though its walk reaches no unconfirmed id
        ledger = TangleLedger(1)
        a = ledger.add_transaction([ledger.genesis], 1.0)
        assert ledger.confirmation_sweep(1.0) == {ledger.genesis, a}
        b = ledger.add_transaction([ledger.genesis, a], 2.0)
        assert ledger.weights() == [2, 1, 1]  # confirmed parents stop growing
        assert ledger.confirmation_sweep(2.0) == {b}
        assert [r.confirmed_at for r in ledger.records()] == [1.0, 1.0, 2.0]

    def test_nothing_ripe_changes_nothing(self):
        ledger, a, b = build_chain(theta=3)
        ledger.reveal(2.0)
        ledger.add_transaction([b], 3.0, priority_flag=True)
        ledger.reveal(3.0)
        ledger.confirmation_sweep(3.0)  # genesis and a
        before = ledger.records(), ledger.weights(), pools(ledger), set(ledger.confirmed_set)
        newly = ledger.confirmation_sweep(5.0)
        assert newly == set() and isinstance(newly, set)
        after = ledger.records(), ledger.weights(), pools(ledger), set(ledger.confirmed_set)
        assert after == before
        assert before[2] == ([3], [3], [])

    def test_chain_theta_three(self):
        ledger, a, b = build_chain(theta=3)
        assert ledger.confirmation_sweep(2.0) == {ledger.genesis}

    def test_idempotent(self):
        ledger, a, b = build_chain(theta=3)
        ledger.confirmation_sweep(2.0)
        assert ledger.confirmation_sweep(2.0) == set()


def bits(ids):
    return sum(1 << i for i in ids)


class TestCones:
    """`oracle.future_cones` on the fixtures; `TestInterleavedSweeps` checks it
    against plain BFS on random DAGs."""

    def test_tip_has_empty_future(self):
        ledger, a, b = build_chain()
        assert future_cones(parents_of(ledger))[b] == 0

    def test_genesis_has_empty_past(self):
        # genesis approves nothing, so it lies in no transaction's future cone
        assert future_cones([()]) == [0]
        ledger, a, b, c = build_diamond()
        parents = parents_of(ledger)
        assert parents[ledger.genesis] == ()
        assert reachable(ledger.genesis, parents) == set()
        assert all(not cone & bits({ledger.genesis}) for cone in future_cones(parents))

    def test_diamond_future_cones(self):
        ledger, a, b, c = build_diamond()
        assert future_cones(parents_of(ledger)) == [bits({a, b, c}), bits({c}), bits({c}), 0]

    def test_chain_future_cone(self):
        ledger, a, b = build_chain()
        assert future_cones(parents_of(ledger))[ledger.genesis] == bits({a, b})

    def test_unknown(self):
        # the cone oracle and the ledger's readers have one entry per known id
        ledger, a, b, c = build_diamond()
        assert len(future_cones(parents_of(ledger))) == len(ledger) == c + 1
        assert len(ledger.records()) == len(ledger.weights()) == len(ledger)


def replay(parents, theta=8):
    ledger = TangleLedger(theta)
    for ps in parents[1:]:
        ledger.add_transaction(list(ps), float(len(ledger)))
    return ledger


class TestRandomizedInvariants:
    """Seeded random DAGs against the brute-force oracle."""

    def test_incremental_weight_matches_brute_force(self):
        rng = random.Random(1234)
        for _ in range(100):
            parents = random_dag(rng, rng.randint(2, 200))
            ledger = replay(parents)
            expected = brute_force_cumulative_weights(parents)
            assert dict(enumerate(ledger.weights())) == expected

    def test_tip_set_matches_recomputation(self):
        rng = random.Random(99)
        for _ in range(25):
            parents = random_dag(rng, rng.randint(2, 120))
            ledger = replay(parents)
            assert tips(ledger) == sorted(brute_force_tips(parents))

    def test_weight_conservation(self):
        # each transaction contributes 1 to itself and 1 to each ancestor
        rng = random.Random(7)
        parents = random_dag(rng, 150)
        ledger = replay(parents)
        total_cw = sum(ledger.weights())
        total_cones = sum(1 + len(reachable(i, parents)) for i in range(len(parents)))
        assert total_cw == total_cones

    def test_tips_have_weight_one(self):
        rng = random.Random(11)
        parents = random_dag(rng, 150)
        ledger = replay(parents)
        weights = ledger.weights()
        for tip in tips(ledger):
            assert weights[tip] == 1

    def test_weights_monotone_under_insertion(self):
        rng = random.Random(21)
        parents = random_dag(rng, 80)
        ledger = TangleLedger(8)
        previous = [1]
        for ps in parents[1:]:
            ledger.add_transaction(list(ps), float(len(ledger)))
            current = ledger.weights()
            for i, w in enumerate(previous):
                assert current[i] >= w
            previous = current

    def test_insertion_order_is_topological(self):
        rng = random.Random(31)
        parents = random_dag(rng, 200)
        ledger = replay(parents)
        for i, ps in enumerate(parents_of(ledger)):
            for p in ps:
                assert p < i

    def test_genesis_in_every_past_cone(self):
        rng = random.Random(41)
        parents = random_dag(rng, 100)
        ledger = replay(parents)
        stored = parents_of(ledger)
        for i in range(1, len(parents)):
            assert ledger.genesis in reachable(i, stored)

    def test_confirmed_set_equals_threshold_cut(self):
        rng = random.Random(51)
        parents = random_dag(rng, 150)
        theta = 10
        ledger = replay(parents, theta)
        ledger.confirmation_sweep(200.0)
        weights = [1 + f.bit_count() for f in future_cones(parents)]
        assert ledger.confirmed_set == {i for i, w in enumerate(weights) if w >= theta}
        stored = ledger.weights()
        for i, w in enumerate(weights):
            assert i in ledger.confirmed_set or stored[i] == w


def reachable(start, edges):
    """Nodes reachable from `start` along `edges`, excluding `start`: plain BFS."""
    seen, queue = set(), deque([start])
    while queue:
        for nxt in edges[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


class TestInterleavedSweeps:
    """One threshold per DAG and a sweep after about half the insertions, so
    ids ripen over several insertions before a sweep and the insertion walk
    runs against a partly confirmed DAG."""

    def test_oracle_after_every_step(self):
        rng = random.Random(4242)
        for _ in range(40):
            parents = random_dag(rng, rng.randint(2, 60))
            approvers = [[] for _ in parents]
            theta = rng.randint(1, 12)
            ledger = TangleLedger(theta)
            cut: set[int] = set()  # the theta-cut at the last sweep
            frozen: dict[int, int] = {}  # confirmed id -> weight at confirmation
            for new, ps in enumerate(parents[1:], start=1):
                for p in ps:
                    approvers[p].append(new)
                ledger.add_transaction(list(ps), float(new))
                expected = brute_force_cumulative_weights(parents[: new + 1])
                if rng.random() < 0.5:
                    newly = ledger.confirmation_sweep(float(new))
                    before, cut = cut, {i for i, w in expected.items() if w >= theta}
                    assert newly == cut - before
                    records, weights = ledger.records(), ledger.weights()
                    for i in newly:
                        assert records[i].confirmed_at == float(new)
                        frozen[i] = weights[i]
                        assert frozen[i] >= theta
                confirmed = ledger.confirmed_set
                assert confirmed == cut
                cones = future_cones(parents[: new + 1])
                weights = ledger.weights()
                for i in range(new + 1):
                    assert cones[i] == bits(reachable(i, approvers))
                    if i in confirmed:
                        assert weights[i] == frozen[i] <= expected[i]
                    else:
                        assert weights[i] == expected[i]
                assert all(set(parents[i]) <= confirmed for i in confirmed)
