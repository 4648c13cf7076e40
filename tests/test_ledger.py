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


class Twins:
    """A ranked ledger and an unranked twin fed one history. The mutators go
    to both, `tips` to the unranked twin and other reads to the ranked one,
    so each pool is read from the ledger that keeps it."""

    def __init__(self, theta=8, visibility_delay=0.0, aging_threshold=None):
        self.ranked = TangleLedger(theta, visibility_delay, aging_threshold, ranked=True)
        self.unranked = TangleLedger(theta, visibility_delay, aging_threshold)

    def __getattr__(self, name):
        return getattr(self.ranked, name)

    def __len__(self):
        return len(self.ranked)

    def add_transaction(self, parents, issued_at, priority_flag=False):
        new = self.ranked.add_transaction(parents, issued_at, priority_flag)
        assert self.unranked.add_transaction(parents, issued_at, priority_flag) == new
        return new

    def reveal(self, now):
        self.ranked.reveal(now)
        self.unranked.reveal(now)

    def confirmation_sweep(self, now):
        newly = self.ranked.confirmation_sweep(now)
        assert self.unranked.confirmation_sweep(now) == newly
        return newly

    @property
    def tips(self):
        ranked, unranked = self.ranked, self.unranked
        # the unranked twin keeps no priority ids, so its tips are its common
        # tips, and aging leaves it alone; the ranked one keeps no tip list
        assert unranked.priority == [] and unranked.common is unranked.tips
        assert unranked.promoted_at == {} and ranked.tips == []
        assert (unranked.weight, unranked.confirmed_at) == (ranked.weight, ranked.confirmed_at)
        return unranked.tips


def build_chain(theta=8, visibility_delay=0.0, aging_threshold=None, make=TangleLedger):
    """genesis <- A <- B, issued at 0, 1 and 2, in a ledger or `Twins`"""
    ledger = make(theta, visibility_delay, aging_threshold)
    a = ledger.add_transaction([0], 1.0)
    b = ledger.add_transaction([a], 2.0)
    return ledger, a, b


def build_diamond():
    """A and B both approve genesis, C approves [A, B]."""
    ledger = TangleLedger(8)
    a = ledger.add_transaction([0], 1.0)
    b = ledger.add_transaction([0], 2.0)
    c = ledger.add_transaction([a, b], 3.0)
    return ledger, a, b, c


def tips(ledger):
    """Every tip of an unranked ledger, in id order: the tip candidates with
    all ids revealed."""
    ledger.reveal(math.inf)
    return ledger.tips


class TestGenesis:
    def test_fresh_ledger_has_only_genesis_tip(self):
        ledger = TangleLedger(8)
        assert tips(ledger) == [0]
        assert len(tips(ledger)) == 1
        assert len(ledger) == 1

    def test_genesis_weight_is_one(self):
        ledger = TangleLedger(8)
        assert ledger.weight == [1]

    def test_no_confirmation_below_threshold(self):
        ledger = TangleLedger(8)
        assert ledger.confirmation_sweep(0.0) == []
        assert ledger.confirmed_set == set()


class TestAddTransaction:
    def test_first_approval_moves_tip(self):
        ledger = TangleLedger(8)
        new = ledger.add_transaction([0], 1.0)
        assert tips(ledger) == [new]

    def test_chain_weights(self):
        ledger, a, b = build_chain()
        assert ledger.weight == [3, 2, 1]

    def test_diamond_counts_shared_ancestor_once(self):
        ledger, a, b, c = build_diamond()
        assert ledger.weight == [4, 2, 2, 1]

    def test_duplicate_parents_deduplicated(self):
        ledger = TangleLedger(8)
        new = ledger.add_transaction([0, 0], 1.0)
        assert ledger.parents == [(), (0,)]
        assert tips(ledger) == [new]
        assert ledger.weight == [2, 1]

    def test_duplicate_parents_raise_weight_once(self):
        # the walk enters each distinct parent once
        ledger, a, b = build_chain()
        c = ledger.add_transaction([b, a, b], 3.0)
        assert ledger.parents[c] == (a, b)
        assert ledger.weight == [4, 3, 2, 1]
        assert tips(ledger) == [c]

    def test_unknown_parent(self):
        ledger = TangleLedger(8)
        with pytest.raises(UnknownParent):
            ledger.add_transaction([99], 1.0)

    @pytest.mark.parametrize("order", [[1, 2], [2, 1], (2, 1)])
    def test_two_parents_stored_sorted(self, order):
        # two parents take a path of their own: one comparison, no set or sort
        ledger = TangleLedger(8)
        a = ledger.add_transaction([0], 1.0)
        b = ledger.add_transaction([0], 2.0)
        c = ledger.add_transaction(order, 3.0)
        assert ledger.parents[c] == (a, b) == (1, 2)
        assert ledger.weight == [4, 2, 2, 1]
        assert tips(ledger) == [c]

    @pytest.mark.parametrize("bad", [-1, 2])  # 2 is the id the insertion would take
    def test_unknown_one_of_two_parents(self, bad):
        ledger = TangleLedger(8)
        a = ledger.add_transaction([0], 1.0)
        for order in ([a, bad], [bad, a]):
            with pytest.raises(UnknownParent):
                ledger.add_transaction(order, 2.0)
        assert len(ledger) == 2
        assert ledger.weight == [2, 1]

    @pytest.mark.parametrize("count", [0, 9])
    def test_parent_arity(self, count):
        ledger = TangleLedger(8)
        with pytest.raises(ParentArity):
            ledger.add_transaction([0] * count, 1.0)

    def test_time_regression(self):
        ledger = TangleLedger(8)
        ledger.add_transaction([0], 5.0)
        with pytest.raises(TimeRegression):
            ledger.add_transaction([0], 4.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_issue_time(self, bad):
        # a stored NaN would let the next insertion go back in time and break
        # the time-ordered prefix that reveal bisects
        ledger = TangleLedger(8)
        ledger.add_transaction([0], 5.0)
        with pytest.raises(TimeRegression):
            ledger.add_transaction([0], bad)
        with pytest.raises(TimeRegression):
            ledger.add_transaction([0], 1.0)
        assert len(ledger) == 2
        ledger.reveal(2.0)  # genesis alone
        assert ledger.tips == [0]


class TestTips:
    def test_chain_head_only(self):
        ledger, a, b = build_chain()
        assert tips(ledger) == [b]

    def test_two_independent_children(self):
        ledger = TangleLedger(8)
        a = ledger.add_transaction([0], 1.0)
        b = ledger.add_transaction([0], 2.0)
        assert tips(ledger) == [a, b]
        assert len(tips(ledger)) == 2


def pools(c):
    """Copies of the revealed priority ids, tips and common tips of `Twins`,
    or of any object with those three lists."""
    return list(c.priority), list(c.tips), list(c.common)


def columns(ledger):
    """Copies of every column: the per-id lists, then the two id -> time dicts."""
    return (list(ledger.parents), list(ledger.issued), list(ledger.flags), list(ledger.weight),
            dict(ledger.confirmed_at), dict(ledger.promoted_at))


class TestReveal:
    def test_fresh_view_is_genesis_alone(self):
        ledger = Twins(8, 1.0, 3.0)
        assert pools(ledger) == ([], [0], [0])
        # an insertion touches nothing of the view, nor do negative visible
        # and aged cutoffs (-0.5 and -2.5)
        ledger.add_transaction([0], 1.0, priority_flag=True)
        ledger.reveal(0.5)
        assert pools(ledger) == ([], [0], [0])
        assert ledger.promoted_at == {}

    def test_flagged_id_confirmed_unrevealed_is_common_tip(self):
        ledger = Twins(1)  # a tip weighs 1, so a sweep confirms it
        hp = ledger.add_transaction([0], 1.0, priority_flag=True)
        ledger.confirmation_sweep(1.0)
        assert hp in ledger.confirmed_set
        ledger.reveal(1.0)
        assert pools(ledger) == ([], [hp], [hp])

    def test_revealed_id_is_tip_until_a_revealed_id_approves_it(self):
        ledger, a, b = build_chain(make=Twins)
        ledger.reveal(0.0)  # genesis, approved by a, which is not revealed yet
        assert pools(ledger) == ([], [0], [0])
        ledger.reveal(1.0)  # a, approved by b, which is not revealed yet
        assert pools(ledger) == ([], [a], [a])
        ledger.reveal(2.0)
        assert pools(ledger) == ([], [b], [b])

    def test_smaller_prefix_reveals_nothing(self):
        ledger, a, b = build_chain(make=Twins)
        ledger.reveal(2.0)
        before = pools(ledger)
        c = ledger.add_transaction([0], 3.0)
        ledger.reveal(0.0)
        ledger.reveal(2.0)
        assert pools(ledger) == before
        ledger.reveal(3.0)
        assert pools(ledger) == ([], [b, c], [b, c])

    def test_promote_never_reaches_unrevealed_id(self):
        # a threshold below the delay: the aged cutoff is the visible one
        ledger, a, b = build_chain(visibility_delay=5.0, aging_threshold=1.0, make=Twins)
        ledger.reveal(5.0)
        # promotion stops at the revealed prefix: genesis, approved by no revealed id
        assert ledger.promoted_at == {0: 5.0}
        assert pools(ledger) == ([0], [0], [])
        ledger.reveal(6.0)  # and resumes from its cursor as the prefix grows
        assert ledger.promoted_at == {0: 5.0, a: 6.0}
        assert pools(ledger) == ([0, a], [a], [])

    def test_promote_at_or_below_cursor_changes_nothing(self):
        ledger, a, b = build_chain(aging_threshold=4.0, make=Twins)
        ledger.reveal(5.0)  # reveals all three, and ages genesis and a
        before = pools(ledger), columns(ledger)
        ledger.reveal(5.0)
        ledger.reveal(4.0)
        assert (pools(ledger), columns(ledger)) == before
        ledger.reveal(9.0)  # reveals nothing, and still ages b
        assert ledger.promoted_at == {0: 5.0, a: 5.0, b: 9.0}
        assert pools(ledger) == ([0, a, b], [b], [])

    def test_aging_cursor_at_the_end_changes_nothing(self):
        # every id visible and aged: aging's cursor stands at the visible one,
        # past the last issue time, and must not read beyond it
        ledger, a, b = build_chain(visibility_delay=1.0, aging_threshold=2.0, make=Twins)
        ledger.reveal(math.inf)
        before = pools(ledger), columns(ledger)
        assert before[0] == ([0, a, b], [b], [])
        ledger.reveal(math.inf)
        assert (pools(ledger), columns(ledger)) == before

    def test_unranked_ledger_ignores_flags_and_aging(self):
        # uniform's ledger: its common tips are its tips, and neither a flag
        # nor aging, ptsa's rule, touches them
        ledger, a, b = build_chain(aging_threshold=1.0)
        c = ledger.add_transaction([a], 3.0, priority_flag=True)
        ledger.reveal(10.0)
        assert ledger.promoted_at == {}
        assert (ledger.priority, ledger.common, ledger.tips) == ([], [b, c], [b, c])
        assert ledger.common is ledger.tips

    def test_aging_off_at_infinite_now_promotes_nothing(self):
        # aging off is no infinite threshold: inf - inf is NaN, and a NaN
        # cutoff bisects to the end, which would promote every unflagged id
        ledger = TangleLedger(8, ranked=True)
        a = ledger.add_transaction([0], 1.0, priority_flag=True)
        b = ledger.add_transaction([a], 2.0)
        c = ledger.add_transaction([0, b], 3.0, priority_flag=True)
        ledger.reveal(math.inf)
        assert ledger.promoted_at == {}
        assert ledger.priority == [a, c]


class TestColumns:
    def test_columns_are_the_ledger_own_lists(self):
        ledger, a, b = build_chain(theta=3)
        ledger.add_transaction([b], 3.0, priority_flag=True)
        ledger.confirmation_sweep(3.0)  # genesis and a
        issued_at, flags, parents, weight, confirmed_at = (
            ledger.issued, ledger.flags, ledger.parents, ledger.weight, ledger.confirmed_at)
        assert confirmed_at == {0: 3.0, a: 3.0}
        ledger.add_transaction([a], 4.0)
        assert len(issued_at) == len(flags) == len(parents) == len(weight) == len(ledger) == 5

    def test_public_methods_are_the_three_mutators(self):
        # readers read the columns; no method snapshots them
        public = {name for name, f in vars(TangleLedger).items()
                  if callable(f) and not name.startswith("_")}
        assert public == {"add_transaction", "reveal", "confirmation_sweep"}

    def test_public_names_are_columns_pools_and_harness_read(self):
        # genesis is id 0 and has no name; `confirmed_set` is kept for tsbench/traced_cli.py
        for ranked in (False, True):
            public = {name for name in vars(TangleLedger(2, ranked=ranked))
                      if not name.startswith("_")}
            assert public == {"parents", "issued", "flags", "weight", "confirmed_at",
                              "promoted_at", "priority", "common", "tips", "confirmed_set"}


class TestCumulativeWeight:
    def test_tip_weight_is_one(self):
        ledger, a, b, c = build_diamond()
        assert ledger.weight[c] == 1


class TestConfirmationSweep:
    def test_confirmed_stamp_is_a_small_int_above_every_id(self):
        # one CPython digit, so the stamp comparisons take the int fast path;
        # and far above the ids of any run a config admits
        assert _CONFIRMED < 2**30
        assert _CONFIRMED > 100 * MAX_EXPECTED_TX

    def test_theta_one_confirms_everything(self):
        ledger, a, b = build_chain(theta=1)
        newly = ledger.confirmation_sweep(2.0)
        assert newly == [0, a, b]
        assert ledger.confirmed_at == {0: 2.0, a: 2.0, b: 2.0}

    def test_theta_one_confirms_each_arrival(self):
        # genesis weighs theta from construction, and each new id from insertion
        ledger = TangleLedger(1)
        assert ledger.confirmation_sweep(0.0) == [0]
        new = ledger.add_transaction([0], 1.0)
        assert ledger.confirmation_sweep(1.0) == [new]
        assert ledger.confirmed_at == {0: 0.0, new: 1.0}

    def test_theta_one_new_id_ripe_at_insertion(self):
        # the new id is ripe though its walk reaches no unconfirmed id
        ledger = TangleLedger(1)
        a = ledger.add_transaction([0], 1.0)
        assert ledger.confirmation_sweep(1.0) == [0, a]
        b = ledger.add_transaction([0, a], 2.0)
        assert ledger.weight == [2, 1, 1]  # confirmed parents stop growing
        assert ledger.confirmation_sweep(2.0) == [b]
        assert ledger.confirmed_at == {0: 1.0, a: 1.0, b: 2.0}

    def test_nothing_ripe_changes_nothing(self):
        ledger, a, b = build_chain(theta=3, make=Twins)
        ledger.reveal(2.0)
        ledger.add_transaction([b], 3.0, priority_flag=True)
        ledger.reveal(3.0)
        ledger.confirmation_sweep(3.0)  # genesis and a
        before = columns(ledger), pools(ledger), set(ledger.confirmed_set)
        assert ledger.confirmation_sweep(5.0) == []
        assert (columns(ledger), pools(ledger), set(ledger.confirmed_set)) == before
        assert before[1] == ([3], [3], [])

    def test_chain_theta_three(self):
        ledger, a, b = build_chain(theta=3)
        assert ledger.confirmation_sweep(2.0) == [0]

    def test_idempotent(self):
        ledger, a, b = build_chain(theta=3)
        ledger.confirmation_sweep(2.0)
        assert ledger.confirmation_sweep(2.0) == []


def bits(ids):
    return sum(1 << i for i in ids)


class TestCones:
    """`oracle.future_cones` on the fixtures; `TestInterleavedSweeps` checks it
    against plain BFS on random DAGs."""

    def test_tip_has_empty_future(self):
        ledger, a, b = build_chain()
        assert future_cones(ledger.parents)[b] == 0

    def test_genesis_has_empty_past(self):
        # genesis approves nothing, so it lies in no transaction's future cone
        assert future_cones([()]) == [0]
        ledger, a, b, c = build_diamond()
        parents = ledger.parents
        assert parents[0] == ()
        assert reachable(0, parents) == set()
        assert all(not cone & bits({0}) for cone in future_cones(parents))

    def test_diamond_future_cones(self):
        ledger, a, b, c = build_diamond()
        assert future_cones(ledger.parents) == [bits({a, b, c}), bits({c}), bits({c}), 0]

    def test_chain_future_cone(self):
        ledger, a, b = build_chain()
        assert future_cones(ledger.parents)[0] == bits({a, b})

    def test_unknown(self):
        # the cone oracle and the ledger's readers have one entry per known id
        ledger, a, b, c = build_diamond()
        assert len(future_cones(ledger.parents)) == len(ledger) == c + 1
        assert len(ledger.issued) == len(ledger.weight) == len(ledger)


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
            assert dict(enumerate(ledger.weight)) == expected

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
        total_cw = sum(ledger.weight)
        total_cones = sum(1 + len(reachable(i, parents)) for i in range(len(parents)))
        assert total_cw == total_cones

    def test_tips_have_weight_one(self):
        rng = random.Random(11)
        parents = random_dag(rng, 150)
        ledger = replay(parents)
        weights = ledger.weight
        for tip in tips(ledger):
            assert weights[tip] == 1

    def test_weights_monotone_under_insertion(self):
        rng = random.Random(21)
        parents = random_dag(rng, 80)
        ledger = TangleLedger(8)
        previous = [1]
        for ps in parents[1:]:
            ledger.add_transaction(list(ps), float(len(ledger)))
            current = list(ledger.weight)
            for i, w in enumerate(previous):
                assert current[i] >= w
            previous = current

    def test_insertion_order_is_topological(self):
        rng = random.Random(31)
        parents = random_dag(rng, 200)
        ledger = replay(parents)
        for i, ps in enumerate(ledger.parents):
            for p in ps:
                assert p < i

    def test_genesis_in_every_past_cone(self):
        rng = random.Random(41)
        parents = random_dag(rng, 100)
        ledger = replay(parents)
        stored = ledger.parents
        for i in range(1, len(parents)):
            assert 0 in reachable(i, stored)

    def test_confirmed_set_equals_threshold_cut(self):
        rng = random.Random(51)
        parents = random_dag(rng, 150)
        theta = 10
        ledger = replay(parents, theta)
        ledger.confirmation_sweep(200.0)
        weights = [1 + f.bit_count() for f in future_cones(parents)]
        assert ledger.confirmed_set == {i for i, w in enumerate(weights) if w >= theta}
        stored = ledger.weight
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
                    assert sorted(newly) == sorted(cut - before)
                    for i in newly:
                        assert ledger.confirmed_at[i] == float(new)
                        frozen[i] = ledger.weight[i]
                        assert frozen[i] >= theta
                confirmed = ledger.confirmed_set
                assert confirmed == cut
                cones = future_cones(parents[: new + 1])
                weights = ledger.weight
                for i in range(new + 1):
                    assert cones[i] == bits(reachable(i, approvers))
                    if i in confirmed:
                        assert weights[i] == frozen[i] <= expected[i]
                    else:
                        assert weights[i] == expected[i]
                assert all(set(parents[i]) <= confirmed for i in confirmed)
