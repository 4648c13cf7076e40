import copy
import math
import random
from collections import Counter

import pytest

from tanglesim.engine import SimConfig
from tanglesim.ledger import TangleLedger
from tanglesim.selection import (
    BRANCH_BASELINE,
    BRANCH_P0,
    BRANCH_P1,
    BRANCH_P2,
    EmptyCandidates,
    PriorityPolicy,
    SelectionCandidates,
    build_candidates,
    select_ptsa,
    select_uniform,
)
from tanglesim.selfcheck import BRANCH_TABLE_COMMON, BRANCH_TABLE_P, branch_case_error

POLICY = PriorityPolicy(enabled=True, aging_threshold=30.0)
NO_AGING = PriorityPolicy(enabled=False)


def make_candidates(priority=(), common=(), tips=None, newest_non_tip=None):
    common = list(common)
    return SelectionCandidates(
        priority=list(priority),
        common=common,
        tips=common if tips is None else list(tips),
        newest_non_tip=newest_non_tip,
    )


def is_priority(flag, now, policy):
    """Whether a transaction issued at 0 is a priority candidate at `now`."""
    ledger = TangleLedger(8)
    tx = ledger.add_transaction([ledger.genesis], 0.0, priority_flag=flag)
    return tx in build_candidates(ledger, now, 0.0, policy).priority


class TestEffectivePriority:
    def test_flag_dominates(self):
        assert is_priority(True, 0.0, POLICY)
        assert is_priority(True, 1000.0, NO_AGING)

    def test_fresh_common_not_promoted(self):
        assert not is_priority(False, 0.0, POLICY)

    def test_aged_common_promoted(self):
        assert is_priority(False, 30.0, POLICY)  # age exactly the threshold
        assert is_priority(False, 31.0, POLICY)

    def test_aging_disabled_never_promotes(self):
        assert not is_priority(False, 1000.0, NO_AGING)

    def test_policy_requires_positive_threshold(self):
        with pytest.raises(ValueError) as excinfo:
            SimConfig(aging=PriorityPolicy(enabled=True, aging_threshold=0.0))
        assert excinfo.value.field_name == "aging.threshold_seconds"


class TestBuildCandidates:
    def test_genesis_only(self):
        ledger = TangleLedger(8)
        c = build_candidates(ledger, 0.0, 0.0, POLICY)
        assert c.priority == []
        assert c.common == [ledger.genesis]

    def test_raises_before_anything_visible(self):
        ledger = TangleLedger(8)
        with pytest.raises(EmptyCandidates):
            build_candidates(ledger, 0.5, 1.0, POLICY)

    def test_priority_stays_selectable_after_approval(self):
        # an unconfirmed priority transaction that is no longer a tip must
        # remain in the priority list
        ledger = TangleLedger(8)
        hp = ledger.add_transaction([ledger.genesis], 1.0, priority_flag=True)
        t1 = ledger.add_transaction([hp], 2.0)
        t2 = ledger.add_transaction([hp], 3.0)
        c = build_candidates(ledger, 10.0, 0.0, NO_AGING)
        assert c.priority == [hp]
        assert c.common == sorted([t1, t2])

    def test_confirmed_priority_excluded(self):
        ledger = TangleLedger(2)
        hp = ledger.add_transaction([ledger.genesis], 1.0, priority_flag=True)
        ledger.add_transaction([hp], 2.0)
        ledger.confirmation_sweep(2.0)  # hp now confirmed
        c = build_candidates(ledger, 10.0, 0.0, NO_AGING)
        assert hp not in c.priority

    def test_theta_one_confirmed_tip_is_common(self):
        # a tip weighs 1, so only at theta=1 can a sweep confirm a tip; every
        # id below is old enough for aging to promote it
        ledger = TangleLedger(1)
        hp = ledger.add_transaction([ledger.genesis], 1.0, priority_flag=True)
        c = build_candidates(ledger, 40.0, 0.0, POLICY)
        assert hp in c.priority and hp not in c.common  # ripe, not yet swept
        ledger.confirmation_sweep(1.0)
        fresh = ledger.add_transaction([ledger.genesis], 2.0)  # unswept
        c = build_candidates(ledger, 40.0, 0.0, POLICY)
        assert c.aged == 3
        assert hp in c.common and hp not in c.priority
        assert fresh in c.priority and fresh not in c.common
        ledger.confirmation_sweep(2.0)
        ledger.add_transaction([hp], 3.0)  # approving the confirmed tip drops it
        c = build_candidates(ledger, 40.0, 0.0, POLICY)
        assert hp not in c.tips and hp not in c.common

    def test_partition_disjoint_and_sorted(self):
        ledger = TangleLedger(8)
        for i in range(6):
            ledger.add_transaction([ledger.genesis], float(i + 1), priority_flag=i % 2 == 0)
        c = build_candidates(ledger, 10.0, 0.0, NO_AGING)
        assert not set(c.priority) & set(c.common)
        assert c.priority == sorted(c.priority)
        assert c.common == sorted(c.common)

    def test_aging_promotes_old_common(self):
        ledger = TangleLedger(8)
        old = ledger.add_transaction([ledger.genesis], 1.0)
        c = build_candidates(ledger, 40.0, 0.0, POLICY)
        assert old in c.priority  # age 39 >= 30
        # genesis is also old and unconfirmed, hence promoted too
        assert ledger.genesis in c.priority

    def test_visibility_delay_hides_recent(self):
        ledger = TangleLedger(8)
        recent = ledger.add_transaction([ledger.genesis], 5.0)
        c = build_candidates(ledger, 5.5, 1.0, NO_AGING)
        # the only visible transaction (genesis) is no longer a tip, so the
        # visible tip pool is empty and genesis is the fallback parent
        assert recent not in c.tips
        assert c.common == []
        assert c.newest_non_tip == ledger.genesis


class TestCount:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_counts_priority_list(self, n):
        c = make_candidates(priority=range(100, 100 + n), common=[1, 2])
        assert len(c.priority) == n


class TestSelectUniform:
    def test_two_tips_forced_pair(self):
        c = make_candidates(common=[1, 2])
        result = select_uniform(c, random.Random(0))
        assert sorted(result.parents) == [1, 2]
        assert result.branch == BRANCH_BASELINE

    def test_seeded_draw_is_pinned(self):
        c = make_candidates(common=[1, 2, 3, 4], newest_non_tip=0)
        assert select_uniform(c, random.Random(7)).parents == [3, 1]

    def test_same_seed_same_result(self):
        c = make_candidates(common=list(range(1, 20)))
        a = select_uniform(c, random.Random(99)).parents
        b = select_uniform(c, random.Random(99)).parents
        assert a == b

    def test_single_tip_pairs_with_newest_non_tip(self):
        c = make_candidates(common=[5], newest_non_tip=3)
        assert select_uniform(c, random.Random(0)).parents == [5, 3]

    def test_single_tip_no_fallback(self):
        c = make_candidates(common=[0])
        assert select_uniform(c, random.Random(0)).parents == [0]

    def test_empty_snapshot(self):
        c = make_candidates()
        with pytest.raises(EmptyCandidates):
            select_uniform(c, random.Random(0))

    def test_ignores_partition(self):
        # priority entries that happen to be tips are drawable by baseline
        c = make_candidates(priority=[9], common=[1], tips=[1, 9])
        result = select_uniform(c, random.Random(3))
        assert sorted(result.parents) == [1, 9]

    def test_purity(self):
        c = make_candidates(priority=[9], common=[1, 2, 3], tips=[1, 2, 3])
        before = copy.deepcopy(c)
        select_uniform(c, random.Random(5))
        assert c == before


class TestSelectPtsa:
    def test_p0_two_common(self):
        c = make_candidates(common=[1, 2])
        result = select_ptsa(c, random.Random(0))
        assert sorted(result.parents) == [1, 2]
        assert result.branch == BRANCH_P0

    def test_p1_priority_plus_common(self):
        c = make_candidates(priority=[7], common=[1, 2])
        result = select_ptsa(c, random.Random(0))
        assert result.branch == BRANCH_P1
        assert result.parents[0] == 7
        assert result.parents[1] in (1, 2)

    def test_p3_two_priority_one_common(self):
        c = make_candidates(priority=[7, 8, 9], common=[1])
        result = select_ptsa(c, random.Random(0))
        assert result.branch == BRANCH_P2
        assert len(result.parents) == 3
        assert sum(1 for x in result.parents if x in (7, 8, 9)) == 2
        assert result.parents[-1] == 1

    def test_p2_no_common_drops_slot(self):
        c = make_candidates(priority=[7, 8])
        result = select_ptsa(c, random.Random(0))
        assert sorted(result.parents) == [7, 8]
        assert result.branch == BRANCH_P2

    def test_p1_no_common_uses_fallback(self):
        c = make_candidates(priority=[7], newest_non_tip=3)
        assert select_ptsa(c, random.Random(0)).parents == [7, 3]

    def test_p1_no_common_no_fallback(self):
        c = make_candidates(priority=[7])
        assert select_ptsa(c, random.Random(0)).parents == [7]

    def test_empty_raises(self):
        c = make_candidates()
        with pytest.raises(EmptyCandidates):
            select_ptsa(c, random.Random(0))

    def test_determinism(self):
        c = make_candidates(priority=[10, 11, 12, 13], common=[1, 2, 3])
        a = select_ptsa(c, random.Random(5)).parents
        b = select_ptsa(c, random.Random(5)).parents
        assert a == b

    def test_purity(self):
        c = make_candidates(priority=[10, 11], common=[1, 2, 3])
        before = copy.deepcopy(c)
        select_ptsa(c, random.Random(5))
        assert c == before


class TestBranchTable:
    """Exactly one branch fires for every partition shape."""

    @pytest.mark.parametrize("p", BRANCH_TABLE_P)
    @pytest.mark.parametrize("n_common", BRANCH_TABLE_COMMON)
    def test_branch_and_arity(self, p, n_common):
        assert branch_case_error(p, n_common, random.Random(1)) is None


class TestUniformity:
    def test_p0_pairs_uniform_within_five_sigma(self):
        tips = [1, 2, 3, 4, 5]
        c = make_candidates(common=tips)
        rng = random.Random(2024)
        draws = 10_000
        counts = Counter(
            frozenset(select_ptsa(c, rng).parents) for _ in range(draws)
        )
        n_pairs = math.comb(len(tips), 2)
        expected = draws / n_pairs
        sigma = math.sqrt(draws * (1 / n_pairs) * (1 - 1 / n_pairs))
        assert len(counts) == n_pairs
        for pair, count in counts.items():
            assert abs(count - expected) < 5 * sigma, (pair, count)
