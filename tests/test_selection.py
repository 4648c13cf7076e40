import copy
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from tanglesim.engine import SimConfig
from tanglesim.ledger import TangleLedger
from tanglesim.oracle import BRANCH_TABLE, branch_case_error
from tanglesim.selection import (
    BRANCH_BASELINE,
    BRANCH_P0,
    BRANCH_P1,
    BRANCH_P2,
    _index,
    _two,
    build_candidates,
    select_ptsa,
    select_uniform,
)
from test_ledger import Twins, pools

# a ledger's (visibility delay, aging threshold), as the engine passes them
AGING = (0.0, 30.0)
NO_AGING = (0.0, None)


def promotion_times(ledger):
    """Every id's promotion time, in id order."""
    return [ledger.promoted_at.get(i) for i in range(len(ledger))]


def make_candidates(priority=(), common=(), tips=None):
    common = list(common)
    return SimpleNamespace(
        priority=list(priority),
        common=common,
        tips=common if tips is None else list(tips),
    )


def is_priority(flag, now, aging):
    """Whether a transaction issued at 0 is a priority candidate at `now`."""
    ledger = TangleLedger(8, *aging, ranked=True)
    tx = ledger.add_transaction([ledger.genesis], 0.0, priority_flag=flag)
    return tx in build_candidates(ledger, now).priority


class TestEffectivePriority:
    def test_flag_dominates(self):
        assert is_priority(True, 0.0, AGING)
        assert is_priority(True, 1000.0, NO_AGING)

    def test_fresh_common_not_promoted(self):
        assert not is_priority(False, 0.0, AGING)

    def test_aged_common_promoted(self):
        assert is_priority(False, 30.0, AGING)  # age exactly the threshold
        assert is_priority(False, 31.0, AGING)

    def test_aging_disabled_never_promotes(self):
        assert not is_priority(False, 1000.0, NO_AGING)

    def test_policy_requires_positive_threshold(self):
        with pytest.raises(ValueError) as excinfo:
            SimConfig(aging_enabled=True, aging_threshold=0.0)
        assert excinfo.value.field_name == "aging.threshold_seconds"


class TestBuildCandidates:
    def test_same_object_every_call(self):
        ledger = TangleLedger(8, 1.0)
        a = ledger.add_transaction([ledger.genesis], 1.0)
        assert build_candidates(ledger, 1.5) is ledger  # genesis alone is visible
        ledger.add_transaction([a], 2.0)
        assert build_candidates(ledger, 3.0) is ledger  # reveals a, then its approver

    def test_genesis_only(self):
        ledger = Twins(8, *AGING)
        c = build_candidates(ledger, 0.0)
        assert list(c.priority) == []
        assert c.common == [ledger.genesis]

    def test_genesis_alone_before_anything_visible(self):
        ledger = Twins(8, 1.0, 30.0)
        c = build_candidates(ledger, 0.5)
        assert pools(c) == ([], [ledger.genesis], [ledger.genesis])

    def test_priority_stays_selectable_after_approval(self):
        # an unconfirmed priority transaction that is no longer a tip must
        # remain in the priority list
        ledger = TangleLedger(8, *NO_AGING, ranked=True)
        hp = ledger.add_transaction([ledger.genesis], 1.0, priority_flag=True)
        t1 = ledger.add_transaction([hp], 2.0)
        t2 = ledger.add_transaction([hp], 3.0)
        c = build_candidates(ledger, 10.0)
        assert list(c.priority) == [hp]
        assert c.common == sorted([t1, t2])

    def test_confirmed_priority_excluded(self):
        ledger = TangleLedger(2, *AGING, ranked=True)
        hp = ledger.add_transaction([ledger.genesis], 1.0, priority_flag=True)
        child = ledger.add_transaction([hp], 2.0)
        ledger.confirmation_sweep(2.0)  # genesis and hp now confirmed
        c = build_candidates(ledger, 10.0)  # nothing is 30 s old yet
        assert hp not in c.priority
        # aging stamps no confirmed id, only the unconfirmed common child
        c = build_candidates(ledger, 40.0)
        assert list(c.priority) == [child]
        assert promotion_times(ledger) == [None, None, 40.0]  # genesis, hp, child

    def test_theta_one_confirmed_tip_is_common(self):
        # a tip weighs 1, so only at theta=1 can a sweep confirm a tip; every
        # id below is old enough for aging to promote it
        ledger = Twins(1, *AGING)
        hp = ledger.add_transaction([ledger.genesis], 1.0, priority_flag=True)
        c = build_candidates(ledger, 40.0)
        assert hp in c.priority and hp not in c.common  # ripe, not yet swept
        # aging stamps the unconfirmed genesis, but never the flagged hp
        assert promotion_times(ledger) == [40.0, None]  # genesis, hp
        ledger.confirmation_sweep(1.0)
        fresh = ledger.add_transaction([ledger.genesis], 2.0)  # unswept
        c = build_candidates(ledger, 40.0)
        assert promotion_times(ledger) == [40.0, None, 40.0]  # genesis, hp, fresh
        assert hp in c.common and hp not in c.priority
        # the promoted tip leaves the common tips
        assert fresh in c.tips and fresh in c.priority and fresh not in c.common
        ledger.confirmation_sweep(2.0)
        c = build_candidates(ledger, 40.0)
        # and comes back once it confirms
        assert fresh in c.common and fresh not in c.priority
        ledger.add_transaction([hp], 3.0)  # approving the confirmed tip drops it
        c = build_candidates(ledger, 40.0)
        assert hp not in c.tips and hp not in c.common
        assert fresh in c.common

    def test_partition_disjoint_and_sorted(self):
        ledger = TangleLedger(8, *NO_AGING, ranked=True)
        for i in range(6):
            ledger.add_transaction([ledger.genesis], float(i + 1), priority_flag=i % 2 == 0)
        c = build_candidates(ledger, 10.0)
        assert not set(c.priority) & set(c.common)
        assert list(c.priority) == sorted(c.priority)
        assert c.common == sorted(c.common)

    def test_aging_promotes_old_common(self):
        ledger = TangleLedger(8, *AGING, ranked=True)
        old = ledger.add_transaction([ledger.genesis], 1.0)
        young = ledger.add_transaction([old], 20.0)
        c = build_candidates(ledger, 40.0)
        assert old in c.priority  # age 39 >= 30
        assert young not in c.priority  # age 20
        # genesis is also old and unconfirmed, hence promoted too
        assert ledger.genesis in c.priority
        ledger.reveal(29.0)  # an earlier aged cutoff, -1, promotes nothing
        ledger.reveal(31.0)  # nor does one of 1 rewind the cursor
        assert promotion_times(ledger) == [40.0, 40.0, None]  # genesis, old, young
        c = build_candidates(ledger, 50.0)
        assert young in c.priority  # age 30
        assert promotion_times(ledger) == [40.0, 40.0, 50.0]

    def test_visibility_delay_hides_recent(self):
        ledger = Twins(8, 1.0)
        recent = ledger.add_transaction([ledger.genesis], 5.0)
        c = build_candidates(ledger, 5.5)
        # genesis is the one visible id, and its approver is not visible, so
        # genesis is the one visible tip and no visible id is a non-tip
        assert c.tips == c.common == [ledger.genesis]
        assert recent not in c.tips


class TestCount:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_counts_priority_list(self, n):
        c = make_candidates(priority=range(100, 100 + n), common=[1, 2])
        assert len(c.priority) == n


class TestDraw:
    """The strategies' draws return what CPython's `random` returns and leave
    its stream where it leaves it, so an interpreter whose `random` internals
    differ fails here by name, not only through a golden digest."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sample_and_choice(self, seed):
        # every size up to 1300 is drawn, from a pool whose entries are not
        # their indexes; `sample` switches method above 21 entries, where the
        # two methods differ on few draws, so the sizes there get many
        for n in range(1, 1301):
            pool = list(range(1000, 1000 + 3 * n, 3))
            ours, theirs = random.Random(seed * 10_000 + n), random.Random(seed * 10_000 + n)
            for _ in range(100 if n in (21, 22) else 3):
                if n >= 2:
                    assert _two(pool, ours) == theirs.sample(pool, 2), n
                assert pool[_index(n, ours)] == theirs.choice(pool), n
            assert ours.getstate() == theirs.getstate(), n

    @pytest.mark.parametrize("seed", range(4))
    def test_strategies_draw_as_sample_and_choice(self, seed):
        # each branch against a twin `Random` making the named calls, on pool
        # sizes either side of `sample`'s switch at 21 entries
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in (2, 3, 21, 22, 100, 1300):
            common = list(range(5000, 5000 + 3 * n, 3))
            priority = list(range(100, 100 + 2 * n, 2))
            draws = [
                (select_ptsa(make_candidates(common=common), ours), theirs.sample(common, 2)),
                (select_ptsa(make_candidates([7], common), ours), [7, theirs.choice(common)]),
                (select_ptsa(make_candidates(priority, common), ours),
                 theirs.sample(priority, 2) + [theirs.choice(common)]),
                (select_ptsa(make_candidates(priority), ours), theirs.sample(priority, 2)),
                (select_uniform(make_candidates(common=common), ours), theirs.sample(common, 2)),
            ]
            for result, expected in draws:
                assert result.parents == expected, n
            assert ours.getstate() == theirs.getstate(), n
        # the lone-tip fallback draws nothing
        for lone in (make_candidates(common=[5]), make_candidates([7], tips=[7])):
            select_ptsa(lone, ours)
            select_uniform(lone, ours)
        assert ours.getstate() == theirs.getstate()


class TestSelectUniform:
    def test_two_tips_forced_pair(self):
        c = make_candidates(common=[1, 2])
        result = select_uniform(c, random.Random(0))
        assert sorted(result.parents) == [1, 2]
        assert result.branch == BRANCH_BASELINE

    def test_seeded_draw_is_pinned(self):
        c = make_candidates(common=[1, 2, 3, 4])
        assert select_uniform(c, random.Random(7)).parents == [3, 1]

    def test_same_seed_same_result(self):
        c = make_candidates(common=list(range(1, 20)))
        a = select_uniform(c, random.Random(99)).parents
        b = select_uniform(c, random.Random(99)).parents
        assert a == b

    def test_single_tip_pairs_with_the_id_before_it(self):
        c = make_candidates(common=[5])
        assert select_uniform(c, random.Random(0)).parents == [5, 4]

    def test_single_tip_no_fallback(self):
        c = make_candidates(common=[0])
        assert select_uniform(c, random.Random(0)).parents == [0]

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
        c = make_candidates(priority=[7])
        assert select_ptsa(c, random.Random(0)).parents == [7, 6]

    def test_p1_no_common_no_fallback(self):
        # genesis, promoted by aging, is the one lone tip with no id below it
        c = make_candidates(priority=[0])
        assert select_ptsa(c, random.Random(0)).parents == [0]

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
    """Exactly one branch fires for every shape a ledger's pools can take."""

    @pytest.mark.parametrize("n_common, p", [(c, p) for p, c in BRANCH_TABLE])
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
