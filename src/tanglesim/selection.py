"""Tip-selection strategies: uniform-random baseline and priority-based.

Both strategies are pure functions of a candidate snapshot and a seeded
random source; they never touch the ledger. Candidate lists are sorted by
id so a given seed yields one result regardless of set iteration order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from tanglesim.ledger import TangleLedger

BRANCH_P0 = "p=0"
BRANCH_P1 = "p=1"
BRANCH_P2 = "p>=2"
BRANCH_BASELINE = "baseline"


class EmptyCandidates(Exception):
    """No selectable transaction exists in the snapshot."""


@dataclass(frozen=True)
class PriorityPolicy:
    """Anti-starvation aging: unconfirmed transactions older than the
    threshold are treated as high-priority."""

    enabled: bool = True
    aging_threshold: float = 30.0


@dataclass
class SelectionCandidates:
    """Snapshot of selectable transactions, partitioned by effective priority.

    `priority` holds unconfirmed effective-priority transactions (not
    necessarily tips: they stay selectable until confirmed). `common` holds
    the remaining selectable tips. `tips` is the full selectable tip pool
    regardless of class, and `newest_non_tip` backs the single-tip fallback;
    both exist so strategies need no ledger access.
    """

    priority: list[int]
    common: list[int]
    tips: list[int]
    newest_non_tip: int | None


@dataclass
class SelectionResult:
    parents: list[int]
    branch: str


def build_candidates(
    ledger: TangleLedger,
    now: float,
    visibility_delay: float,
    policy: PriorityPolicy,
) -> SelectionCandidates:
    """Partition the transactions visible at `now` into selection candidates.

    A transaction is visible once its age reaches the visibility delay.
    Raises EmptyCandidates when nothing is visible yet (right after genesis);
    the caller should attach to genesis or retry later.
    """
    k = ledger.visible_count(now - visibility_delay)
    if k == 0:
        raise EmptyCandidates(f"no transaction visible at t={now}")
    promote_before = now - policy.aging_threshold if policy.enabled else None
    priority = ledger.priority_candidates(k, promote_before)
    pset = set(priority)
    vis_tips = sorted(t for t in ledger.tip_set if t < k)
    common = [t for t in vis_tips if t not in pset]
    return SelectionCandidates(
        priority=priority,
        common=common,
        tips=vis_tips,
        newest_non_tip=ledger.newest_non_tip(k),
    )


def _two_tips_or_fallback(
    pool: list[int], fallback: int | None, rng: random.Random
) -> list[int]:
    if len(pool) >= 2:
        return rng.sample(pool, 2)
    lone = pool[0]
    if fallback is not None and fallback != lone:
        return [lone, fallback]
    return [lone]


def select_uniform(
    candidates: SelectionCandidates, rng: random.Random
) -> SelectionResult:
    """Baseline: two distinct tips uniformly at random from the whole tip
    pool, ignoring the priority/common partition."""
    if not candidates.tips:
        raise EmptyCandidates("no selectable tip in snapshot")
    parents = _two_tips_or_fallback(candidates.tips, candidates.newest_non_tip, rng)
    return SelectionResult(parents, BRANCH_BASELINE)


def select_ptsa(
    candidates: SelectionCandidates, rng: random.Random
) -> SelectionResult:
    """Priority-based selection, dispatching on the count p of unconfirmed
    effective-priority candidates.

    p = 0: two common tips uniformly at random.
    p = 1: the priority transaction plus one common tip.
    p >= 2: two priority transactions plus one common tip.
    When a required pool is empty the arity shrinks, down to the lone-tip
    fallback of the baseline.
    """
    p = len(candidates.priority)
    if p == 0:
        if not candidates.common:
            raise EmptyCandidates("no common tip and no priority candidate")
        parents = _two_tips_or_fallback(
            candidates.common, candidates.newest_non_tip, rng
        )
        return SelectionResult(parents, BRANCH_P0)

    if p == 1:
        parents = [candidates.priority[0]]
        branch = BRANCH_P1
    else:
        parents = rng.sample(candidates.priority, 2)
        branch = BRANCH_P2

    if candidates.common:
        parents.append(rng.choice(candidates.common))
    elif len(parents) == 1:
        fb = candidates.newest_non_tip
        if fb is not None and fb != parents[0]:
            parents.append(fb)
    return SelectionResult(parents, branch)
