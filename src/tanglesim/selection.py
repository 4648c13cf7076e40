"""Tip-selection strategies: uniform-random baseline and priority-based.

Both strategies are pure functions of a candidate snapshot and a seeded
random source; they never touch the ledger. Candidate lists are sorted by
id so a given seed yields one result regardless of set iteration order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from tanglesim.ledger import TangleLedger

if TYPE_CHECKING:  # the engine imports this module
    from tanglesim.engine import SimConfig

BRANCH_P0 = "p=0"
BRANCH_P1 = "p=1"
BRANCH_P2 = "p>=2"
BRANCH_BASELINE = "baseline"


class EmptyCandidates(Exception):
    """No selectable transaction exists in the snapshot. A ledger's pools
    always hold its genesis at least, so only a strategy handed empty pools
    raises it."""


@dataclass
class SelectionCandidates:
    """Snapshot of selectable transactions, partitioned by effective priority.

    `priority` holds unconfirmed effective-priority transactions, flagged or
    promoted by aging (not necessarily tips: they stay selectable until
    confirmed). `common` holds the remaining selectable tips. `tips` is the
    full selectable tip pool regardless of class, and `newest_non_tip` backs
    the single-tip fallback; both exist so strategies need no ledger access.
    The pools are the ledger's own lists, valid until its next mutation.
    """

    priority: list[int]
    common: list[int]
    tips: list[int]
    newest_non_tip: int | None


@dataclass
class SelectionResult:
    parents: list[int]
    branch: str


def build_candidates(ledger: TangleLedger, now: float, config: SimConfig) -> SelectionCandidates:
    """Reveal the transactions visible at `now` and apply aging up to `now`,
    then hand out the ledger's pools as selection candidates.

    A transaction is visible once its age reaches the visibility delay, and
    aged once it is visible and its age reaches the aging threshold; the
    ledger promotes an aged one while it is unconfirmed and unflagged (see
    `TangleLedger.promote`). So `now` must not decrease between calls on
    one ledger. Genesis is revealed from the start, so before anything else
    is visible the pools hold genesis alone.
    """
    ledger.reveal(now - config.visibility_delay)
    if config.aging_enabled:
        ledger.promote(now - max(config.visibility_delay, config.aging_threshold), now)
    tips, common = ledger.tip_candidates()
    return SelectionCandidates(
        priority=ledger.priority_candidates(),
        common=common,
        tips=tips,
        newest_non_tip=ledger.newest_non_tip(),
    )


def _with_fallback(lone: int, fallback: int | None) -> list[int]:
    """A lone parent, plus the fallback when it exists and differs from it."""
    return [lone] if fallback is None or fallback == lone else [lone, fallback]


def _two_tips_or_fallback(
    pool: list[int], fallback: int | None, rng: random.Random
) -> list[int]:
    if len(pool) >= 2:
        return rng.sample(pool, 2)
    return _with_fallback(pool[0], fallback)


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
        parents = _with_fallback(parents[0], candidates.newest_non_tip)
    return SelectionResult(parents, branch)
