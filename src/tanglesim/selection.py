"""Tip-selection strategies: uniform-random baseline and priority-based.

Both strategies are pure functions of the candidate pools and a seeded
random source; they never touch the ledger. `build_candidates` hands out
`ledger.pools`, the ledger's own live `SelectionCandidates`: its lists are
current only until the ledger's next mutation. Every pool is sorted by id,
so a given seed yields one result regardless of set iteration order, and
holds genesis at least, so a strategy always draws.

The draws, `_index` and `_two`, return what CPython 3.11's `choice` and
`sample(pool, 2)` return and leave the stream where they leave it, at less
overhead per call; the golden outputs rest on that stream. `_two` is also
the one lone-tip fallback: from a pool of one entry it returns that entry
and the id before it, or genesis alone, with no draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from tanglesim.ledger import SelectionCandidates, TangleLedger

BRANCH_P0 = "p=0"
BRANCH_P1 = "p=1"
BRANCH_P2 = "p>=2"
BRANCH_BASELINE = "baseline"


class EmptyCandidates(Exception):
    """Raised by nothing: a ledger's pools always hold its genesis at least.
    Kept only because `tsbench/traced_cli.py` imports it."""


@dataclass(slots=True)
class SelectionResult:
    parents: list[int]
    branch: str


def build_candidates(ledger: TangleLedger, now: float) -> SelectionCandidates:
    """Reveal the transactions visible at `now` and apply aging at `now` (see
    `TangleLedger.reveal`), then hand out `ledger.pools`, the same object on
    every call. So `now` must not decrease between calls on one ledger.
    Genesis is revealed from the start, so before anything else is visible
    the pools hold genesis alone.
    """
    ledger.reveal(now)
    return ledger.pools


def _index(n: int, rng: random.Random) -> int:
    """A uniform index below n > 0: CPython's `_randbelow_with_getrandbits`,
    which `choice` and `sample` draw with."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _two(pool: list[int], rng: random.Random) -> list[int]:
    """Two distinct entries of the pool, as CPython 3.11's
    `rng.sample(pool, 2)` draws them: up to 21 entries it draws the second
    index below n - 1, with the last entry standing in for the first draw;
    above 21 it redraws below n until the two indexes differ. From a lone
    entry, it and the newest non-tip, the id before it, with no draw; or
    genesis alone."""
    n = len(pool)
    if n < 2:
        lone = pool[0]
        return [lone, lone - 1] if lone else [lone]
    i = _index(n, rng)
    if n <= 21:  # the second index is `_index(n - 1, rng)`, inlined
        m = n - 1
        k = m.bit_length()
        j = rng.getrandbits(k)
        while j >= m:
            j = rng.getrandbits(k)
        return [pool[i], pool[m if j == i else j]]
    k = n.bit_length()  # `_index(n, rng)` inlined, redrawn until it is not i
    j = rng.getrandbits(k)
    while j >= n or j == i:
        j = rng.getrandbits(k)
    return [pool[i], pool[j]]


def select_uniform(
    candidates: SelectionCandidates, rng: random.Random
) -> SelectionResult:
    """Baseline: two distinct tips uniformly at random from the whole tip
    pool, ignoring the priority/common partition."""
    return SelectionResult(_two(candidates.tips, rng), BRANCH_BASELINE)


def select_ptsa(
    candidates: SelectionCandidates, rng: random.Random
) -> SelectionResult:
    """Priority-based selection, dispatching on the count p of unconfirmed
    effective-priority candidates.

    p = 0: two common tips uniformly at random.
    p = 1: the priority transaction plus one common tip.
    p >= 2: two priority transactions plus one common tip.
    With no common tip the common slot goes, and a lone priority id takes
    the baseline's lone-tip fallback.
    """
    priority, common = candidates.priority, candidates.common
    p = len(priority)
    if p == 0:
        return SelectionResult(_two(common, rng), BRANCH_P0)
    parents = [priority[0]] if p == 1 and common else _two(priority, rng)
    if common:
        parents.append(common[_index(len(common), rng)])
    return SelectionResult(parents, BRANCH_P1 if p == 1 else BRANCH_P2)
