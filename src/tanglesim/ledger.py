"""Append-only DAG ledger with incremental cumulative-weight maintenance.

Transaction ids are insertion ordinals starting at 0 (the genesis), so id
order equals issue-time order. Each transaction's state is stored once: in
per-id lists, plus two id -> time dicts for the confirmation and promotion
times that not every id has. The outputs read the columns `issued`, `flags`,
`parents` and `confirmed_at` by name; `records` reads it all out as
`TxRecord`s, the one type that describes a transaction's lifecycle.

A transaction confirms once its cumulative weight reaches the threshold θ,
which the ledger takes once, at construction. Every ancestor of a
transaction outweighs it, so a sweep that confirms a transaction confirms
its unconfirmed ancestors too, and the confirmed set is closed under
ancestry. An arrival therefore changes the weight of its unconfirmed
ancestors only: an insertion walks parent edges from the new transaction
itself and stops at confirmed ones. A stored weight is exact while its
transaction is unconfirmed.

Since ids are issued in time order, a time cutoff is an id prefix. The ledger
takes the visibility delay h and the aging threshold at construction too, and
an arrival at `now` sees the DAG as it was at `now - h`: `reveal(now)` bisects
the issue times from its cursor to that cutoff's prefix, which only grows, and
genesis is revealed at construction. With aging on, `reveal` then promotes: it
bisects from a second cursor, the aged one, to the prefix of
`now - max(h, threshold)`, which lies within the revealed one, and records each
id it passes that is unconfirmed and unflagged as promoted at `now`; one
comparison skips that when the id at the cursor is unrevealed or younger.

The pool rule: the priority ids are the revealed, unconfirmed ids that are
flagged or below the aged cursor; a tip is a revealed id that no revealed id
approves; the common tips are the tips that are not priority ids. The
candidate pools are `ledger.pools`, one `SelectionCandidates` that the ledger
builds once and keeps current for its whole life. Its three id-sorted lists
hold those three sets, so every pool is one of them, used whole and never
copied; a reader sees the lists change at the ledger's next mutation. A newly
revealed id joins the lists it belongs to, marks each parent it is the first
to approve as approved, and takes it out of the tips by bisection. The newest
revealed id is a tip, since what approves it is newer and not yet revealed; so
a lone tip is the newest revealed id, and the id before it is the newest
non-tip. Confirmation is read as of now, not as of the cutoff. A promotion
inserts an id into the priority list and takes it out of the common tips; a
confirmation takes a revealed priority id out of the priority list and inserts
it into the common tips if it is a tip.

Each id is stamped with the last insertion walk to reach it, or with a
sentinel above every id once it confirms, so a walk enters an ancestor only
while its stamp is below the new id: once, and never a confirmed one. The
sentinel is 2**30 - 1, the largest int that CPython stores in one digit, so
the stamp comparisons take the interpreter's small-int fast path. It stays
above every id: a config admits at most `engine.MAX_EXPECTED_TX` (2M)
expected arrivals, and a ledger of 2**30 ids would need over 100 GB.

A new id is stored with weight 0, and its own insertion walk gives it its
weight 1; each later walk to reach it adds one. So a stored weight equals θ
at exactly one moment (θ is the config's validated integer >= 1). Then the id
joins the ripe list (genesis at construction), and a sweep confirms exactly
that list.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

MAX_PARENTS = 8

# the stamp of a confirmed id: above every id, so no insertion walk enters it
_CONFIRMED = 2**30 - 1  # one CPython digit: see the module docstring


class UnknownParent(Exception):
    """A parent id does not exist in the ledger."""


class ParentArity(Exception):
    """Parent count outside the allowed 1..8 range."""


class TimeRegression(Exception):
    """Issue time not finite, or earlier than an already-stored transaction."""


CLASS_PRIORITY = "priority"
CLASS_COMMON = "common"
CLASSES = (CLASS_COMMON, CLASS_PRIORITY)  # a transaction's class, indexed by its flag


@dataclass(slots=True)
class SelectionCandidates:
    """The selectable transactions, as the module docstring's pool rule
    defines them, so strategies need no ledger access: the priority ids
    (selectable until confirmed, tips or not), the common tips and all tips."""

    priority: list[int]
    common: list[int]
    tips: list[int]


@dataclass(slots=True)
class TxRecord:
    """Lifecycle of one transaction: `tx_class` is CLASS_PRIORITY for a
    flagged one, else CLASS_COMMON. `promoted_at` is when aging promoted a
    common one (see `TangleLedger.reveal`), else None."""

    id: int
    tx_class: str
    issued_at: float
    parents: tuple[int, ...]
    confirmed_at: float | None = None
    promoted_at: float | None = None


class TangleLedger:
    """The DAG store: transactions, the revealed view, confirmation."""

    def __init__(self, theta: int, visibility_delay: float = 0.0,
                 aging_threshold: float | None = None) -> None:
        # genesis: no parents, issued at time 0, common class
        self.genesis = 0
        self.parents: list[tuple[int, ...]] = [()]
        self.issued: list[float] = [0.0]
        self.flags: list[bool] = [False]
        self._approved: list[bool] = [False]  # approved by a revealed id
        # cumulative weight per id, kept exact until the id confirms
        self._weight: list[int] = [1]
        # the last insertion walk to reach each id, or _CONFIRMED
        self._stamp: list[int] = [0]
        self._visible = 1  # reveal's cursor: it has passed every id below
        self._aged = 0  # aging's cursor, never past the one above: see the pool rule
        self._delay = visibility_delay
        # the age at which a visible id ages, or None with aging off
        self._aging = None if aging_threshold is None else max(visibility_delay, aging_threshold)
        # id-sorted indexes over the state above, of the revealed ids only
        self.pools = SelectionCandidates(priority=[], common=[0], tips=[0])
        # the confirmation threshold, and the unconfirmed ids whose weight
        # reached it since the last sweep
        self._theta = theta
        self._ripe: list[int] = [0] if theta == 1 else []
        # confirmed id -> confirmation time, and promoted id -> promotion time
        self.confirmed_at: dict[int, float] = {}
        self._promoted_at: dict[int, float] = {}
        self.confirmed_set = self.confirmed_at.keys()  # read by tsbench/traced_cli.py

    def __len__(self) -> int:
        return len(self.parents)

    # -- mutation ---------------------------------------------------------

    def add_transaction(
        self, parents: list[int], issued_at: float, priority_flag: bool = False
    ) -> int:
        """Store a new transaction approving `parents` and return its id.

        Duplicate parent ids are de-duplicated before edge insertion so each
        approver edge and each cumulative-weight increment is applied once.
        """
        if not 1 <= len(parents) <= MAX_PARENTS:
            raise ParentArity(f"got {len(parents)} parents, need 1..{MAX_PARENTS}")
        new_id = len(self.parents)
        if len(parents) == 2:  # the common arity: one comparison sorts and de-duplicates
            a, b = parents
            distinct = (a, b) if a < b else (b, a) if b < a else (a,)
        else:
            distinct = tuple(sorted(set(parents)))
        low, high = distinct[0], distinct[-1]  # they bound every parent
        if low < 0 or high >= new_id:
            raise UnknownParent(f"parent {low if low < 0 else high} does not exist")
        if not math.isfinite(issued_at):
            raise TimeRegression(f"issued_at {issued_at} is not finite")
        last = self.issued[-1]
        if issued_at < last:
            raise TimeRegression(
                f"issued_at {issued_at} precedes stored time {last}"
            )

        self.parents.append(distinct)
        self.issued.append(issued_at)
        self.flags.append(priority_flag)
        self._approved.append(False)
        self._weight.append(0)
        self._stamp.append(new_id)
        # the new id and every distinct unconfirmed ancestor gain one, in a
        # walk that starts at the new id; confirmed ancestors have only
        # confirmed ancestors, so the walk stops there
        theta, ripe, stamp = self._theta, self._ripe, self._stamp
        parents, weight = self.parents, self._weight
        walk = [new_id]
        for i in walk:  # the walk appends to the list it iterates
            w = weight[i] = weight[i] + 1
            if w == theta:
                ripe.append(i)
            for p in parents[i]:
                if stamp[p] < new_id:
                    stamp[p] = new_id
                    walk.append(p)
        return new_id

    def confirmation_sweep(self, now: float) -> set[int]:
        """Confirm every transaction whose cumulative weight reached theta.

        Returns the newly confirmed ids; idempotent at a fixed instant.
        """
        if not self._ripe:
            return set()
        newly = set(self._ripe)
        self._ripe = []
        priority, visible, aged = self.pools.priority, self._visible, self._aged
        confirmed_at, stamp, flag = self.confirmed_at, self._stamp, self.flags
        for i in newly:
            confirmed_at[i] = now
            stamp[i] = _CONFIRMED
            # a revealed priority id: aged (so promoted unless flagged), or flagged
            if i < aged or i < visible and flag[i]:
                del priority[bisect_left(priority, i)]
                if not self._approved[i]:  # a confirmed tip is common
                    insort(self.pools.common, i)
        return newly

    def reveal(self, now: float) -> None:
        """Make the ids issued at or before `now - h` visible: each one not
        reached by an earlier call becomes a tip, and each parent it is the
        first to approve stops being one. Then, with aging on, stamp each
        visible id issued at or before `now - max(h, threshold)` and not
        reached by an earlier call, if it is unconfirmed and unflagged, as
        promoted at `now`, which makes it a priority id until it confirms.
        An earlier `now` changes nothing."""
        visible = bisect_right(self.issued, now - self._delay, self._visible)
        pools = self.pools
        if visible != self._visible:
            approved, stamp, flag, parents = self._approved, self._stamp, self.flags, self.parents
            aged, tips, common = self._aged, pools.tips, pools.common
            for j in range(self._visible, visible):
                tips.append(j)
                if stamp[j] != _CONFIRMED and flag[j]:  # aging has not reached j yet
                    pools.priority.append(j)
                else:
                    common.append(j)
                for p in parents[j]:
                    if not approved[p]:
                        approved[p] = True
                        del tips[bisect_left(tips, p)]
                        # a common tip: confirmed, or neither flagged nor aged
                        if stamp[p] == _CONFIRMED or not (flag[p] or p < aged):
                            del common[bisect_left(common, p)]
            self._visible = visible
        if self._aging is None:
            return
        # aged <= visible, as the aged cutoff is at or below the visible one.
        # Most calls promote none: one comparison tells, reading no unrevealed id
        start, issued, cutoff = self._aged, self.issued, now - self._aging
        if start == self._visible or issued[start] > cutoff:
            return
        aged = bisect_right(issued, cutoff, start)
        stamp, flag = self._stamp, self.flags
        for i in range(start, aged):
            if stamp[i] != _CONFIRMED and not flag[i]:
                self._promoted_at[i] = now
                insort(pools.priority, i)
                if not self._approved[i]:
                    del pools.common[bisect_left(pools.common, i)]
        self._aged = aged

    # -- queries ----------------------------------------------------------

    def records(self) -> list[TxRecord]:
        """A snapshot of every transaction's stored state, in id order
        (genesis first, so `records()[i].id == i`)."""
        ids = range(len(self.parents))
        return list(map(
            TxRecord, ids, map(CLASSES.__getitem__, self.flags), self.issued,
            self.parents, map(self.confirmed_at.get, ids), map(self._promoted_at.get, ids),
        ))

    def weights(self) -> list[int]:
        """The stored cumulative weight of every id, in id order: 1 + the
        number of distinct transactions approving it transitively. Exact
        while the id is unconfirmed; once it confirms, the value stops growing."""
        return self._weight.copy()
