"""Append-only DAG ledger with incremental cumulative-weight maintenance.

Transaction ids are insertion ordinals starting at 0 (the genesis), so id
order equals issue-time order. A transaction is its columns, and its state is
stored there once: in per-id lists (`parents`, `issued`, `flags`, `weight`),
plus two id -> time dicts (`confirmed_at`, `promoted_at`) for the times that
not every id has. Readers read these columns by name; the public methods are
the mutators. There is no row type.

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
genesis is revealed at construction. Aging is ptsa's rule: with it on, a
ranked ledger's `reveal` then bisects from a second cursor, the aged one, to
the prefix of `now - max(h, threshold)`, within the revealed one, and promotes
each id it passes that is unconfirmed and unmarked: it marks the id and
records it as promoted at `now`. One comparison skips that when the id at the
cursor is unrevealed or younger.

The pool rule: each id carries one mark, set while it is unconfirmed and
either flagged in a ranked ledger (ptsa's) or promoted; an unranked ledger
(uniform's) marks none. `add_transaction` sets it, aging sets it on each id it
promotes, and a sweep clears it. A tip is a revealed id that no revealed id
approves; the priority ids are the revealed marked ids, and the common tips
the unmarked tips. The pools are three more columns, `priority`, `common` and
`tips`: id-sorted lists kept current in place, never copied, so a reader sees
them change at the next mutation. A ranked ledger keeps the priority and
common lists, its tip list left empty; an unranked one the tips, which are its
common tips (`tips is common`). Each pool edit tells priority from common by
the mark alone: a newly revealed id joins the priority list if marked and the
common tips if not, and each parent it is the first to approve is set approved
and, if unmarked, leaves the common tips; a promotion moves an id into the
priority list and out of the common tips; a confirmation moves a marked
revealed id out of the priority list and, if it is a tip, into the common
tips. The newest revealed id is a tip, since what approves it is newer and not
yet revealed; so a lone tip is the newest revealed id, and the id before it is
the newest non-tip. Confirmation is read as of now, not as of the cutoff.

Each id is stamped with the last insertion walk to reach it, or with a
sentinel above every id once it confirms, so a walk enters an ancestor only
while its stamp is below the new id: once, and never a confirmed one. The
sentinel is 2**30 - 1, the largest int that CPython stores in one digit, so
the walk's and aging's stamp tests take the interpreter's small-int fast path.
It stays above every id: a config admits at most `engine.MAX_EXPECTED_TX` (2M)
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

MAX_PARENTS = 8

# the stamp of a confirmed id: above every id, so no insertion walk enters it
_CONFIRMED = 2**30 - 1  # one CPython digit: see the module docstring


class UnknownParent(Exception):
    """A parent id does not exist in the ledger."""


class ParentArity(Exception):
    """Parent count outside the allowed 1..8 range."""


class TimeRegression(Exception):
    """Issue time not finite, or earlier than an already-stored transaction."""


class TangleLedger:
    """The DAG store: transactions, the revealed view, confirmation."""

    def __init__(self, theta: int, visibility_delay: float = 0.0,
                 aging_threshold: float | None = None, ranked: bool = False) -> None:
        # genesis: no parents, issued at time 0, common class
        self.parents: list[tuple[int, ...]] = [()]
        self.issued: list[float] = [0.0]
        self.flags: list[bool] = [False]
        self._approved: list[bool] = [False]  # approved by a revealed id
        self._rank = bytearray(1)  # the mark of the pool rule
        # cumulative weight per id, kept exact until the id confirms
        self.weight: list[int] = [1]
        # the last insertion walk to reach each id, or _CONFIRMED
        self._stamp: list[int] = [0]
        self._visible = 1  # reveal's cursor: it has passed every id below
        self._aged = 0  # aging's cursor, never past the one above
        self._delay = visibility_delay
        self._ranked = ranked  # whether a flag marks an id: see the pool rule
        # the age at which a visible id ages, or None with aging off or unranked
        self._aging = (max(visibility_delay, aging_threshold)
                       if ranked and aging_threshold is not None else None)
        # the pools: id-sorted indexes over the state above, of the revealed ids only
        self.priority: list[int] = []
        self.common = [0]
        self.tips = [] if ranked else self.common
        # the confirmation threshold, and the unconfirmed ids whose weight
        # reached it since the last sweep
        self._theta = theta
        self._ripe: list[int] = [0] if theta == 1 else []
        # confirmed id -> confirmation time, and promoted id -> promotion time
        self.confirmed_at: dict[int, float] = {}
        self.promoted_at: dict[int, float] = {}
        self.confirmed_set = self.confirmed_at.keys()  # read by tsbench/traced_cli.py

    def __len__(self) -> int:
        return len(self.parents)

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
        self._rank.append(priority_flag and self._ranked)
        self.weight.append(0)
        self._stamp.append(new_id)
        # the new id and every distinct unconfirmed ancestor gain one, in a
        # walk that starts at the new id; confirmed ancestors have only
        # confirmed ancestors, so the walk stops there
        theta, ripe, stamp = self._theta, self._ripe, self._stamp
        parents, weight = self.parents, self.weight
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

    def confirmation_sweep(self, now: float) -> list[int]:
        """Confirm every transaction whose cumulative weight reached theta.

        Returns the newly confirmed ids in the order they ripened;
        idempotent at a fixed instant.
        """
        newly, self._ripe = self._ripe, []
        priority, rank = self.priority, self._rank
        for i in newly:
            self.confirmed_at[i] = now
            self._stamp[i] = _CONFIRMED
            if rank[i]:
                rank[i] = 0
                if i < self._visible:  # a revealed priority id
                    del priority[bisect_left(priority, i)]
                    if not self._approved[i]:  # a confirmed tip is common
                        insort(self.common, i)
        return newly

    def reveal(self, now: float) -> None:
        """Make the ids issued at or before `now - h` visible: each one not
        reached by an earlier call becomes a tip, a priority id if marked and
        a common tip if not, and each parent it is the first to approve stops
        being a tip. Then, with aging on in a ranked ledger, mark each visible
        id issued at or before `now - max(h, threshold)` and not reached by an
        earlier call, if it is unconfirmed and unmarked, as promoted at `now`,
        which makes it a priority id until it confirms. An earlier `now`
        changes nothing."""
        visible = bisect_right(self.issued, now - self._delay, self._visible)
        if visible != self._visible:  # half the calls reveal nothing; skipping them pays
            approved, rank, parents, common = self._approved, self._rank, self.parents, self.common
            for j in range(self._visible, visible):
                (self.priority if rank[j] else common).append(j)
                for p in parents[j]:
                    if not approved[p]:
                        approved[p] = True
                        if not rank[p]:  # a common tip
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
        for i in range(start, aged):
            if self._stamp[i] != _CONFIRMED and not self._rank[i]:
                self._rank[i] = 1
                self.promoted_at[i] = now
                insort(self.priority, i)
                if not self._approved[i]:
                    del self.common[bisect_left(self.common, i)]
        self._aged = aged
