"""Append-only DAG ledger with incremental cumulative-weight maintenance.

Transaction ids are insertion ordinals starting at 0 (the genesis), so id
order equals issue-time order. Each transaction's state is stored once, in
per-field lists indexed by id.

A transaction confirms once its cumulative weight reaches the threshold θ,
which the ledger takes once, at construction. Every ancestor of a
transaction outweighs it, so a sweep that confirms a transaction confirms
its unconfirmed ancestors too, and the confirmed set is closed under
ancestry. An arrival therefore changes the weight of its unconfirmed
ancestors only: an insertion walks parent edges from the new transaction and
stops at confirmed ones. A stored weight is exact while its transaction is
unconfirmed.

Five id-sorted lists index what every arrival asks about: the unconfirmed
ids, the unconfirmed flagged ids, the tips, the tips that are confirmed or
unflagged, and the confirmed tips. A new id is the largest, so it is
appended; a confirmation or an approval removes an id by bisection, and a
sweep inserts a tip it confirms (a tip weighs 1, so only at θ=1). Since ids
are issued in time order, a time cutoff is an id prefix, and every
candidate list is a slice of these lists.

Each id is stamped with the last insertion walk to reach it, or with a
sentinel above every id once it confirms, so a walk enters an ancestor only
while its stamp is below the new id: once, and never a confirmed one.

A stored weight starts at 1 and grows by one per insertion walk, so it
equals θ at exactly one moment (θ is the config's validated integer >= 1).
Then the id joins the ripe list (genesis at construction, when θ is 1), and
a sweep confirms exactly that list.

Past and future cones, and the weight of a confirmed transaction, are audit
queries answered from int bitsets built on first use and dropped by the next
insertion.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import compress, count

MAX_PARENTS = 8

# the stamp of a confirmed id: above every id, so no insertion walk enters it
_CONFIRMED = sys.maxsize

# bin() digits to the 0/1 bytes itertools.compress selects with
_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class TangleError(Exception):
    """Base class for ledger errors."""


class UnknownParent(TangleError):
    """A parent id does not exist in the ledger."""


class UnknownTransaction(TangleError):
    """A queried transaction id does not exist in the ledger."""


class ParentArity(TangleError):
    """Parent count outside the allowed 1..8 range."""


class TimeRegression(TangleError):
    """Issue time not finite, or earlier than an already-stored transaction."""


@dataclass
class Transaction:
    """One ledger vertex, as `TangleLedger.transaction` returns it."""

    id: int
    parents: tuple[int, ...]
    issued_at: float
    priority_flag: bool
    confirmed_at: float | None = None


def _bit_ids(bits: int) -> set[int]:
    """Positions of the set bits of `bits`."""
    return set(compress(count(), bin(bits)[:1:-1].encode().translate(_BIT_DIGITS)))


class TangleLedger:
    """The DAG store: transactions, first approvers, tips, confirmation."""

    def __init__(self, theta: int) -> None:
        # genesis: no parents, issued at time 0, common class
        self.genesis = 0
        self._parents: list[tuple[int, ...]] = [()]
        self._issued: list[float] = [0.0]
        self._flag: list[bool] = [False]
        self._first_approver: list[int] = [0]  # 0 until approved; genesis approves nothing
        # cumulative weight per id, kept exact until the id confirms
        self._weight: list[int] = [1]
        # the last insertion walk to reach each id, or _CONFIRMED
        self._stamp: list[int] = [0]
        # id-sorted indexes over the state above
        self._unconfirmed: list[int] = [0]
        self._flagged: list[int] = []  # unconfirmed and flagged
        self._tips: list[int] = [0]
        self._common_tips: list[int] = [0]  # tips confirmed or unflagged
        self._confirmed_tips: list[int] = []
        # the confirmation threshold, and the unconfirmed ids whose weight
        # reached it since the last sweep
        self._theta = theta
        self._ripe: list[int] = [0] if theta == 1 else []
        # confirmed id -> confirmation time
        self._confirmed_at: dict[int, float] = {}
        self.confirmed_set = self._confirmed_at.keys()
        # (past, future) bitsets per id for the audit queries, or None
        self._cones: tuple[list[int], list[int]] | None = None

    def __len__(self) -> int:
        return len(self._parents)

    def __contains__(self, tx_id: int) -> bool:
        return 0 <= tx_id < len(self._parents)

    def _check_known(self, tx_id: int) -> None:
        if tx_id not in self:
            raise UnknownTransaction(f"transaction {tx_id} does not exist")

    def transaction(self, tx_id: int) -> Transaction:
        """A snapshot of one transaction's stored state."""
        self._check_known(tx_id)
        return Transaction(
            tx_id,
            self._parents[tx_id],
            self._issued[tx_id],
            self._flag[tx_id],
            self._confirmed_at.get(tx_id),
        )

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
        new_id = len(self._parents)
        for p in parents:
            if not 0 <= p < new_id:
                raise UnknownParent(f"parent {p} does not exist")
        if not math.isfinite(issued_at):
            raise TimeRegression(f"issued_at {issued_at} is not finite")
        last = self._issued[-1]
        if issued_at < last:
            raise TimeRegression(
                f"issued_at {issued_at} precedes stored time {last}"
            )

        distinct = tuple(sorted(set(parents)))
        self._parents.append(distinct)
        self._issued.append(issued_at)
        self._flag.append(priority_flag)
        self._first_approver.append(0)
        self._weight.append(0)  # the walk below raises it to 1
        self._stamp.append(new_id)
        self._unconfirmed.append(new_id)
        if priority_flag:
            self._flagged.append(new_id)
        else:
            self._common_tips.append(new_id)
        self._cones = None
        tips, common, confirmed = self._tips, self._common_tips, self._confirmed_tips
        first, stamp = self._first_approver, self._stamp
        for p in distinct:
            if not first[p]:
                first[p] = new_id
                del tips[bisect_left(tips, p)]
                if stamp[p] == _CONFIRMED:
                    del confirmed[bisect_left(confirmed, p)]
                if stamp[p] == _CONFIRMED or not self._flag[p]:
                    del common[bisect_left(common, p)]
        tips.append(new_id)

        # the new id and every distinct unconfirmed ancestor gain one; confirmed
        # ancestors have only confirmed ancestors, so the walk stops there
        parents, weight, theta = self._parents, self._weight, self._theta
        stack = [new_id]
        while stack:
            i = stack.pop()
            weight[i] += 1
            if weight[i] == theta:
                self._ripe.append(i)
            for p in parents[i]:
                if stamp[p] < new_id:
                    stamp[p] = new_id
                    stack.append(p)
        return new_id

    def confirmation_sweep(self, now: float) -> set[int]:
        """Confirm every transaction whose cumulative weight reached theta.

        Returns the newly confirmed ids; idempotent at a fixed instant.
        """
        newly = set(self._ripe)
        self._ripe = []
        unconfirmed, flagged = self._unconfirmed, self._flagged
        for i in newly:
            del unconfirmed[bisect_left(unconfirmed, i)]
            if self._flag[i]:
                del flagged[bisect_left(flagged, i)]
            self._confirmed_at[i] = now
            self._stamp[i] = _CONFIRMED
            if not self._first_approver[i]:  # a confirmed tip is common
                insort(self._confirmed_tips, i)
                if self._flag[i]:
                    insort(self._common_tips, i)
        return newly

    # -- queries ----------------------------------------------------------

    def tips(self) -> set[int]:
        """Transactions not yet approved by any other transaction."""
        return set(self._tips)

    def tip_count(self) -> int:
        """Number of transactions not yet approved by any other transaction."""
        return len(self._tips)

    def _cone_bits(self) -> tuple[list[int], list[int]]:
        """Bit j of past[i] (future[i]) is set iff j is an ancestor
        (descendant) of i."""
        if self._cones is None:
            n = len(self)
            past = [0] * n
            for i, ps in enumerate(self._parents):
                for p in ps:
                    past[i] |= past[p] | (1 << p)
            future = [0] * n
            for i in range(n - 1, -1, -1):
                for p in self._parents[i]:
                    future[p] |= future[i] | (1 << i)
            self._cones = past, future
        return self._cones

    def cumulative_weight(self, tx_id: int) -> int:
        """1 + number of distinct transactions approving `tx_id` transitively."""
        self._check_known(tx_id)
        if tx_id in self._confirmed_at:
            return 1 + self._cone_bits()[1][tx_id].bit_count()
        return self._weight[tx_id]

    def past_cone(self, tx_id: int) -> set[int]:
        """All distinct ancestors of `tx_id`, excluding itself."""
        self._check_known(tx_id)
        return _bit_ids(self._cone_bits()[0][tx_id])

    def future_cone(self, tx_id: int) -> set[int]:
        """All distinct transactions that reach `tx_id` via parent edges."""
        self._check_known(tx_id)
        return _bit_ids(self._cone_bits()[1][tx_id])

    # -- selection support -------------------------------------------------

    def visible_count(self, cutoff: float) -> int:
        """Number of transactions with issued_at <= cutoff (a prefix, since
        insertion order is time order)."""
        return bisect_right(self._issued, cutoff)

    def priority_candidates(self, visible: int, aged: int) -> list[int]:
        """Unconfirmed transactions among the first `visible` that are flagged
        or among the first `aged` (at most `visible`), in id order."""
        unconfirmed, flagged = self._unconfirmed, self._flagged
        return (
            unconfirmed[: bisect_left(unconfirmed, aged)]
            + flagged[bisect_left(flagged, aged) : bisect_left(flagged, visible)]
        )

    def tip_candidates(self, visible: int, aged: int) -> tuple[list[int], list[int]]:
        """The tips among the first `visible` transactions, and those of them
        that are not priority candidates (see `priority_candidates`)."""
        common, confirmed = self._common_tips, self._confirmed_tips
        return self._tips[: bisect_left(self._tips, visible)], (
            confirmed[: bisect_left(confirmed, aged)]
            + common[bisect_left(common, aged) : bisect_left(common, visible)]
        )

    def newest_non_tip(self, visible: int) -> int | None:
        """Most recently issued non-tip among the first `visible`, if any."""
        first = self._first_approver
        for i in range(visible - 1, -1, -1):
            if first[i]:
                return i
        return None
