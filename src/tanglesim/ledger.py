"""Append-only DAG ledger with incremental cumulative-weight maintenance.

Transaction ids are insertion ordinals starting at 0 (the genesis), so id
order equals issue-time order. Each transaction's state is stored once, in
per-field lists indexed by id; `TangleLedger.transaction` reads it out as a
`TxRecord`, the one type that describes a transaction's lifecycle.

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
candidate list is a slice of these lists. The priority candidates, which
grow with the unconfirmed backlog, are read in place through a
`PriorityView` over two such slices instead of being copied per arrival.

Each id is stamped with the last insertion walk to reach it, or with a
sentinel above every id once it confirms, so a walk enters an ancestor only
while its stamp is below the new id: once, and never a confirmed one.

A stored weight starts at 1 and grows by one per insertion walk, so it
equals θ at exactly one moment (θ is the config's validated integer >= 1).
Then the id joins the ripe list (genesis at construction, when θ is 1), and
a sweep confirms exactly that list.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, islice

MAX_PARENTS = 8

# the stamp of a confirmed id: above every id, so no insertion walk enters it
_CONFIRMED = sys.maxsize


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


CLASS_PRIORITY = "priority"
CLASS_COMMON = "common"


@dataclass(slots=True)
class TxRecord:
    """Lifecycle of one transaction: `tx_class` is CLASS_PRIORITY for a
    flagged one, else CLASS_COMMON. The ledger leaves `promoted_at` None;
    only the engine, which applies the aging rule, sets it."""

    id: int
    tx_class: str
    issued_at: float
    parents: tuple[int, ...]
    confirmed_at: float | None = None
    promoted_at: float | None = None


class PriorityView(Sequence[int]):
    """A read-only id sequence over two of the ledger's id-sorted lists (see
    `TangleLedger.priority_candidates`); it copies neither and is valid until
    the next ledger mutation. Construction, `len` and integer indexing are
    O(1), and it compares equal to the list it stands for."""

    __slots__ = ("_head", "_split", "_tail", "_lo", "_len")

    def __init__(self, head: list[int], split: int, tail: list[int], lo: int, hi: int) -> None:
        self._head = head
        self._split = split
        self._tail = tail
        self._lo = lo
        self._len = split + hi - lo

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._len
        if 0 <= i < self._split:
            return self._head[i]
        if self._split <= i < self._len:
            return self._tail[self._lo + i - self._split]
        raise IndexError("priority view index out of range")

    def __iter__(self) -> Iterator[int]:
        head = islice(self._head, self._split)
        if self._len == self._split:
            return head
        tail = islice(self._tail, self._lo, self._lo + self._len - self._split)
        return chain(head, tail) if self._split else tail

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, PriorityView)):
            return list(self) == list(other)
        return NotImplemented


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

    def __len__(self) -> int:
        return len(self._parents)

    def __contains__(self, tx_id: int) -> bool:
        return 0 <= tx_id < len(self._parents)

    def _check_known(self, tx_id: int) -> None:
        if tx_id not in self:
            raise UnknownTransaction(f"transaction {tx_id} does not exist")

    def transaction(self, tx_id: int) -> TxRecord:
        """A snapshot of one transaction's stored state; `promoted_at` is None."""
        self._check_known(tx_id)
        return TxRecord(
            tx_id,
            CLASS_PRIORITY if self._flag[tx_id] else CLASS_COMMON,
            self._issued[tx_id],
            self._parents[tx_id],
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

    def tip_count(self) -> int:
        """Number of transactions not yet approved by any other transaction."""
        return len(self._tips)

    def weight(self, tx_id: int) -> int:
        """The stored cumulative weight of `tx_id`: 1 + the number of distinct
        transactions approving it transitively. Exact while `tx_id` is
        unconfirmed; once it confirms, the value stops growing."""
        self._check_known(tx_id)
        return self._weight[tx_id]

    # -- selection support -------------------------------------------------

    def visible_count(self, cutoff: float) -> int:
        """Number of transactions with issued_at <= cutoff (a prefix, since
        insertion order is time order)."""
        return bisect_right(self._issued, cutoff)

    def priority_candidates(self, visible: int, aged: int) -> PriorityView:
        """Unconfirmed transactions among the first `visible` that are flagged
        or among the first `aged` (at most `visible`), in id order: the
        unconfirmed ids below `aged` (the view's head segment), then the
        flagged ones from `aged` up to `visible`."""
        unconfirmed, flagged = self._unconfirmed, self._flagged
        return PriorityView(
            unconfirmed,
            bisect_left(unconfirmed, aged),
            flagged,
            bisect_left(flagged, aged),
            bisect_left(flagged, visible),
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
