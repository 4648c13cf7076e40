"""Append-only DAG ledger with incremental cumulative-weight maintenance.

Transaction ids are insertion ordinals starting at 0 (the genesis), so id
order equals issue-time order. Each transaction's state is stored once, in
per-field lists indexed by id.

A transaction confirms once its cumulative weight reaches the threshold.
Every ancestor of a transaction outweighs it, so a sweep that confirms a
transaction confirms its unconfirmed ancestors too, and the confirmed set is
closed under ancestry. An arrival therefore changes the weight of its
unconfirmed ancestors only: the ledger keeps the exact weights of the
unconfirmed frontier, and an insertion walks parent edges from the new
transaction and stops at confirmed ones. Past and future cones, and the
weight of a confirmed transaction, are audit queries answered from int
bitsets built on first use and dropped by the next insertion.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count

MAX_PARENTS = 8

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
    """Issue time earlier than an already-stored transaction."""


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
    """The DAG store: transactions, approver adjacency, tips, confirmation."""

    def __init__(self) -> None:
        # genesis: no parents, issued at time 0, common class
        self.genesis = 0
        self._parents: list[tuple[int, ...]] = [()]
        self._issued: list[float] = [0.0]
        self._flag: list[bool] = [False]
        self.approvers: list[set[int]] = [set()]
        self.tip_set: set[int] = {0}
        # unconfirmed id -> cumulative weight, in id order; confirmed ids leave
        self._frontier: dict[int, int] = {0: 1}
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
        for p in parents:
            if p not in self:
                raise UnknownParent(f"parent {p} does not exist")
        last = self._issued[-1]
        if issued_at < last:
            raise TimeRegression(
                f"issued_at {issued_at} precedes stored time {last}"
            )

        distinct = tuple(sorted(set(parents)))
        new_id = len(self._parents)
        self._parents.append(distinct)
        self._issued.append(issued_at)
        self._flag.append(priority_flag)
        self.approvers.append(set())
        self.tip_set.add(new_id)
        self._cones = None
        for p in distinct:
            self.approvers[p].add(new_id)
            self.tip_set.discard(p)

        # every distinct unconfirmed ancestor gains one approving descendant;
        # confirmed ancestors have only confirmed ancestors, so the walk stops there
        frontier = self._frontier
        frontier[new_id] = 1
        stack = [p for p in distinct if p in frontier]
        seen = set(stack)
        while stack:
            i = stack.pop()
            frontier[i] += 1
            for p in self._parents[i]:
                if p in frontier and p not in seen:
                    seen.add(p)
                    stack.append(p)
        return new_id

    def confirmation_sweep(self, theta: int, now: float) -> set[int]:
        """Confirm every transaction whose cumulative weight reached `theta`.

        Returns the newly confirmed ids; idempotent at a fixed instant.
        """
        newly = {i for i, weight in self._frontier.items() if weight >= theta}
        for i in newly:
            del self._frontier[i]
            self._confirmed_at[i] = now
        return newly

    # -- queries ----------------------------------------------------------

    def tips(self) -> set[int]:
        """Transactions not yet approved by any other transaction."""
        return set(self.tip_set)

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
                for a in self.approvers[i]:
                    future[i] |= future[a] | (1 << a)
            self._cones = past, future
        return self._cones

    def cumulative_weight(self, tx_id: int) -> int:
        """1 + number of distinct transactions approving `tx_id` transitively."""
        self._check_known(tx_id)
        if tx_id in self._frontier:
            return self._frontier[tx_id]
        return 1 + self._cone_bits()[1][tx_id].bit_count()

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

    def priority_candidates(
        self, visible: int, promote_before: float | None
    ) -> list[int]:
        """Unconfirmed transactions among the first `visible` whose flag is
        set, or whose issue time is at or before `promote_before`."""
        cutoff = -math.inf if promote_before is None else promote_before
        flag, issued = self._flag, self._issued
        return [
            i for i in self._frontier if i < visible and (flag[i] or issued[i] <= cutoff)
        ]

    def newest_non_tip(self, visible: int) -> int | None:
        """Most recently issued non-tip among the first `visible`, if any."""
        for i in range(visible - 1, -1, -1):
            if i not in self.tip_set:
                return i
        return None
