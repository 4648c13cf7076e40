"""Brute-force cross-checks for the incremental ledger bookkeeping.

Independent of the ledger internals: each check reads only a parents
list. `brute_force_cumulative_weights` is the reference, deliberately naive:
plain-dict adjacency, one reverse BFS per node. `future_cones` is the fast
cone oracle, one reverse pass over int bitsets, for checks of ledgers too
large for per-node BFS; the tests check it against BFS.
"""

from __future__ import annotations

import random
from collections import deque

from tanglesim.ledger import MAX_PARENTS


def random_dag(rng: random.Random, size: int) -> list[tuple[int, ...]]:
    """Parents per node for a random DAG; node 0 is the parentless genesis."""
    parents: list[tuple[int, ...]] = [()]
    for i in range(1, size):
        k = rng.randint(1, min(MAX_PARENTS, i))
        parents.append(tuple(sorted(rng.sample(range(i), k))))
    return parents


def brute_force_cumulative_weights(
    parents: list[tuple[int, ...]]
) -> dict[int, int]:
    """1 + reverse-reachability count for every node, by per-node BFS."""
    approvers: dict[int, list[int]] = {i: [] for i in range(len(parents))}
    for child, ps in enumerate(parents):
        for p in set(ps):
            approvers[p].append(child)

    weights: dict[int, int] = {}
    for node in range(len(parents)):
        seen = {node}
        queue = deque([node])
        while queue:
            for nxt in approvers[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        weights[node] = len(seen)
    return weights


def future_cones(parents: list[tuple[int, ...]]) -> list[int]:
    """Bit j of entry i is set iff j reaches i along parent edges (j != i).
    Every parent must precede its child, as in a ledger's id order."""
    future = [0] * len(parents)
    for i in range(len(parents) - 1, -1, -1):
        for p in parents[i]:
            future[p] |= future[i] | (1 << i)
    return future


def brute_force_tips(parents: list[tuple[int, ...]]) -> set[int]:
    """Nodes no other node references."""
    referenced = {p for ps in parents for p in ps}
    return set(range(len(parents))) - referenced
