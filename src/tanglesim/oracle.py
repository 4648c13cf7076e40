"""Brute-force cross-checks for the incremental ledger bookkeeping.

Deliberately naive and independent of the ledger internals: plain-dict
adjacency, one reverse BFS per node.
"""

from __future__ import annotations

import random
from collections import deque

MAX_PARENTS = 8


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


def brute_force_tips(parents: list[tuple[int, ...]]) -> set[int]:
    """Nodes no other node references."""
    referenced = {p for ps in parents for p in ps}
    return set(range(len(parents))) - referenced
