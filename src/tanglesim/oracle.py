"""Brute-force cross-checks for the incremental ledger bookkeeping.

Independent of the ledger internals: each check reads only a parents
list. `brute_force_cumulative_weights` is the reference, deliberately naive:
plain-dict adjacency, one reverse BFS per node. `future_cones` is the fast
cone oracle, one reverse pass over int bitsets, for checks of ledgers too
large for per-node BFS; the tests check it against BFS.

`reference_pools` and `reference_run` are the executable statement of the
model, recomputed from scratch on every arrival. The engine must produce the
same records on any config, so a change to the model is made here first.
"""

from __future__ import annotations

import random
from collections import deque

from tanglesim.engine import SimConfig, generate_workload
from tanglesim.ledger import CLASS_COMMON, CLASS_PRIORITY, MAX_PARENTS, SelectionCandidates, TxRecord
from tanglesim.selection import select_ptsa, select_uniform


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


def reference_pools(parents: list[tuple[int, ...]], flags: list[bool], visible: int,
                    confirmed: dict[int, float], promoted: dict[int, float]) -> SelectionCandidates:
    """The pools of the first `visible` ids: priority (unconfirmed, and
    flagged or promoted), tips (approved by no visible id) and common (the
    tips not in priority)."""
    unapproved = brute_force_tips(parents[:visible])
    tips = [i for i in range(visible) if i in unapproved]
    priority = [i for i in range(visible) if i not in confirmed and (flags[i] or i in promoted)]
    return SelectionCandidates(priority, [i for i in tips if i not in priority], tips)


def reference_run(config: SimConfig) -> list[TxRecord]:
    """The records `run_simulation(config)` must return. Each arrival first
    promotes the aged ids that are unconfirmed and unflagged, then attaches
    to the strategy's draw from the visible pools, which hold genesis from
    the start; then every id whose weight reaches theta confirms."""
    attach_rng = random.Random(f"{config.seed}|attach")
    select = select_uniform if config.strategy == "uniform" else select_ptsa
    parents, flags, issued = [()], [False], [0.0]
    confirmed, promoted = {}, {}  # id -> when it confirmed, or when aging promoted it
    for now, flag in generate_workload(config):
        visible = max(1, sum(t <= now - config.visibility_delay for t in issued))
        aged_cutoff = now - max(config.visibility_delay, config.aging_threshold)
        for i, t in enumerate(issued):
            if config.aging_enabled and t <= aged_cutoff and i not in confirmed and not flags[i]:
                promoted.setdefault(i, now)
        chosen = select(reference_pools(parents, flags, visible, confirmed, promoted),
                        attach_rng).parents
        parents.append(tuple(sorted(set(chosen))))
        flags.append(flag)
        issued.append(now)
        for i, cone in enumerate(future_cones(parents)):
            if 1 + cone.bit_count() >= config.theta:
                confirmed.setdefault(i, now)
    return [TxRecord(i, CLASS_PRIORITY if flags[i] else CLASS_COMMON, issued[i], parents[i],
                     confirmed.get(i), promoted.get(i)) for i in range(1, len(parents))]
