"""Brute-force cross-checks for the incremental ledger bookkeeping.

Independent of the ledger internals: each brute-force reference reads only a
parents list. `brute_force_cumulative_weights` is the reference, deliberately
naive: plain-dict adjacency, one reverse BFS per node. `future_cones` is the fast
cone oracle, one reverse pass over int bitsets, for checks of ledgers too
large for per-node BFS; the tests check it against BFS.

`reference_pools` and `reference_run` are the executable statement of the
model, recomputed from scratch on every arrival. The engine must produce the
same columns on any config, so a change to the model is made here first.

`run_self_check` backs the CLI `self-check` command with these references:
it rebuilds randomized DAGs through the ledger and compares its incremental
cumulative weights and tips against the brute-force oracle, then exercises
the priority-selection branch table on every pool shape a ledger can hand out.
"""

from __future__ import annotations

import math
import random
from collections import deque
from types import SimpleNamespace

from tanglesim.engine import SimConfig, generate_workload
from tanglesim.ledger import MAX_PARENTS, TangleLedger
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
                    confirmed: dict[int, float], promoted: dict[int, float]) -> SimpleNamespace:
    """The pools of the first `visible` ids: priority (unconfirmed, and
    flagged or promoted), tips (approved by no visible id) and common (the
    tips not in priority)."""
    unapproved = brute_force_tips(parents[:visible])
    tips = [i for i in range(visible) if i in unapproved]
    priority = [i for i in range(visible) if i not in confirmed and (flags[i] or i in promoted)]
    common = [i for i in tips if i not in priority]
    return SimpleNamespace(priority=priority, common=common, tips=tips)


def reference_run(config: SimConfig) -> tuple[list, list, list, dict, dict]:
    """The ledger columns `run_simulation(config)` must end with, genesis
    included: `parents`, `flags`, `issued`, `confirmed_at`, `promoted_at`.
    Under ptsa each arrival first promotes the aged ids that are unconfirmed
    and unflagged; it attaches to the strategy's draw from the visible pools,
    which hold genesis from the start; then every id whose weight reaches
    theta confirms."""
    attach_rng = random.Random(f"{config.seed}|attach")
    select = select_uniform if config.strategy == "uniform" else select_ptsa
    parents, flags, issued = [()], [False], [0.0]
    confirmed, promoted = {}, {}  # id -> when it confirmed, or when aging promoted it
    for now, flag in generate_workload(config):
        visible = max(1, sum(t <= now - config.visibility_delay for t in issued))
        aged_cutoff = now - max(config.visibility_delay, config.aging_threshold)
        for i, t in enumerate(issued):
            if (config.aging_enabled and config.strategy == "ptsa" and t <= aged_cutoff
                    and i not in confirmed and not flags[i]):
                promoted.setdefault(i, now)
        chosen = select(reference_pools(parents, flags, visible, confirmed, promoted),
                        attach_rng).parents
        parents.append(tuple(sorted(set(chosen))))
        flags.append(flag)
        issued.append(now)
        for i, cone in enumerate(future_cones(parents)):
            if 1 + cone.bit_count() >= config.theta:
                confirmed.setdefault(i, now)
    return parents, flags, issued, confirmed, promoted


ORACLE_TRIALS = 100
ORACLE_MAX_SIZE = 200
ORACLE_SEED = 20240917


def _format_edges(parents: list[tuple[int, ...]]) -> str:
    edges = [
        f"{child}->{parent}"
        for child, ps in enumerate(parents)
        for parent in ps
    ]
    return " ".join(edges)


def check_cumulative_weights() -> bool:
    """Incremental CW == brute-force reverse-reachability on random DAGs."""
    rng = random.Random(ORACLE_SEED)
    for trial in range(ORACLE_TRIALS):
        size = rng.randint(2, ORACLE_MAX_SIZE)
        parents = random_dag(rng, size)
        ledger = TangleLedger(theta=1)  # never swept, so theta is unused
        for ps in parents[1:]:
            ledger.add_transaction(list(ps), float(len(ledger)))
        expected = brute_force_cumulative_weights(parents)
        actual = dict(enumerate(ledger.weight))
        if actual != expected:
            bad = sorted(i for i in expected if actual[i] != expected[i])
            print(f"FAIL cumulative-weight oracle: trial {trial}, nodes {bad}")
            print(f"  dag edges: {_format_edges(parents)}")
            return False
        ledger.reveal(math.inf)
        if ledger.tips != sorted(brute_force_tips(parents)):
            print(f"FAIL tip-set oracle: trial {trial}")
            print(f"  dag edges: {_format_edges(parents)}")
            return False
    print(f"PASS cumulative-weight oracle ({ORACLE_TRIALS} random DAGs)")
    return True


# (p, |common|) for every shape a ranked ledger's pools can take: they always
# hold genesis, so p = 0 comes with a common tip
BRANCH_TABLE = tuple((p, c) for p in (0, 1, 2, 5) for c in (0, 1, 2, 10) if p or c)


def branch_case_error(p: int, n_common: int, rng: random.Random) -> str | None:
    """What `select_ptsa` gets wrong with p priority candidates (ids 100..)
    and n_common common tips (ids 200..), or None. The parents fix the branch
    by pool membership: min(p, 2) priority ids, one common tip when p >= 1
    has one to take, all distinct, and three of them only when p >= 2 does."""
    priority, common = list(range(100, 100 + p)), list(range(200, 200 + n_common))
    parents = select_ptsa(SimpleNamespace(priority=priority, common=common, tips=[]), rng).parents
    expect_arity = 3 if p >= 2 and n_common >= 1 else 2
    if (
        len(parents) != expect_arity
        or len(set(parents)) != len(parents)
        or sum(1 for x in parents if x in priority) != min(p, 2)
        or (p >= 1 and n_common >= 1 and sum(1 for x in parents if x in common) != 1)
    ):
        return f"got parents={parents}"
    return None


def check_branch_table() -> bool:
    """Branch/arity table over every shape in BRANCH_TABLE."""
    rng = random.Random(1)
    ok = True
    for p, n_common in BRANCH_TABLE:
        error = branch_case_error(p, n_common, rng)
        if error:
            print(f"FAIL branch table: p={p}, common={n_common}, {error}")
            ok = False
    if ok:
        print(f"PASS branch table ({len(BRANCH_TABLE)} p x common shapes)")
    return ok


def run_self_check() -> bool:
    ok = check_cumulative_weights()
    ok = check_branch_table() and ok
    return ok
