"""Built-in oracle self-check backing the CLI `self-check` command.

Rebuilds randomized DAGs through the ledger and compares its incremental
cumulative weights against the brute-force oracle, then exercises the
priority-selection branch table on every pool shape a ledger can hand out.
"""

from __future__ import annotations

import math
import random

from tanglesim.ledger import SelectionCandidates, TangleLedger
from tanglesim.oracle import brute_force_cumulative_weights, brute_force_tips, random_dag
from tanglesim.selection import select_ptsa

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


def check_cumulative_weights(fault_inject: bool = False) -> bool:
    """Incremental CW == brute-force reverse-reachability on random DAGs."""
    rng = random.Random(ORACLE_SEED)
    for trial in range(ORACLE_TRIALS):
        size = rng.randint(2, ORACLE_MAX_SIZE)
        parents = random_dag(rng, size)
        ledger = TangleLedger(theta=1)  # never swept, so theta is unused
        for ps in parents[1:]:
            ledger.add_transaction(list(ps), float(len(ledger)))
        if fault_inject:
            # test-only hook: corrupt one maintained weight (no sweep ran,
            # so every stored weight is still maintained)
            ledger._weight[rng.randrange(size)] += 1
        expected = brute_force_cumulative_weights(parents)
        actual = dict(enumerate(ledger.weights()))
        if actual != expected:
            bad = sorted(i for i in expected if actual[i] != expected[i])
            print(f"FAIL cumulative-weight oracle: trial {trial}, nodes {bad}")
            print(f"  dag edges: {_format_edges(parents)}")
            return False
        ledger.reveal(math.inf)
        if ledger.pools.tips != sorted(brute_force_tips(parents)):
            print(f"FAIL tip-set oracle: trial {trial}")
            print(f"  dag edges: {_format_edges(parents)}")
            return False
    print(f"PASS cumulative-weight oracle ({ORACLE_TRIALS} random DAGs)")
    return True


# (p, |common|) for every shape a ledger's pools can take: they always hold
# genesis, so p = 0 comes with a common tip
BRANCH_TABLE = tuple((p, c) for p in (0, 1, 2, 5) for c in (0, 1, 2, 10) if p or c)


def branch_case_error(p: int, n_common: int, rng: random.Random) -> str | None:
    """What `select_ptsa` gets wrong with p priority candidates (ids 100..)
    and n_common common tips (ids 200..), or None. The parents fix the branch
    by pool membership: min(p, 2) priority ids, one common tip when p >= 1
    has one to take, all distinct, and three of them only when p >= 2 does."""
    common = list(range(200, 200 + n_common))
    candidates = SelectionCandidates(
        priority=list(range(100, 100 + p)),
        common=common,
        tips=common,
    )
    parents = select_ptsa(candidates, rng).parents
    expect_arity = 3 if p >= 2 and n_common >= 1 else 2
    if (
        len(parents) != expect_arity
        or len(set(parents)) != len(parents)
        or sum(1 for x in parents if x in candidates.priority) != min(p, 2)
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


def run_self_check(fault_inject: bool = False) -> bool:
    ok = check_cumulative_weights(fault_inject=fault_inject)
    ok = check_branch_table() and ok
    return ok
