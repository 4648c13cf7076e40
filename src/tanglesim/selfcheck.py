"""Built-in oracle self-check backing the CLI `self-check` command.

Rebuilds randomized DAGs through the ledger and compares its incremental
cumulative weights against the brute-force oracle, then exercises the
priority-selection branch table exhaustively.
"""

from __future__ import annotations

import random

from tanglesim.ledger import TangleLedger
from tanglesim.oracle import brute_force_cumulative_weights, brute_force_tips, random_dag
from tanglesim.selection import (
    BRANCH_P0,
    BRANCH_P1,
    BRANCH_P2,
    EmptyCandidates,
    SelectionCandidates,
    select_ptsa,
)

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
        ledger = TangleLedger()
        for ps in parents[1:]:
            ledger.add_transaction(list(ps), float(len(ledger)))
        if fault_inject:
            # test-only hook: corrupt one maintained weight (no sweep ran,
            # so every stored weight is still maintained)
            ledger._weight[rng.randrange(size)] += 1
        expected = brute_force_cumulative_weights(parents)
        actual = {i: ledger.cumulative_weight(i) for i in range(size)}
        if actual != expected:
            bad = sorted(i for i in expected if actual[i] != expected[i])
            print(f"FAIL cumulative-weight oracle: trial {trial}, nodes {bad}")
            print(f"  dag edges: {_format_edges(parents)}")
            return False
        if ledger.tips() != brute_force_tips(parents):
            print(f"FAIL tip-set oracle: trial {trial}")
            print(f"  dag edges: {_format_edges(parents)}")
            return False
    print(f"PASS cumulative-weight oracle ({ORACLE_TRIALS} random DAGs)")
    return True


BRANCH_TABLE_P = (0, 1, 2, 5)
BRANCH_TABLE_COMMON = (0, 1, 2, 10)


def branch_case_error(p: int, n_common: int, rng: random.Random) -> str | None:
    """What `select_ptsa` gets wrong with p priority candidates (ids 100..)
    and n_common common tips (ids 200..), or None if the branch, arity,
    priority and common-tip inclusion and distinctness all hold."""
    common = list(range(200, 200 + n_common))
    candidates = SelectionCandidates(
        priority=list(range(100, 100 + p)),
        common=common,
        tips=common,
        newest_non_tip=99,
    )
    if p == 0 and n_common == 0:
        try:
            select_ptsa(candidates, rng)
        except EmptyCandidates:
            return None
        return "must be empty"
    result = select_ptsa(candidates, rng)
    parents = result.parents
    expect_branch = {0: BRANCH_P0, 1: BRANCH_P1}.get(p, BRANCH_P2)
    expect_arity = 3 if p >= 2 and n_common >= 1 else 2
    if (
        result.branch != expect_branch
        or len(parents) != expect_arity
        or len(set(parents)) != len(parents)
        or sum(1 for x in parents if 100 <= x < 200) != min(p, 2)
        or (p >= 1 and n_common >= 1 and sum(1 for x in parents if x >= 200) != 1)
    ):
        return f"got branch={result.branch} parents={parents}"
    return None


def check_branch_table() -> bool:
    """Exhaustive branch/arity table over p x |common| combinations."""
    rng = random.Random(1)
    ok = True
    for p in BRANCH_TABLE_P:
        for n_common in BRANCH_TABLE_COMMON:
            error = branch_case_error(p, n_common, rng)
            if error:
                print(f"FAIL branch table: p={p}, common={n_common}, {error}")
                ok = False
    if ok:
        print("PASS branch table (p x common exhaustive)")
    return ok


def run_self_check(fault_inject: bool = False) -> bool:
    ok = check_cumulative_weights(fault_inject=fault_inject)
    ok = check_branch_table() and ok
    return ok
