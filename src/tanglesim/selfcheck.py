"""Built-in oracle self-check backing the CLI `self-check` command.

Rebuilds randomized DAGs through the ledger and compares its incremental
cumulative weights against the brute-force oracle, then exercises the
priority-selection branch table exhaustively.
"""

from __future__ import annotations

import random
import sys
from typing import TextIO

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

DEFAULT_TRIALS = 100
DEFAULT_MAX_SIZE = 200
ORACLE_SEED = 20240917


def _format_edges(parents: list[tuple[int, ...]]) -> str:
    edges = [
        f"{child}->{parent}"
        for child, ps in enumerate(parents)
        for parent in ps
    ]
    return " ".join(edges)


def check_cumulative_weights(
    trials: int = DEFAULT_TRIALS,
    max_size: int = DEFAULT_MAX_SIZE,
    seed: int = ORACLE_SEED,
    fault_inject: bool = False,
    stream: TextIO | None = None,
) -> bool:
    """Incremental CW == brute-force reverse-reachability on random DAGs."""
    stream = stream or sys.stdout
    rng = random.Random(seed)
    for trial in range(trials):
        size = rng.randint(2, max_size)
        parents = random_dag(rng, size)
        ledger = TangleLedger()
        for ps in parents[1:]:
            ledger.add_transaction(list(ps), float(len(ledger)))
        if fault_inject:
            # test-only hook: corrupt one maintained weight (no sweep ran,
            # so every transaction is still in the frontier)
            ledger._frontier[rng.randrange(size)] += 1
        expected = brute_force_cumulative_weights(parents)
        actual = {i: ledger.cumulative_weight(i) for i in range(size)}
        if actual != expected:
            bad = sorted(i for i in expected if actual[i] != expected[i])
            print(
                f"FAIL cumulative-weight oracle: trial {trial}, nodes {bad}",
                file=stream,
            )
            print(f"  dag edges: {_format_edges(parents)}", file=stream)
            return False
        if ledger.tips() != brute_force_tips(parents):
            print(f"FAIL tip-set oracle: trial {trial}", file=stream)
            print(f"  dag edges: {_format_edges(parents)}", file=stream)
            return False
    print(f"PASS cumulative-weight oracle ({trials} random DAGs)", file=stream)
    return True


def _synthetic_candidates(p: int, n_common: int) -> SelectionCandidates:
    priority = list(range(100, 100 + p))
    common = list(range(200, 200 + n_common))
    return SelectionCandidates(
        priority=priority,
        common=common,
        tips=common,
        newest_non_tip=99,
    )


def check_branch_table(stream: TextIO | None = None) -> bool:
    """Exhaustive branch/arity table over p x |common| combinations."""
    stream = stream or sys.stdout
    rng = random.Random(1)
    ok = True
    for p in (0, 1, 2, 5):
        for n_common in (0, 1, 2, 10):
            candidates = _synthetic_candidates(p, n_common)
            if p == 0 and n_common == 0:
                try:
                    select_ptsa(candidates, rng)
                except EmptyCandidates:
                    continue
                print("FAIL branch table: p=0, common=0 must be empty", file=stream)
                ok = False
                continue
            result = select_ptsa(candidates, rng)
            if p == 0:
                expect_branch, expect_arity = BRANCH_P0, 2
            elif p == 1:
                expect_branch, expect_arity = BRANCH_P1, 2
            else:
                expect_branch = BRANCH_P2
                expect_arity = 3 if n_common else 2
            n_priority = sum(1 for x in result.parents if x in set(candidates.priority))
            expect_priority = min(p, 2)
            if (
                result.branch != expect_branch
                or len(result.parents) != expect_arity
                or len(set(result.parents)) != len(result.parents)
                or n_priority != expect_priority
            ):
                print(
                    f"FAIL branch table: p={p}, common={n_common}, "
                    f"got branch={result.branch} parents={result.parents}",
                    file=stream,
                )
                ok = False
    if ok:
        print("PASS branch table (p x common exhaustive)", file=stream)
    return ok


def run_self_check(fault_inject: bool = False, stream: TextIO | None = None) -> bool:
    ok = check_cumulative_weights(fault_inject=fault_inject, stream=stream)
    ok = check_branch_table(stream=stream) and ok
    return ok
