"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria 3, 4, 6 and 7 share the ten paired reference-config runs
(lambda=10/s, rho=0.05, h=1s, theta=8, aging threshold 30s, horizon 300s).
"""

import dataclasses
import random
import time

import pytest

from tanglesim.cli import main
from tanglesim.engine import SimConfig, run_simulation_with_ledger
from tanglesim.ledger import TangleLedger
from tanglesim.metrics import class_stats, compare
from tanglesim.oracle import brute_force_cumulative_weights, random_dag
from tanglesim.selfcheck import check_branch_table

REFERENCE = SimConfig()  # the defaults are the reference experiment
N_SEEDS = 10


def report(criterion, passed):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed


@pytest.fixture(scope="module")
def reference_runs():
    """Ten paired runs of the reference config, with final ledgers."""
    runs = []
    for offset in range(N_SEEDS):
        config = dataclasses.replace(REFERENCE, seed=REFERENCE.seed + offset)
        u_trace, u_ledger = run_simulation_with_ledger(
            dataclasses.replace(config, strategy="uniform")
        )
        p_trace, p_ledger = run_simulation_with_ledger(
            dataclasses.replace(config, strategy="ptsa")
        )
        runs.append((u_trace, u_ledger, p_trace, p_ledger))
    return runs


def test_criterion_1_ptsa_branch_conformance():
    start = time.monotonic()
    ok = check_branch_table()
    ok &= time.monotonic() - start < 1.0
    report("criterion 1 (PTSA branch conformance)", ok)


def test_criterion_2_cumulative_weight_oracle():
    start = time.monotonic()
    rng = random.Random(777)
    ok = True
    for _ in range(100):
        parents = random_dag(rng, rng.randint(2, 200))
        ledger = TangleLedger()
        for ps in parents[1:]:
            ledger.add_transaction(list(ps), float(len(ledger)))
        expected = brute_force_cumulative_weights(parents)
        ok &= all(
            ledger.cumulative_weight(i) == expected[i] for i in range(len(parents))
        )
    ok &= time.monotonic() - start < 10.0
    report("criterion 2 (cumulative-weight oracle equivalence)", ok)


def test_criterion_3_priority_latency_ordering(reference_runs):
    wins = 0
    means_u, means_p = [], []
    for u_trace, _, p_trace, _ in reference_runs:
        mean_u = class_stats(u_trace, "priority").mean_latency
        mean_p = class_stats(p_trace, "priority").mean_latency
        means_u.append(mean_u)
        means_p.append(mean_p)
        if mean_p < mean_u:
            wins += 1
    reduction = (sum(means_u) - sum(means_p)) / sum(means_u)
    report(
        f"criterion 3 (priority latency ordering: wins={wins}/10, "
        f"reduction={reduction:.3f})",
        wins >= 9 and reduction >= 0.20,
    )


def test_criterion_4_no_starvation(reference_runs):
    ok = True
    for u_trace, _, p_trace, _ in reference_runs:
        delta = (
            class_stats(p_trace, "common").unconfirmed_fraction
            - class_stats(u_trace, "common").unconfirmed_fraction
        )
        ok &= delta <= 0.10
    report("criterion 4 (no starvation of common transactions)", ok)


def test_criterion_5_determinism(tmp_path):
    config_path = tmp_path / "config.yaml"
    main(["gen-config", "--out", str(config_path)])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["simulate", "--config", str(config_path), "--out", str(out_a)])
    code_b = main(["simulate", "--config", str(config_path), "--out", str(out_b)])
    ok = code_a == code_b == 0
    ok &= (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    ok &= (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    report("criterion 5 (byte-identical reruns)", ok)


def test_criterion_6_workload_isolation(reference_runs):
    ok = True
    for u_trace, _, p_trace, _ in reference_runs:
        u = [(r.issued_at, r.tx_class) for r in u_trace.records]
        p = [(r.issued_at, r.tx_class) for r in p_trace.records]
        ok &= u == p
        compare(u_trace, p_trace)  # must not raise WorkloadMismatch
    report("criterion 6 (workload isolation across strategies)", ok)


def test_criterion_7_ledger_invariants(reference_runs):
    ok = True
    theta = REFERENCE.theta
    for _, u_ledger, _, p_ledger in reference_runs:
        for ledger in (u_ledger, p_ledger):
            n = len(ledger)
            ok &= ledger.tips() == {i for i in range(n) if not ledger.approvers[i]}
            ok &= ledger.confirmed_set == {
                i for i in range(n) if ledger.cumulative_weight(i) >= theta
            }
            total_cw = sum(ledger.cumulative_weight(i) for i in range(n))
            total_cones = sum(1 + len(ledger.past_cone(i)) for i in range(n))
            ok &= total_cw == total_cones
    report("criterion 7 (ledger invariants after simulation)", ok)
