import dataclasses
import json
import random

import pytest

from tanglesim.engine import SimConfig, SimTrace, paired_runs, run_simulation
from tanglesim.ledger import CLASSES, MAX_PARENTS, TangleLedger
from tanglesim.metrics import (
    _CSV_CHUNK,
    WorkloadMismatch,
    class_stats,
    compare,
    export_csv,
    export_json,
    trace_summary,
)

CONFIG = SimConfig(horizon=60.0)


def fixture_trace():
    """Five arrivals with known confirmation times: at θ = 1 every insertion
    is ripe, so each sweep confirms exactly the ids inserted since the last."""
    ledger = TangleLedger(1)
    ledger.add_transaction([0], 0.5, True)        # latency 1.0
    ledger.confirmation_sweep(1.5)                # confirms genesis and tx 1
    ledger.add_transaction([0, 1], 1.0, True)     # latency 2.0
    ledger.confirmation_sweep(3.0)
    ledger.add_transaction([1, 2], 2.0)           # latency 3.0
    ledger.confirmation_sweep(5.0)
    ledger.add_transaction([2, 3], 3.0, True)     # latency 4.0
    ledger.confirmation_sweep(7.0)
    ledger.add_transaction([3, 4], 4.0)           # unconfirmed: no sweep after it
    return SimTrace(CONFIG, ledger)


GOLDEN_CSV = """\
id,class,issued_at,confirmed_at,latency,parents
1,priority,0.500000,1.500000,1.000000,0
2,priority,1.000000,3.000000,2.000000,0;1
3,common,2.000000,5.000000,3.000000,1;2
4,priority,3.000000,7.000000,4.000000,2;3
5,common,4.000000,,,3;4
"""


class TestClassStats:
    def test_empty_class(self):
        trace = SimTrace(CONFIG, TangleLedger(8))
        stats = class_stats(trace, "priority")
        assert stats["issued"] == 0
        assert stats["confirmed"] == 0
        assert stats["unconfirmed_fraction"] == 0.0
        assert stats["mean_latency"] is None
        assert stats["median_latency"] is None
        assert stats["p95_latency"] is None

    def test_hand_computed_fixture(self):
        stats = class_stats(fixture_trace(), "priority")
        assert stats["issued"] == 3
        assert stats["confirmed"] == 3
        assert stats["mean_latency"] == pytest.approx(7.0 / 3.0)
        assert stats["median_latency"] == pytest.approx(2.0)
        assert stats["p95_latency"] == pytest.approx(4.0)  # nearest rank
        assert stats["unconfirmed_fraction"] == 0.0

    def test_censoring(self):
        stats = class_stats(fixture_trace(), "common")
        assert stats["issued"] == 2
        assert stats["confirmed"] == 1
        assert stats["mean_latency"] == pytest.approx(3.0)
        assert stats["unconfirmed_fraction"] == pytest.approx(0.5)

    def test_theta_one_latencies_zero(self):
        trace = run_simulation(dataclasses.replace(CONFIG, theta=1))
        for cls in ("priority", "common"):
            stats = class_stats(trace, cls)
            if stats["confirmed"]:
                assert stats["mean_latency"] == 0.0
                assert stats["p95_latency"] == 0.0

    def test_classes_partition_records(self):
        trace = run_simulation(CONFIG)
        total = sum(class_stats(trace, c)["issued"] for c in ("priority", "common"))
        assert total == len(trace.records)


class TestCompare:
    def test_identical_traces_give_zero_deltas(self):
        trace = run_simulation(CONFIG)
        report = compare(trace, trace)
        assert report["latency_reduction"] == 0.0
        assert report["starvation_delta"] == 0.0

    def test_mismatched_workloads_rejected(self):
        a = run_simulation(CONFIG)
        b = run_simulation(dataclasses.replace(CONFIG, seed=CONFIG.seed + 1))
        with pytest.raises(WorkloadMismatch):
            compare(a, b)

    def test_paired_report_fields(self):
        uniform_trace, ptsa_trace = paired_runs(CONFIG)
        report = compare(uniform_trace, ptsa_trace)
        mean_u = report["uniform"]["priority"]["mean_latency"]
        mean_p = report["ptsa"]["priority"]["mean_latency"]
        assert report["latency_reduction"] == pytest.approx((mean_u - mean_p) / mean_u)
        assert report["starvation_delta"] == pytest.approx(
            report["ptsa"]["common"]["unconfirmed_fraction"]
            - report["uniform"]["common"]["unconfirmed_fraction"]
        )


class TestCsvExport:
    def test_genesis_only_trace_is_header_only(self, tmp_path):
        trace = SimTrace(CONFIG, TangleLedger(8))
        path = tmp_path / "trace.csv"
        export_csv(trace, path)
        assert path.read_text() == "id,class,issued_at,confirmed_at,latency,parents\n"

    def test_golden_fixture(self, tmp_path):
        path = tmp_path / "trace.csv"
        export_csv(fixture_trace(), path)
        assert path.read_text() == GOLDEN_CSV

    def test_rows_equal_f_string_formatting(self, tmp_path):
        # every parent count, confirmed and unconfirmed rows (the last
        # 2 * MAX_PARENTS arrivals get no sweep), and more rows than one
        # written chunk holds
        ledger, rng = TangleLedger(8), random.Random(5)
        t, n = 0.0, 2 * _CSV_CHUNK + 100
        for i in range(1, n):
            t += rng.expovariate(40.0)
            parents = rng.sample(range(max(0, i - 12), i), min(1 + i % MAX_PARENTS, i))
            ledger.add_transaction(parents, t, rng.random() < 0.3)
            if i < n - 2 * MAX_PARENTS:
                ledger.confirmation_sweep(t + rng.random())
        rows = []
        for i in range(1, len(ledger)):
            t, c, parents = ledger.issued[i], ledger.confirmed_at.get(i), ledger.parents[i]
            times = f"{t:.6f},," if c is None else f"{t:.6f},{c:.6f},{c - t:.6f}"
            rows.append(f"{i},{CLASSES[ledger.flags[i]]},{times},{';'.join(map(str, parents))}\n")
        kinds = {(len(p), i in ledger.confirmed_at) for i, p in enumerate(ledger.parents) if i}
        assert kinds == {(k, c) for k in range(1, MAX_PARENTS + 1) for c in (False, True)}
        path = tmp_path / "trace.csv"
        export_csv(SimTrace(CONFIG, ledger), path)
        assert path.read_text() == "id,class,issued_at,confirmed_at,latency,parents\n" + "".join(rows)

    def test_re_export_identical_bytes(self, tmp_path):
        trace = run_simulation(CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(trace, a)
        export_csv(trace, b)
        assert a.read_bytes() == b.read_bytes()


class TestJsonExport:
    def test_report_shape_and_rounding(self, tmp_path):
        uniform_trace, ptsa_trace = paired_runs(CONFIG)
        report = compare(uniform_trace, ptsa_trace)
        path = tmp_path / "report.json"
        export_json(report, path)
        data = json.loads(path.read_text())
        assert set(data) == {
            "config",
            "uniform",
            "ptsa",
            "latency_reduction",
            "starvation_delta",
        }
        assert set(data["uniform"]) == {"priority", "common"}
        stats = data["ptsa"]["priority"]
        assert set(stats) == {
            "class",
            "issued",
            "confirmed",
            "mean_latency",
            "median_latency",
            "p95_latency",
            "unconfirmed_fraction",
        }
        assert data["latency_reduction"] == round(report["latency_reduction"], 6)

    def test_summary_shape(self):
        trace = run_simulation(CONFIG)
        summary = trace_summary(trace)
        assert summary["records"] == len(trace.records)
        assert summary["config"] == CONFIG.to_dict()
        assert set(summary["stats"]) == {"priority", "common"}
