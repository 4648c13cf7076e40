import dataclasses
import json

import pytest

from tanglesim.engine import SimConfig, SimTrace, TxRecord, paired_runs, run_simulation
from tanglesim.metrics import (
    WorkloadMismatch,
    class_stats,
    compare,
    export_csv,
    export_json,
    trace_summary,
)

CONFIG = SimConfig(horizon=60.0)


def fixture_trace():
    """Five hand-built records with known confirmation times."""
    records = [
        TxRecord(1, "priority", 0.5, (0,), confirmed_at=1.5),       # latency 1.0
        TxRecord(2, "priority", 1.0, (0, 1), confirmed_at=3.0),     # latency 2.0
        TxRecord(3, "common", 2.0, (1, 2), confirmed_at=5.0),       # latency 3.0
        TxRecord(4, "priority", 3.0, (2, 3), confirmed_at=7.0),     # latency 4.0
        TxRecord(5, "common", 4.0, (3, 4)),                         # unconfirmed
    ]
    return SimTrace(CONFIG, records, [(r.issued_at, 1) for r in records])


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
        trace = SimTrace(CONFIG, [], [])
        stats = class_stats(trace, "priority")
        assert stats.issued == 0
        assert stats.confirmed == 0
        assert stats.unconfirmed_fraction == 0.0
        assert stats.mean_latency is None
        assert stats.median_latency is None
        assert stats.p95_latency is None

    def test_hand_computed_fixture(self):
        stats = class_stats(fixture_trace(), "priority")
        assert stats.issued == 3
        assert stats.confirmed == 3
        assert stats.mean_latency == pytest.approx(7.0 / 3.0)
        assert stats.median_latency == pytest.approx(2.0)
        assert stats.p95_latency == pytest.approx(4.0)  # nearest rank
        assert stats.unconfirmed_fraction == 0.0

    def test_censoring(self):
        stats = class_stats(fixture_trace(), "common")
        assert stats.issued == 2
        assert stats.confirmed == 1
        assert stats.mean_latency == pytest.approx(3.0)
        assert stats.unconfirmed_fraction == pytest.approx(0.5)

    def test_theta_one_latencies_zero(self):
        trace = run_simulation(dataclasses.replace(CONFIG, theta=1))
        for cls in ("priority", "common"):
            stats = class_stats(trace, cls)
            if stats.confirmed:
                assert stats.mean_latency == 0.0
                assert stats.p95_latency == 0.0

    def test_classes_partition_records(self):
        trace = run_simulation(CONFIG)
        total = sum(class_stats(trace, c).issued for c in ("priority", "common"))
        assert total == len(trace.records)


class TestCompare:
    def test_identical_traces_give_zero_deltas(self):
        trace = run_simulation(CONFIG)
        report = compare(trace, trace)
        assert report.latency_reduction == 0.0
        assert report.starvation_delta == 0.0

    def test_mismatched_workloads_rejected(self):
        a = run_simulation(CONFIG)
        b = run_simulation(dataclasses.replace(CONFIG, seed=CONFIG.seed + 1))
        with pytest.raises(WorkloadMismatch):
            compare(a, b)

    def test_paired_report_fields(self):
        uniform_trace, ptsa_trace = paired_runs(CONFIG)
        report = compare(uniform_trace, ptsa_trace)
        mean_u = report.uniform["priority"].mean_latency
        mean_p = report.ptsa["priority"].mean_latency
        assert report.latency_reduction == pytest.approx((mean_u - mean_p) / mean_u)
        assert report.starvation_delta == pytest.approx(
            report.ptsa["common"].unconfirmed_fraction
            - report.uniform["common"].unconfirmed_fraction
        )


class TestCsvExport:
    def test_genesis_only_trace_is_header_only(self, tmp_path):
        trace = SimTrace(CONFIG, [], [])
        path = tmp_path / "trace.csv"
        export_csv(trace, path)
        assert path.read_text() == "id,class,issued_at,confirmed_at,latency,parents\n"

    def test_golden_fixture(self, tmp_path):
        path = tmp_path / "trace.csv"
        export_csv(fixture_trace(), path)
        assert path.read_text() == GOLDEN_CSV

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
        export_json(report.to_dict(), path)
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
        assert data["latency_reduction"] == round(report.latency_reduction, 6)

    def test_summary_shape(self):
        trace = run_simulation(CONFIG)
        summary = trace_summary(trace)
        assert summary["records"] == len(trace.records)
        assert summary["config"] == CONFIG.to_dict()
        assert set(summary["stats"]) == {"priority", "common"}
