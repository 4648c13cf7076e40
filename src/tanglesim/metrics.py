"""Per-class confirmation statistics and trace/report serialization."""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from tanglesim.engine import CLASS_COMMON, CLASS_PRIORITY, SimConfig, SimTrace

CSV_COLUMNS = ("id", "class", "issued_at", "confirmed_at", "latency", "parents")


class WorkloadMismatch(ValueError):
    """The two traces do not share the same arrival sequence."""


@dataclass
class ClassStats:
    tx_class: str
    issued: int
    confirmed: int
    mean_latency: float | None
    median_latency: float | None
    p95_latency: float | None
    unconfirmed_fraction: float

    def to_dict(self) -> dict:
        return {
            "class": self.tx_class,
            "issued": self.issued,
            "confirmed": self.confirmed,
            "mean_latency": _round6(self.mean_latency),
            "median_latency": _round6(self.median_latency),
            "p95_latency": _round6(self.p95_latency),
            "unconfirmed_fraction": _round6(self.unconfirmed_fraction),
        }


@dataclass
class ComparisonReport:
    config: SimConfig
    uniform: dict[str, ClassStats]
    ptsa: dict[str, ClassStats]
    latency_reduction: float | None
    starvation_delta: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "uniform": {c: s.to_dict() for c, s in self.uniform.items()},
            "ptsa": {c: s.to_dict() for c, s in self.ptsa.items()},
            "latency_reduction": _round6(self.latency_reduction),
            "starvation_delta": _round6(self.starvation_delta),
        }


def _round6(value: float | None) -> float | None:
    if value is None:
        return None
    return round(value, 6)


def _nearest_rank_p95(sorted_latencies: list[float]) -> float:
    rank = math.ceil(0.95 * len(sorted_latencies))
    return sorted_latencies[rank - 1]


def class_stats(trace: SimTrace, tx_class: str) -> ClassStats:
    """Confirmation statistics over one class; unconfirmed transactions are
    censored out of the latency quantiles."""
    recs = [r for r in trace.records if r.tx_class == tx_class]
    latencies = sorted(
        r.confirmed_at - r.issued_at for r in recs if r.confirmed_at is not None
    )
    issued = len(recs)
    confirmed = len(latencies)
    if latencies:
        mean = statistics.fmean(latencies)
        median = statistics.median(latencies)
        p95 = _nearest_rank_p95(latencies)
    else:
        mean = median = p95 = None
    fraction = 1.0 - confirmed / issued if issued else 0.0
    return ClassStats(tx_class, issued, confirmed, mean, median, p95, fraction)


def compare(uniform_trace: SimTrace, ptsa_trace: SimTrace) -> ComparisonReport:
    """Build the strategy comparison from one paired run."""
    u_workload = [(r.issued_at, r.tx_class) for r in uniform_trace.records]
    p_workload = [(r.issued_at, r.tx_class) for r in ptsa_trace.records]
    if u_workload != p_workload:
        raise WorkloadMismatch("traces carry different arrival sequences")

    uniform = {c: class_stats(uniform_trace, c) for c in (CLASS_PRIORITY, CLASS_COMMON)}
    ptsa = {c: class_stats(ptsa_trace, c) for c in (CLASS_PRIORITY, CLASS_COMMON)}

    mean_u = uniform[CLASS_PRIORITY].mean_latency
    mean_p = ptsa[CLASS_PRIORITY].mean_latency
    if mean_u is not None and mean_u > 0 and mean_p is not None:
        reduction = (mean_u - mean_p) / mean_u
    else:
        reduction = None
    starvation_delta = (
        ptsa[CLASS_COMMON].unconfirmed_fraction
        - uniform[CLASS_COMMON].unconfirmed_fraction
    )
    return ComparisonReport(ptsa_trace.config, uniform, ptsa, reduction, starvation_delta)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def export_csv(trace: SimTrace, destination: str | Path) -> None:
    """Write the per-transaction trace, one row per record in issue order."""
    with open(destination, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in trace.records:
            latency = "" if r.confirmed_at is None else _fmt(r.confirmed_at - r.issued_at)
            confirmed = "" if r.confirmed_at is None else _fmt(r.confirmed_at)
            writer.writerow(
                [
                    r.id,
                    r.tx_class,
                    _fmt(r.issued_at),
                    confirmed,
                    latency,
                    ";".join(str(p) for p in r.parents),
                ]
            )


def export_json(payload: dict, destination: str | Path) -> None:
    """Write a report or summary as indented JSON with a final newline."""
    with open(destination, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def trace_summary(trace: SimTrace) -> dict:
    """Single-trace summary used by the CLI's summary.json."""
    return {
        "config": trace.config.to_dict(),
        "records": len(trace.records),
        "stats": {
            c: class_stats(trace, c).to_dict()
            for c in (CLASS_PRIORITY, CLASS_COMMON)
        },
    }
