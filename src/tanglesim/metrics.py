"""Per-class confirmation statistics and trace/report serialization.

`class_stats`, `compare`, `aggregate` and `trace_summary` return plain
dicts of unrounded values. `export_json` writes every JSON output and rounds
once, there: each float outside the top-level `config` block to 6 places.
"""

from __future__ import annotations

import json
import math
from itertools import islice
from pathlib import Path

from tanglesim.engine import SimConfig, SimTrace
from tanglesim.ledger import CLASS_COMMON, CLASS_PRIORITY, CLASSES, MAX_PARENTS

CSV_COLUMNS = ("id", "class", "issued_at", "confirmed_at", "latency", "parents")
REPORT_CLASSES = (CLASS_PRIORITY, CLASS_COMMON)  # the report's key order

# A trace.csv row's `%` format, by confirmed (0 or 1) and parent count
# (1..MAX_PARENTS); `%d` and `%.6f` write what `str` and `:.6f` write
_ROW_FORMATS = tuple(
    (None,) + tuple(head + ";".join(["%d"] * n) + "\n" for n in range(1, MAX_PARENTS + 1))
    for head in ("%d,%s,%.6f,,,", "%d,%s,%.6f,%.6f,%.6f,")
)
_CSV_CHUNK = 1024  # rows joined per write: the memory export_csv holds is fixed


class WorkloadMismatch(ValueError):
    """The two traces do not share the same arrival sequence."""


def class_stats(trace: SimTrace, tx_class: str) -> dict:
    """Confirmation statistics over one class, CLASS_PRIORITY or
    CLASS_COMMON, unrounded; unconfirmed transactions are censored out of the
    latency quantiles."""
    ledger, flag = trace.ledger, tx_class == CLASS_PRIORITY
    issued_at, flags, confirmed_at = ledger.issued, ledger.flags, ledger.confirmed_at
    latencies = sorted(
        t - issued_at[i] for i, t in confirmed_at.items() if i and flags[i] == flag
    )
    issued = flags.count(flag) - (not flag)  # genesis: a common id, but no arrival
    confirmed = len(latencies)
    if latencies:
        # statistics.fmean and statistics.median, without a second sort
        mean = math.fsum(latencies) / confirmed
        half = confirmed // 2
        median = (
            latencies[half] if confirmed % 2 else (latencies[half - 1] + latencies[half]) / 2
        )
        p95 = latencies[math.ceil(0.95 * confirmed) - 1]  # nearest rank
    else:
        mean = median = p95 = None
    return {
        "class": tx_class,
        "issued": issued,
        "confirmed": confirmed,
        "mean_latency": mean,
        "median_latency": median,
        "p95_latency": p95,
        "unconfirmed_fraction": 1.0 - confirmed / issued if issued else 0.0,
    }


def compare(uniform_trace: SimTrace, ptsa_trace: SimTrace) -> dict:
    """The strategy comparison of one paired run, unrounded."""
    u, p = uniform_trace.ledger, ptsa_trace.ledger
    if u.issued != p.issued or u.flags != p.flags:
        raise WorkloadMismatch("traces carry different arrival sequences")
    uniform = {c: class_stats(uniform_trace, c) for c in REPORT_CLASSES}
    ptsa = {c: class_stats(ptsa_trace, c) for c in REPORT_CLASSES}
    return {
        "config": ptsa_trace.config.to_dict(),
        "uniform": uniform,
        "ptsa": ptsa,
        "latency_reduction": _reduction(
            uniform[CLASS_PRIORITY]["mean_latency"], ptsa[CLASS_PRIORITY]["mean_latency"]
        ),
        "starvation_delta": ptsa[CLASS_COMMON]["unconfirmed_fraction"]
        - uniform[CLASS_COMMON]["unconfirmed_fraction"],
    }


def _reduction(mean_u: float | None, mean_p: float | None) -> float | None:
    """PTSA's relative cut in mean latency, (uniform - ptsa) / uniform; None
    when a mean is missing or uniform's is not positive."""
    if mean_u is None or mean_p is None or mean_u <= 0:
        return None
    return (mean_u - mean_p) / mean_u


def aggregate(config: SimConfig, reports: list[dict]) -> dict:
    """The batch summary of `compare` reports for consecutive seeds from
    `config.seed`; the wins and the reduction of the mean latencies count
    the seeds where both strategies confirmed a priority transaction."""
    means = [
        (r["uniform"][CLASS_PRIORITY]["mean_latency"],
         r["ptsa"][CLASS_PRIORITY]["mean_latency"])
        for r in reports
    ]
    means = [(u, p) for u, p in means if u is not None and p is not None]
    reduction = None
    if means:
        means_u, means_p = zip(*means)
        reduction = _reduction(sum(means_u) / len(means), sum(means_p) / len(means))
    return {
        "base_seed": config.seed,
        "seeds": len(reports),
        "ptsa_wins": sum(p < u for u, p in means),
        "mean_latency_reduction": reduction,
    }


def _csv_rows(trace: SimTrace):
    """The rows of `trace.csv` after its header, one per arrival in id order."""
    ledger = trace.ledger
    issued_at, flags, parents, confirmed_at = (
        ledger.issued, ledger.flags, ledger.parents, ledger.confirmed_at)
    unconfirmed, confirmed = _ROW_FORMATS
    for i in range(1, len(issued_at)):
        t, c, p = issued_at[i], confirmed_at.get(i), parents[i]
        if c is None:
            yield unconfirmed[len(p)] % ((i, CLASSES[flags[i]], t) + p)
        else:
            yield confirmed[len(p)] % ((i, CLASSES[flags[i]], t, c, c - t) + p)


def export_csv(trace: SimTrace, destination: str | Path) -> None:
    """Write the per-transaction trace, one row per arrival in issue order.

    Rows are written as plain text, joined in chunks of a fixed number of
    rows: no field holds a comma, quote or line break, so none needs CSV
    quoting."""
    rows = _csv_rows(trace)
    with open(destination, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        while chunk := "".join(islice(rows, _CSV_CHUNK)):
            fh.write(chunk)


def _round6(value):
    """`value` with every float in it rounded to 6 places, through nested dicts."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    return value


def export_json(payload: dict, destination: str | Path) -> None:
    """Write a report or summary as indented JSON with a final newline. Every
    float outside the top-level `config` block is rounded to 6 places; the
    config block is written as `SimConfig.to_dict` gives it."""
    payload = {k: v if k == "config" else _round6(v) for k, v in payload.items()}
    with open(destination, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def trace_summary(trace: SimTrace) -> dict:
    """Single-trace summary used by the CLI's summary.json."""
    return {
        "config": trace.config.to_dict(),
        "records": len(trace.ledger) - 1,  # genesis is no arrival
        "stats": {c: class_stats(trace, c) for c in REPORT_CLASSES},
    }
