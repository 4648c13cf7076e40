"""What the tanglesim benchmark runs and reports, and why.

This module is the one place the workloads, metrics and size ladder are
written down. `run.py` runs from it and `write_manifest.py` renders
`BENCHMARK.json` from it. README.md says which end-to-end metric each layer
metric should move, and on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 35

# The reference configuration of the paper's experiment (`tanglesim gen-config`).
REFERENCE_CONFIG = {
    "lambda": 10.0,
    "rho": 0.05,
    "horizon_seconds": 300.0,
    "visibility_delay_seconds": 1.0,
    "theta": 8,
    "strategy": "ptsa",
    "aging": {"enabled": True, "threshold_seconds": 30.0},
}


@dataclass(frozen=True)
class Workload:
    """One CLI command on one config; the benchmark adds `seed` to the config."""

    name: str
    why: str
    command: str  # "simulate" or "compare"
    config: dict
    seeds: int = 1  # `compare --seeds`: consecutive seeds from the base seed


WORKLOADS = (
    Workload(
        "reference-compare",
        "The paper's experiment at N~3.1k: per-arrival Python overhead, candidate "
        "building, stats, JSON export and process set-up dominate; ledger scaling "
        "barely shows.",
        "compare",
        REFERENCE_CONFIG,
        seeds=8,
    ),
    Workload(
        "dense-simulate",
        "N~12.2k: the dense ancestry matrix makes insert and sweep O(N) per arrival "
        "while an arrival's unconfirmed past cone is ~7 tx, so ledger gains and peak "
        "RSS show here.",
        "simulate",
        {**REFERENCE_CONFIG, "lambda": 40.0},
    ),
    Workload(
        "ptsa-backlog",
        "Confirmation lags arrivals (~1.3k priority candidates, ~290 tips): selection "
        "and the priority scan dominate; small N with a large frontier.",
        "simulate",
        {
            **REFERENCE_CONFIG,
            "lambda": 20.0,
            "rho": 0.5,
            "visibility_delay_seconds": 3.0,
            "theta": 32,
        },
    ),
)

WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"; nominal for the deterministic counters
    bound: float | None = None  # end-to-end only: allowed worsening, share of median


# A fixed scale: about the wall time of run.CALIBRATION_SNIPPET on a lightly
# loaded 2-vCPU 2.0 GHz Xeon host. End-to-end times are reported at the host
# speed this stands for; the value only scales them, so two commits measured
# with the same value compare alike.
REFERENCE_CALIBRATION_S = 0.2

# Measured untraced, one value per workload per run.
END_TO_END = (
    Metric("tx_per_s", "tx/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

# Span self times: metric -> span names ("<module>.<function>") it sums. A span
# of a layer named nowhere here counts in "<layer>.other_s".
SELF_TIME_SPANS = {
    "ledger.insert_s": ("ledger.add_transaction",),
    "ledger.sweep_s": ("ledger.confirmation_sweep",),
    "ledger.scan_s": (
        "ledger.priority_candidates",
        "ledger.visible_count",
        "ledger.newest_non_tip",
    ),
    "selection.candidates_s": ("selection.build_candidates",),
    "selection.select_s": ("selection.select_ptsa", "selection.select_uniform"),
    "engine.workload_s": ("engine.generate_workload",),
    "engine.loop_self_s": ("engine.run_simulation",),
    "metrics.export_s": ("metrics.export_csv", "metrics.export_json"),
    "metrics.stats_s": (
        "metrics.trace_summary",
        "metrics.compare",
        "metrics.class_stats",
    ),
    "cli.self_s": ("cli.main",),
}

# These self times add up to the run_simulation spans (engine.run_s).
RUN_PATH = (
    "engine.workload_s",
    "engine.loop_self_s",
    "selection.candidates_s",
    "selection.select_s",
    "ledger.insert_s",
    "ledger.sweep_s",
    "ledger.scan_s",
    "ledger.other_s",
)

# SelectionResult.branch value -> counter metric.
BRANCH_METRICS = {
    "p=0": "selection.branch_p0",
    "p=1": "selection.branch_p1",
    "p>=2": "selection.branch_p2",
    "baseline": "selection.branch_baseline",
}

# Measured in one traced run per workload run, never mixed into END_TO_END.
PER_LAYER = (
    Metric("cli.main_s", "s", "lower"),
    Metric("cli.self_s", "s", "lower"),
    Metric("engine.run_s", "s", "lower"),
    Metric("engine.loop_self_s", "s", "lower"),
    Metric("engine.workload_s", "s", "lower"),
    Metric("selection.candidates_s", "s", "lower"),
    Metric("selection.select_s", "s", "lower"),
    Metric("ledger.insert_s", "s", "lower"),
    Metric("ledger.insert_us_per_tx", "us", "lower"),
    Metric("ledger.sweep_s", "s", "lower"),
    Metric("ledger.scan_s", "s", "lower"),
    Metric("ledger.other_s", "s", "lower"),
    Metric("metrics.export_s", "s", "lower"),
    Metric("metrics.stats_s", "s", "lower"),
    Metric("metrics.bytes_written", "B", "lower"),
    Metric("ledger.inserts", "count", "lower"),
    Metric("ledger.confirmed", "count", "higher"),
    Metric("ledger.frontier_mean", "count", "lower"),
    Metric("ledger.frontier_max", "count", "lower"),
    Metric("selection.priority_len_mean", "count", "lower"),
    Metric("selection.tips_len_mean", "count", "lower"),
    *(Metric(name, "count", "higher") for name in BRANCH_METRICS.values()),
    Metric("selection.genesis_fallback_ratio", "ratio", "lower"),
    Metric("selection.promoted", "count", "lower"),
    Metric("trace.overhead_frac", "ratio", "lower"),
)


@dataclass(frozen=True)
class Rung:
    """One size on the ROADMAP's ladder; `workload` is None where it is not run."""

    transactions: int
    workload: str | None = None
    note: str = ""


SIZE_LADDER = (
    Rung(3_100, "reference-compare"),
    Rung(12_200, "dense-simulate"),
    Rung(100_000, note="the ledger's dense ancestry matrix needs N^2 bytes"),
    Rung(1_000_000, note="the ledger's dense ancestry matrix needs N^2 bytes"),
)
