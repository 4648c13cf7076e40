"""Deterministic simulator of a DAG ledger with priority-based tip selection."""

from tanglesim.ledger import (
    TangleLedger,
    Transaction,
    TangleError,
    UnknownParent,
    UnknownTransaction,
    ParentArity,
    TimeRegression,
)
from tanglesim.selection import (
    PriorityPolicy,
    SelectionCandidates,
    SelectionResult,
    EmptyCandidates,
    build_candidates,
    select_uniform,
    select_ptsa,
)
from tanglesim.engine import (
    SimConfig,
    TxRecord,
    SimTrace,
    ConfigInvalid,
    run_simulation,
    run_simulation_with_ledger,
    paired_runs,
)
from tanglesim.metrics import (
    ClassStats,
    ComparisonReport,
    WorkloadMismatch,
    class_stats,
    compare,
    export_csv,
    export_json,
)

__all__ = [
    "TangleLedger",
    "Transaction",
    "TangleError",
    "UnknownParent",
    "UnknownTransaction",
    "ParentArity",
    "TimeRegression",
    "PriorityPolicy",
    "SelectionCandidates",
    "SelectionResult",
    "EmptyCandidates",
    "build_candidates",
    "select_uniform",
    "select_ptsa",
    "SimConfig",
    "TxRecord",
    "SimTrace",
    "ConfigInvalid",
    "run_simulation",
    "run_simulation_with_ledger",
    "paired_runs",
    "ClassStats",
    "ComparisonReport",
    "WorkloadMismatch",
    "class_stats",
    "compare",
    "export_csv",
    "export_json",
]
