"""Discrete-event simulation of transaction arrivals on the DAG ledger.

Arrival times and priority tagging come from one seeded stream, attachment
randomness from an independent second stream, so changing the selection
strategy never perturbs the workload. Everything downstream is a pure
function of the configuration.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field

from tanglesim.ledger import TangleLedger
from tanglesim.selection import (
    EmptyCandidates,
    PriorityPolicy,
    build_candidates,
    select_ptsa,
    select_uniform,
)

STRATEGIES = ("uniform", "ptsa")

CLASS_PRIORITY = "priority"
CLASS_COMMON = "common"


class ConfigInvalid(ValueError):
    """A configuration field violates its bounds."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"invalid config field '{field_name}': {message}")
        self.field_name = field_name


def _is_int(value: object) -> bool:
    """An int that is not a bool (YAML's `true` would otherwise count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Full experiment parameterization.

    `pinned_priority` lists 1-based arrival ordinals forced to high
    priority, mirroring a hand-picked set of marked transactions.
    """

    arrival_rate: float = 10.0
    priority_fraction: float = 0.05
    horizon: float = 300.0
    visibility_delay: float = 1.0
    theta: int = 8
    strategy: str = "ptsa"
    aging: PriorityPolicy = field(default_factory=PriorityPolicy)
    seed: int = 42
    pinned_priority: tuple[int, ...] = ()

    def validate(self) -> None:
        if not 0 < self.arrival_rate < math.inf:
            raise ConfigInvalid("lambda", "must be finite and > 0")
        if not 0.0 <= self.priority_fraction <= 1.0:
            raise ConfigInvalid("rho", "must be within [0, 1]")
        if not 0 < self.horizon < math.inf:
            raise ConfigInvalid("horizon_seconds", "must be finite and > 0")
        if not 0 <= self.visibility_delay < math.inf:
            raise ConfigInvalid("visibility_delay_seconds", "must be finite and >= 0")
        if not (_is_int(self.theta) and self.theta >= 1):
            raise ConfigInvalid("theta", "must be a positive integer")
        if self.strategy not in STRATEGIES:
            raise ConfigInvalid("strategy", f"must be one of {STRATEGIES}")
        if not isinstance(self.aging.enabled, bool):
            raise ConfigInvalid("aging.enabled", "must be true or false")
        threshold = self.aging.aging_threshold
        if not math.isfinite(threshold) or (self.aging.enabled and threshold <= 0):
            raise ConfigInvalid(
                "aging.threshold_seconds", "must be finite, and > 0 when enabled"
            )
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ConfigInvalid("seed", "must be a 64-bit unsigned integer")
        for ordinal in self.pinned_priority:
            if not (_is_int(ordinal) and ordinal >= 1):
                raise ConfigInvalid(
                    "pinned_priority", "ordinals must be integers >= 1"
                )

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        if not isinstance(data, dict):
            raise ConfigInvalid("<root>", "config must be a mapping")
        known = {
            "lambda",
            "rho",
            "horizon_seconds",
            "visibility_delay_seconds",
            "theta",
            "strategy",
            "aging",
            "seed",
            "pinned_priority",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigInvalid(sorted(unknown)[0], "unknown key")
        aging_data = data.get("aging", {})
        if not isinstance(aging_data, dict):
            raise ConfigInvalid("aging", "must be a mapping")
        bad_aging = set(aging_data) - {"enabled", "threshold_seconds"}
        if bad_aging:
            raise ConfigInvalid(f"aging.{sorted(bad_aging)[0]}", "unknown key")
        try:
            aging = PriorityPolicy(
                enabled=aging_data.get("enabled", True),
                aging_threshold=float(aging_data.get("threshold_seconds", 30.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid("aging.threshold_seconds", str(exc)) from exc
        pinned = data.get("pinned_priority") or ()
        if not isinstance(pinned, (list, tuple)):
            raise ConfigInvalid("pinned_priority", "must be a list of integers")
        try:
            config = cls(
                arrival_rate=float(data.get("lambda", 10.0)),
                priority_fraction=float(data.get("rho", 0.05)),
                horizon=float(data.get("horizon_seconds", 300.0)),
                visibility_delay=float(data.get("visibility_delay_seconds", 1.0)),
                theta=data.get("theta", 8),
                strategy=data.get("strategy", "ptsa"),
                aging=aging,
                seed=data.get("seed", 42),
                pinned_priority=tuple(pinned),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid("<root>", str(exc)) from exc
        config.validate()
        return config

    def to_dict(self) -> dict:
        return {
            "lambda": self.arrival_rate,
            "rho": self.priority_fraction,
            "horizon_seconds": self.horizon,
            "visibility_delay_seconds": self.visibility_delay,
            "theta": self.theta,
            "strategy": self.strategy,
            "aging": {
                "enabled": self.aging.enabled,
                "threshold_seconds": self.aging.aging_threshold,
            },
            "seed": self.seed,
            "pinned_priority": list(self.pinned_priority),
        }


@dataclass
class TxRecord:
    """Lifecycle of one simulated transaction (genesis excluded)."""

    id: int
    tx_class: str
    issued_at: float
    parents: tuple[int, ...]
    confirmed_at: float | None = None
    promoted_at: float | None = None


@dataclass
class SimTrace:
    config: SimConfig
    records: list[TxRecord]
    tip_pool_sizes: list[tuple[float, int]]


def generate_workload(config: SimConfig) -> list[tuple[float, bool]]:
    """Poisson arrival stream: (issue time, priority flag) per transaction.

    Drawn from a sub-seeded stream of its own so attachment choices can
    never perturb it.
    """
    rng = random.Random(f"{config.seed}|arrivals")
    pinned = set(config.pinned_priority)
    out: list[tuple[float, bool]] = []
    t = 0.0
    ordinal = 0
    while True:
        t += rng.expovariate(config.arrival_rate)
        if t > config.horizon:
            return out
        ordinal += 1
        flag = rng.random() < config.priority_fraction or ordinal in pinned
        out.append((t, flag))


def run_simulation_with_ledger(config: SimConfig) -> tuple[SimTrace, TangleLedger]:
    """Run one simulation and return both the trace and the final ledger."""
    config.validate()
    arrivals = generate_workload(config)
    attach_rng = random.Random(f"{config.seed}|attach")
    select = select_uniform if config.strategy == "uniform" else select_ptsa

    ledger = TangleLedger()
    # id -> first time it was a priority candidate; for a common
    # transaction that is when aging promoted it
    first_priority: dict[int, float] = {}
    tip_pool_sizes: list[tuple[float, int]] = []

    for now, flag in arrivals:
        try:
            candidates = build_candidates(
                ledger, now, config.visibility_delay, config.aging
            )
            for pid in candidates.priority:
                first_priority.setdefault(pid, now)
            parents = select(candidates, attach_rng).parents
        except EmptyCandidates:
            parents = [ledger.genesis]

        ledger.add_transaction(parents, now, flag)
        ledger.confirmation_sweep(config.theta, now)
        tip_pool_sizes.append((now, len(ledger.tip_set)))

    records = [
        TxRecord(
            id=tx.id,
            tx_class=CLASS_PRIORITY if tx.priority_flag else CLASS_COMMON,
            issued_at=tx.issued_at,
            parents=tx.parents,
            confirmed_at=tx.confirmed_at,
            promoted_at=None if tx.priority_flag else first_priority.get(tx.id),
        )
        for tx in map(ledger.transaction, range(1, len(ledger)))
    ]
    return SimTrace(config, records, tip_pool_sizes), ledger


def run_simulation(config: SimConfig) -> SimTrace:
    """Deterministic simulation run: a pure function of the configuration."""
    trace, _ = run_simulation_with_ledger(config)
    return trace


def paired_runs(config: SimConfig) -> tuple[SimTrace, SimTrace]:
    """Run the identical workload under both strategies.

    Returns (uniform trace, ptsa trace); the two differ only in attachment
    choices because the arrival stream is derived from its own sub-seed.
    """
    config.validate()
    uniform_trace = run_simulation(dataclasses.replace(config, strategy="uniform"))
    ptsa_trace = run_simulation(dataclasses.replace(config, strategy="ptsa"))
    return uniform_trace, ptsa_trace
