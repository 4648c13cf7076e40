"""Discrete-event simulation of transaction arrivals on the DAG ledger.

Arrival times and priority tagging come from one seeded stream, attachment
randomness from an independent second stream, so changing the selection
strategy never perturbs the workload. Everything downstream is a pure
function of the configuration.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, NamedTuple

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


def _is_number(value: object) -> bool:
    return _is_int(value) or isinstance(value, float)


@dataclass(frozen=True)
class SimConfig:
    """Full experiment parameterization; the defaults are the reference experiment.

    `pinned_priority` lists 1-based arrival ordinals forced to high
    priority, mirroring a hand-picked set of marked transactions. Building
    one, by any route, checks every field against `_FIELDS`.
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

    def __post_init__(self) -> None:
        for key, spec in _FIELDS.items():
            if not spec.bound(attrgetter(spec.attr)(self), self):
                raise ConfigInvalid(key, spec.message)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        if not isinstance(data, dict):
            raise ConfigInvalid("<root>", "config must be a mapping")
        aging_data = data.get("aging", {})
        if not isinstance(aging_data, dict):
            raise ConfigInvalid("aging", "must be a mapping")
        flat = {key: value for key, value in data.items() if key != "aging"}
        for key in flat:  # an `aging.*` key is valid only inside `aging:`
            if key not in _FIELDS or "." in key:
                raise ConfigInvalid(key, "unknown key")
        flat.update((f"aging.{key}", value) for key, value in aging_data.items())
        defaults = cls()
        top: dict = {}
        aging: dict = {}
        for key, value in flat.items():
            if key not in _FIELDS:
                raise ConfigInvalid(key, "unknown key")
            attr = _FIELDS[key].attr
            if isinstance(value, list):
                value = tuple(value)
            elif _is_number(value) and isinstance(attrgetter(attr)(defaults), float):
                value = float(value)  # a YAML int in a float field
            owner, _, name = attr.rpartition(".")
            (aging if owner else top)[name] = value
        return cls(**top, aging=PriorityPolicy(**aging))

    def to_dict(self) -> dict:
        out: dict = {}
        for key, spec in _FIELDS.items():
            value = attrgetter(spec.attr)(self)
            section, _, name = key.rpartition(".")
            (out.setdefault(section, {}) if section else out)[name] = (
                list(value) if isinstance(value, tuple) else value
            )
        return out


class _Field(NamedTuple):
    attr: str  # dotted path below SimConfig
    bound: Callable[[Any, SimConfig], bool]  # (value, whole config) -> valid
    message: str
    comment: str  # gen-config's comment on the key's line


# The most transactions a config may expect (lambda * horizon_seconds); a run
# holds every one in memory until it ends (about 0.8 GB of peak RSS at 1M).
MAX_EXPECTED_TX = 2_000_000


def _finite(v: object) -> bool:
    return _is_number(v) and math.isfinite(v)


# One entry per YAML key, the `aging.*` keys inside the `aging` mapping.
# The defaults are SimConfig's and PriorityPolicy's field defaults.
_FIELDS = {
    "lambda": _Field("arrival_rate", lambda v, _: _finite(v) and v > 0,
                     "must be finite and > 0", "arrival rate, transactions per second"),
    "rho": _Field("priority_fraction", lambda v, _: _is_number(v) and 0 <= v <= 1,
                  "must be within [0, 1]", "fraction of arrivals flagged high-priority"),
    "horizon_seconds": _Field(
        "horizon",
        lambda v, config: _finite(v) and v > 0 and config.arrival_rate * v <= MAX_EXPECTED_TX,
        f"must be finite and > 0, with lambda * horizon_seconds <= {MAX_EXPECTED_TX}",
        "simulated duration"),
    "visibility_delay_seconds": _Field(
        "visibility_delay", lambda v, _: _finite(v) and v >= 0, "must be finite and >= 0",
        "propagation delay before a transaction is selectable"),
    "theta": _Field("theta", lambda v, _: _is_int(v) and v >= 1,
                    "must be a positive integer", "cumulative-weight confirmation threshold"),
    "strategy": _Field("strategy", lambda v, _: v in STRATEGIES,
                       f"must be one of {STRATEGIES}", '"uniform" or "ptsa"'),
    "aging.enabled": _Field("aging.enabled", lambda v, _: isinstance(v, bool),
                            "must be true or false", ""),
    "aging.threshold_seconds": _Field(
        "aging.aging_threshold",
        lambda v, config: _finite(v) and (v > 0 or not config.aging.enabled),
        "must be finite, and > 0 when enabled",
        "unconfirmed age at which a transaction is promoted"),
    "seed": _Field("seed", lambda v, _: _is_int(v) and 0 <= v < 2**64,
                   "must be a 64-bit unsigned integer", ""),
    "pinned_priority": _Field(
        "pinned_priority",
        lambda v, _: isinstance(v, tuple) and all(_is_int(o) and o >= 1 for o in v),
        "must be a list of integers >= 1", "1-based arrival ordinals forced to high priority"),
}


def reference_config_text() -> str:
    """The default config as commented YAML, as `gen-config` writes it."""
    lines = ["# Reference configuration for the tanglesim simulator."]

    def add(key: str, label: str, value: object) -> None:
        text = f"{label}: {value if isinstance(value, str) else json.dumps(value)}"
        comment = _FIELDS[key].comment
        lines.append(f"{text:<30}# {comment}" if comment else text)

    for key, value in SimConfig().to_dict().items():
        if isinstance(value, dict):
            lines.append(f"{key}:")
            for name, item in value.items():
                add(f"{key}.{name}", f"  {name}", item)
        else:
            add(key, key, value)
    return "\n".join(lines) + "\n"


@dataclass(slots=True)
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
    # the records carry every fact of the ledger, so equal records mean equal ledgers
    ledger: TangleLedger = field(compare=False, repr=False)


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


def run_simulation(config: SimConfig) -> SimTrace:
    """Deterministic simulation run: a pure function of the configuration."""
    arrivals = generate_workload(config)
    attach_rng = random.Random(f"{config.seed}|attach")
    select = select_uniform if config.strategy == "uniform" else select_ptsa

    ledger = TangleLedger(config.theta)
    # common id -> when aging promoted it: the first arrival whose aged
    # prefix reached it while it was unconfirmed
    promoted_at: dict[int, float] = {}
    aged = 0  # the aged prefix scanned so far; it only grows
    tip_pool_sizes: list[tuple[float, int]] = []

    for now, flag in arrivals:
        try:
            candidates = build_candidates(
                ledger, now, config.visibility_delay, config.aging
            )
            # the newly aged unconfirmed ids are a slice of the priority list
            priority = candidates.priority
            lo, hi = bisect_left(priority, aged), bisect_left(priority, candidates.aged)
            for tx in map(ledger.transaction, priority[lo:hi]):
                if not tx.priority_flag:
                    promoted_at[tx.id] = now
            aged = candidates.aged
            parents = select(candidates, attach_rng).parents
        except EmptyCandidates:
            parents = [ledger.genesis]

        ledger.add_transaction(parents, now, flag)
        ledger.confirmation_sweep(now)
        tip_pool_sizes.append((now, ledger.tip_count()))

    records = [
        TxRecord(
            id=tx.id,
            tx_class=CLASS_PRIORITY if tx.priority_flag else CLASS_COMMON,
            issued_at=tx.issued_at,
            parents=tx.parents,
            confirmed_at=tx.confirmed_at,
            promoted_at=promoted_at.get(tx.id),
        )
        for tx in map(ledger.transaction, range(1, len(ledger)))
    ]
    return SimTrace(config, records, tip_pool_sizes, ledger)


def paired_runs(config: SimConfig) -> tuple[SimTrace, SimTrace]:
    """Run the identical workload under both strategies.

    Returns (uniform trace, ptsa trace); the two differ only in attachment
    choices because the arrival stream is derived from its own sub-seed.
    """
    uniform_trace = run_simulation(dataclasses.replace(config, strategy="uniform"))
    ptsa_trace = run_simulation(dataclasses.replace(config, strategy="ptsa"))
    return uniform_trace, ptsa_trace
