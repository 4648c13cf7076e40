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
from dataclasses import dataclass, field
from typing import Any, Callable

from tanglesim.ledger import CLASSES, TangleLedger, TxRecord
from tanglesim.selection import build_candidates, select_ptsa, select_uniform

STRATEGIES = ("uniform", "ptsa")


class ConfigInvalid(ValueError):
    """A configuration field violates its bounds."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"invalid config field '{field_name}': {message}")
        self.field_name = field_name


def _is_int(value: object) -> bool:
    """An int that is not a bool (YAML's `true` would otherwise count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(v: object) -> bool:
    """A finite float: `__post_init__` has already stored an int as one."""
    return isinstance(v, float) and math.isfinite(v)


# The most transactions a config may expect (lambda * horizon_seconds); a run
# holds every one in memory until it ends (317 MB of peak RSS at 1M).
MAX_EXPECTED_TX = 2_000_000
# The most theta * lambda * horizon_seconds a config may ask for. An insertion
# walk visits only unconfirmed ids, and an id confirms once theta - 1 walks
# have visited it, so a run of N arrivals walks at most N * (theta - 1) steps.
MAX_WALK_STEPS = 1_000_000_000


def _key(key: str, default: Any, bound: Callable[[Any, SimConfig], bool], message: str,
         comment: str = "") -> Any:
    """A `SimConfig` field with its YAML key (`aging.*` inside `aging:`), default,
    bound as (value, whole config) -> valid, the bound's message and gen-config's
    comment on the key's line. A bound may read the fields declared before it."""
    return field(default=default, metadata={
        "key": key, "bound": bound, "message": message, "comment": comment})


@dataclass(frozen=True)
class SimConfig:
    """Full experiment parameterization; the defaults are the reference experiment.

    `pinned_priority` lists 1-based arrival ordinals forced to high
    priority, mirroring a hand-picked set of marked transactions. With
    aging enabled, a ptsa run treats a transaction unconfirmed for
    `aging_threshold` seconds as high-priority. Building one, by any
    route, checks every field against its bound.
    """

    arrival_rate: float = _key(
        "lambda", 10.0, lambda v, _: _finite(v) and v > 0,
        "must be finite and > 0", "arrival rate, transactions per second")
    priority_fraction: float = _key(
        "rho", 0.05, lambda v, _: isinstance(v, float) and 0 <= v <= 1,
        "must be within [0, 1]", "fraction of arrivals flagged high-priority")
    horizon: float = _key(
        "horizon_seconds", 300.0,
        lambda v, config: _finite(v) and v > 0 and config.arrival_rate * v <= MAX_EXPECTED_TX,
        f"must be finite and > 0, with lambda * horizon_seconds <= {MAX_EXPECTED_TX}",
        "simulated duration")
    visibility_delay: float = _key(
        "visibility_delay_seconds", 1.0, lambda v, _: _finite(v) and v >= 0,
        "must be finite and >= 0", "propagation delay before a transaction is selectable")
    theta: int = _key(
        "theta", 8,
        # n = lambda * horizon_seconds, finite by the bound above unlike 10^9 / lambda, may be 0.0
        lambda v, config: _is_int(v) and v >= 1 and (
            (n := config.arrival_rate * config.horizon) == 0 or v <= MAX_WALK_STEPS / n),
        f"must be a positive integer, with theta * lambda * horizon_seconds <= {MAX_WALK_STEPS}",
        "cumulative-weight confirmation threshold")
    strategy: str = _key(
        "strategy", "ptsa", lambda v, _: v in STRATEGIES,
        f"must be one of {STRATEGIES}", '"uniform" or "ptsa"')
    aging_enabled: bool = _key(
        "aging.enabled", True, lambda v, _: isinstance(v, bool), "must be true or false")
    aging_threshold: float = _key(
        "aging.threshold_seconds", 30.0,
        lambda v, config: _finite(v) and (v > 0 or not config.aging_enabled),
        "must be finite, and > 0 when enabled",
        "unconfirmed age at which a transaction is promoted")
    seed: int = _key(
        "seed", 42, lambda v, _: _is_int(v) and 0 <= v < 2**64, "must be a 64-bit unsigned integer")
    pinned_priority: tuple[int, ...] = _key(
        "pinned_priority", (),
        lambda v, _: isinstance(v, tuple) and all(_is_int(o) and o >= 1 for o in v),
        "must be a list of integers >= 1", "1-based arrival ordinals forced to high priority")

    def __post_init__(self) -> None:
        for key, f in _FIELDS.items():
            value = getattr(self, f.name)
            if _is_int(value) and isinstance(f.default, float):
                try:  # an int in a field whose default is a float is stored as one
                    value = float(value)
                except OverflowError:  # past a float's range
                    raise ConfigInvalid(key, f.metadata["message"]) from None
                object.__setattr__(self, f.name, value)
            if not f.metadata["bound"](value, self):
                raise ConfigInvalid(key, f.metadata["message"])

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        if not isinstance(data, dict):
            raise ConfigInvalid("<root>", "config must be a mapping")
        # an `aging:` section whose keys are all commented out reads as null
        aging = {} if data.get("aging") is None else data["aging"]
        if not isinstance(aging, dict):
            raise ConfigInvalid("aging", "must be a mapping")
        flat = {key: value for key, value in data.items() if key != "aging"}
        for key in flat:  # an `aging.*` key is valid only inside `aging:`
            if key not in _FIELDS or "." in key:
                raise ConfigInvalid(key, "unknown key")
        flat.update((f"aging.{key}", value) for key, value in aging.items())
        fields: dict = {}
        for key, value in flat.items():
            if key not in _FIELDS:
                raise ConfigInvalid(key, "unknown key")
            fields[_FIELDS[key].name] = tuple(value) if isinstance(value, list) else value
        return cls(**fields)

    def to_dict(self) -> dict:
        out: dict = {}
        for key, f in _FIELDS.items():
            value = getattr(self, f.name)
            section, _, name = key.rpartition(".")
            (out.setdefault(section, {}) if section else out)[name] = (
                list(value) if isinstance(value, tuple) else value
            )
        return out


# Each field by its YAML key, in declaration order
_FIELDS = {f.metadata["key"]: f for f in dataclasses.fields(SimConfig)}


def reference_config_text() -> str:
    """The default config as commented YAML, as `gen-config` writes it."""
    lines = ["# Reference configuration for the tanglesim simulator."]

    def add(key: str, label: str, value: object) -> None:
        text = f"{label}: {value if isinstance(value, str) else json.dumps(value)}"
        comment = _FIELDS[key].metadata["comment"]
        lines.append(f"{text:<30}# {comment}" if comment else text)

    for key, value in SimConfig().to_dict().items():
        if isinstance(value, dict):
            lines.append(f"{key}:")
            for name, item in value.items():
                add(f"{key}.{name}", f"  {name}", item)
        else:
            add(key, key, value)
    return "\n".join(lines) + "\n"


@dataclass(eq=False)
class SimTrace:
    """A finished run: its config and its final ledger, whose columns carry
    every fact the outputs report."""

    config: SimConfig
    ledger: TangleLedger = field(repr=False)

    @property
    def records(self) -> list[TxRecord]:
        """Every arrival's record in id order, genesis left out; built from
        the ledger's columns on each read."""
        ledger = self.ledger
        ids = range(1, len(ledger))
        return list(map(
            TxRecord, ids, map(CLASSES.__getitem__, ledger.flags[1:]), ledger.issued[1:],
            ledger.parents[1:], map(ledger.confirmed_at.get, ids), map(ledger.promoted_at.get, ids),
        ))


def generate_workload(config: SimConfig) -> list[tuple[float, bool]]:
    """Poisson arrival stream: (issue time, priority flag) per transaction.

    Drawn from a sub-seeded stream of its own so attachment choices can
    never perturb it.
    """
    draw = random.Random(f"{config.seed}|arrivals").random
    rate, horizon, fraction = config.arrival_rate, config.horizon, config.priority_fraction
    pinned = set(config.pinned_priority)
    out: list[tuple[float, bool]] = []
    t = 0.0
    ordinal = 0
    while True:
        t += -math.log(1.0 - draw()) / rate  # `expovariate(rate)`, inlined
        if t > horizon:
            return out
        ordinal += 1
        flag = draw() < fraction or ordinal in pinned
        out.append((t, flag))


def run_simulation(config: SimConfig, arrivals: list[tuple[float, bool]] | None = None) -> SimTrace:
    """Deterministic simulation run: a pure function of the configuration.
    `arrivals`, if given, must equal `generate_workload(config)`; the run
    reads it and never mutates it, so runs of one workload can share it."""
    attach_rng = random.Random(f"{config.seed}|attach")
    select = select_uniform if config.strategy == "uniform" else select_ptsa

    ledger = TangleLedger(config.theta, config.visibility_delay,
                          config.aging_threshold if config.aging_enabled else None,
                          config.strategy == "ptsa")
    # with no list handed in, iterate the call itself: its list is freed when the loop ends
    for now, flag in generate_workload(config) if arrivals is None else arrivals:
        ledger.add_transaction(select(build_candidates(ledger, now), attach_rng).parents, now, flag)
        ledger.confirmation_sweep(now)
    return SimTrace(config, ledger)


def paired_runs(config: SimConfig) -> tuple[SimTrace, SimTrace]:
    """Run the identical workload under both strategies.

    Returns (uniform trace, ptsa trace); the two differ only in attachment
    choices. The strategy is not part of the arrival stream's sub-seed, so
    the workload is drawn once and both runs read the same list.
    """
    arrivals = generate_workload(config)
    uniform_trace = run_simulation(dataclasses.replace(config, strategy="uniform"), arrivals)
    ptsa_trace = run_simulation(dataclasses.replace(config, strategy="ptsa"), arrivals)
    return uniform_trace, ptsa_trace
