"""Run the tanglesim CLI with a span around each call into its layers.

Usage: python3 tsbench/traced_cli.py SPANS_PREFIX <tanglesim CLI arguments>

Each function is wrapped at the name its caller looks it up by: the engine
imports the selection functions by name, the CLI imports the engine and
metrics functions by name, and the ledger's methods are wrapped on the
class. A span is (name, start, end, parent); spans stay in memory and are
written once the command has finished, to SPANS_PREFIX.bin (four arrays:
name index, parent index, start ns, end ns) and SPANS_PREFIX.json (the
span names and the counters). The exit status is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

import tanglesim.cli as cli
import tanglesim.engine as engine
import tanglesim.metrics as metrics
from tanglesim.ledger import TangleLedger
from tanglesim.selection import EmptyCandidates

# (module whose global the caller reads, attribute)
WRAPPED_FUNCTIONS = (
    (engine, "generate_workload"),
    (engine, "build_candidates"),
    (engine, "select_ptsa"),
    (engine, "select_uniform"),
    (engine, "run_simulation"),
    (cli, "run_simulation"),
    (cli, "paired_runs"),
    (cli, "compare"),
    (cli, "export_csv"),
    (cli, "export_json"),
    (cli, "trace_summary"),
    (metrics, "class_stats"),
)


class Tracer:
    """Spans and counters of one CLI command, kept in memory until it ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters: Counter[str] = Counter()
        self.frontier_max = 0
        self._wrapped: dict[object, object] = {}
        self._after = {
            "ledger.add_transaction": self._after_insert,
            "ledger.confirmation_sweep": self._after_sweep,
            "selection.build_candidates": self._after_candidates,
            "selection.select_ptsa": self._after_select,
            "selection.select_uniform": self._after_select,
            "engine.run_simulation": self._after_run,
        }

    def wrap(self, fn):
        """Return `fn` wrapped in a span; one wrapper per function."""
        if fn in self._wrapped:
            return self._wrapped[fn]
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        ix = len(self.names)
        self.names.append(name)
        after = self._after.get(name)
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(name_ix)
            name_ix.append(ix)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = clock()
                stack.pop()
                if isinstance(exc, EmptyCandidates):
                    counters["empty_candidates"] += 1
                raise
            end[i] = clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        self._wrapped[fn] = traced
        return traced

    def install(self) -> None:
        for attr, fn in list(vars(TangleLedger).items()):
            if callable(fn) and not attr.startswith("_"):
                setattr(TangleLedger, attr, self.wrap(fn))
        for module, attr in WRAPPED_FUNCTIONS:
            setattr(module, attr, self.wrap(getattr(module, attr)))

    def _after_insert(self, args, tx_id) -> None:
        self.counters["inserts"] += 1

    def _after_sweep(self, args, confirmed) -> None:
        ledger = args[0]
        frontier = len(ledger) - len(ledger.confirmed_set)
        self.counters["confirmed"] += len(confirmed)
        self.counters["sweeps"] += 1
        self.counters["frontier_sum"] += frontier
        self.frontier_max = max(self.frontier_max, frontier)

    def _after_candidates(self, args, candidates) -> None:
        self.counters["candidate_sets"] += 1
        self.counters["priority_len_sum"] += len(candidates.priority)
        self.counters["tips_len_sum"] += len(candidates.tips)

    def _after_select(self, args, result) -> None:
        self.counters[f"branch {result.branch}"] += 1

    def _after_run(self, args, trace) -> None:
        self.counters["promoted"] += sum(r.promoted_at is not None for r in trace.records)

    def write(self, prefix: str) -> None:
        with open(f"{prefix}.bin", "wb") as fh:
            for column in (self.name_ix, self.parent, self.start, self.end):
                column.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.name_ix),
            "counters": {**self.counters, "frontier_max": self.frontier_max},
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(header, fh)


def main(argv: list[str]) -> int:
    prefix, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    status = tracer.wrap(cli.main)(cli_args)
    tracer.write(prefix)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
