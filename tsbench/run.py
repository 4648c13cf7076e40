#!/usr/bin/env python3
"""Layered host-time benchmark of the tanglesim CLI.

Run from anywhere, on a checkout that holds `src/tanglesim`:

    python3 tsbench/run.py --workload dense-simulate --seed 1 --seconds 35 --trace 0
    python3 tsbench/run.py --seed 1            # every workload in turn

Every run is a fresh `python3 -m tanglesim.cli` child process on the
checkout's `src/`, one at a time, timed and sized from outside (wall clock,
and max RSS from `os.wait4`). Every run's outputs are checked, and all runs
of one workload must write byte-identical outputs. With `--trace 0` the
benchmark reports the end-to-end metrics, with times scaled to a reference
host speed that a calibration child measures; with `--trace 1` it runs the same
command under `traced_cli.py`, which records a span around each call into
the engine, selection, ledger and metrics layers, and reports the per-layer
metrics. Traced runs never feed the end-to-end numbers. The workloads,
metrics and the reasons for them are in `spec.py`.

Each workload's report ends with one JSON line with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it say the same for a
reader, with the deterministic model outputs and output digests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = BENCH_DIR / "_work"

MIN_RUNS = 3  # timed steps per workload run, even when --seconds is short
TIME_LIMIT_S = 170.0  # children still running this long after start are killed

# A fresh interpreter imports the CLI and loads and validates the config the
# way the CLI does, and nothing more.
SETUP_SNIPPET = """\
import sys, yaml, tanglesim.cli
from tanglesim.engine import SimConfig
with open(sys.argv[1]) as fh:
    SimConfig.from_dict(yaml.safe_load(fh))
print(tanglesim.cli.__file__)
"""

# Fixed work that shares no code with tanglesim: a fresh interpreter imports
# the CLI's dependencies and runs a loop of dict, random and numpy operations.
# Its wall time measures how fast the shared host is running right now.
CALIBRATION_SNIPPET = """\
import random, numpy, yaml
rng = random.Random(1)
counts = numpy.zeros(4096, dtype=numpy.int64)
table = {}
for i in range(200_000):
    key = i % 977
    table[key] = table.get(key, 0.0) + rng.random()
    if i % 64 == 0:
        counts[: i % 4096] += 1
"""

# The number of transactions each seed of the batch should attach.
EXPECT_SNIPPET = """\
import dataclasses, json, sys, yaml
from tanglesim.engine import SimConfig, generate_workload
with open(sys.argv[1]) as fh:
    config = SimConfig.from_dict(yaml.safe_load(fh))
print(json.dumps([
    len(generate_workload(dataclasses.replace(config, seed=config.seed + k)))
    for k in range(int(sys.argv[2]))
]))
"""


class BenchError(Exception):
    """The benchmark cannot measure: its own set-up failed."""


@dataclass
class Exit:
    """One finished child process, measured from outside."""

    wall_s: float
    rss_mb: float
    status: int
    log: Path

    def tail(self) -> str:
        lines = self.log.read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""


class Children:
    """Runs Python child processes one at a time on the checkout's sources."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.started = 0
        # One core: keep numpy's BLAS from starting threads.
        self.env = {
            **os.environ,
            "PYTHONPATH": str(ROOT / "src"),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }

    def run(self, argv: list[str]) -> Exit:
        self.started += 1
        log = self.work / f"child{self.started}.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
        return Exit(wall, usage.ru_maxrss / 1024, proc.returncode, log)


@dataclass
class Check:
    """What one set of output bytes says; identical bytes check identically."""

    digest: str  # sha256 over every output file's name and sha256
    problems: list[str]
    transactions: int  # attached by the command, both strategies and all seeds
    model: dict
    files: dict[str, str]  # output file -> sha256
    bytes_written: int


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)


def _add(problems: list[str], message: str, limit: int = 5) -> None:
    if len(problems) < limit:
        problems.append(message)


def check_simulate(out: Path, expected: list[int], seed: int) -> tuple[list[str], int, dict]:
    n = expected[0]
    problems: list[str] = []
    rows = 0
    with open(out / "trace.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            tx_id = int(row["id"])
            newest_parent = max(int(p) for p in row["parents"].split(";"))
            if tx_id != rows:
                _add(problems, f"trace.csv row {rows} has id {tx_id}")
            if newest_parent >= tx_id:
                _add(problems, f"tx {tx_id} approves tx {newest_parent}, not an older one")
            if row["confirmed_at"] and float(row["confirmed_at"]) < float(row["issued_at"]):
                _add(problems, f"tx {tx_id} is confirmed before it is issued")
    if rows != n:
        _add(problems, f"trace.csv has {rows} rows; the workload has {n} transactions")
    summary = json.loads((out / "summary.json").read_text())
    if summary["records"] != n:
        _add(problems, f"summary.json has {summary['records']} records, not {n}")
    return problems, n, {"stats": summary["stats"]}


def check_compare(out: Path, expected: list[int], seed: int) -> tuple[list[str], int, dict]:
    problems: list[str] = []
    aggregate = json.loads((out / "aggregate.json").read_text())
    if aggregate["seeds"] != len(expected):
        _add(problems, f"aggregate.json has {aggregate['seeds']} seeds, not {len(expected)}")
    reports = [
        json.loads((out / f"compare_seed{seed + k}.json").read_text())
        for k in range(len(expected))
    ]
    for k, (report, n) in enumerate(zip(reports, expected)):
        for strategy in ("uniform", "ptsa"):
            issued = sum(stats["issued"] for stats in report[strategy].values())
            if issued != n:
                _add(problems, f"seed {seed + k} {strategy}: {issued} issued, not {n}")
    model = {
        "ptsa_wins": aggregate["ptsa_wins"],
        "mean_latency_reduction": aggregate["mean_latency_reduction"],
        f"seed {seed}": {s: reports[0][s] for s in ("uniform", "ptsa")},
    }
    return problems, 2 * sum(expected), model


class Bench:
    """Runs one workload at one seed and checks every run's outputs."""

    def __init__(self, workload: spec.Workload, seed: int, work: Path, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.children = Children(work, deadline)
        self.config = work / "config.json"
        # JSON is YAML, which the CLI reads.
        self.config.write_text(json.dumps({**workload.config, "seed": seed}))
        self.expected = self._expected_counts()
        self.checks: dict[str, Check] = {}  # by digest
        self.reference: Check | None = None  # the first run's outputs
        self.runs: list[Run] = []

    def _expected_counts(self) -> list[int]:
        done = self.children.run(
            ["-c", EXPECT_SNIPPET, str(self.config), str(self.workload.seeds)]
        )
        if done.status != 0:
            raise BenchError(f"cannot generate the workload: {done.tail()}")
        return json.loads(done.tail())

    def setup_time(self) -> float:
        """Wall time of one fresh interpreter's set-up."""
        done = self.children.run(["-c", SETUP_SNIPPET, str(self.config)])
        if done.status != 0:
            raise BenchError(f"set-up failed: {done.tail()}")
        if not Path(done.tail()).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"imported tanglesim from {done.tail()}, not the checkout")
        return done.wall_s

    def calibration_time(self) -> float:
        """Wall time of the fixed calibration work."""
        done = self.children.run(["-c", CALIBRATION_SNIPPET])
        if done.status != 0:
            raise BenchError(f"calibration failed: {done.tail()}")
        return done.wall_s

    def cli_argv(self, out: Path) -> list[str]:
        argv = [self.workload.command, "--config", str(self.config), "--out", str(out)]
        if self.workload.command == "compare":
            argv += ["--seeds", str(self.workload.seeds)]
        return argv

    def run_cli(self, traced: bool) -> Run:
        out = self.work / f"out{len(self.runs)}"
        spans = self.work / f"spans{len(self.runs)}"
        if traced:
            prefix = [str(BENCH_DIR / "traced_cli.py"), str(spans)]
        else:
            prefix = ["-m", "tanglesim.cli"]
        done = self.children.run(prefix + self.cli_argv(out))
        run = Run(done.wall_s, done.rss_mb, [])
        if done.status != 0:
            run.problems.append(f"exit status {done.status}: {done.tail()}")
        else:
            check = self._check(out)
            run.problems += check.problems
            if self.reference is None:
                self.reference = check
            elif check is not self.reference:
                run.problems.append("outputs differ from the first run's")
            if traced:
                run.layers, run.counters = layer_metrics(spans, check.bytes_written)
        shutil.rmtree(out, ignore_errors=True)
        self.runs.append(run)
        return run

    def _check(self, out: Path) -> Check:
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        digest = hashlib.sha256("".join(f"{n} {d}\n" for n, d in files.items()).encode()).hexdigest()
        if digest not in self.checks:
            check = check_simulate if self.workload.command == "simulate" else check_compare
            try:
                problems, transactions, model = check(out, self.expected, self.seed)
            except (OSError, ValueError, KeyError, TypeError, IndexError, csv.Error) as exc:
                problems, transactions, model = [f"unreadable outputs: {exc!r}"], 0, {}
            size = sum(p.stat().st_size for p in out.iterdir())
            self.checks[digest] = Check(digest, problems, transactions, model, files, size)
        return self.checks[digest]

    def repeat(self, seconds: float, step: Callable[[], object]) -> None:
        """Call `step` until the next call would end after `seconds`."""
        took: list[float] = []
        until = min(time.monotonic() + seconds, self.deadline)
        while len(took) < MIN_RUNS or time.monotonic() + statistics.median(took) <= until:
            start = time.monotonic()
            step()
            took.append(time.monotonic() - start)


def metric_of_span(name: str) -> str:
    for metric, spans in spec.SELF_TIME_SPANS.items():
        if name in spans:
            return metric
    return f"{name.split('.')[0]}.other_s"


def layer_metrics(prefix: Path, bytes_written: int) -> tuple[dict[str, float], dict[str, float]]:
    """Self times per layer metric and the counters, from one traced run."""
    header = json.loads(prefix.with_suffix(".json").read_text())
    n = header["spans"]
    raw = prefix.with_suffix(".bin").read_bytes()
    columns, offset = [], 0
    for code in "iiqq":
        column = array(code)
        size = column.itemsize * n
        column.frombytes(raw[offset:offset + size])
        columns.append(column)
        offset += size
    name_ix, parent, start, end = columns
    names = header["names"]
    run_ix = names.index("engine.run_simulation")

    duration = [e - s for s, e in zip(start, end)]
    self_ns = list(duration)
    in_run = bytearray(n)  # the span is a run_simulation span or inside one
    for i in range(n):  # a parent's index is below its children's
        p = parent[i]
        if p >= 0:
            self_ns[p] -= duration[i]
        in_run[i] = name_ix[i] == run_ix or (p >= 0 and in_run[p])
    self_by_name = [0] * len(names)
    run_self_by_name = [0] * len(names)
    for i in range(n):
        self_by_name[name_ix[i]] += self_ns[i]
        if in_run[i]:
            run_self_by_name[name_ix[i]] += self_ns[i]

    layers: Counter[str] = Counter()
    for name, ns in zip(names, self_by_name):
        layers[metric_of_span(name)] += ns / 1e9
    layers["cli.main_s"] = sum(duration[i] for i in range(n) if parent[i] < 0) / 1e9
    layers["engine.run_s"] = sum(run_self_by_name) / 1e9
    run_path_ns = sum(
        ns for name, ns in zip(names, run_self_by_name) if metric_of_span(name) in spec.RUN_PATH
    )
    layers["trace.run_accounted_frac"] = run_path_ns / 1e9 / layers["engine.run_s"]

    c = header["counters"]
    inserts = c.get("inserts", 0)
    layers["ledger.insert_us_per_tx"] = layers["ledger.insert_s"] / inserts * 1e6 if inserts else 0.0
    counters = {
        "ledger.inserts": inserts,
        "ledger.confirmed": c.get("confirmed", 0),
        "ledger.frontier_mean": _ratio(c.get("frontier_sum", 0), c.get("sweeps", 0)),
        "ledger.frontier_max": c.get("frontier_max", 0),
        "selection.priority_len_mean": _ratio(c.get("priority_len_sum", 0), c.get("candidate_sets", 0)),
        "selection.tips_len_mean": _ratio(c.get("tips_len_sum", 0), c.get("candidate_sets", 0)),
        **{metric: c.get(f"branch {b}", 0) for b, metric in spec.BRANCH_METRICS.items()},
        "selection.genesis_fallback_ratio": _ratio(c.get("empty_candidates", 0), inserts),
        "selection.promoted": c.get("promoted", 0),
        "metrics.bytes_written": bytes_written,
    }
    return dict(layers), counters


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _spread(times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return f"s: q1 {q1:.4g}, median {q2:.4g}, q3 {q3:.4g}"


def _ladder_lines() -> list[str]:
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    lines = []
    for rung in spec.SIZE_LADDER:
        if rung.workload:
            lines.append(f"  {rung.transactions:>9} tx: {rung.workload}")
        else:
            need = rung.transactions ** 2
            lines.append(
                f"  {rung.transactions:>9} tx: not run: {rung.note}, "
                f"{need / 1e9:.0f} GB against {memory / 1e9:.1f} GB of memory"
            )
    return lines


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str], dict]:
    bench.setup_time()  # warm-up: fills the bytecode and file caches, not timed
    bench.calibration_time()  # warm-up, not timed
    bench.run_cli(traced=False)  # warm-up: checked, not timed
    steps: list[tuple[Run, float, float]] = []

    def step() -> None:
        # Back to back, so that the three see the same host speed.
        steps.append((bench.run_cli(traced=False), bench.setup_time(), bench.calibration_time()))

    bench.repeat(seconds, step)
    timed = [(run, setup, calibration) for run, setup, calibration in steps if not run.problems]
    if not timed:
        raise BenchError("no run passed its checks")
    # Other tenants of the shared host slow it by up to half, in spells from
    # seconds to tens of minutes long. The calibration next to each run slows
    # by the same factor, so each step's times are scaled by the calibration's
    # reference wall over its measured wall: host seconds at reference speed.
    scale = [spec.REFERENCE_CALIBRATION_S / calibration for _, _, calibration in timed]
    walls = [run.wall_s * k for (run, _, _), k in zip(timed, scale)]
    setups = [setup * k for (_, setup, _), k in zip(timed, scale)]
    rss = [run.rss_mb for run, _, _ in timed]
    check = bench.reference
    values = {
        "tx_per_s": check.transactions / statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }
    notes = {
        "tx_per_s": f"{check.transactions} tx over the median scaled wall of {len(walls)} runs",
        "peak_rss_mb": f"median of {len(rss)} runs; max {max(rss):.1f}",
        "setup_s": f"median scaled wall of {len(setups)} fresh interpreters",
    }
    lines = [
        f"  {m.name:<12} {values[m.name]:>12.6g} {m.unit:<5} {notes[m.name]}"
        for m in spec.END_TO_END
    ]
    raw = {
        "cli_wall_s": [run.wall_s for run, _, _ in timed],
        "setup_s": [setup for _, setup, _ in timed],
        "calibration_s": [calibration for _, _, calibration in timed],
    }
    lines += [f"  raw {name:<14} {_spread(times)}" for name, times in raw.items()]
    return values, lines, raw


def measure_layers(bench: Bench, seconds: float) -> tuple[dict, list[str], dict]:
    bench.run_cli(traced=False)  # warm-up: checked, not timed
    steps: list[tuple[Run, Run]] = []

    def step() -> None:
        # Back to back, so that the two see the same host speed.
        steps.append((bench.run_cli(traced=False), bench.run_cli(traced=True)))

    bench.repeat(seconds, step)
    first = next((t.counters for _, t in steps if t.counters), None)
    for _, traced in steps:
        if traced.counters and traced.counters != first:
            traced.problems.append("traced counters differ from the first traced run's")
    timed = [(base, traced) for base, traced in steps if not base.problems and not traced.problems]
    if not timed:
        raise BenchError("no run passed its checks")
    layers = {
        name: statistics.median(traced.layers[name] for _, traced in timed)
        for name in timed[0][1].layers
    }
    layers["trace.overhead_frac"] = (
        statistics.median(traced.wall_s / base.wall_s for base, traced in timed) - 1
    )
    values = {**layers, **first}
    values = {m.name: values.get(m.name, 0.0) for m in spec.PER_LAYER}
    run_s = layers["engine.run_s"]
    lines = [
        f"  {m.name:<34} {values[m.name]:>12.6g} {m.unit:<5}"
        + (f" {values[m.name] / run_s:6.1%} of run_simulation" if m.name in spec.RUN_PATH else "")
        for m in spec.PER_LAYER
    ]
    lines.append(
        f"  {len(timed)} traced runs, each after an untraced one; the run-path self "
        f"times account for {layers['trace.run_accounted_frac']:.4%} of run_simulation"
    )
    raw = {
        "cli_wall_s": [base.wall_s for base, _ in timed],
        "traced_wall_s": [traced.wall_s for _, traced in timed],
    }
    return values, lines, raw


def run_benchmark(workload: spec.Workload, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, work, deadline=started + TIME_LIMIT_S)
        measure = measure_layers if trace else measure_end_to_end
        values, lines, samples = measure(bench, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = spec.PER_LAYER if trace else spec.END_TO_END
    attempted = len(bench.runs)
    failed = sum(1 for r in bench.runs if r.problems)
    check = bench.reference
    print(
        f"tsbench {workload.name} seed {seed} trace {int(trace)}: "
        f"{attempted} runs, {failed} failed, error_rate {failed / attempted:.6g}"
    )
    print(*lines, sep="\n")
    for r in bench.runs:
        for problem in r.problems[:3]:
            print(f"  FAILED run: {problem}")
    print(f"  outputs sha256 {check.digest}")
    for name, digest in check.files.items():
        if not name.startswith("compare_seed"):
            print(f"    {name:<14} {digest}")
    print(f"  model {json.dumps(check.model, sort_keys=True)}")
    print("  size ladder:", *_ladder_lines(), sep="\n")

    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics},
        "error_rate": failed / attempted,
        "outputs": check.files,
        "model": check.model,
        "samples": samples,
    }
    WORK_ROOT.mkdir(exist_ok=True)
    (WORK_ROOT / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=list(spec.WORKLOADS_BY_NAME),
        help="the workload to run; every workload in turn if omitted",
    )
    parser.add_argument("--seed", type=int, required=True, help="base seed of the workload")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = [spec.WORKLOADS_BY_NAME[args.workload]] if args.workload else spec.WORKLOADS
    if not 0 <= args.seed <= 2**64 - max(w.seeds for w in workloads):
        parser.error("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "tanglesim" / "cli.py").is_file():
        print(f"error: no tanglesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn a termination request into an exception, so the running child is
    # killed and reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    status = 0
    for workload in workloads:
        try:
            status = max(status, run_benchmark(workload, args.seed, args.seconds, bool(args.trace)))
        except BenchError as exc:
            print(f"error: {workload.name}: {exc}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
