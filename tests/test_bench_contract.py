"""The benchmark's traced runs keep working: `tsbench/traced_cli.py` wraps
program functions by name, counts the ids each confirmation sweep returns and
reads `records[].promoted_at`, `len()` of the priority and tip pools and
each selection's branch, so renaming any of them, bypassing the wrapped
selectors, or changing the sweep's signature or a pool to a type
without `len()`, fails here rather than only under `tsbench/run.py --trace 1`.
And
`BENCHMARK.json` stays what `tsbench/write_manifest.py` renders from its spec."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the `ptsa-backlog` workload shortened to 60 s; aging promotes on it
BACKLOG_60S = {
    "lambda": 20.0,
    "rho": 0.5,
    "horizon_seconds": 60.0,
    "visibility_delay_seconds": 3.0,
    "theta": 32,
}


@pytest.mark.parametrize("command", [["simulate"], ["compare", "--seeds", "2"]])
def test_traced_cli_runs_and_counts(command, tmp_path):
    config = tmp_path / "config.json"  # JSON is YAML
    config.write_text(json.dumps(BACKLOG_60S))
    prefix = tmp_path / "spans"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tsbench" / "traced_cli.py"),
            str(prefix),
            *command,
            "--config",
            str(config),
            "--out",
            str(tmp_path / "out"),
        ],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    header = json.loads(prefix.with_suffix(".json").read_text())
    assert "engine.run_simulation" in header["names"]
    assert "ledger.confirmation_sweep" in header["names"]
    assert "ledger.reveal" in header["names"]
    counters = header["counters"]
    assert counters["promoted"] > 0
    assert counters["priority_len_sum"] > 0  # the wrapper takes len() of the pool
    assert counters["sweeps"] == counters["inserts"]  # one sweep per arrival
    # every arrival draws from a pool: genesis is revealed from the start
    assert counters["candidate_sets"] == counters["inserts"]
    # every arrival selects through a wrapped strategy, so the branch histogram
    # counts each one
    branches = sum(v for k, v in counters.items() if k.startswith("branch "))
    assert branches == counters["inserts"]
    assert "empty_candidates" not in counters
    assert counters["confirmed"] > 0


def test_manifest_matches_spec(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tsbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under tsbench/
    write_manifest = importlib.import_module("write_manifest")
    rendered = json.dumps(write_manifest.manifest(), indent=2) + "\n"
    assert (ROOT / "BENCHMARK.json").read_text() == rendered
