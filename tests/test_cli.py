import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tanglesim.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_ORACLE,
    REFERENCE_CONFIG_TEXT,
    main,
)

SMALL_CONFIG = """\
lambda: 10.0
rho: 0.05
horizon_seconds: 30.0
visibility_delay_seconds: 1.0
theta: 8
strategy: ptsa
aging:
  enabled: true
  threshold_seconds: 30.0
seed: 42
pinned_priority: []
"""


# `gen-config` output, pinned byte for byte
REFERENCE_YAML = """\
# Reference configuration for the tanglesim simulator.
lambda: 10.0                  # arrival rate, transactions per second
rho: 0.05                     # fraction of arrivals flagged high-priority
horizon_seconds: 300.0        # simulated duration
visibility_delay_seconds: 1.0 # propagation delay before a transaction is selectable
theta: 8                      # cumulative-weight confirmation threshold
strategy: ptsa                # "uniform" or "ptsa"
aging:
  enabled: true
  threshold_seconds: 30.0     # unconfirmed age at which a transaction is promoted
seed: 42
pinned_priority: []           # 1-based arrival ordinals forced to high priority
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(SMALL_CONFIG)
    return path


class TestSimulate:
    def test_writes_trace_and_summary(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "summary.json").exists()

    def test_invalid_rho_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_CONFIG.replace("rho: 0.05", "rho: 1.5"))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "rho" in capsys.readouterr().err

    def test_bool_theta_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_CONFIG.replace("theta: 8", "theta: true"))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "theta" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_undecodable_config_names_file(self, tmp_path, capsys):
        path = tmp_path / "utf16.yaml"
        path.write_bytes(b"\xff\xfe\x00")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "<file>" in capsys.readouterr().err

    def test_out_is_regular_file(self, config_path, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config_path), "--out", str(out_a)])
        main(["simulate", "--config", str(config_path), "--out", str(out_b)])
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_seed_override_changes_output(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config_path), "--out", str(out_a)])
        main(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(out_b)])
        assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()
        summary = json.loads((out_b / "summary.json").read_text())
        assert summary["config"]["seed"] == 7

    def test_config_file_not_mutated(self, config_path, tmp_path):
        before = config_path.read_bytes()
        main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert config_path.read_bytes() == before


class TestCompare:
    def test_single_seed(self, config_path, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--config", str(config_path), "--seeds", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert (out / "compare_seed42.json").exists()
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert aggregate["seeds"] == 1
        assert aggregate["base_seed"] == 42
        assert 0 <= aggregate["ptsa_wins"] <= 1

    def test_seed_batch(self, config_path, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--config", str(config_path), "--seeds", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
        for seed in (42, 43, 44):
            assert (out / f"compare_seed{seed}.json").exists()
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert aggregate["seeds"] == 3

    def test_zero_seeds_rejected(self, config_path, tmp_path, capsys):
        code = main(
            ["compare", "--config", str(config_path), "--seeds", "0", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_seed_range_checked_before_writing(self, tmp_path, capsys):
        path = tmp_path / "top.yaml"
        path.write_text(SMALL_CONFIG.replace("seed: 42", f"seed: {2**64 - 1}"))
        out = tmp_path / "cmp"
        code = main(["compare", "--config", str(path), "--seeds", "2", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_regular_file(self, config_path, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["compare", "--config", str(config_path), "--out", str(out)])
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err


class TestGenConfig:
    def test_round_trips_through_simulate(self, tmp_path):
        path = tmp_path / "reference.yaml"
        assert main(["gen-config", "--out", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK

    def test_reference_theta_is_eight(self, tmp_path):
        import yaml

        path = tmp_path / "reference.yaml"
        main(["gen-config", "--out", str(path)])
        data = yaml.safe_load(path.read_text())
        assert data["theta"] == 8

    def test_regeneration_identical(self, tmp_path):
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        main(["gen-config", "--out", str(a)])
        main(["gen-config", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text() == REFERENCE_CONFIG_TEXT == REFERENCE_YAML

    def test_unwritable_destination(self, tmp_path):
        code = main(["gen-config", "--out", str(tmp_path / "missing" / "ref.yaml")])
        assert code == EXIT_IO


class TestSelfCheck:
    def test_healthy_build_passes(self, capsys):
        assert main(["self-check"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS cumulative-weight oracle" in out
        assert "PASS branch table" in out

    def test_fault_injection_detected(self, capsys):
        assert main(["self-check", "--inject-fault"]) == EXIT_ORACLE
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "dag edges:" in out


NO_NUMPY_SCRIPT = """\
import sys
sys.modules["numpy"] = None  # any import of numpy now fails
from tanglesim.cli import main
config, out = sys.argv[1:]
assert main(["self-check"]) == 0
assert main(["simulate", "--config", config, "--out", out]) == 0
"""


class TestNoNumpy:
    def test_runs_with_numpy_blocked(self, config_path, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", NO_NUMPY_SCRIPT, str(config_path), str(tmp_path / "o")],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "o" / "trace.csv").exists()


class TestUsage:
    def test_unknown_flag_rejected(self, capsys):
        assert main(["simulate", "--bogus"]) != EXIT_OK

    def test_unknown_command_rejected(self):
        assert main(["frobnicate"]) != EXIT_OK
