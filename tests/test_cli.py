import argparse
import dataclasses
import gc
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

from tanglesim.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_ORACLE,
    build_parser,
    main,
)
from tanglesim import cli, oracle
from tanglesim.engine import SimConfig, SimTrace, reference_config_text
from tanglesim.oracle import brute_force_cumulative_weights, brute_force_tips
from tanglesim.selection import select_ptsa

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

    def test_theta_past_walk_budget_names_field(self, tmp_path, capsys):
        # lambda * horizon_seconds is 300 here, so theta may be at most 3333333
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_CONFIG.replace("theta: 8", "theta: 3333334"))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "theta" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    # bytes that are not UTF-8, and YAML that PyYAML parses but cannot build
    # into Python values: a date out of range, an int past Python's 4300-digit
    # limit, nesting past the recursion limit
    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe\x00",
            b"seed: 2001-13-45\n",
            b"seed: 1" + b"0" * 5000 + b"\n",
            b"lambda: " + b"[" * 10_000 + b"]" * 10_000 + b"\n",
        ],
        ids=["utf16", "bad-date", "long-int", "deep-nesting"],
    )
    def test_undecodable_config_names_file(self, content, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_bytes(content)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "config error: invalid config field '<file>'" in capsys.readouterr().err

    # PyYAML alone would keep the last value of a repeated key
    @pytest.mark.parametrize(
        "content, field",
        [
            (SMALL_CONFIG.replace("theta: 8", "theta: 0\ntheta: 8"), "theta"),
            (SMALL_CONFIG.replace("  enabled: true", "  enabled: false\n  enabled: true"),
             "aging.enabled"),
            (SMALL_CONFIG + "aging:\n  enabled: false\n", "aging"),
        ],
        ids=["top-level", "inside-aging", "aging-section"],
    )
    def test_repeated_key_names_field(self, content, field, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text(content)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"config error: invalid config field '{field}'" in capsys.readouterr().err

    # an alias may point back into its own mapping, or a chain of them may
    # double at each level; the repeated-key check reads only the root and
    # `aging`, so neither file makes it loop or visit 2**40 nodes
    @pytest.mark.parametrize(
        "content, field",
        [
            ("aging: &x {enabled: *x}\n", "aging.enabled"),
            ("a0: &a0 {x: 1}\n"
             + "".join(f"a{i}: &a{i} {{p: *a{i - 1}, q: *a{i - 1}}}\n" for i in range(1, 40))
             + "aging: {p: *a39, q: *a39}\n", "a0"),
        ],
        ids=["self-referential", "doubling-chain"],
    )
    def test_aliases_end_the_key_check(self, content, field, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text(content)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"config error: invalid config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["false", "0", '""', "[]"])
    def test_falsy_root_names_root(self, text, tmp_path, capsys):
        path = tmp_path / "falsy.yaml"
        path.write_text(text + "\n")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "<root>" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "# only a comment\n"])
    def test_empty_file_means_defaults(self, text, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"] == SimConfig().to_dict()

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


def output_files(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("command", [["simulate"], ["compare", "--seeds", "2"]])
def test_outputs_build_no_records(command, config_path, tmp_path, monkeypatch):
    # the outputs read the ledger's columns; `TxRecord`s are for tests only
    args = [*command, "--config", str(config_path), "--out"]
    assert main([*args, str(tmp_path / "normal")]) == EXIT_OK

    def no_records(self):
        raise AssertionError("SimTrace.records read")

    monkeypatch.setattr(SimTrace, "records", property(no_records))
    assert main([*args, str(tmp_path / "patched")]) == EXIT_OK
    assert output_files(tmp_path / "patched") == output_files(tmp_path / "normal")


# float fields with more decimals than the reports keep
LONG_DECIMALS_CONFIG = (
    SMALL_CONFIG.replace("lambda: 10.0", "lambda: 10.1234567891")
    .replace("rho: 0.05", "rho: 0.0512345678")
    .replace("horizon_seconds: 30.0", "horizon_seconds: 30.1234567891")
)


def floats_in(value):
    """Every float in `value`, through nested dicts."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from floats_in(v)


def test_reports_round_every_float_but_the_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(LONG_DECIMALS_CONFIG)
    config = SimConfig.from_dict(yaml.safe_load(LONG_DECIMALS_CONFIG))
    fields = (config.arrival_rate, config.priority_fraction, config.horizon)
    assert all(round(x, 6) != x for x in fields)
    sim, cmp = tmp_path / "sim", tmp_path / "cmp"
    assert main(["simulate", "--config", str(path), "--out", str(sim)]) == EXIT_OK
    assert main(["compare", "--config", str(path), "--seeds", "2", "--out", str(cmp)]) == EXIT_OK

    summary = json.loads((sim / "summary.json").read_text())
    assert summary["config"] == config.to_dict()
    rounded = [*floats_in(summary["stats"])]
    for seed in (42, 43):
        report = json.loads((cmp / f"compare_seed{seed}.json").read_text())
        assert report["config"] == dataclasses.replace(config, seed=seed).to_dict()
        rounded += [*floats_in(report["uniform"]), *floats_in(report["ptsa"])]
    rounded.append(json.loads((cmp / "aggregate.json").read_text())["mean_latency_reduction"])
    assert all(isinstance(x, float) and round(x, 6) == x for x in rounded)


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
        assert a.read_text() == reference_config_text() == REFERENCE_YAML

    def test_readme_config_reference_is_gen_config(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Config reference", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        assert block == reference_config_text()

    def test_unwritable_destination(self, tmp_path):
        code = main(["gen-config", "--out", str(tmp_path / "missing" / "ref.yaml")])
        assert code == EXIT_IO


class TestSelfCheck:
    def test_healthy_build_passes(self, capsys):
        assert main(["self-check"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS cumulative-weight oracle" in out
        assert "PASS branch table" in out

    def test_fault_injection_detected(self, capsys, monkeypatch):
        def one_weight_off(parents):
            weights = brute_force_cumulative_weights(parents)
            weights[len(parents) // 2] += 1
            return weights

        monkeypatch.setattr(oracle, "brute_force_cumulative_weights", one_weight_off)
        assert main(["self-check"]) == EXIT_ORACLE
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "dag edges:" in out

    def test_branch_table_mutant_detected(self, capsys, monkeypatch):
        def common_from_priority(candidates, rng):
            # the common slot drawn from the priority pool instead
            pools = SimpleNamespace(priority=candidates.priority, tips=candidates.tips,
                                    common=candidates.priority or candidates.common)
            return select_ptsa(pools, rng)

        monkeypatch.setattr(oracle, "select_ptsa", common_from_priority)
        assert main(["self-check"]) == EXIT_ORACLE
        out = capsys.readouterr().out
        assert "PASS cumulative-weight oracle" in out
        assert "FAIL branch table" in out

    def test_tip_set_mutant_detected(self, capsys, monkeypatch):
        def one_tip_dropped(parents):
            tips = brute_force_tips(parents)
            return tips - {min(tips)}

        monkeypatch.setattr(oracle, "brute_force_tips", one_tip_dropped)
        assert main(["self-check"]) == EXIT_ORACLE
        out = capsys.readouterr().out
        assert "FAIL tip-set oracle" in out
        assert "dag edges:" in out
        assert "PASS branch table" in out


def run_python(*args):
    """A fresh interpreter on this checkout's `src/`."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


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
        result = run_python("-c", NO_NUMPY_SCRIPT, str(config_path), str(tmp_path / "o"))
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "o" / "trace.csv").exists()


COMMANDS_SCRIPT = """\
import sys
from tanglesim.cli import main
config, out = sys.argv[1:]
assert main(["simulate", "--config", config, "--out", out]) == 0
assert main(["compare", "--config", config, "--seeds", "1", "--out", out]) == 0
print(*sorted(sys.modules))
"""


def test_start_imports_no_oracle(config_path, tmp_path):
    # only `self-check` needs the oracle, so no other command pays its import
    result = run_python("-c", COMMANDS_SCRIPT, str(config_path), str(tmp_path / "o"))
    loaded = result.stdout.split()
    assert "tanglesim.cli" in loaded, result.stderr
    assert "tanglesim.oracle" not in loaded


class TestEntryPoint:
    def test_freezes_the_collector_after_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(sys, "exit", lambda status: calls.append(("exit", status)))
        frozen = gc.get_freeze_count()
        cli.entry_point()
        assert calls == ["main", "freeze", ("exit", 3)]
        assert gc.get_freeze_count() == frozen  # this process keeps its collector

    def test_module_run_writes_main_outputs(self, config_path, tmp_path):
        result = run_python(
            "-m", "tanglesim.cli", "simulate",
            "--config", str(config_path), "--out", str(tmp_path / "child"),
        )
        assert result.returncode == EXIT_OK, result.stderr
        here = ["simulate", "--config", str(config_path), "--out", str(tmp_path / "here")]
        assert main(here) == EXIT_OK
        assert output_files(tmp_path / "child") == output_files(tmp_path / "here")
        assert set(output_files(tmp_path / "child")) == {"trace.csv", "summary.json"}

    def test_module_run_exit_status_names_field(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_CONFIG.replace("rho: 0.05", "rho: 1.5"))
        result = run_python(
            "-m", "tanglesim.cli", "simulate", "--config", str(path), "--out", str(tmp_path / "o"),
        )
        assert result.returncode == EXIT_CONFIG
        assert "config error: invalid config field 'rho'" in result.stderr


class TestUsage:
    def test_unknown_flag_rejected(self, capsys):
        for argv in (
            ["simulate", "--bogus"],
            ["simulate", "--config", "config.yaml", "--seed", "7", "--out", "out"],
            ["self-check", "--inject-fault"],
        ):
            assert main(argv) == 2, argv  # argparse's usage-error status

    def test_unknown_command_rejected(self):
        assert main(["frobnicate"]) != EXIT_OK


def readme_cli_lines():
    """Each `tanglesim ...` command in README's CLI block, split into words
    with its trailing comment left out."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("tanglesim ")]


def test_options_are_readme_cli_block():
    parser = build_parser()
    shown: dict[str, set[str]] = {}
    for words in readme_cli_lines():
        parser.parse_args(words[1:])  # argparse exits 2 on a line it rejects
        shown.setdefault(words[1], set()).update(w for w in words if w.startswith("--"))
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert options == shown
