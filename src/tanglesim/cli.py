"""Command-line entry point.

Exit statuses are a stable contract: 0 success, 1 config error, 2 I/O
error or command-line usage error, 3 oracle failure. Only `main` maps
exceptions to them.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import yaml

from tanglesim.engine import (
    ConfigInvalid,
    SimConfig,
    paired_runs,
    reference_config_text,
    run_simulation,
)
from tanglesim.metrics import compare, export_csv, export_json, trace_summary
from tanglesim.selfcheck import run_self_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_ORACLE = 3

REFERENCE_CONFIG_TEXT = reference_config_text()


def _load_config(path: str) -> SimConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigInvalid("<file>", f"cannot read {path}: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigInvalid("<file>", f"cannot parse {path}: {exc}") from exc
    return SimConfig.from_dict(data or {})


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    trace = run_simulation(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_csv(trace, out / "trace.csv")
    export_json(trace_summary(trace), out / "summary.json")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ConfigInvalid("seeds", "must be >= 1")
    config = _load_config(args.config)
    # building the batch's last seed checks it before any file is written
    dataclasses.replace(config, seed=config.seed + args.seeds - 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for offset in range(args.seeds):
        run_config = dataclasses.replace(config, seed=config.seed + offset)
        report = compare(*paired_runs(run_config))
        export_json(report.to_dict(), out / f"compare_seed{run_config.seed}.json")
        reports.append(report)
    export_json(_aggregate(config, reports), out / "aggregate.json")
    return EXIT_OK


def _aggregate(config: SimConfig, reports: list) -> dict:
    wins = 0
    means_u, means_p = [], []
    for report in reports:
        mu = report.uniform["priority"].mean_latency
        mp = report.ptsa["priority"].mean_latency
        if mu is not None and mp is not None:
            means_u.append(mu)
            means_p.append(mp)
            if mp < mu:
                wins += 1
    if means_u and sum(means_u) > 0:
        avg_u = sum(means_u) / len(means_u)
        avg_p = sum(means_p) / len(means_p)
        reduction = round((avg_u - avg_p) / avg_u, 6)
    else:
        reduction = None
    return {
        "base_seed": config.seed,
        "seeds": len(reports),
        "ptsa_wins": wins,
        "mean_latency_reduction": reduction,
    }


def cmd_gen_config(args: argparse.Namespace) -> int:
    with open(args.out, "w") as fh:
        fh.write(REFERENCE_CONFIG_TEXT)
    return EXIT_OK


def cmd_self_check(args: argparse.Namespace) -> int:
    ok = run_self_check(fault_inject=args.inject_fault)
    return EXIT_OK if ok else EXIT_ORACLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanglesim",
        description="Deterministic DAG-ledger simulator with priority-based tip selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    p_sim.add_argument("--config", required=True, help="config file (YAML)")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="paired uniform-vs-ptsa runs over a seed batch")
    p_cmp.add_argument("--config", required=True, help="config file (YAML)")
    p_cmp.add_argument("--seeds", type=int, default=1, help="number of paired seeds")
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen-config", help="write the reference config")
    p_gen.add_argument("--out", required=True, help="destination path")
    p_gen.set_defaults(func=cmd_gen_config)

    p_chk = sub.add_parser("self-check", help="run the built-in oracle checks")
    p_chk.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt one cumulative weight to exercise the failure path",
    )
    p_chk.set_defaults(func=cmd_self_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report unknown flags as such
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
