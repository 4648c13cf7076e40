#!/usr/bin/env python3
"""Write BENCHMARK.json at the checkout root from spec.py.

    python3 tsbench/write_manifest.py
"""

from __future__ import annotations

import json
from pathlib import Path

import spec

BENCH_DIR = Path(__file__).resolve().parent


def manifest() -> dict:
    return {
        "command": ["python3", f"{BENCH_DIR.name}/run.py"],
        "paths": [BENCH_DIR.name],
        "run_seconds": spec.RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in spec.WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in spec.END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
        ],
    }


if __name__ == "__main__":
    target = BENCH_DIR.parent / "BENCHMARK.json"
    target.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {target}")
