"""Pinned sha256 digests of the `simulate` and `compare` outputs for fixed configs.

Reruns of one build are compared elsewhere (criterion 5); these digests pin
the outputs across refactors. A change that is meant to alter the model's
outputs updates them and says why in CHANGES.md.
"""

import hashlib
import json

import pytest
import yaml

from tanglesim.cli import EXIT_OK, main
from tanglesim.engine import SimConfig, run_simulation

REFERENCE = SimConfig().to_dict()

CONFIGS = {
    **{
        f"reference-{strategy}-seed{seed}": {**REFERENCE, "strategy": strategy, "seed": seed}
        for strategy in ("uniform", "ptsa")
        for seed in (42, 43, 44)
    },
    "lambda40-ptsa-seed42": {**REFERENCE, "lambda": 40.0},
    "ptsa-backlog-seed42": {
        **REFERENCE,
        "lambda": 20.0,
        "rho": 0.5,
        "visibility_delay_seconds": 3.0,
        "theta": 32,
    },
    # every arrival confirms at once, so confirmed transactions stay tips
    "theta1-ptsa-seed42": {**REFERENCE, "theta": 1},
    # the aging cutoff lies after the visibility cutoff, so the visible prefix
    # bounds the aged one
    "aging-before-visible-ptsa-seed42": {
        **REFERENCE,
        "visibility_delay_seconds": 3.0,
        "aging": {"enabled": True, "threshold_seconds": 0.5},
    },
    "aging-off-ptsa-seed42": {
        **REFERENCE,
        "aging": {"enabled": False, "threshold_seconds": 30.0},
    },
}

# name -> (sha256 of trace.csv, sha256 of summary.json)
GOLDEN = {
    "aging-before-visible-ptsa-seed42": (
        "86bcdebcd0b3e2bef61564d8f177fb156a2c25c455530d8ee87834905fc49683",
        "3628ee0ebe21a548d4b48995048b5e00293e2b3185ddb4bb664e828e6c133455",
    ),
    "aging-off-ptsa-seed42": (
        "68479875327e9b5f886c38c13b4b79c5fad866b182acac1c25d442c63921d4cc",
        "bf0c8da75f127cabc8332bcf52f147a13e7a70ef13cb166d1a7eb7556a2b0a40",
    ),
    "lambda40-ptsa-seed42": (
        "074e43553c362aeb4e34ad358c4c2cc3118804111739ce52e18f142bba572788",
        "e9782e8ce62e0f59be29b018686c781aedf1c31e8b5cce9988b347f3ec4eadba",
    ),
    "ptsa-backlog-seed42": (
        "eb9a77f4249f3a327d94a8608db05b924b1441f345b54562449593b9566fc3d0",
        "e5b769fab656e9d92d5e59a9eee0a32182509e3f54587158cfb90bc6df3fae5d",
    ),
    "reference-ptsa-seed42": (
        "68479875327e9b5f886c38c13b4b79c5fad866b182acac1c25d442c63921d4cc",
        "893c1d72f09825567675281e8d87b20eebea1b163418c494fba819db227995be",
    ),
    "reference-ptsa-seed43": (
        "1acfcc4410a995168b85b91cf7a464ca7394eab8da6db49a50723f1292df28c8",
        "8a66392dac269a1fcee253196a873d2df252b22675828a9319c1ce7bc060311c",
    ),
    "reference-ptsa-seed44": (
        "53058271ac50f7b25d50e3e7100a40a23f8902ff6192aacfb999f9e749e6d649",
        "a34916a8194531bfec81b2493c4e8dcc40e13f325b534eceb3a2373c12c19e38",
    ),
    "reference-uniform-seed42": (
        "a27927a647b6f1b6217ce1afb7960cf0eb23276e91bfab5ceb5f9527d72c24cd",
        "575d697d689fbb0ae273bffada10198e2d7296c7246ac3ae3e6b424f66cd4077",
    ),
    "reference-uniform-seed43": (
        "bf6e19a405b501ec05ad3fb8b622af8628e6529ddd54f938d64ab0397e1688b7",
        "2dc92048baed9ba3136194c8f1f593e65db1c8ac9047b992e6d8d514584cee62",
    ),
    "reference-uniform-seed44": (
        "240d6c3323300f9b00f3062f9f778b493e336caf5e9686c0ec5e2249f7340e76",
        "60ea4a085be54d6399af056eefe6baa202765a51089a4935022c74851b9ab15c",
    ),
    "theta1-ptsa-seed42": (
        "1e865775bf9b1ba6b125c54556bb730792ba39698a90a2f12d5ac781bfe319bc",
        "0006903886c9064fc8f32983f0c41828fd0d1db84443a0ca3e17c259c9c6afb7",
    ),
}


# file -> sha256, for `compare --seeds 2` on the reference config
COMPARE_GOLDEN = {
    "compare_seed42.json": "619ce368ef6fa748206f48e3a1ef247bb30964eb3dc3a228a91cb3afa92484d1",
    "compare_seed43.json": "af64d6ea6ae7f0d1fa73775ee877fb8a7a484b22fe3d0f3b43fab6c49924a81a",
    "aggregate.json": "77ee75f2cf80b90b916ced30a754f398ebcc3fd93895c1a6eb080e2f1fc3e08b",
}


# sha256 of every record's promoted_at and the tip-pool series, which no
# output file holds, for the ptsa-backlog config
IN_MEMORY_GOLDEN = "2a0e49959ddc2c4b42ecebaacc285bce4ecd5f59cfaaaa3337683dc3ae0b4317"
# the same for the ptsa-backlog config under the uniform strategy
UNIFORM_IN_MEMORY_GOLDEN = "e521b15768f6976585a4a115b8ab06fd8b3af84e8c032665067fa916849c8a23"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate_digests(config: dict, tmp_path) -> tuple[str, str]:
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    return tuple(_sha256(out / name) for name in ("trace.csv", "summary.json"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(name, tmp_path):
    assert simulate_digests(CONFIGS[name], tmp_path) == GOLDEN[name]


def test_compare_outputs_match_golden_digests(tmp_path):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(REFERENCE))
    out = tmp_path / "out"
    args = ["compare", "--config", str(config_path), "--seeds", "2", "--out", str(out)]
    assert main(args) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == sorted(COMPARE_GOLDEN)
    assert {name: _sha256(out / name) for name in COMPARE_GOLDEN} == COMPARE_GOLDEN


def in_memory_digest(config: dict) -> str:
    trace = run_simulation(SimConfig.from_dict(config))
    pinned = {
        "promoted_at": [[r.id, r.promoted_at] for r in trace.records],
        "tip_pool_sizes": trace.tip_pool_sizes,
    }
    return hashlib.sha256(json.dumps(pinned).encode()).hexdigest()


def test_promotions_and_tip_pool_match_golden_digest():
    assert in_memory_digest(CONFIGS["ptsa-backlog-seed42"]) == IN_MEMORY_GOLDEN


def test_uniform_promotions_and_tip_pool_match_golden_digest():
    config = {**CONFIGS["ptsa-backlog-seed42"], "strategy": "uniform"}
    assert in_memory_digest(config) == UNIFORM_IN_MEMORY_GOLDEN
