"""Pinned sha256 digests of the `simulate` and `compare` outputs for fixed configs.

Reruns of one build are compared elsewhere (criterion 5); these digests pin
the outputs across refactors. A change that is meant to alter the model's
outputs updates them and says why in CHANGES.md.

`PYTHONPATH=src python tests/test_golden.py` prints the checkout's digests in
the shape of the constants below, so new digests can be computed at any
commit and compared with the pinned ones.
"""

import hashlib
import json
import tempfile
from pathlib import Path

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
    # every arrival sees the one before it, so a pool often holds one tip and
    # the single-tip fallback picks the second parent
    **{
        f"visibility-zero-{strategy}-seed42": {
            **REFERENCE, "strategy": strategy, "visibility_delay_seconds": 0.0,
        }
        for strategy in ("uniform", "ptsa")
    },
}
# the aging threshold lies below the visibility delay, so every visible id is
# aged: the one regime where the aged cutoff is set by the delay, not the
# threshold
CONFIGS["aging-below-delay-backlog-seed42"] = {
    **CONFIGS["ptsa-backlog-seed42"],
    "aging": {"enabled": True, "threshold_seconds": 2.0},
}

# name -> (sha256 of trace.csv, sha256 of summary.json)
GOLDEN = {
    "aging-before-visible-ptsa-seed42": (
        "0ee7c1f07dffcaf31075f077855899489bc4b54f5dd9774ef23c32eea405decb",
        "de3fc86669fa53c02bfc76a0906cc212f03f792fd482d7650716c9caa244a632",
    ),
    "aging-below-delay-backlog-seed42": (
        "3076febdaab37d2433a07dec338e333e96f281b6c8940ebfdd690fd28a871633",
        "7e3068aa336cb4eeb2c82c67d079061de2255178450af496a53f13b98cbb83f7",
    ),
    "aging-off-ptsa-seed42": (
        "422e24717de0ca02e65a45cf6841a9f934bcf94503bd286a7aae17e35bcd0779",
        "2d83e5d735ace5ae8a3e6e6d36f537e4377345933be13dd707687b6d9039ec28",
    ),
    "lambda40-ptsa-seed42": (
        "35396bac97a8950f0c099a9eff2a5696b9a8c7a5261eb1da9651e7b6a2a47c53",
        "39e37c3e575fff792de264e5760b1b5f2a10cceaf42bf309d748133da97b0227",
    ),
    "ptsa-backlog-seed42": (
        "ef8abb2231bfd48ca6e82ff17ca9a8196ffd997fc6ce237f664d68ed131cfbb4",
        "f022e0a74542c9d84583aa857111776667e6bb94a9c752da3a87f981012280a9",
    ),
    "reference-ptsa-seed42": (
        "422e24717de0ca02e65a45cf6841a9f934bcf94503bd286a7aae17e35bcd0779",
        "64666eca251b33a4e8b69c20ad21b7ca47f84a51494f468c2411121bf5d11cf4",
    ),
    "reference-ptsa-seed43": (
        "b194a2fafaa508b042d81ea12a0b7d330f7146a5e2bc2e06ce8da2e305d33e55",
        "e9331ea00e2b47fd72e61364d00452fc470c2258b2863ecb83a125c87ef38be9",
    ),
    "reference-ptsa-seed44": (
        "6aeb5392f6b7901ccbbba9473b74f357233d3a5f7e5aeba41d1be1a5aadc18c5",
        "2828a70e56de38cbf62d59916f1e8dbda59be57d1e6701c0ce0ccd261f47621a",
    ),
    "reference-uniform-seed42": (
        "1533473cd8a02dcdfa0f513a861bb1a28f697d5ddd3de443feb6a41ddeeb8509",
        "7f71ae2dcb9b4a8332e9169de9220ba1a43ec937bbd2f978a3f4f7de5af537c3",
    ),
    "reference-uniform-seed43": (
        "9b9fa4d4a5be2504b21bb6ac9884a3537bbccb73822a048c574606deae6cff62",
        "004cfc42ed3f7d0b43fc2b96c112781451f5e0fb495a84134d37038fe83ee5f8",
    ),
    "reference-uniform-seed44": (
        "0a8179198642471e0781049cd37c049a35834ad8db882bda96e4927c94c8668a",
        "fc4974047d71ba3147c2aed24d717975044a11d2cef4791c5c42f5f70ac0e3fd",
    ),
    "theta1-ptsa-seed42": (
        "f7392f0a362ec7a7714c5a7c7e0486343aa3ec5c3b4b6689af604a3d5ca77f5d",
        "0006903886c9064fc8f32983f0c41828fd0d1db84443a0ca3e17c259c9c6afb7",
    ),
    "visibility-zero-ptsa-seed42": (
        "1e4c456d56f8e1a69849125cc79351da3b33bc934e41ad4ff5a6d5b63230ea5e",
        "11e2f8f5d403fa44413e3c5285f34a892249d372837563035b0b27165279b92c",
    ),
    "visibility-zero-uniform-seed42": (
        "e47e1de719714bcd1652887f17cefb124efb2c11fabe7bb8d20d90340d2af0cc",
        "5b7ae08b09a0e00c4ec9b4fc2b13879f5f38c18b81d624a88f755da43f9b8953",
    ),
}


# file -> sha256, for `compare --seeds 2` on the reference config
COMPARE_GOLDEN = {
    "compare_seed42.json": "5aa642123792f279de55cc20b3c9074c333f2bcd3e89cb4d2bb28df358d9878c",
    "compare_seed43.json": "b1676b325b29a90f9034b5fdbd73e6f7767ee0d83a95f1589da35612914537d9",
    "aggregate.json": "a8442442fce82564dbb2b70ec5f0b2ea5407f26815960445de29207a102ff0d2",
}


# sha256 of every record's promoted_at and the tip-pool series derived from
# the records (`tip_pool_series`), neither of which an output file holds, for
# the ptsa-backlog config
IN_MEMORY_GOLDEN = "184dfe80ebc06794d572518c5e2c29264626b3dbc566421f4db51db17e2c50cd"
# the same for the ptsa-backlog config under the uniform strategy
UNIFORM_IN_MEMORY_GOLDEN = "bcd1d094b63396f1f6d745726650ac6923baba4e6568e9c87ab2c67184681dd7"
# the same for the aging-below-delay-backlog config
AGING_BELOW_DELAY_IN_MEMORY_GOLDEN = (
    "99fab56c369bbc79a7b30e66fe576eea000ff0d71af9804fd0c862298bfe2340"
)


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


def compare_digests(tmp_path) -> dict[str, str]:
    """File name -> sha256 of every file `compare --seeds 2` writes on the
    reference config."""
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(REFERENCE))
    out = tmp_path / "out"
    args = ["compare", "--config", str(config_path), "--seeds", "2", "--out", str(out)]
    assert main(args) == EXIT_OK
    return {p.name: _sha256(p) for p in sorted(out.iterdir())}


def test_compare_outputs_match_golden_digests(tmp_path):
    assert compare_digests(tmp_path) == COMPARE_GOLDEN


def tip_pool_series(records) -> list[tuple[float, int]]:
    """(issue time, number of tips) after each record, in id order: genesis
    starts as the one tip, and each record adds itself and removes each of its
    parents that no earlier record approved."""
    approved: set[int] = set()
    tips = 1
    series = []
    for r in records:
        fresh = set(r.parents) - approved
        approved |= fresh
        tips += 1 - len(fresh)
        series.append((r.issued_at, tips))
    return series


def in_memory_digest(config: dict) -> str:
    trace = run_simulation(SimConfig.from_dict(config))
    pinned = {
        "promoted_at": [[r.id, r.promoted_at] for r in trace.records],
        "tip_pool_sizes": tip_pool_series(trace.records),
    }
    return hashlib.sha256(json.dumps(pinned).encode()).hexdigest()


# in-memory digest constant -> its config
IN_MEMORY_CONFIGS = {
    "IN_MEMORY_GOLDEN": CONFIGS["ptsa-backlog-seed42"],
    "UNIFORM_IN_MEMORY_GOLDEN": {**CONFIGS["ptsa-backlog-seed42"], "strategy": "uniform"},
    "AGING_BELOW_DELAY_IN_MEMORY_GOLDEN": CONFIGS["aging-below-delay-backlog-seed42"],
}


def test_promotions_and_tip_pool_match_golden_digest():
    assert in_memory_digest(IN_MEMORY_CONFIGS["IN_MEMORY_GOLDEN"]) == IN_MEMORY_GOLDEN


def test_uniform_promotions_and_tip_pool_match_golden_digest():
    config = IN_MEMORY_CONFIGS["UNIFORM_IN_MEMORY_GOLDEN"]
    assert in_memory_digest(config) == UNIFORM_IN_MEMORY_GOLDEN


def test_aging_below_delay_promotions_and_tip_pool_match_golden_digest():
    config = IN_MEMORY_CONFIGS["AGING_BELOW_DELAY_IN_MEMORY_GOLDEN"]
    assert in_memory_digest(config) == AGING_BELOW_DELAY_IN_MEMORY_GOLDEN


def print_digests() -> None:
    """Print this checkout's digests as the constants above are written."""
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name in sorted(CONFIGS):
            run_dir = Path(tmp, name)
            run_dir.mkdir()
            trace_digest, summary_digest = simulate_digests(CONFIGS[name], run_dir)
            print(f'    "{name}": (\n        "{trace_digest}",\n        "{summary_digest}",\n    ),')
        print("}")
        compare_dir = Path(tmp, "compare")
        compare_dir.mkdir()
        print("COMPARE_GOLDEN = {")
        for name, digest in compare_digests(compare_dir).items():
            print(f'    "{name}": "{digest}",')
        print("}")
    for constant, config in IN_MEMORY_CONFIGS.items():
        print(f'{constant} = "{in_memory_digest(config)}"')


if __name__ == "__main__":
    print_digests()
