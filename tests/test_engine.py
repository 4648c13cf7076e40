import dataclasses
import math
import random
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import tanglesim.engine as engine
from tanglesim.engine import (
    _FIELDS,
    MAX_WALK_STEPS,
    STRATEGIES,
    ConfigInvalid,
    SimConfig,
    generate_workload,
    paired_runs,
    run_simulation,
)
from tanglesim.metrics import export_csv
from tanglesim.oracle import brute_force_tips, reference_run
from tanglesim.selection import BRANCH_P0, BRANCH_P1, BRANCH_P2, select_ptsa
from test_bench_contract import BACKLOG_60S
from test_golden import tip_pool_series

SMALL = SimConfig(horizon=60.0)
# the `ptsa-backlog` shape cut to 60 s, where aging promotes
BACKLOG = SimConfig(
    arrival_rate=20.0, priority_fraction=0.5, horizon=60.0, visibility_delay=3.0, theta=32
)
# a run's every column: two runs that agree on these agree on every output
COLUMNS = ("parents", "issued", "flags", "weight", "confirmed_at", "promoted_at")


class TestConfigValidation:
    @pytest.mark.parametrize(
        "changes,field",
        [
            ({"arrival_rate": 0.0}, "lambda"),
            ({"priority_fraction": 1.5}, "rho"),
            ({"priority_fraction": -0.1}, "rho"),
            ({"horizon": 0.0}, "horizon_seconds"),
            ({"visibility_delay": -1.0}, "visibility_delay_seconds"),
            ({"theta": 0}, "theta"),
            ({"strategy": "mcmc"}, "strategy"),
            ({"seed": -1}, "seed"),
            ({"pinned_priority": (0,)}, "pinned_priority"),
            ({"arrival_rate": 1.0e12}, "horizon_seconds"),
            # one past the walk budget: theta * lambda * horizon_seconds > 10^9
            ({"horizon": 100.0, "theta": MAX_WALK_STEPS // 1000 + 1}, "theta"),
            # 2M expected arrivals at a lambda so small that 10^9 / lambda
            # overflows to inf: the budget still binds
            ({"arrival_rate": 5.0e-300, "horizon": 4.0e305, "theta": 10**15}, "theta"),
        ],
    )
    def test_bounds_rejected_naming_field(self, changes, field):
        with pytest.raises(ConfigInvalid) as excinfo:
            dataclasses.replace(SimConfig(), **changes)
        assert excinfo.value.field_name == field
        assert field in str(excinfo.value)

    def test_default_config_valid(self):
        SimConfig()

    def test_every_field_has_a_key(self):
        # two fields declaring one YAML key would leave one of them out of
        # validation, `from_dict`, `to_dict` and gen-config
        assert len(_FIELDS) == len(dataclasses.fields(SimConfig))

    def test_dict_round_trip(self):
        config = SimConfig(seed=7, pinned_priority=(1, 2, 3))
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_readme_config_reference_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Config reference", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        assert yaml.safe_load(block) == SimConfig().to_dict()

    def test_yaml_int_in_number_field_stored_as_float(self):
        # every route to a config: YAML, the constructor and `replace`
        for config in (
            SimConfig.from_dict(yaml.safe_load("lambda: 10\nhorizon_seconds: 60")),
            SimConfig(arrival_rate=10, horizon=60),
            dataclasses.replace(SimConfig(), arrival_rate=10, horizon=60),
        ):
            assert repr(config.to_dict()["lambda"]) == "10.0"
            assert repr(config.to_dict()["horizon_seconds"]) == "60.0"
            assert isinstance(config.horizon, float)

    def test_million_tx_rung_accepted(self):
        config = SimConfig.from_dict({"lambda": 100.0, "horizon_seconds": 10000.0})
        assert config.arrival_rate * config.horizon == 1_000_000

    def test_walk_budget_just_inside_runs(self):
        # theta out of reach: nothing confirms, so each walk covers the
        # arrival's whole ancestry, the most steps N arrivals can take
        config = SimConfig(horizon=100.0, theta=MAX_WALK_STEPS // 1000, strategy="uniform",
                           aging_enabled=False)
        start = time.process_time()
        ledger = run_simulation(config).ledger
        assert time.process_time() - start < 1.0
        assert len(ledger) > 1001
        assert ledger.confirmed_at == {}

    def test_underflowing_expected_count_runs(self):
        # lambda * horizon_seconds underflows to 0.0, which bounds no theta
        config = SimConfig(arrival_rate=1.0e-200, horizon=1.0e-200, theta=10**15)
        assert len(run_simulation(config).ledger) == 1  # genesis alone

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            SimConfig.from_dict({"lambda": 1.0, "mu": 2.0})

    def test_aging_section_with_every_key_commented_out(self):
        text = "lambda: 10.0\naging:\n  # enabled: false\n"
        assert SimConfig.from_dict(yaml.safe_load(text)) == SimConfig()

    def test_unknown_aging_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            SimConfig.from_dict({"aging": {"enabled": True, "rate": 2}})

    # Parsed only, never simulated: an accepted infinite rate or horizon, or
    # 3e14 expected transactions, would never finish.
    @pytest.mark.parametrize(
        "text,field",
        [
            ("lambda: .inf", "lambda"),
            ("horizon_seconds: .inf", "horizon_seconds"),
            ("visibility_delay_seconds: .nan", "visibility_delay_seconds"),
            ("aging: {threshold_seconds: .nan}", "aging.threshold_seconds"),
            ("aging: {threshold_seconds: abc}", "aging.threshold_seconds"),
            ("theta: true", "theta"),
            ("seed: true", "seed"),
            ("aging: {enabled: 'false'}", "aging.enabled"),
            ("lambda: true", "lambda"),
            ("rho: false", "rho"),
            ("horizon_seconds: true", "horizon_seconds"),
            ("visibility_delay_seconds: true", "visibility_delay_seconds"),
            ("aging: {threshold_seconds: true}", "aging.threshold_seconds"),
            ("lambda: abc", "lambda"),
            ("lambda: 1.0e+12", "horizon_seconds"),
            # the `aging.*` keys belong inside `aging:`, not at the top level
            ("aging.enabled: false\naging.threshold_seconds: 0.0", "aging.enabled"),
            ("aging: {enabled: true}\naging.enabled: false", "aging.enabled"),
            # only a null `aging:` section means the defaults
            ("aging: false", "aging"),
            ("aging: 0", "aging"),
            ("aging: []", "aging"),
            # past a float's range, where `theta * lambda` would overflow
            pytest.param("theta: 1" + "0" * 400, "theta", id="theta: 1e400-theta"),
        ],
    )
    def test_non_finite_and_mistyped_values_rejected(self, text, field):
        with pytest.raises(ConfigInvalid) as excinfo:
            SimConfig.from_dict(yaml.safe_load(text))
        assert excinfo.value.field_name == field


YAML_KEYS = (
    "lambda",
    "rho",
    "horizon_seconds",
    "visibility_delay_seconds",
    "theta",
    "strategy",
    "aging.enabled",
    "aging.threshold_seconds",
    "seed",
    "pinned_priority",
)
NAN, INF = float("nan"), float("inf")
# values no number field accepts; 10**400 is past a float's range
NOT_A_NUMBER = [NAN, INF, -INF, True, False, "abc", None, 10**400]


def _value(valid, invalid):
    """(value, in range): from `valid`, or one draw in ten from the list `invalid`."""
    out_of_range = st.sampled_from(invalid).map(lambda v: (v, False))
    in_range = valid.map(lambda v: (v, True))
    return st.integers(0, 9).flatmap(lambda k: out_of_range if k == 0 else in_range)


# In-range values keep lambda * horizon_seconds <= 600 and theta <= 64, so an
# accepted config runs in milliseconds. Both may be 1e-200, where their product
# underflows to 0.0.
TINY = st.just(1.0e-200)
CONFIG_VALUES = st.fixed_dictionaries(
    {
        "lambda": _value(
            st.floats(0.1, 30.0) | st.integers(1, 30) | TINY, [*NOT_A_NUMBER, 0.0, -1.0, 1.0e12]
        ),
        "rho": _value(st.floats(0.0, 1.0), [*NOT_A_NUMBER, -0.1, 1.5]),
        "horizon_seconds": _value(st.floats(0.5, 20.0) | TINY, [*NOT_A_NUMBER, 0.0, -5.0]),
        "visibility_delay_seconds": _value(st.floats(0.0, 5.0), [*NOT_A_NUMBER, -1.0]),
        "theta": _value(st.integers(1, 64), [NAN, INF, True, 0, -3, 2.0, "8"]),
        "strategy": _value(st.sampled_from(["uniform", "ptsa"]), ["mcmc", "", 1, None]),
        "aging.enabled": _value(st.booleans(), ["false", 0, 1, None]),
        "aging.threshold_seconds": _value(st.floats(0.1, 30.0), [*NOT_A_NUMBER, -1.0]),
        "seed": _value(st.integers(0, 2**64 - 1), [NAN, True, -1, 2**64, 1.5, "42"]),
        "pinned_priority": _value(
            st.lists(st.integers(1, 50), max_size=4), [[0], [-1], [True], [1.5], "1", 3]
        ),
    }
)


# the seed `derandomize` derived from this test's source before the seed was
# pinned, so an edit to the test no longer redraws its examples
@seed(20406455627292613605422277680112280735895281138336505222875997514452016477805205598763452557994914004002951264670452)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(CONFIG_VALUES)
def test_random_config_rejected_naming_key_or_runs(values):
    data: dict = {}
    for key, (value, _) in values.items():
        section, _, name = key.rpartition(".")
        (data.setdefault(section, {}) if section else data)[name] = value
    try:
        config = SimConfig.from_dict(data)
    except ConfigInvalid as exc:
        assert exc.field_name in YAML_KEYS
        assert not all(in_range for _, in_range in values.values())
        return
    ledger = run_simulation(config).ledger
    assert list(zip(ledger.issued[1:], ledger.flags[1:])) == generate_workload(config)
    assert all(p < j for j, parents in enumerate(ledger.parents) for p in parents)
    assert all(t >= ledger.issued[i] for i, t in ledger.confirmed_at.items())


class TestWorkload:
    def test_reference_arrival_count_pinned(self):
        config = dataclasses.replace(SimConfig(), horizon=100.0)
        arrivals = generate_workload(config)
        assert len(arrivals) == 1020  # within 4 sigma of the Poisson mean 1000
        assert abs(len(arrivals) - 1000) <= 127

    def test_times_strictly_increasing_within_horizon(self):
        arrivals = generate_workload(SMALL)
        times = [t for t, _ in arrivals]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert times[-1] <= SMALL.horizon

    def test_rho_zero_tags_nothing(self):
        config = dataclasses.replace(SMALL, priority_fraction=0.0)
        assert not any(flag for _, flag in generate_workload(config))

    def test_rho_one_tags_everything(self):
        config = dataclasses.replace(SMALL, priority_fraction=1.0)
        assert all(flag for _, flag in generate_workload(config))

    def test_pinned_ordinals_forced(self):
        config = dataclasses.replace(
            SMALL, priority_fraction=0.0, pinned_priority=(1, 2, 5)
        )
        arrivals = generate_workload(config)
        flags = [flag for _, flag in arrivals]
        assert flags[0] and flags[1] and flags[4]
        assert sum(flags) == 3

    def test_pinning_adds_flags_and_moves_no_arrival(self):
        # on the reference config: pinning only sets the named ordinals' flags,
        # ignores ordinals past the last arrival, and draws nothing
        def run(rho, pinned):
            config = dataclasses.replace(SimConfig(), priority_fraction=rho, pinned_priority=pinned)
            arrivals = generate_workload(config)
            return [t for t, _ in arrivals], [flag for _, flag in arrivals]

        times, flags = run(0.0, ())
        pinned_times, pinned_flags = run(0.0, (1, 3, 1000000))
        assert pinned_times == times
        assert [i for i, flag in enumerate(pinned_flags, start=1) if flag] == [1, 3]

        times, flags = run(0.05, ())
        pinned_times, pinned_flags = run(0.05, (2,))
        assert pinned_times == times
        assert not flags[1] and sum(flags) == 160
        assert pinned_flags == [flag or ordinal == 2 for ordinal, flag in enumerate(flags, start=1)]
        assert sum(pinned_flags) == 161


def test_engine_equals_reference_model():
    # short configs with visibility delays of none to several arrivals, aging
    # below or above the delay or off, and confirmation at once, soon or never
    rng = random.Random(9)
    for _ in range(40):
        config = SimConfig(
            arrival_rate=rng.choice((5.0, 10.0, 20.0)),
            priority_fraction=rng.choice((0.0, 0.05, 0.3, 0.8)),
            horizon=rng.uniform(5.0, 15.0),
            visibility_delay=rng.choice((0.0, 0.3, 1.0, 3.0)),
            theta=rng.choice((1, 2, 3, 8, 20)),
            strategy=rng.choice(STRATEGIES),
            aging_enabled=rng.choice((True, False)),
            aging_threshold=rng.choice((0.5, 2.0, 5.0)),
            seed=rng.randrange(2**32),
        )
        # every column, genesis's confirmation and promotion times included
        ledger = run_simulation(config).ledger
        columns = (ledger.parents, ledger.flags, ledger.issued, ledger.confirmed_at,
                   ledger.promoted_at)
        assert columns == reference_run(config), config
        # genesis is only the start-up parent: an arrival attaches to it alone
        # exactly when it sees no arrival
        h, issued = config.visibility_delay, ledger.issued
        assert [ps == (0,) for ps in ledger.parents[1:]] == [
            j == 1 or issued[j] - h < issued[1] for j in range(1, len(ledger))
        ], config


@pytest.mark.parametrize(
    "config",
    [SimConfig.from_dict({**BACKLOG_60S, "seed": seed}) for seed in (1, 2)]
    + [SimConfig(seed=seed) for seed in (1, 2)],
    ids=["backlog-1", "backlog-2", "reference-1", "reference-2"],
)
def test_branch_histogram_read_from_columns(config, monkeypatch):
    # a ptsa arrival's branch is p=0, p=1 or p>=2 as 0, 1 or 2+ of its parents
    # were unconfirmed priority ids at its issue time: flagged or promoted by
    # then, and not confirmed before it (a confirmation at exactly that time
    # is the arrival's own sweep's); so the columns give the histogram
    labels = []

    def recording(candidates, rng):
        result = select_ptsa(candidates, rng)
        labels.append(result.branch)
        return result

    monkeypatch.setattr(engine, "select_ptsa", recording)
    ledger = run_simulation(config).ledger
    issued, confirmed_at, promoted_at = ledger.issued, ledger.confirmed_at, ledger.promoted_at

    def p(j):
        t = issued[j]
        return sum((ledger.flags[i] or promoted_at.get(i, math.inf) <= t)
                   and confirmed_at.get(i, math.inf) >= t for i in ledger.parents[j])

    branches = (BRANCH_P0, BRANCH_P1, BRANCH_P2)
    assert labels == [branches[min(p(j), 2)] for j in range(1, len(ledger))]
    assert set(labels) == set(branches)


class TestRunSimulation:
    def test_deterministic_replay(self):
        first, second = run_simulation(SMALL).ledger, run_simulation(SMALL).ledger
        for column in COLUMNS:
            assert getattr(first, column) == getattr(second, column), column

    def test_records_in_issue_order(self):
        times = run_simulation(SMALL).ledger.issued[1:]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_record_ids_are_ordinals(self):
        # arrival k is id k, genesis id 0: every list column has one entry
        # per id, and the time dicts key no other id
        ledger = run_simulation(SMALL).ledger
        ids = range(len(generate_workload(SMALL)) + 1)
        for column in ("parents", "issued", "flags", "weight"):
            assert len(getattr(ledger, column)) == len(ids), column
        assert ledger.confirmed_at.keys() | ledger.promoted_at.keys() <= set(ids)

    def test_theta_one_confirms_instantly(self):
        ledger = run_simulation(dataclasses.replace(SMALL, theta=1)).ledger
        assert [ledger.confirmed_at[i] for i in range(1, len(ledger))] == ledger.issued[1:]

    def test_rho_zero_no_priority_class(self):
        config = dataclasses.replace(SMALL, priority_fraction=0.0)
        assert not any(run_simulation(config).ledger.flags)

    def test_confirmed_never_precedes_issue(self):
        ledger = run_simulation(SMALL).ledger
        assert all(t >= ledger.issued[i] for i, t in ledger.confirmed_at.items())

    def test_tip_pool_series_matches_records(self):
        # uniform's ledger keeps the tip list
        ledger = run_simulation(dataclasses.replace(SMALL, strategy="uniform")).ledger
        series = tip_pool_series(ledger)
        assert [t for t, _ in series] == ledger.issued[1:]
        assert all(n >= 1 for _, n in series)
        parents = ledger.parents
        ledger.reveal(math.inf)
        assert series[-1][1] == len(ledger.tips)
        assert series[-1][1] == len(brute_force_tips(parents))

    def test_aging_promotion_recorded(self):
        # starve common transactions so the aging path must fire
        config = dataclasses.replace(
            SMALL,
            priority_fraction=0.5,
            aging_enabled=True,
            aging_threshold=5.0,
        )
        ledger = run_simulation(config).ledger
        assert ledger.promoted_at
        for i, t in ledger.promoted_at.items():
            assert not ledger.flags[i]
            assert t - ledger.issued[i] >= config.aging_threshold

    def test_final_ledger_consistent_with_trace(self):
        # aging promotes common ids only, each before or as it confirms
        ledger = run_simulation(dataclasses.replace(BACKLOG, seed=1)).ledger
        assert ledger.promoted_at
        assert not any(ledger.flags[i] for i in ledger.promoted_at)
        assert all(ledger.confirmed_at.get(i, math.inf) >= t
                   for i, t in ledger.promoted_at.items())


class TestPairedRuns:
    def test_workload_identical_across_strategies(self):
        uniform, ptsa = (trace.ledger for trace in paired_runs(SMALL))
        assert (uniform.issued, uniform.flags) == (ptsa.issued, ptsa.flags)

    def test_strategies_recorded(self):
        uniform_trace, ptsa_trace = paired_runs(SMALL)
        assert uniform_trace.config.strategy == "uniform"
        assert ptsa_trace.config.strategy == "ptsa"

    def test_theta_one_equal_latencies(self):
        config = dataclasses.replace(SMALL, theta=1)
        for ledger in (trace.ledger for trace in paired_runs(config)):
            assert [ledger.confirmed_at[i] for i in range(1, len(ledger))] == ledger.issued[1:]

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigInvalid):
            paired_runs(dataclasses.replace(SMALL, priority_fraction=2.0))

    def test_workload_drawn_once_per_pair(self, monkeypatch):
        # counted at the module global that paired_runs looks up, where a
        # tracer would wrap it
        calls = []

        def counted(config):
            calls.append(config)
            return generate_workload(config)

        monkeypatch.setattr(engine, "generate_workload", counted)
        paired_runs(BACKLOG)
        assert len(calls) == 1

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_handed_in_arrivals_give_the_same_run(self, strategy, tmp_path):
        config = dataclasses.replace(BACKLOG, strategy=strategy)
        arrivals = generate_workload(config)
        before = list(arrivals)
        shared, own = run_simulation(config, arrivals), run_simulation(config)
        assert arrivals == before  # read, not mutated
        for column in COLUMNS:
            assert getattr(shared.ledger, column) == getattr(own.ledger, column)
        a, b = tmp_path / "shared.csv", tmp_path / "own.csv"
        export_csv(shared, a)
        export_csv(own, b)
        assert a.read_bytes() == b.read_bytes()


class TestMetamorphic:
    """Identities between runs, or within one, that hold for any correct model."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ptsa_without_priority_is_uniform(self, seed):
        # nothing is flagged or aged, so ptsa takes its p=0 branch throughout
        config = SimConfig(
            priority_fraction=0.0,
            aging_enabled=False,
            seed=seed,
        )
        uniform, ptsa = (trace.ledger for trace in paired_runs(config))
        assert (ptsa.parents, ptsa.confirmed_at) == (uniform.parents, uniform.confirmed_at)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_uniform_is_blind_to_flags_and_aging(self, seed):
        # uniform draws from all tips, which neither a flag nor aging touches,
        # and each arrival's time is drawn before its flag: so neither rho, the
        # pinned ordinals nor aging moves a uniform run, and aging, ptsa's
        # rule, promotes nothing in one
        base = SimConfig(strategy="uniform", horizon=200.0, seed=seed)
        expected = run_simulation(base).ledger
        variants = [
            dataclasses.replace(base, priority_fraction=rho, aging_enabled=enabled,
                                aging_threshold=threshold)
            for rho in (0.0, 0.05, 0.5, 1.0)
            for enabled, threshold in ((False, 30.0), (True, 0.5), (True, 5.0))
        ]
        variants.append(dataclasses.replace(base, pinned_priority=(1, 2, 50, 51)))
        for config in [base, *variants]:
            ledger = run_simulation(config).ledger
            for column in ("issued", "parents", "confirmed_at"):
                assert getattr(ledger, column) == getattr(expected, column), (config, column)
            assert ledger.promoted_at == {}, config

    @pytest.mark.parametrize("seed", [42, 43])
    @pytest.mark.parametrize("strategy", ["uniform", "ptsa"])
    def test_theta_two_confirms_at_first_approval(self, strategy, seed):
        ledger = run_simulation(SimConfig(theta=2, strategy=strategy, seed=seed)).ledger
        first_approval: dict[int, float] = {}
        for parents, issued_at in zip(ledger.parents, ledger.issued):
            for p in parents:
                first_approval.setdefault(p, issued_at)
        assert ledger.confirmed_at == first_approval

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("strategy", ["uniform", "ptsa"])
    def test_time_rescaling(self, strategy, seed):
        # the model has one clock: multiplying lambda by c and dividing every
        # duration by c divides every time by c, exactly when c is a power of
        # two (IEEE scaling by 2^k commutes with rounding)
        config = dataclasses.replace(BACKLOG, strategy=strategy, seed=seed)
        original = run_simulation(config).ledger
        # aging is ptsa's rule, and it fires in ptsa's runs here
        assert bool(original.promoted_at) == (strategy == "ptsa")
        for c in (2.0, 4.0, 0.5):
            scaled = run_simulation(
                dataclasses.replace(
                    config,
                    arrival_rate=config.arrival_rate * c,
                    horizon=config.horizon / c,
                    visibility_delay=config.visibility_delay / c,
                    aging_threshold=config.aging_threshold / c,
                )
            ).ledger
            assert (scaled.parents, scaled.flags) == (original.parents, original.flags)
            assert scaled.issued == [t / c for t in original.issued]
            for column in ("confirmed_at", "promoted_at"):
                times = getattr(original, column)
                assert getattr(scaled, column) == {i: t / c for i, t in times.items()}, column
