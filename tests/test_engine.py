import dataclasses

import pytest
import yaml

from tanglesim.engine import (
    ConfigInvalid,
    SimConfig,
    generate_workload,
    paired_runs,
    run_simulation,
    run_simulation_with_ledger,
)
from tanglesim.selection import PriorityPolicy

SMALL = SimConfig(horizon=60.0)


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
        ],
    )
    def test_bounds_rejected_naming_field(self, changes, field):
        with pytest.raises(ConfigInvalid) as excinfo:
            dataclasses.replace(SimConfig(), **changes)
        assert excinfo.value.field_name == field
        assert field in str(excinfo.value)

    def test_default_config_valid(self):
        SimConfig()

    def test_dict_round_trip(self):
        config = SimConfig(seed=7, pinned_priority=(1, 2, 3))
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_yaml_int_in_number_field_stored_as_float(self):
        config = SimConfig.from_dict(yaml.safe_load("lambda: 10\nhorizon_seconds: 60"))
        assert repr(config.to_dict()["lambda"]) == "10.0"
        assert isinstance(config.horizon, float)

    def test_million_tx_rung_accepted(self):
        config = SimConfig.from_dict({"lambda": 100.0, "horizon_seconds": 10000.0})
        assert config.arrival_rate * config.horizon == 1_000_000

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            SimConfig.from_dict({"lambda": 1.0, "mu": 2.0})

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
        ],
    )
    def test_non_finite_and_mistyped_values_rejected(self, text, field):
        with pytest.raises(ConfigInvalid) as excinfo:
            SimConfig.from_dict(yaml.safe_load(text))
        assert excinfo.value.field_name == field


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


class TestRunSimulation:
    def test_deterministic_replay(self):
        assert run_simulation(SMALL) == run_simulation(SMALL)

    def test_records_in_issue_order(self):
        trace = run_simulation(SMALL)
        times = [r.issued_at for r in trace.records]
        assert times == sorted(times)
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_record_ids_are_ordinals(self):
        trace = run_simulation(SMALL)
        assert [r.id for r in trace.records] == list(range(1, len(trace.records) + 1))

    def test_theta_one_confirms_instantly(self):
        config = dataclasses.replace(SMALL, theta=1)
        trace = run_simulation(config)
        assert all(r.confirmed_at == r.issued_at for r in trace.records)

    def test_rho_zero_no_priority_class(self):
        config = dataclasses.replace(SMALL, priority_fraction=0.0)
        trace = run_simulation(config)
        assert not any(r.tx_class == "priority" for r in trace.records)

    def test_confirmed_never_precedes_issue(self):
        trace = run_simulation(SMALL)
        for r in trace.records:
            if r.confirmed_at is not None:
                assert r.confirmed_at >= r.issued_at

    def test_tip_pool_series_matches_records(self):
        trace = run_simulation(SMALL)
        assert len(trace.tip_pool_sizes) == len(trace.records)
        assert all(n >= 1 for _, n in trace.tip_pool_sizes)

    def test_aging_promotion_recorded(self):
        # starve common transactions so the aging path must fire
        config = dataclasses.replace(
            SMALL,
            priority_fraction=0.5,
            aging=PriorityPolicy(enabled=True, aging_threshold=5.0),
        )
        trace = run_simulation(config)
        promoted = [r for r in trace.records if r.promoted_at is not None]
        assert promoted
        for r in promoted:
            assert r.tx_class == "common"
            assert r.promoted_at - r.issued_at >= config.aging.aging_threshold

    def test_final_ledger_consistent_with_trace(self):
        trace, ledger = run_simulation_with_ledger(SMALL)
        assert len(ledger) == len(trace.records) + 1
        for r in trace.records:
            tx = ledger.transaction(r.id)
            assert tx.issued_at == r.issued_at
            assert tx.confirmed_at == r.confirmed_at
            assert tx.parents == r.parents


class TestPairedRuns:
    def test_workload_identical_across_strategies(self):
        uniform_trace, ptsa_trace = paired_runs(SMALL)
        u = [(r.issued_at, r.tx_class) for r in uniform_trace.records]
        p = [(r.issued_at, r.tx_class) for r in ptsa_trace.records]
        assert u == p

    def test_strategies_recorded(self):
        uniform_trace, ptsa_trace = paired_runs(SMALL)
        assert uniform_trace.config.strategy == "uniform"
        assert ptsa_trace.config.strategy == "ptsa"

    def test_theta_one_equal_latencies(self):
        config = dataclasses.replace(SMALL, theta=1)
        uniform_trace, ptsa_trace = paired_runs(config)
        for u, p in zip(uniform_trace.records, ptsa_trace.records):
            assert u.confirmed_at == u.issued_at
            assert p.confirmed_at == p.issued_at

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigInvalid):
            paired_runs(dataclasses.replace(SMALL, priority_fraction=2.0))


class TestLedgerInvariantsAfterRun:
    def test_maintained_state_matches_recomputation(self):
        for strategy in ("uniform", "ptsa"):
            config = dataclasses.replace(SMALL, strategy=strategy)
            trace, ledger = run_simulation_with_ledger(config)
            n = len(ledger)
            recomputed_tips = {
                i for i in range(n) if not ledger.approvers[i]
            }
            assert ledger.tips() == recomputed_tips
            assert ledger.confirmed_set == {
                i for i in range(n) if ledger.cumulative_weight(i) >= config.theta
            }
            total_cw = sum(ledger.cumulative_weight(i) for i in range(n))
            total_cones = sum(1 + len(ledger.past_cone(i)) for i in range(n))
            assert total_cw == total_cones
