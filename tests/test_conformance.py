"""Conformance: the model against the Tangle's known analytic results.

Popov, *The Tangle* (2018), under uniform tip selection by arrivals that see
the DAG as it was h seconds ago, after adaptation:
- cumulative weight grows linearly at speed λ, so raising the confirmation
  threshold θ by one delays a confirmation by 1/λ;
- the tip pool an arrival draws from holds about 2λh tips;
- so a visible tip waits about L/(2λ) = h for its first approver, after the
  h it takes to become visible, and the θ = 2 latency is about 2h.

Under PTSA with aging off, the visible unconfirmed priority ids form a
processor-sharing queue: jobs arrive at ρλ, each needs θ − 1 direct
approvals, and arrivals serve one job at λ or two or more at 2λ in total.
With x = ρ(θ − 1), y = x/2 and π₀ = 1/(1 + x/(1 − y)), the model is stable
iff y < 1; the priority class's mean latency is h + π₀·x/((1 − y)²·ρλ), and
the share of arrivals that find the queue busy, and so take a p ≥ 1 branch,
is 1 − π₀. The bound y < 1 is the model's: it counts direct approvals only,
and the simulated class stays stationary well past it.

Under uniform selection, each arrival draws a given visible tip with
probability 2/L ≈ 1/(λh), a rate of 1/h. A tip stays one in arrivals' view
until its first approver is revealed, h after that approver's issue, so an
id's direct approvers number 1 + Poisson(1): P(k) = e⁻¹/(k − 1)! for k ≥ 1.
Every approver repeats this, so the approvals form a Crump–Mode–Jagers
branching process with mean offspring 2. Its Malthusian rate α solves
e⁻ᵃ/(1 + a)·(1 + (1 − e⁻ᵃ)/a) = 1 with a = αh, so a = 0.3305 and weight
doubles every ln 2/a = 2.097 h. While θ ≪ λh the uniform latency is then
about h·g(θ), with g(θ) = 2 + ln(θ/2)/a, and with aging off PTSA's latency
reduction is about 1 − PS/(h·g(θ)), PS the priority latency above.
"""

import math
import statistics

import pytest

from tanglesim.engine import SimConfig, paired_runs, run_simulation
from tanglesim.metrics import CLASS_COMMON, class_stats, compare

RATE = 10.0
THETAS = (100, 200)
SLOPE_TOLERANCE = 0.02  # seconds per unit of weight, around 1/λ = 0.1 s


def median_latency(theta, seed):
    config = SimConfig(
        arrival_rate=RATE,
        priority_fraction=0.0,
        horizon=200.0,
        theta=theta,
        strategy="uniform",
        seed=seed,
    )
    return class_stats(run_simulation(config), CLASS_COMMON)["median_latency"]


def test_linear_phase_latency_slope_is_inverse_rate():
    slopes = []
    for seed in (0, 1, 2):
        low, high = (median_latency(theta, seed) for theta in THETAS)
        slopes.append((high - low) / (THETAS[1] - THETAS[0]))
    assert all(abs(s - 1 / RATE) <= SLOPE_TOLERANCE for s in slopes), slopes


# (λ, h) points, each run on five seeds at θ = 2; uniform selection reads no
# confirmation, so one run serves both the tip-pool and the latency check
POINTS = ((10.0, 1.0), (20.0, 3.0), (40.0, 0.5))
SEEDS = range(5)
STEADY_FROM = 50.0  # seconds: the pool has adapted by then
LATENCY_ISSUED = (50.0, 150.0)  # issue window, well before the 200 s horizon
MEAN_TOLERANCE = 0.05  # relative, on the mean of the five seeds' ratios


@pytest.fixture(scope="module", params=POINTS, ids=lambda p: f"lambda{p[0]:g}-h{p[1]:g}")
def steady_runs(request):
    rate, delay = request.param
    ledgers = [
        run_simulation(SimConfig(
            arrival_rate=rate,
            priority_fraction=0.0,
            horizon=200.0,
            visibility_delay=delay,
            theta=2,
            strategy="uniform",
            seed=seed,
        )).ledger
        for seed in SEEDS
    ]
    runs = [(ledger.issued, ledger.flags, ledger.parents, ledger.confirmed_at) for ledger in ledgers]
    return rate, delay, runs


def drawn_tip_pools(issued, parents, delay):
    """(issue time, size of the tip pool it drew from) per arrival: the ids
    issued by t - h that none of them approves, rebuilt one id at a time."""
    pools, approved, tips, visible = [], set(), 0, 0
    for now in issued[1:]:
        while issued[visible] <= now - delay:
            tips += 1
            for p in parents[visible]:
                if p not in approved:
                    approved.add(p)
                    tips -= 1
            visible += 1
        pools.append((now, tips))
    return pools


def test_drawn_tip_pool_is_twice_rate_times_delay(steady_runs):
    rate, delay, runs = steady_runs
    ratios = []
    for issued, _, parents, _ in runs:
        steady = [tips for now, tips in drawn_tip_pools(issued, parents, delay) if now > STEADY_FROM]
        ratios.append(sum(steady) / len(steady) / (2 * rate * delay))
    assert abs(sum(ratios) / len(ratios) - 1) <= MEAN_TOLERANCE, ratios


def test_theta_two_latency_is_twice_delay(steady_runs):
    _, delay, runs = steady_runs
    low, high = LATENCY_ISSUED
    ratios = []
    for issued, _, _, confirmed_at in runs:
        latencies = [confirmed_at[i] - t for i, t in enumerate(issued) if low <= t <= high]
        ratios.append(sum(latencies) / len(latencies) / (2 * delay))
    assert abs(sum(ratios) / len(ratios) - 1) <= MEAN_TOLERANCE, ratios


# (ρ, θ) -> the per-seed standard deviations of the mean priority latency
# and of q, the share of arrivals that take a p >= 1 branch, measured over 16
# seeds; the model ignores indirect approvals, so these are points of light
# load (x <= 0.35), where it held within about 1%
PS_POINTS = {(0.05, 4): (0.0165, 0.0129), (0.05, 8): (0.024, 0.0250)}
PS_SEEDS = range(16)
PS_ISSUED = (20.0, 250.0)  # issue window, well before the 300 s horizon


def processor_sharing(rho, theta, rate, delay):
    """The model's mean priority latency and its q = 1 − π₀."""
    x = rho * (theta - 1)
    y = x / 2
    pi0 = 1 / (1 + x / (1 - y))
    return delay + pi0 * x / ((1 - y) ** 2 * rho * rate), 1 - pi0


@pytest.mark.parametrize("rho, theta", sorted(PS_POINTS))
def test_ptsa_priority_latency_is_processor_sharing(rho, theta):
    low, high = PS_ISSUED
    latencies, shares = [], []
    for seed in PS_SEEDS:
        config = SimConfig(
            arrival_rate=RATE,
            priority_fraction=rho,
            horizon=300.0,
            visibility_delay=1.0,
            theta=theta,
            strategy="ptsa",
            aging_enabled=False,
            seed=seed,
        )
        ledger = run_simulation(config).ledger
        issued, flags, parents, confirmed_at = (
            ledger.issued, ledger.flags, ledger.parents, ledger.confirmed_at)
        window = [i for i, t in enumerate(issued) if flags[i] and low <= t <= high]
        assert all(i in confirmed_at for i in window)
        latencies += [confirmed_at[i] - issued[i] for i in window]
        # with aging off, arrival j took a p >= 1 branch iff it approved a
        # flagged id that was still unconfirmed when j arrived
        arrivals = [j for j, t in enumerate(issued) if j and low <= t <= high]
        took = [j for j in arrivals if any(
            flags[i] and confirmed_at.get(i, math.inf) >= issued[j] for i in parents[j])]
        shares.append(len(took) / len(arrivals))
    model_latency, model_q = processor_sharing(rho, theta, RATE, 1.0)
    latency_sd, q_sd = PS_POINTS[rho, theta]
    # three standard errors of a 16-seed mean: 0.012 s at θ = 4, 0.018 s at θ = 8
    tolerance = 3 * latency_sd / math.sqrt(len(PS_SEEDS))
    assert abs(sum(latencies) / len(latencies) - model_latency) <= tolerance, (
        model_latency, tolerance)
    # q's mean over the seeds, to three standard errors: 0.0097 at θ = 4,
    # 0.0188 at θ = 8
    tolerance = 3 * q_sd / math.sqrt(len(PS_SEEDS))
    assert abs(sum(shares) / len(shares) - model_q) <= tolerance, (model_q, tolerance)


def test_ptsa_priority_class_stays_stationary_past_the_model_bound():
    # (ρ, θ) = (0.5, 8): y = 1.75, where the model's backlog would grow by
    # ρλ − 2λ/(θ − 1) ≈ 2.14 ids/s, some 340 ids between the two windows
    early, late = (20.0, 90.0), (180.0, 250.0)
    rises = []
    for seed in range(8):
        config = SimConfig(
            arrival_rate=RATE,
            priority_fraction=0.5,
            horizon=300.0,
            visibility_delay=1.0,
            theta=8,
            strategy="ptsa",
            aging_enabled=False,
            seed=seed,
        )
        ledger = run_simulation(config).ledger
        issued, flags, confirmed_at = ledger.issued, ledger.flags, ledger.confirmed_at
        window = [i for i, t in enumerate(issued) if flags[i] and early[0] <= t <= late[1]]
        assert all(i in confirmed_at for i in window)

        def mean_latency(low, high):
            ids = [i for i in window if low <= issued[i] <= high]
            return sum(confirmed_at[i] - issued[i] for i in ids) / len(ids)

        rises.append(mean_latency(*late) - mean_latency(*early))
    # measured: 4.80 s early, 5.02 s late, per-seed rises −0.35 to +0.71 s
    # (mean 0.22, standard error 0.12); 1 s is about 6 standard errors above
    # that mean, and a backlog growing as the model says would add tens of
    # seconds of latency between the windows
    assert sum(rises) / len(rises) < 1.0, rises


APPROVER_SEEDS = range(12)
APPROVER_ISSUED = (250.0, 750.0)  # issue window, well inside the 1000 s horizon


def test_uniform_direct_approvers_are_one_plus_poisson():
    low, high = APPROVER_ISSUED
    shares = []  # per seed, P(k) for k = 1..4
    for seed in APPROVER_SEEDS:
        config = SimConfig(
            arrival_rate=RATE,
            priority_fraction=0.0,
            horizon=1000.0,
            visibility_delay=1.0,
            theta=2,  # uniform selection reads no confirmation
            strategy="uniform",
            aging_enabled=False,
            seed=seed,
        )
        ledger = run_simulation(config).ledger
        approvers = [0] * len(ledger.issued)
        for parents in ledger.parents:
            for p in parents:
                approvers[p] += 1
        window = [approvers[i] for i, t in enumerate(ledger.issued) if low <= t <= high]
        shares.append([window.count(k) / len(window) for k in range(1, 5)])
    # measured: 0.3698, 0.3670, 0.1816, 0.0615 (z = +1.2, −0.4, −1.4, +0.1)
    for k, per_seed in enumerate(zip(*shares), start=1):
        model = math.exp(-1) / math.factorial(k - 1)
        standard_error = statistics.stdev(per_seed) / math.sqrt(len(per_seed))
        assert abs(statistics.mean(per_seed) - model) <= 3 * standard_error, (k, per_seed)


def malthusian_a():
    """a = αh, the root of e⁻ᵃ/(1 + a)·(1 + (1 − e⁻ᵃ)/a) = 1, by bisection."""
    low, high = 0.1, 1.0  # the left side falls from above 1 to below it
    for _ in range(60):
        mid = (low + high) / 2
        if math.exp(-mid) / (1 + mid) * (1 + (1 - math.exp(-mid)) / mid) > 1:
            low = mid
        else:
            high = mid
    return low


DOUBLING_DELAY = 20.0  # h, so λh = 200 ≫ θ = 64
DOUBLING_THETAS = (8, 64)  # three doublings apart
DOUBLING_ISSUED = (300.0, 800.0)  # issue window of a 1500 s horizon
# The tree counts twice a descendant reached by two paths, which cumulative
# weight counts once, so weight grows slower than the tree and each doubling
# costs more than the law's ln 2/a: a bias of sign +. Measured over seeds
# 0–15: mean 2.139 h per doubling, +2.0% over the law's 2.097, per-seed SD 0.022
DOUBLING_BIAS = 0.020


def test_uniform_latency_costs_one_malthusian_doubling_per_theta_doubling():
    # about 0.7 s: six 15k-tx runs
    low, high = DOUBLING_ISSUED
    costs = []  # per seed, h per doubling of θ
    for seed in range(3):
        means = []
        for theta in DOUBLING_THETAS:
            config = SimConfig(
                arrival_rate=RATE,
                priority_fraction=0.0,
                horizon=1500.0,
                visibility_delay=DOUBLING_DELAY,
                theta=theta,
                strategy="uniform",
                aging_enabled=False,
                seed=seed,
            )
            ledger = run_simulation(config).ledger
            issued, confirmed_at = ledger.issued, ledger.confirmed_at
            window = [i for i, t in enumerate(issued) if low <= t <= high]
            assert all(i in confirmed_at for i in window)
            means.append(sum(confirmed_at[i] - issued[i] for i in window) / len(window))
        doublings = math.log2(DOUBLING_THETAS[1] / DOUBLING_THETAS[0])
        costs.append((means[1] - means[0]) / (doublings * DOUBLING_DELAY))
    law = math.log(2) / malthusian_a()
    mean = statistics.mean(costs)
    # measured: 2.114, 2.149, 2.142, mean 2.135 (+1.8%); three standard
    # errors of the seeds' spread are 0.032, and the mean is 0.004 below
    # the biased law
    assert mean > law, (costs, law)
    standard_error = statistics.stdev(costs) / math.sqrt(len(costs))
    assert abs(mean - law * (1 + DOUBLING_BIAS)) <= 3 * standard_error, (costs, law)


def test_reference_reduction_is_processor_sharing_over_branching_latency():
    # about 0.4 s: sixteen paired 3k-tx runs of the reference config, aging off
    reductions = []
    for seed in PS_SEEDS:
        uniform, ptsa = paired_runs(SimConfig(aging_enabled=False, seed=seed))
        reductions.append(compare(uniform, ptsa)["latency_reduction"])
    config = SimConfig()
    rho, theta, rate, delay = (
        config.priority_fraction, config.theta, config.arrival_rate, config.visibility_delay)
    branching_latency = delay * (2 + math.log(theta / 2) / malthusian_a())
    predicted = 1 - processor_sharing(rho, theta, rate, delay)[0] / branching_latency
    # 1 − 1.722/6.195 = 0.722; measured: mean 0.7172, SD 0.0107, so three
    # standard errors are 0.0081 and the mean is 1.8 of them below
    standard_error = statistics.stdev(reductions) / math.sqrt(len(reductions))
    assert abs(statistics.mean(reductions) - predicted) <= 3 * standard_error, (
        reductions, predicted)
