"""Why criteria 5 and 6 fail, as checked facts about the stock experiment.

The acceptance criteria that fail (5 and 6) fail because of the stock
config, not because of noise: UCB forces each of its 25 arms once, 10 of
them on channels the gateway does not hear, and a device that wakes less
than one busy window after another hears that device on every forced arm.
These tests pin those facts against run_simulation on the stock config, so
that a change that moves them fails here by name. They simulate only the
UCB runs at N=10 and N=30; the fixed runs' causes, and the causes of UCB's
forced pass, come from the offsets oracle, which tests/test_netsim.py
checks against run_simulation on every stock fixed run and every stock UCB
run's forced pass.
"""

import pytest

from lorabandit.config import ExperimentConfig
from lorabandit.metrics import Cause
from lorabandit.netsim import device_rng, run_simulation
from lorabandit.params import build_arm_space
from lorabandit.sweep import run_seed
from reference_offsets import fixed_causes, ucb_initial_causes

CFG = ExperimentConfig()
ARMS = build_arm_space(CFG.channels, CFG.powers)
UCB = "proposed_ucb_tuned"


def device_runs(n: int):
    """Each stock UCB run at N=n, as per device the list of its records in
    attempt order."""
    setup = CFG.run_setup(UCB, n)
    for r in range(CFG.runs_per_point):
        devices = [[] for _ in range(n)]
        for record in sorted(run_simulation(setup, run_seed(CFG.base_seed, UCB, n, r)),
                             key=lambda r: (r.device, r.attempt)):
            devices[record.device].append(record)
        yield devices


@pytest.fixture(scope="module")
def ucb_runs():
    """(N, device records) of every stock UCB device-run at N=10 and N=30."""
    return [(n, device) for n in (10, 30) for devices in device_runs(n) for device in devices]


@pytest.fixture(scope="module")
def fixed_runs():
    """(N, per-device causes) of every stock fixed run, from the offsets oracle."""
    return [(n, fixed_causes(CFG.run_setup("fixed", n), run_seed(CFG.base_seed, "fixed", n, r)))
            for n in CFG.device_counts for r in range(CFG.runs_per_point)]


def test_ucb_at_10_loses_exactly_its_unreceivable_initialization_pulls(ucb_runs):
    # The cap on UCB's success rate: 1 - 10/200 = 0.95, and at N=10 it is
    # reached by every device-run.
    unreceivable = [a.arm_index for a in ARMS if not a.channel.receivable]
    assert len(unreceivable) == 10
    runs = [device for n, device in ucb_runs if n == 10]
    assert len(runs) == 10 * CFG.runs_per_point
    for device in runs:
        lost = [r for r in device if not r.acked]
        assert [r.arm_index for r in lost] == unreceivable
        assert all(r.attempt < len(ARMS) and r.cause == Cause.CHANNEL_NOT_RECEIVABLE
                   for r in lost)
        assert sum(r.acked for r in device) / len(device) == 0.95


def test_ucb_at_30_stuck_device_runs_lost_their_whole_initialization(ucb_runs):
    # The device-runs below 0.7 success are exactly those whose forced pass
    # was all CarrierBusy; every other one loses only its unreceivable pulls.
    runs = [device for n, device in ucb_runs if n == 30]
    stuck = [i for i, device in enumerate(runs)
             if sum(r.acked for r in device) / len(device) < 0.7]
    shadowed = [i for i, device in enumerate(runs)
                if all(r.cause == Cause.CARRIER_BUSY for r in device[:len(ARMS)])]
    assert stuck == shadowed
    assert len(stuck) == 31
    init_busy = sum(r.cause == Cause.CARRIER_BUSY for device in runs for r in device[:len(ARMS)])
    assert init_busy == 31 * len(ARMS)
    for i, device in enumerate(runs):
        # In lockstep: every device forces arm k at attempt k.
        assert [r.arm_index for r in device[:len(ARMS)]] == list(range(len(ARMS)))
        if i not in stuck:
            assert [r.cause for r in device[:len(ARMS)] if not r.acked] == (
                [Cause.CHANNEL_NOT_RECEIVABLE] * 10)


def test_ucb_unreceivable_pulls_at_30_check_the_carrier_first(ucb_runs):
    # The busy check comes before receivability: 310 of the 1,500
    # unreceivable forced pulls at N=30 are CarrierBusy, the 31 stuck
    # device-runs' 31 x 10. The offsets oracle, with no event loop, agrees.
    deaf = [a.arm_index for a in ARMS if not a.channel.receivable]
    pulls = [r.cause for n, device in ucb_runs if n == 30
             for r in device[:len(ARMS)] if r.arm_index in deaf]
    setup = CFG.run_setup(UCB, 30)
    oracle = [device[k] for r in range(CFG.runs_per_point)
              for device in ucb_initial_causes(setup, run_seed(CFG.base_seed, UCB, 30, r))
              for k in deaf]
    assert len(pulls) == len(oracle) == 1500
    assert pulls.count(Cause.CARRIER_BUSY) == oracle.count(Cause.CARRIER_BUSY) == 310


def test_fixed_success_rate_is_one_minus_shadowed_share(fixed_runs):
    # A fixed device is acked on every attempt or on none, so its point's
    # rate is 1 - k/N, k the devices the offsets oracle finds shadowed.
    for n, causes in fixed_runs:
        assert len(causes) == n
        shadowed = sum(Cause.SUCCESS not in device for device in causes)
        assert all(set(device) == {Cause.SUCCESS} or Cause.SUCCESS not in device
                   for device in causes)
        successes = sum(cause == Cause.SUCCESS for device in causes for cause in device)
        assert successes == (n - shadowed) * CFG.t_attempts


def test_stock_sweep_has_no_collision(ucb_runs, fixed_runs):
    # A collision needs two devices that wake in the same µs (carrier sense
    # hears every other overlap; tests/test_netsim.py), and no stock run,
    # of any policy, has two: so none of the 100 runs collides. The runs
    # simulated here agree.
    interval_us = round(CFG.interval_s * 1e6)
    for policy in CFG.policies:
        for n in CFG.device_counts:
            for r in range(CFG.runs_per_point):
                seed = run_seed(CFG.base_seed, policy, n, r)
                wakes = [device_rng(seed, i, stream=1).integers(0, interval_us)
                         for i in range(n)]
                assert len(set(wakes)) == n, (policy, n, r)
    assert not any(r.cause == Cause.COLLISION for _, device in ucb_runs for r in device)
    assert not any(Cause.COLLISION in device for _, causes in fixed_runs for device in causes)


def test_overhead_dominates_every_attempt_energy(ucb_runs):
    # The 207.9 mJ of wake-up, processing and reception is 89.4-98.9 % of a
    # transmitted attempt's energy and all of a CarrierBusy attempt's, so
    # energy efficiency follows the success rate for every policy: UCB's
    # forced pass transmits on every arm.
    overhead = CFG.energy.overhead_mj
    assert round(overhead, 1) == 207.9
    records = [r for _, device in ucb_runs for r in device]
    assert {r.arm_index for r in records} == {a.arm_index for a in ARMS}
    shares = set()
    for r in records:
        if r.cause == Cause.CARRIER_BUSY:
            assert (r.e_toa, r.e_active) == (0.0, overhead)
        else:
            shares.add(overhead / r.e_active)
    assert round(100 * min(shares), 1) == 89.4
    assert round(100 * max(shares), 1) == 98.9
