"""Event-driven network simulation: carrier sense, collisions, determinism."""

import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from reference_offsets import fixed_causes, ucb_initial_causes
from reference_sim import reference_run, select_fixed

from lorabandit import netsim, policies
from lorabandit.config import ExperimentConfig, config_from_dict
from lorabandit.energy import attempt_energy, time_on_air
from lorabandit.metrics import Cause, RunLog, RunRecord, summarize_run
from lorabandit.netsim import POLICY_NAMES, device_rng, payload_symbols, run_simulation
from lorabandit.params import Channel, ConfigError, build_arm_space
from lorabandit.policies import adr_lite_search
from lorabandit.sweep import read_records, run_seed, write_records


def make_setup(policy="proposed_ucb_tuned", n_devices=1, **kw):
    return ExperimentConfig(**kw).run_setup(policy, n_devices)


# --- carrier sense and reception, on two hand-placed devices ------------------

# With payload_spread 1 every device sends 36 symbols at SF7 and 125 kHz.
AIR_US = 49_408
HEARD = Channel(921.0e6, receivable=True)
DEAF = Channel(920.6e6, receivable=False)
# At 1 s, seed 3 wakes device 0 at 278,029 µs and device 1 at 397,295 µs.
# At 60 ms, seed 11735 wakes both devices at 17,684 µs.
APART_SEED, SAME_US_SEED = 3, 11735


def two_devices(seed, channels=(HEARD,), policy="proposed_ucb_tuned", t_attempts=1,
                interval_s=1.0, cs_duration_s=0.005):
    """The records of a two-device run, by (device, attempt). A UCB device
    sends its first attempt on arm 0: the first channel at the lowest power."""
    cfg = ExperimentConfig(t_attempts=t_attempts, interval_s=interval_s,
                           cs_duration_s=cs_duration_s, payload_spread=1,
                           channels=list(channels), policies=[policy])
    return {(r.device, r.attempt): r for r in run_simulation(cfg.run_setup(policy, 2), seed)}


def first_ends_after_second_wakes(delta_us, **kw):
    """Device 1's first record, with carrier sense sized so that device 0's
    transmission ends delta_us after device 1 wakes."""
    first, second = (device_rng(APART_SEED, d, stream=1).integers(0, 1_000_000)
                     for d in range(2))
    assert (first, second) == (278_029, 397_295)
    cs_us = second - first - AIR_US + delta_us
    runs = two_devices(APART_SEED, cs_duration_s=cs_us / 1e6, **kw)
    assert runs[0, 0].cause == Cause.SUCCESS
    return runs[1, 0]


def test_carrier_sense_empty_channel():
    # An end 1 µs before a wake runs first and leaves the channel empty.
    assert first_ends_after_second_wakes(-1).cause == Cause.SUCCESS


def test_carrier_sense_covered_window():
    assert first_ends_after_second_wakes(AIR_US // 2).cause == Cause.CARRIER_BUSY
    # The fixed policy pins device 1 on the other channel, which is free.
    other = (HEARD, Channel(921.4e6, receivable=True))
    assert first_ends_after_second_wakes(
        AIR_US // 2, channels=other, policy="fixed").cause == Cause.SUCCESS


def test_carrier_sense_half_open_boundaries():
    # A transmission ending exactly at the wake is not heard; 1 µs later it is.
    assert first_ends_after_second_wakes(0).cause == Cause.SUCCESS
    assert first_ends_after_second_wakes(1).cause == Cause.CARRIER_BUSY
    # Devices waking in the same µs: device 0 runs first, and its transmission
    # starts exactly where device 1's sense window ends, so device 1 sends too.
    runs = two_devices(SAME_US_SEED, interval_s=0.06)
    assert runs[0, 0].wake_time == runs[1, 0].wake_time == 0.017684
    assert runs[0, 0].cause == runs[1, 0].cause == Cause.COLLISION


def test_in_flight_removal_matches_identity():
    # At 100 ms, seed 1254827 wakes devices 1 and 2 in the same µs and device
    # 0 97,619 µs later. With payload_spread 2, device 1 sends 37 symbols and
    # device 2 36, so the first transmission put in flight is not the first
    # to end. Carrier sense is sized so that device 0 wakes 1 µs after device
    # 2's end, while device 1 is still on the air.
    seed = 1254827
    assert [device_rng(seed, d, stream=1).integers(0, 100_000)
            for d in range(3)] == [99_847, 2_228, 2_228]
    cs_us = 99_847 - 2_228 - AIR_US - 1
    setup = ExperimentConfig(t_attempts=1, interval_s=0.1, cs_duration_s=cs_us / 1e6,
                             payload_spread=2, channels=[HEARD],
                             policies=["fixed"]).run_setup("fixed", 3)
    assert [(r.device, r.cause) for r in run_simulation(setup, seed)] == [
        (2, Cause.COLLISION), (0, Cause.CARRIER_BUSY), (1, Cause.COLLISION)
    ]


def test_reception_non_receivable_channel():
    runs = two_devices(APART_SEED, channels=(DEAF, HEARD))
    for r in runs.values():
        assert r.channel_hz == DEAF.center_frequency_hz
        assert r.cause == Cause.CHANNEL_NOT_RECEIVABLE
        assert (r.acked, r.reward) == (False, 0.0)
        assert r.e_toa > 0  # it did transmit


def test_reception_sole_transmission():
    for r in two_devices(APART_SEED).values():
        assert r.cause == Cause.SUCCESS
        assert r.acked and r.reward > 0


def test_reception_overlap_kills_both():
    # Seed 10370 wakes devices 1 and 4 in the same µs of TIE_DOC (below):
    # both transmit on one channel and both are lost.
    setup = config_from_dict(TIE_DOC).run_setup("proposed_ucb_tuned", 6)
    lost = [r for r in run_simulation(setup, 10370) if r.cause == Cause.COLLISION]
    assert [(r.device, r.attempt, r.wake_time) for r in lost] == [
        (1, 0, 0.012717), (4, 0, 0.012717)
    ]
    # Non-receivability still wins over a collision.
    runs = two_devices(SAME_US_SEED, channels=(DEAF, HEARD), interval_s=0.06)
    assert runs[0, 0].cause == runs[1, 0].cause == Cause.CHANNEL_NOT_RECEIVABLE


# --- scheduling ----------------------------------------------------------------

def wake_schedule(setup, seed):
    """Every device's wake times from a run, with its drawn start offset in µs."""
    records = run_simulation(setup, seed)
    interval_us = round(setup.config.interval_s * 1e6)
    out = {}
    for d in range(setup.n_devices):
        offset_us = int(device_rng(seed, d, stream=1).integers(0, interval_us))
        wakes = [r.wake_time for r in sorted(records, key=lambda r: r.attempt) if r.device == d]
        out[d] = (offset_us, interval_us, wakes)
    return out


def test_schedule_arithmetic_progression():
    for offset_us, interval_us, wakes in wake_schedule(
        make_setup(n_devices=3, t_attempts=4), seed=8
    ).values():
        assert wakes == [(offset_us + i * interval_us) / 1e6 for i in range(4)]


def test_schedule_last_wake():
    (offset_us, interval_us, wakes), = wake_schedule(make_setup(policy="fixed"), 2).values()
    assert len(wakes) == 200
    assert wakes[-1] == (offset_us + 199 * interval_us) / 1e6
    assert wakes[-1] == pytest.approx(offset_us / 1e6 + 1990.0)


def test_schedule_zero_offset():
    # Seed 241268 draws device 0 a start offset of exactly 0 µs at 0.1 s.
    (offset_us, _, wakes), = wake_schedule(
        make_setup(policy="fixed", t_attempts=3, interval_s=0.1), seed=241268
    ).values()
    assert offset_us == 0
    assert wakes == [0.0, 0.1, 0.2]


def test_schedule_rejects_bad_interval():
    with pytest.raises(ConfigError):
        make_setup(interval_s=0.0)


def test_payload_symbols_spread():
    cfg = ExperimentConfig()
    assert [payload_symbols(i, cfg.payload_base, cfg.payload_spread) for i in range(10)] == [
        36, 37, 38, 39, 40, 41, 42, 43, 44, 36
    ]


# --- whole runs -----------------------------------------------------------------

def test_lone_device_never_collides():
    records = run_simulation(make_setup(), seed=7)
    assert len(records) == 200
    assert all(r.device == 0 for r in records)
    assert not any(r.cause == Cause.COLLISION for r in records)
    assert not any(r.cause == Cause.CARRIER_BUSY for r in records)


def test_lone_fixed_device_all_acked():
    records = run_simulation(make_setup(policy="fixed"), seed=7)
    assert len(records) == 200
    assert all(r.acked for r in records)
    assert all(r.power_dbm == -3 for r in records)


def test_attempt_counts_per_device():
    records = run_simulation(make_setup(n_devices=5), seed=3)
    per_device = {}
    for r in records:
        per_device[r.device] = per_device.get(r.device, 0) + 1
    assert per_device == {i: 200 for i in range(5)}


def test_determinism_byte_identical():
    setup = make_setup(policy="epsilon_greedy", n_devices=8)
    a = run_simulation(setup, seed=99)
    b = run_simulation(setup, seed=99)
    assert [r._asdict() for r in a] == [r._asdict() for r in b]
    c = run_simulation(setup, seed=100)
    assert [r._asdict() for r in a] != [r._asdict() for r in c]


def test_adding_devices_preserves_existing_streams():
    small = run_simulation(make_setup(n_devices=2, t_attempts=30), seed=5)
    big = run_simulation(make_setup(n_devices=3, t_attempts=30), seed=5)
    # Device 0 and 1 wake at identical times in both runs (their RNG streams
    # do not depend on the device count); outcomes may differ via contention.
    small_wakes = sorted(r.wake_time for r in small if r.device == 0)
    big_wakes = sorted(r.wake_time for r in big if r.device == 0)
    assert small_wakes == big_wakes


@pytest.mark.parametrize("policy,streams", [
    ("fixed", [1]), ("adr_lite", [1]), ("proposed_ucb_tuned", [0, 1]), ("epsilon_greedy", [0, 1]),
])
def test_only_learners_get_a_policy_stream(monkeypatch, policy, streams):
    # Every device draws its start offset from stream 1; only the policies
    # that draw (the learners) are given stream 0.
    calls = []

    def counting(seed, device, stream):
        calls.append((device, stream))
        return device_rng(seed, device, stream)

    monkeypatch.setattr(netsim, "device_rng", counting)
    run_simulation(make_setup(policy=policy, n_devices=4, t_attempts=3), seed=5)
    assert sorted(calls) == [(d, s) for d in range(4) for s in streams]


def test_device_rng_streams_are_independent():
    def draws(seed, device, stream):
        rng = device_rng(seed, device, stream)
        return [rng.integers(0, 1 << 30) for _ in range(8)]

    a = draws(1, 0, 0)
    assert a == draws(1, 0, 0)
    assert a != draws(1, 0, 1)
    assert a != draws(1, 1, 0)
    assert a != draws(2, 0, 0)


def test_energy_accounting_matches_model():
    setup = make_setup(n_devices=4, t_attempts=60)
    records = run_simulation(setup, seed=21)
    cfg = setup.config
    powers = {p.level_dbm: p for p in cfg.powers}
    for r in records:
        if r.cause == Cause.CARRIER_BUSY:
            assert r.e_toa == 0.0
            assert r.e_active == cfg.energy.overhead_mj
            assert r.reward == 0.0
            continue
        n_payload = payload_symbols(r.device, cfg.payload_base, cfg.payload_spread)
        e = attempt_energy(cfg.radio, n_payload, cfg.energy, powers[r.power_dbm])
        assert r.e_toa == e.e_toa_mj
        assert r.e_active == e.e_active_mj


def test_nack_reward_is_zero_and_ack_reward_bounded():
    records = run_simulation(make_setup(n_devices=10, t_attempts=100), seed=13)
    for r in records:
        if r.acked:
            assert r.cause == Cause.SUCCESS
            assert 0.0 < r.reward <= 1.0
        else:
            assert r.reward == 0.0


def test_collision_symmetry():
    # Reconstruct airtime intervals from the log; every pair of same-channel
    # overlapping transmissions must both carry the Collision cause (or lose
    # to non-receivability, which cannot happen on receivable channels).
    setup = make_setup(policy="epsilon_greedy", n_devices=30, t_attempts=80)
    cfg = setup.config
    records = run_simulation(setup, seed=4)
    cs_us = round(cfg.cs_duration_s * 1e6)
    intervals = []
    for r in records:
        if r.cause == Cause.CARRIER_BUSY:
            continue
        start = round(r.wake_time * 1e6) + cs_us
        end = start + round(r.e_toa / (29.7 + dict(
            (p.level_dbm, p.draw_mw) for p in cfg.powers
        )[r.power_dbm]) * 1e6)
        intervals.append((r, start, end))
    collided = set()
    for i, (ra, sa, ea) in enumerate(intervals):
        for rb, sb, eb in intervals[i + 1:]:
            if ra.channel_hz == rb.channel_hz and sa < eb and ea > sb:
                collided.add(id(ra))
                collided.add(id(rb))
    for r, _, _ in intervals:
        expect_collision = id(r) in collided
        ch_receivable = any(
            c.receivable for c in cfg.channels
            if c.center_frequency_hz == r.channel_hz
        )
        if not ch_receivable:
            assert r.cause == Cause.CHANNEL_NOT_RECEIVABLE
        elif expect_collision:
            assert r.cause == Cause.COLLISION
        else:
            assert r.cause == Cause.SUCCESS


def test_fixed_distinct_channels_full_success():
    # Three devices land on the three distinct receivable channels: no
    # contention is possible and every attempt succeeds.
    records = run_simulation(make_setup(policy="fixed", n_devices=3), seed=77)
    assert len(records) == 600
    assert all(r.acked for r in records)
    assert len({r.channel_hz for r in records}) == 3


def test_run_rejects_bad_setup():
    with pytest.raises(ConfigError):
        run_simulation(make_setup(n_devices=0), seed=1)
    with pytest.raises(ConfigError):
        run_simulation(make_setup(policy="nonsense"), seed=1)


# --- differential oracle ------------------------------------------------------

MHZ = (920.6, 921.0, 921.4, 921.8, 922.2, 923.0)


@st.composite
def channel_plans(draw):
    """A custom channel plan, with at least one receivable channel."""
    mhz = draw(st.lists(st.sampled_from(MHZ), min_size=1, max_size=4, unique=True))
    deaf = draw(st.lists(st.booleans(), min_size=len(mhz), max_size=len(mhz)))
    heard = draw(st.integers(0, len(mhz) - 1))
    return {
        "channels": [{"mhz": m, "receivable": i == heard or not d}
                     for i, (m, d) in enumerate(zip(mhz, deaf))],
    }


@st.composite
def small_configs(draw):
    # 80 ms exceeds the longest carrier sense drawn (20 ms) plus the longest
    # stock airtime (44 symbols: 57.6 ms).
    doc = {
        "t_attempts": draw(st.integers(1, 30)),
        "interval_s": draw(st.sampled_from([0.08, 0.1]) | st.floats(0.08, 2.0)),
        "cs_duration_s": draw(st.sampled_from([0.0, 1e-6, 0.005, 0.02])),
        "payload_spread": draw(st.integers(1, 9)),
        "epsilon_reward": draw(st.sampled_from(["energy", "ack"])),
        "epsilon": draw(st.sampled_from([0.0, 0.1, 1.0])),
    }
    if draw(st.booleans()):
        doc |= draw(channel_plans())
    return doc


# Six devices on one receivable and one deaf channel, 80 ms apart, no
# carrier sense and one payload size, so equal wake offsets collide.
TIE_DOC = {
    "t_attempts": 30, "interval_s": 0.08, "cs_duration_s": 0.0, "payload_spread": 1,
    "channels": [{"mhz": 921.0, "receivable": True}, {"mhz": 921.4, "receivable": False}],
}
# Seed 10370 gives devices 1 and 4 the same start offset; seed 4955 ends a
# transmission in the µs another device wakes.
TIE_SEEDS = {10370: {("wake", "wake"), ("end", "end")}, 4955: {("end", "wake")}}


# The tightest interval cost_rows accepts for 44-symbol payloads: 5 ms of
# carrier sense, 57.6 ms of airtime and 1 µs. So every end of airtime falls
# in the next period, 1 µs before its device's next wake. With the fixed
# and ADR-Lite policies, seed 1464 wakes device 3 in the µs that one of
# device 4's transmissions ends.
TIGHT_DOC = {"t_attempts": 6, "interval_s": 0.062601, "payload_base": 44, "payload_spread": 1}
TIGHT_SEED = 1464
# One period at 63 ms: the ends that fall in the next period find nothing
# pending in this one, and run after the last wake.
ONE_PERIOD_DOC = {"t_attempts": 1, "interval_s": 0.063}
# Periods of 6 µs: about 2.4 GHz of bandwidth gives 3 µs of airtime, and
# with 2 µs of carrier sense that is again the tightest interval. With the
# fixed policy and seed 7, device 2 (offset 1 µs) ends each transmission
# exactly at the period boundary, in the µs that device 1 (offset 0) wakes.
MICRO_DOC = {"t_attempts": 8, "interval_s": 6e-6, "cs_duration_s": 2e-6, "payload_spread": 3,
             "radio": {"bw_hz": 2.4e9}}

# Fixed and ADR-Lite runs repeat a cycle of periods, whose records
# run_simulation copies; each example's expected repeat is (the cycle's
# first period, its length, the periods copied, the transmissions on the
# air at its end). At 63 ms and seed 0, six fixed devices repeat from
# period 1, with three transmissions on the air across each boundary.
ON_AIR_DOC = {"t_attempts": 40, "interval_s": 0.063}
CYCLES = {
    "on the air": (ON_AIR_DOC, "fixed", 6, 0, (1, 1, 38, 3)),
    # A 12-period ADR-Lite cycle from period 18 fits once into the 20
    # periods left at period 30; the last 8 are simulated.
    "part cycle": (ON_AIR_DOC | {"t_attempts": 50}, "adr_lite", 3, 1, (18, 12, 12, 2)),
    # The cycle closes at the end of the last period: nothing is copied.
    "last period": (TIGHT_DOC | {"t_attempts": 30}, "adr_lite", 3, 0, (18, 12, 0, 2)),
    "one period": ({"t_attempts": 1}, "fixed", 6, 3, (0, 1, 0, 0)),
}


@settings(deadline=None, max_examples=80)
@given(doc=small_configs(), policy=st.sampled_from(POLICY_NAMES),
       n_devices=st.integers(1, 6), seed=st.integers(0, 2**64 - 1))
@example(doc=TIE_DOC, policy="proposed_ucb_tuned", n_devices=6, seed=10370)
@example(doc=TIE_DOC, policy="epsilon_greedy", n_devices=6, seed=10370)
@example(doc=TIE_DOC, policy="adr_lite", n_devices=6, seed=10370)
@example(doc=TIE_DOC, policy="fixed", n_devices=6, seed=10370)
@example(doc=TIE_DOC, policy="proposed_ucb_tuned", n_devices=6, seed=4955)
@example(doc=TIGHT_DOC, policy="fixed", n_devices=6, seed=TIGHT_SEED)
@example(doc=TIGHT_DOC, policy="adr_lite", n_devices=6, seed=TIGHT_SEED)
@example(doc=ONE_PERIOD_DOC, policy="epsilon_greedy", n_devices=6, seed=16)
@example(doc=ONE_PERIOD_DOC, policy="adr_lite", n_devices=6, seed=16)
@example(doc=MICRO_DOC, policy="fixed", n_devices=6, seed=7)
@example(doc=ON_AIR_DOC, policy="fixed", n_devices=6, seed=0)
@example(doc=ON_AIR_DOC | {"t_attempts": 50}, policy="adr_lite", n_devices=3, seed=1)
@example(doc=TIGHT_DOC | {"t_attempts": 30}, policy="adr_lite", n_devices=3, seed=0)
@example(doc={"t_attempts": 1}, policy="fixed", n_devices=6, seed=3)
def test_loop_matches_reference(doc, policy, n_devices, seed):
    setup = config_from_dict(doc).run_setup(policy, n_devices)
    fast, want = run_simulation(setup, seed), reference_run(setup, seed)
    assert list(fast) == want
    assert [repr(r) for r in fast] == [repr(r) for r in want]


def test_tie_examples_share_a_microsecond():
    setup = config_from_dict(TIE_DOC).run_setup("proposed_ucb_tuned", 6)
    for seed, kinds in TIE_SEEDS.items():
        events = []
        causes = Counter(r.cause for r in reference_run(setup, seed, events))
        per_us = Counter(t for t, _ in events)
        tied = {tuple(sorted(k for u, k in events if u == t))
                for t, n in per_us.items() if n > 1}
        assert kinds <= tied
        # Devices that wake in the same µs on one channel both transmit.
        assert (causes[Cause.COLLISION] > 0) == (("wake", "wake") in kinds)


@pytest.mark.parametrize("policy", ["fixed", "adr_lite"])
def test_tight_interval_example_ends_as_a_device_wakes(policy):
    # The interval 1 µs shorter is refused.
    with pytest.raises(ConfigError, match="interval_s must exceed"):
        config_from_dict(TIGHT_DOC | {"interval_s": 0.0626})
    setup = config_from_dict(TIGHT_DOC).run_setup(policy, 6)
    events = []
    records = reference_run(setup, TIGHT_SEED, events)
    sent = [round(r.wake_time * 1e6) for r in records if r.cause != Cause.CARRIER_BUSY]
    assert sent
    ends = [t for t, kind in events if kind == "end"]
    assert sorted(ends) == sorted(wake_us + 62_600 for wake_us in sent)
    assert set(ends) & {t for t, kind in events if kind == "wake"}


def test_micro_example_ends_at_the_boundary_as_a_device_wakes():
    with pytest.raises(ConfigError, match="interval_s must exceed"):
        config_from_dict(MICRO_DOC | {"interval_s": 5e-6})
    setup = config_from_dict(MICRO_DOC).run_setup("fixed", 6)
    assert [device_rng(7, d, stream=1).integers(0, 6) for d in range(3)] == [4, 0, 1]
    events = []
    reference_run(setup, 7, events)
    boundary = {(t, kind) for t, kind in events if t % 6 == 0}
    assert {(6, "wake"), (6, "end"), (48, "end")} <= boundary


def repeats(setup, seed):
    """Run setup and return each repeat run_simulation copied, as (the
    cycle's first period, its length, the periods copied, the
    transmissions on the air), read from the loop's locals on the first
    line it runs after the copy."""
    found = []

    def in_loop(frame, event, arg):
        loop = frame.f_locals
        if event == "line" and "skip" in loop and loop["seen"] is None and not found:
            found.append((loop["first"], loop["cycle"], loop["skip"],
                          sum(tx is not None for tx in loop["pending"])))
        return in_loop

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 in_loop if frame.f_code is run_simulation.__code__ else None)
    try:
        run_simulation(setup, seed)
    finally:
        sys.settrace(previous)
    return found


@pytest.mark.parametrize("name", CYCLES)
def test_cycle_examples_repeat_as_named(name):
    doc, policy, n_devices, seed, expected = CYCLES[name]
    assert repeats(config_from_dict(doc).run_setup(policy, n_devices), seed) == [expected]


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_only_learners_select_every_period(monkeypatch, policy):
    # The learners' random streams never repeat, so they select once per
    # device and period; fixed and ADR-Lite stop once their network repeats.
    calls = Counter()
    for cls in (policies.UcbTunedPolicy, policies.EpsilonGreedyPolicy, policies.FixedPolicy,
                policies.AdrLitePolicy):
        def counting(self, select=cls.select):
            calls[self] += 1
            return select(self)

        monkeypatch.setattr(cls, "select", counting)
    run_simulation(make_setup(policy=policy, n_devices=10), seed=1)
    assert len(calls) == 10
    if policy in ("fixed", "adr_lite"):
        assert max(calls.values()) < 200
    else:
        assert set(calls.values()) == {200}


def test_one_period_example_ends_after_its_last_wake():
    setup = config_from_dict(ONE_PERIOD_DOC).run_setup("epsilon_greedy", 6)
    events = []
    reference_run(setup, 16, events)
    last_wake = max(t for t, kind in events if kind == "wake")
    assert [kind for _, kind in events].count("wake") == 6
    assert any(kind == "end" and t >= 63_000 for t, kind in events)
    assert any(kind == "end" and t > last_wake for t, kind in events)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_airtime_crosses_into_the_next_period(policy):
    # 63 ms just exceeds 5 ms of carrier sense plus the longest airtime (44
    # symbols: 57.6 ms), so a transmission late in one period ends after
    # wakes of the next, and the loop must interleave them.
    setup = config_from_dict({"t_attempts": 40, "interval_s": 0.063}).run_setup(policy, 12)
    cfg, seed = setup.config, 16
    records = run_simulation(setup, seed)
    assert [repr(r) for r in records] == [repr(r) for r in reference_run(setup, seed)]
    cs_us = round(cfg.cs_duration_s * 1e6)
    airtime_us = [
        round(time_on_air(cfg.radio, payload_symbols(d, cfg.payload_base,
                                                     cfg.payload_spread))[2] * 1e6)
        for d in range(12)
    ]
    first_wake_us = {}
    for r in records:
        wake_us = round(r.wake_time * 1e6)
        first_wake_us[r.attempt] = min(wake_us, first_wake_us.get(r.attempt, wake_us))
    late = [r for r in records if r.cause != Cause.CARRIER_BUSY
            and r.attempt + 1 in first_wake_us
            and round(r.wake_time * 1e6) + cs_us + airtime_us[r.device]
            >= first_wake_us[r.attempt + 1]]
    assert late


# --- the offsets-only oracle of fixed runs and UCB's forced pass -------------

def logged_causes(log, n_devices):
    """Each device's causes in a run's log, in attempt order."""
    causes = [[] for _ in range(n_devices)]
    for r in sorted(log, key=lambda r: (r.device, r.attempt)):
        assert r.attempt == len(causes[r.device])
        causes[r.device].append(r.cause)
    return causes


@pytest.mark.parametrize("base_seed", [20240901, 7])
def test_stock_fixed_runs_match_the_offsets_oracle(base_seed):
    # Every fixed run of the stock sweep, N=10 to 30, device by device.
    cfg = ExperimentConfig(base_seed=base_seed)
    for n in cfg.device_counts:
        setup = cfg.run_setup("fixed", n)
        for r in range(cfg.runs_per_point):
            seed = run_seed(base_seed, "fixed", n, r)
            assert logged_causes(run_simulation(setup, seed), n) == fixed_causes(setup, seed)


@st.composite
def micro_configs(draw):
    """Periods of a few µs, at about 2.4 GHz of bandwidth (3 µs of airtime):
    devices often wake in one µs, and their busy windows often wrap into the
    next period."""
    cs_us = draw(st.integers(0, 3))
    doc = {"t_attempts": draw(st.integers(1, 30)), "cs_duration_s": cs_us / 1e6,
           "interval_s": (cs_us + 3 + draw(st.integers(1, 6))) / 1e6,
           "payload_spread": draw(st.integers(1, 3)), "radio": {"bw_hz": 2.4e9}}
    if draw(st.booleans()):
        doc |= draw(channel_plans())
    return doc


@settings(deadline=None, max_examples=150)
@given(doc=small_configs() | micro_configs(), n_devices=st.integers(1, 8),
       seed=st.integers(0, 2**64 - 1))
@example(doc=TIE_DOC, n_devices=6, seed=10370)
@example(doc=MICRO_DOC, n_devices=6, seed=7)
@example(doc=TIGHT_DOC, n_devices=6, seed=TIGHT_SEED)
@example(doc=ON_AIR_DOC, n_devices=6, seed=0)
def test_fixed_runs_match_the_offsets_oracle(doc, n_devices, seed):
    setup = config_from_dict(doc).run_setup("fixed", n_devices)
    assert logged_causes(run_simulation(setup, seed), n_devices) == fixed_causes(setup, seed)


def logged_forced_pass(setup, seed):
    """Each device's causes in a UCB run's forced pass: its first n_arms
    periods, or all of them if the run is shorter."""
    periods = min(len(setup.config.channels) * len(setup.config.powers), setup.config.t_attempts)
    return [device[:periods]
            for device in logged_causes(run_simulation(setup, seed), setup.n_devices)]


@pytest.mark.parametrize("base_seed", [20240901, 7])
def test_stock_ucb_forced_passes_match_the_offsets_oracle(base_seed):
    # The first 25 periods of every UCB run of the stock sweep, N=10 to 30.
    cfg = ExperimentConfig(base_seed=base_seed)
    for n in cfg.device_counts:
        setup = cfg.run_setup("proposed_ucb_tuned", n)
        for r in range(cfg.runs_per_point):
            seed = run_seed(base_seed, "proposed_ucb_tuned", n, r)
            assert logged_forced_pass(setup, seed) == ucb_initial_causes(setup, seed)


@settings(deadline=None, max_examples=150)
@given(doc=small_configs() | micro_configs(), n_devices=st.integers(1, 8),
       seed=st.integers(0, 2**64 - 1))
@example(doc=TIE_DOC, n_devices=6, seed=10370)
@example(doc=MICRO_DOC, n_devices=6, seed=7)
@example(doc=TIGHT_DOC, n_devices=6, seed=TIGHT_SEED)
def test_ucb_forced_passes_match_the_offsets_oracle(doc, n_devices, seed):
    setup = config_from_dict(doc).run_setup("proposed_ucb_tuned", n_devices)
    assert logged_forced_pass(setup, seed) == ucb_initial_causes(setup, seed)


@pytest.mark.parametrize("doc, seed", [(TIE_DOC, 10370), (MICRO_DOC, 7)])
def test_oracle_examples_wake_in_one_us_and_wrap(doc, seed):
    # Both examples collide and are shadowed by windows from the period
    # before, in fixed runs and in UCB's forced pass alike.
    for policy, oracle in (("fixed", fixed_causes), ("proposed_ucb_tuned", ucb_initial_causes)):
        shadows = []
        causes = oracle(config_from_dict(doc).run_setup(policy, 6), seed, shadows)
        assert any(Cause.COLLISION in device for device in causes), policy
        assert {wrapped for *_, wrapped in shadows} == {False, True}, policy


# --- the run log --------------------------------------------------------------

def test_run_log_reads_as_a_sequence_of_records():
    log = run_simulation(make_setup(policy="epsilon_greedy", n_devices=4, t_attempts=30), seed=2)
    records = list(log)
    assert isinstance(log, RunLog)
    assert len(log) == len(records) == 120
    assert all(type(r) is RunRecord for r in records)
    assert list(log) == records  # a log reads again, each time afresh
    with pytest.raises(AttributeError):
        log.append(records[0])


def test_run_log_rows_follow_their_fields():
    # A row's id is (device·n_arms + arm)·3 + outcome, outcome 0 or 1 for an
    # end of airtime by its collided flag and 2 for CarrierBusy.
    setup = config_from_dict(TIE_DOC).run_setup("proposed_ucb_tuned", 6)
    log = run_simulation(setup, 10370)
    n_arms = len(setup.config.channels) * len(setup.config.powers)
    outcomes = set()
    for row, r in zip(log.rows, log):
        device, rest = divmod(row, 3 * n_arms)
        arm, outcome = divmod(rest, 3)
        assert (device, arm) == (r.device, r.arm_index)
        assert (outcome == 2) == (r.cause == Cause.CARRIER_BUSY)
        if r.cause in (Cause.SUCCESS, Cause.COLLISION):
            assert outcome == (r.cause == Cause.COLLISION)
        outcomes.add(outcome)
    assert outcomes == {0, 1, 2}


@settings(deadline=None, max_examples=40)
@given(doc=small_configs(), policy=st.sampled_from(POLICY_NAMES),
       n_devices=st.integers(1, 6), seed=st.integers(0, 2**64 - 1))
@example(doc=TIE_DOC, policy="adr_lite", n_devices=6, seed=10370)
def test_row_path_writes_the_bytes_of_the_record_path(doc, policy, n_devices, seed):
    # The record writer, from a RunLog's rows, writes each of its records as
    # sorted-key compact JSON, and they read back as the log; summarize_run
    # folds the rows as it folds the list of the log's records.
    log = run_simulation(config_from_dict(doc).run_setup(policy, n_devices), seed)
    records = list(log)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.jsonl"
        write_records(log, path)
        assert path.read_bytes() == "".join(
            json.dumps(r._asdict(), sort_keys=True, separators=(",", ":")) + "\n"
            for r in records).encode()
        assert read_records(path) == records
    assert summarize_run(log) == summarize_run(records)


def test_runs_share_the_decision_lists_of_fixed_and_adr_lite():
    # Fixed and ADR-Lite devices choose from lists built once per run, each
    # decision the one a device-by-device build gives.
    cfg = config_from_dict({"channels": [{"mhz": 921.4, "receivable": True},
                                         {"mhz": 920.6, "receivable": False},
                                         {"mhz": 921.0, "receivable": True}]})
    arms = build_arm_space(cfg.channels, cfg.powers)
    fixed = netsim._make_policies(cfg.run_setup("fixed", 5), arms, 1)
    assert [p.decision for p in fixed] == [select_fixed(i, arms) for i in range(5)]
    assert fixed[0].decision is fixed[2].decision is fixed[4].decision
    adr = netsim._make_policies(cfg.run_setup("adr_lite", 5), arms, 1)
    assert adr[0].search == adr_lite_search(arms)
    assert all(p.search is adr[0].search for p in adr)
