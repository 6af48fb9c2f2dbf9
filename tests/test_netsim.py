"""Event-driven network simulation: carrier sense, collisions, determinism."""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st
from reference_sim import reference_run

from lorabandit.config import ExperimentConfig, config_from_dict
from lorabandit.energy import attempt_energy
from lorabandit.metrics import Cause
from lorabandit.netsim import (
    POLICY_NAMES,
    _Transmission,
    carrier_sense,
    device_rng,
    payload_symbols,
    resolve_reception,
    run_simulation,
)
from lorabandit.params import Channel, ConfigError


def make_setup(policy="proposed_ucb_tuned", n_devices=1, **kw):
    return ExperimentConfig(**kw).run_setup(policy, n_devices)


def tx(start_us, end_us, device=0, arm=0):
    return _Transmission(
        device=device, start_us=start_us, end_us=end_us,
        arm_index=arm, attempt=0, wake_us=start_us,
    )


# --- carrier sense ----------------------------------------------------------

def test_carrier_sense_empty_channel():
    assert carrier_sense([], 1000, 5000) is False


def test_carrier_sense_covered_window():
    in_flight = [[tx(0, 1_000_000)], []]
    assert carrier_sense(in_flight[0], 1000, 5000) is True
    assert carrier_sense(in_flight[1], 1000, 5000) is False  # other channel


def test_carrier_sense_half_open_boundaries():
    on_channel = [tx(0, 1000)]
    assert carrier_sense(on_channel, 1000, 5000) is False  # ends exactly at t
    on_channel.append(tx(6000, 7000))
    assert carrier_sense(on_channel, 1000, 5000) is False  # starts at window end
    on_channel.append(tx(5999, 7000))
    assert carrier_sense(on_channel, 1000, 5000) is True


def test_in_flight_removal_matches_identity():
    # Two transmissions with equal fields are still distinct entries.
    a, b = tx(0, 1000), tx(0, 1000)
    on_channel = [a, b]
    on_channel.remove(b)
    assert on_channel[0] is a


# --- reception outcomes -------------------------------------------------------

def test_reception_non_receivable_channel():
    ch = Channel(920.6e6, receivable=False)
    assert resolve_reception(ch, tx(0, 10)) == Cause.CHANNEL_NOT_RECEIVABLE


def test_reception_sole_transmission():
    ch = Channel(921.4e6, receivable=True)
    assert resolve_reception(ch, tx(0, 10)) == Cause.SUCCESS


def test_reception_overlap_kills_both():
    # Seed 10370 wakes devices 1 and 4 in the same µs of TIE_DOC (below):
    # both transmit on one channel and both are lost.
    setup = config_from_dict(TIE_DOC).run_setup("proposed_ucb_tuned", 6)
    lost = [r for r in run_simulation(setup, 10370) if r.cause == Cause.COLLISION]
    assert [(r.device, r.attempt, r.wake_time) for r in lost] == [
        (1, 0, 0.012717), (4, 0, 0.012717)
    ]
    # Non-receivability still wins over a collision.
    a = tx(0, 49_408)
    a.collided = True
    assert resolve_reception(Channel(921.0e6, receivable=True), a) == Cause.COLLISION
    bad = Channel(920.6e6, receivable=False)
    assert resolve_reception(bad, a) == Cause.CHANNEL_NOT_RECEIVABLE


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
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    c = run_simulation(setup, seed=100)
    assert [r.to_dict() for r in a] != [r.to_dict() for r in c]


def test_adding_devices_preserves_existing_streams():
    small = run_simulation(make_setup(n_devices=2, t_attempts=30), seed=5)
    big = run_simulation(make_setup(n_devices=3, t_attempts=30), seed=5)
    # Device 0 and 1 wake at identical times in both runs (their RNG streams
    # do not depend on the device count); outcomes may differ via contention.
    small_wakes = sorted(r.wake_time for r in small if r.device == 0)
    big_wakes = sorted(r.wake_time for r in big if r.device == 0)
    assert small_wakes == big_wakes


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
    """A custom channel plan, with at least one receivable channel, and the
    quality order ADR-Lite needs for it."""
    mhz = draw(st.lists(st.sampled_from(MHZ), min_size=1, max_size=4, unique=True))
    deaf = draw(st.lists(st.booleans(), min_size=len(mhz), max_size=len(mhz)))
    heard = draw(st.integers(0, len(mhz) - 1))
    return {
        "channels": [{"mhz": m, "receivable": i == heard or not d}
                     for i, (m, d) in enumerate(zip(mhz, deaf))],
        "adr_quality_mhz": draw(st.permutations(mhz)),
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
        "reward_mode": draw(st.sampled_from(["normalized", "raw"])),
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
    "adr_quality_mhz": [921.4, 921.0],
}
# Seed 10370 gives devices 1 and 4 the same start offset; seed 4955 ends a
# transmission in the µs another device wakes.
TIE_SEEDS = {10370: {("wake", "wake"), ("end", "end")}, 4955: {("end", "wake")}}


@settings(deadline=None, max_examples=80)
@given(doc=small_configs(), policy=st.sampled_from(POLICY_NAMES),
       n_devices=st.integers(1, 6), seed=st.integers(0, 2**64 - 1))
@example(doc=TIE_DOC, policy="proposed_ucb_tuned", n_devices=6, seed=10370)
@example(doc=TIE_DOC, policy="proposed_ucb_tuned", n_devices=6, seed=4955)
def test_loop_matches_reference(doc, policy, n_devices, seed):
    setup = config_from_dict(doc).run_setup(policy, n_devices)
    fast = run_simulation(setup, seed)
    assert [repr(r) for r in fast] == [repr(r) for r in reference_run(setup, seed)]


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
