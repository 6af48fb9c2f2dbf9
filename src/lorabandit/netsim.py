"""Event-driven simulation of N devices contending for the gateway.

Each device wakes on its own fixed cadence, asks its policy for a
(channel, power) arm, carrier-senses, transmits, and learns from the
ACK/no-ACK outcome.  Any temporal overlap of two transmissions on the same
frequency destroys both (no capture effect); the gateway's receivers handle
their channels independently.  Time is integer microseconds internally so
event ordering is exact and runs are bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .energy import attempt_energy, min_toa_energy, reward_basis
from .metrics import Cause, RunRecord
from .params import Channel, ConfigError, ParamCombo, build_arm_space
from .policies import (
    AdrLitePolicy,
    EpsilonGreedyPolicy,
    Feedback,
    FixedPolicy,
    UcbTunedPolicy,
)
from .rng import device_rng

if TYPE_CHECKING:
    from .config import ExperimentConfig

POLICY_NAMES = ("proposed_ucb_tuned", "epsilon_greedy", "adr_lite", "fixed")

# Each has select() -> PolicyDecision and observe(Feedback).
Policy = UcbTunedPolicy | EpsilonGreedyPolicy | FixedPolicy | AdrLitePolicy


@dataclass(frozen=True)
class RunSetup:
    """One simulation run: a validated config, the policy and the device count."""

    config: ExperimentConfig
    policy: str
    n_devices: int

    def __post_init__(self):
        # validate checked the payload sizes of the config's own device counts.
        if self.n_devices > max(self.config.device_counts):
            self.config.check_payloads(self.n_devices)


# eq=False: list.remove on the in-flight lists matches by identity.
@dataclass(eq=False, slots=True)
class _Transmission:
    device: int
    start_us: int
    end_us: int
    arm_index: int
    attempt: int
    wake_us: int
    collided: bool = False


def payload_symbols(device_index: int, base: int, spread: int) -> int:
    """Deterministic per-device payload size: base + (index mod spread)."""
    return base + device_index % spread


def carrier_sense(in_flight: list[_Transmission], t_us: int, cs_duration_us: int) -> bool:
    """True iff any transmission in flight on the channel overlaps the sense window.

    Intervals are half-open: a transmission ending exactly at t is not heard,
    and one starting exactly at the end of the window is not heard either.
    """
    window_end = t_us + cs_duration_us
    for tx in in_flight:
        if tx.start_us < window_end and tx.end_us > t_us:
            return True
    return False


def resolve_reception(channel: Channel, tx: _Transmission) -> Cause:
    """Outcome of a completed transmission as seen by the gateway."""
    if not channel.receivable:
        return Cause.CHANNEL_NOT_RECEIVABLE
    if tx.collided:
        return Cause.COLLISION
    return Cause.SUCCESS


def _make_policy(setup: RunSetup, device_index: int, arms: list[ParamCombo], seed: int) -> Policy:
    rng = device_rng(seed, device_index, stream=0)
    if setup.policy == "proposed_ucb_tuned":
        return UcbTunedPolicy(len(arms), rng)
    if setup.policy == "epsilon_greedy":
        return EpsilonGreedyPolicy(len(arms), setup.config.epsilon, rng)
    if setup.policy == "fixed":
        return FixedPolicy(device_index, arms)
    if setup.policy == "adr_lite":
        return AdrLitePolicy(arms, setup.config.adr_quality_hz)
    raise ConfigError(f"unknown policy {setup.policy!r}; expected one of {POLICY_NAMES}")


def run_simulation(setup: RunSetup, seed: int) -> list[RunRecord]:
    """Execute one run and return every attempt record in event order.

    Events run in time order, and at equal µs every wake runs before every
    end of airtime, wakes run by device index and ends run in the order
    their transmissions started. Each device has one pending wake, which
    pushes the next one, so the queue holds at most one wake per device and
    one end per transmission in flight. Airtime, energy and ACK reward are
    worked out per (device payload, arm) before the first event.
    """
    cfg = setup.config
    n_devices = setup.n_devices
    if n_devices < 1:
        raise ConfigError("need at least one device")

    arms = build_arm_space(cfg.channels, cfg.powers)
    arm_channel = [cfg.channels.index(a.channel) for a in arms]
    arm_receiver = [a.channel for a in arms]
    arm_hz = [a.channel.center_frequency_hz for a in arms]
    arm_dbm = [a.power.level_dbm for a in arms]
    interval_us = round(cfg.interval_s * 1e6)
    cs_us = round(cfg.cs_duration_s * 1e6)
    busy_mj = cfg.energy.overhead_mj
    ack_only = setup.policy == "epsilon_greedy" and cfg.epsilon_reward == "ack"

    # Per payload, per arm: (airtime µs, e_toa, e_active, reward on ACK).
    # Every energy is checked here, before any event runs.
    payloads = [
        payload_symbols(i, cfg.payload_base, cfg.payload_spread) for i in range(n_devices)
    ]
    tables: dict[int, list[tuple[int, float, float, float]]] = {}
    for n_payload in sorted(set(payloads)):
        radio = dataclasses.replace(cfg.radio, n_payload=n_payload)
        by_level = {pw.level_dbm: attempt_energy(radio, cfg.energy, pw) for pw in cfg.powers}
        e_toa_min = min_toa_energy(radio, cfg.energy, cfg.powers)
        tables[n_payload] = [
            (round(e.t_toa * 1e6), e.e_toa_mj, e.e_active_mj,
             1.0 if ack_only else reward_basis(e, cfg.reward_mode, e_toa_min))
            for e in (by_level[dbm] for dbm in arm_dbm)
        ]
    device_table = [tables[n_payload] for n_payload in payloads]

    policies = [_make_policy(setup, i, arms, seed) for i in range(n_devices)]
    select = [p.select for p in policies]
    observe = [p.observe for p in policies]
    # (time_us, 0, device, attempt) for a wake, (time_us, 1, seq, tx) for an
    # end of airtime; the first three fields are unique, so the order is total.
    queue = [
        (device_rng(seed, i, stream=1).integers(0, interval_us), 0, i, 0)
        for i in range(n_devices)
    ]
    heapq.heapify(queue)
    heappush, heappop = heapq.heappush, heapq.heappop
    last_attempt = cfg.t_attempts - 1
    seq = 0
    success, busy = Cause.SUCCESS, Cause.CARRIER_BUSY.value
    in_flight: list[list[_Transmission]] = [[] for _ in cfg.channels]
    records: list[RunRecord] = []
    record = records.append

    while queue:
        t_us, is_end, key, item = heappop(queue)

        if is_end:
            tx, arm, i = item, item.arm_index, item.device
            in_flight[arm_channel[arm]].remove(tx)
            cause = resolve_reception(arm_receiver[arm], tx)
            _, e_toa, e_active, reward = device_table[i][arm]
            acked = cause is success
            if not acked:
                reward = 0.0
            observe[i](Feedback(arm, acked, reward))
            record(RunRecord(seed, i, tx.attempt, arm, arm_hz[arm], arm_dbm[arm],
                             cause.value, acked, reward, e_toa, e_active, tx.wake_us / 1e6))
            continue

        i, attempt = key, item
        if attempt < last_attempt:
            heappush(queue, (t_us + interval_us, 0, i, attempt + 1))
        arm = select[i]().arm_index
        on_channel = in_flight[arm_channel[arm]]

        if carrier_sense(on_channel, t_us, cs_us):
            # Abandon this interval: overheads are paid, the radio never fires.
            observe[i](Feedback(arm, False, 0.0))
            record(RunRecord(seed, i, attempt, arm, arm_hz[arm], arm_dbm[arm],
                             busy, False, 0.0, 0.0, busy_mj, t_us / 1e6))
            continue

        start_us = t_us + cs_us
        end_us = start_us + device_table[i][arm][0]
        tx = _Transmission(i, start_us, end_us, arm, attempt, t_us)
        for other in on_channel:
            if other.start_us < end_us and other.end_us > start_us:
                other.collided = True
                tx.collided = True
        on_channel.append(tx)
        heappush(queue, (end_us, 1, seq, tx))
        seq += 1

    if any(in_flight):
        raise RuntimeError("transmissions left in flight after the event queue drained")
    return records
