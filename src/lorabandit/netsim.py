"""Event-driven simulation of N devices contending for the gateway.

Each device wakes on its own fixed cadence, asks its policy for a
(channel, power) arm, carrier-senses, transmits, and learns from the
ACK/no-ACK outcome.  Any temporal overlap of two transmissions on the same
frequency destroys both (no capture effect); the gateway's receivers handle
their channels independently.  Time is integer microseconds internally so
event ordering is exact and runs are bit-reproducible.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .energy import attempt_energy, reward_basis
from .metrics import Cause, RunRecord
from .params import Channel, ConfigError, ParamCombo, build_arm_space
from .policies import AdrLitePolicy, EpsilonGreedyPolicy, FixedPolicy, UcbTunedPolicy
from .rng import device_rng

if TYPE_CHECKING:
    from .config import ExperimentConfig

POLICY_NAMES = ("proposed_ucb_tuned", "epsilon_greedy", "adr_lite", "fixed")

# Each has select() -> PolicyDecision and observe(arm_index, acked, reward).
Policy = UcbTunedPolicy | EpsilonGreedyPolicy | FixedPolicy | AdrLitePolicy

# The simulator counts time in whole microseconds, and each device's start
# offset is drawn below the interval as a signed 64-bit integer, the domain
# of the device streams' bounded draws (lorabandit.rng).
_US_LIMIT = 2 ** 63
# The learners square every reward.
_REWARD_LIMIT = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class RunSetup:
    """One simulation run: a validated config, the policy and the device count."""

    config: ExperimentConfig
    policy: str
    n_devices: int


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


def _whole_us(name: str, seconds: float) -> int:
    """seconds in whole microseconds, refused where they overflow the
    simulator's clock."""
    us = seconds * 1e6
    if not us < _US_LIMIT:
        raise ConfigError(f"{name} must be under {_US_LIMIT / 1e6:.6g} s, got {seconds} s")
    return round(us)


def cost_rows(
    cfg: ExperimentConfig, n_devices: int
) -> dict[int, list[tuple[int, float, float, float]]]:
    """The cost of an attempt at each power, in ascending dBm, as (airtime
    µs, e_toa, e_active, reward on ACK), for each payload size a run of
    n_devices uses: payload_symbols of devices 0 to n_devices - 1.

    Raises ConfigError unless, for every size, e_toa rises strictly with the
    level from a positive value (rewards rank powers by it), every e_active
    is finite and every reward small enough to square, a transmission ends
    before the device's next wake, and the run's e_active can be summed.
    """
    powers = sorted(cfg.powers, key=lambda p: p.level_dbm)
    rows = {}
    for n_payload in range(cfg.payload_base,
                           cfg.payload_base + min(cfg.payload_spread, n_devices)):
        energies = [attempt_energy(cfg.radio, n_payload, cfg.energy, p) for p in powers]
        e_toa = [e.e_toa_mj for e in energies]
        if any(b <= a for a, b in zip(e_toa, e_toa[1:])):
            raise ConfigError(
                f"e_toa must be strictly increasing in level_dbm, but for "
                f"{n_payload}-symbol payloads it is {e_toa} mJ"
            )
        if not e_toa[0] > 0:
            raise ConfigError(
                f"e_toa must be positive, but for {n_payload}-symbol payloads it is "
                f"{e_toa[0]} mJ at {powers[0].level_dbm} dBm"
            )
        airtime_us = _whole_us("the airtime", energies[0].t_toa)
        rows[n_payload] = []
        for p, e in zip(powers, energies):
            reward = reward_basis(e, cfg.reward_mode, e_toa[0])
            if not (math.isfinite(e.e_active_mj) and reward < _REWARD_LIMIT):
                raise ConfigError(
                    f"e_active must be finite and the reward under {_REWARD_LIMIT:.4g}, but "
                    f"for {n_payload}-symbol payloads at {p.level_dbm} dBm they are "
                    f"{e.e_active_mj} mJ and {reward}"
                )
            rows[n_payload].append((airtime_us, e.e_toa_mj, e.e_active_mj, reward))
    busy_us = _whole_us("cs_duration_s", cfg.cs_duration_s) + max(
        table[0][0] for table in rows.values()
    )
    if _whole_us("interval_s", cfg.interval_s) <= busy_us:
        raise ConfigError(
            f"interval_s must exceed carrier sense plus the longest airtime "
            f"({busy_us / 1e6} s), got {cfg.interval_s}"
        )
    # summarize_run sums every attempt's e_active, none above the largest.
    largest = max(row[2] for table in rows.values() for row in table)
    if n_devices * cfg.t_attempts > sys.float_info.max / largest:
        raise ConfigError(
            f"the active energy of {n_devices} devices x {cfg.t_attempts} attempts at up "
            f"to {largest} mJ each must sum to a finite total"
        )
    return rows


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


def resolve_reception(channel: Channel, tx: _Transmission) -> str:
    """Outcome of a completed transmission as seen by the gateway: a Cause."""
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
    worked out and checked per (device payload, arm) before the first event.
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

    # Per device, per arm: (airtime µs, e_toa, e_active, reward on ACK), all
    # checked before any event runs. Arms run channel-major with powers in
    # ascending dBm (build_arm_space), so each channel repeats the power rows.
    tables = {}
    for n_payload, rows in cost_rows(cfg, n_devices).items():
        if ack_only:
            rows = [row[:3] + (1.0,) for row in rows]
        tables[n_payload] = rows * len(cfg.channels)
    device_table = [
        tables[payload_symbols(i, cfg.payload_base, cfg.payload_spread)]
        for i in range(n_devices)
    ]

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
    success, busy = Cause.SUCCESS, Cause.CARRIER_BUSY
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
            acked = cause == success
            if not acked:
                reward = 0.0
            observe[i](arm, acked, reward)
            record(RunRecord(seed, i, tx.attempt, arm, arm_hz[arm], arm_dbm[arm],
                             cause, acked, reward, e_toa, e_active, tx.wake_us / 1e6))
            continue

        i, attempt = key, item
        if attempt < last_attempt:
            heappush(queue, (t_us + interval_us, 0, i, attempt + 1))
        arm = select[i]().arm_index
        on_channel = in_flight[arm_channel[arm]]

        if carrier_sense(on_channel, t_us, cs_us):
            # Abandon this interval: overheads are paid, the radio never fires.
            observe[i](arm, False, 0.0)
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
