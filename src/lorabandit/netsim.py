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
from .params import ConfigError, ParamCombo, build_arm_space
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
    # The run summary sums every attempt's e_active, none above the largest.
    largest = max(row[2] for table in rows.values() for row in table)
    if n_devices * cfg.t_attempts > sys.float_info.max / largest:
        raise ConfigError(
            f"the active energy of {n_devices} devices x {cfg.t_attempts} attempts at up "
            f"to {largest} mJ each must sum to a finite total"
        )
    return rows


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


def _calendar(offsets: list[tuple[int, int]], interval_us: int, t_attempts: int):
    """(µs, device, attempt) of every wake in time order: period by period,
    each in the (offset, device) order of offsets, then (inf, -1, t_attempts),
    which comes after every end of airtime."""
    for attempt in range(t_attempts):
        period_us = attempt * interval_us
        for offset, i in offsets:
            yield period_us + offset, i, attempt
    yield math.inf, -1, t_attempts


def run_simulation(setup: RunSetup, seed: int) -> list[RunRecord]:
    """Execute one run and return every attempt record in event order.

    Events run in time order; at equal µs every wake runs before every end
    of airtime, wakes run by device index and ends in the order their
    transmissions started. Device i wakes at offset_i + k·interval, each
    offset below the interval, so every period wakes the devices in the same
    (offset, device) order: the loop sorts the offsets once and runs them
    period by period. Only ends of airtime go on a heap. Before each wake
    the loop runs the ends strictly earlier than it, and after the last wake
    the rest. An end may fall after wakes of the next period, but never
    after its own device's next wake: cost_rows requires the interval to
    exceed carrier sense plus the longest airtime. Airtime, energy and ACK
    reward are worked out and checked per (device payload, arm) before the
    first event.
    """
    cfg = setup.config
    n_devices = setup.n_devices
    if n_devices < 1:
        raise ConfigError("need at least one device")

    arms = build_arm_space(cfg.channels, cfg.powers)
    arm_hz = [a.channel.center_frequency_hz for a in arms]
    arm_dbm = [a.power.level_dbm for a in arms]
    # The cause of an end of airtime by its collided flag: a channel the
    # gateway does not hear loses the frame whether or not it collided.
    arm_causes = [
        (Cause.SUCCESS, Cause.COLLISION) if a.channel.receivable
        else (Cause.CHANNEL_NOT_RECEIVABLE,) * 2
        for a in arms
    ]
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
    offsets = sorted(
        (device_rng(seed, i, stream=1).integers(0, interval_us), i) for i in range(n_devices)
    )
    # (end_us, seq, tx): seq counts transmissions, so ends at equal µs run
    # in the order they started and the tx lists are never compared.
    ends: list[tuple[int, int, list]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    seq = 0
    success, busy = Cause.SUCCESS, Cause.CARRIER_BUSY
    # Per channel, its transmissions in flight, each [start_us, end_us,
    # collided, device, arm, attempt, wake_us]. No two in flight share a
    # device, so list.remove's equality test finds the very one it is given.
    in_flight: list[list[list]] = [[] for _ in cfg.channels]
    arm_in_flight = [in_flight[cfg.channels.index(a.channel)] for a in arms]
    records: list[RunRecord] = []
    record, make_record = records.append, RunRecord._make  # _make skips __new__'s arg parsing

    for t_us, i, attempt in _calendar(offsets, interval_us, cfg.t_attempts):
        while ends and ends[0][0] < t_us:
            tx = heappop(ends)[2]
            _, _, collided, j, arm, k, wake_us = tx
            arm_in_flight[arm].remove(tx)
            cause = arm_causes[arm][collided]
            _, e_toa, e_active, reward = device_table[j][arm]
            acked = cause == success
            if not acked:
                reward = 0.0
            observe[j](arm, acked, reward)
            record(make_record((seed, j, k, arm, arm_hz[arm], arm_dbm[arm],
                                cause, acked, reward, e_toa, e_active, wake_us / 1e6)))
        if i < 0:
            break

        arm = select[i]().arm_index
        on_channel = arm_in_flight[arm]
        # Carrier sense over [t_us, start_us): half-open, so a transmission
        # ending exactly at the wake or starting exactly at start_us is not heard.
        start_us = t_us + cs_us
        for other in on_channel:
            if other[0] < start_us and other[1] > t_us:
                # Abandon this interval: overheads are paid, the radio never fires.
                observe[i](arm, False, 0.0)
                record(make_record((seed, i, attempt, arm, arm_hz[arm], arm_dbm[arm],
                                    busy, False, 0.0, 0.0, busy_mj, t_us / 1e6)))
                break
        else:
            end_us = start_us + device_table[i][arm][0]
            tx = [start_us, end_us, False, i, arm, attempt, t_us]
            for other in on_channel:
                if other[0] < end_us and other[1] > start_us:
                    other[2] = tx[2] = True
            on_channel.append(tx)
            heappush(ends, (end_us, seq, tx))
            seq += 1

    if any(in_flight):
        raise RuntimeError("transmissions left in flight after the event queue drained")
    return records
