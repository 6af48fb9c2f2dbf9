"""Event-driven simulation of N devices contending for the gateway.

Each device wakes on its own fixed cadence, asks its policy for a
(channel, power) arm, carrier-senses, transmits, and learns from the
ACK/no-ACK outcome.  Any temporal overlap of two transmissions on the same
frequency destroys both (no capture effect); the gateway's receivers handle
their channels independently.  Time is integer microseconds internally so
event ordering is exact and runs are bit-reproducible.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from operator import add, attrgetter
from typing import TYPE_CHECKING, NamedTuple

from .energy import attempt_energy
from .metrics import Cause, RunLog
from .params import ConfigError, ParamCombo, build_arm_space
from .policies import (AdrLitePolicy, EpsilonGreedyPolicy, FixedPolicy, UcbTunedPolicy,
                       adr_lite_search, fixed_choices)
from .rng import device_rng

if TYPE_CHECKING:
    from .config import ExperimentConfig

POLICY_NAMES = ("proposed_ucb_tuned", "epsilon_greedy", "adr_lite", "fixed")

# The simulator counts time in whole microseconds, and each device's start
# offset is drawn below the interval as a signed 64-bit integer, the domain
# of the device streams' bounded draws (lorabandit.rng).
_US_LIMIT = 2 ** 63


class RunSetup(NamedTuple):
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
    n_devices uses: payload_symbols of devices 0 to n_devices - 1. The
    reward is e_toa_min / e_toa, e_toa_min at the cheapest power: 1 there,
    falling with the level, so in [0, 1] as UCB1-Tuned's variance cap assumes.

    Raises ConfigError unless, for every size, e_toa rises strictly with the
    level from a positive value (rewards rank powers by it), every e_active
    is finite, a transmission ends before the device's next wake, the run's
    e_active can be summed, and so can the energy efficiencies of its
    devices and of a point's runs.
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
            if not math.isfinite(e.e_active_mj):
                raise ConfigError(
                    f"e_active must be finite, but for {n_payload}-symbol payloads at "
                    f"{p.level_dbm} dBm it is {e.e_active_mj} mJ"
                )
            rows[n_payload].append((airtime_us, e.e_toa_mj, e.e_active_mj, e_toa[0] / e.e_toa_mj))
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
    # An efficiency is at most 1 / the smallest e_active. A run sums one per
    # device and a sweep point one per run; half the largest float leaves
    # room for rounding.
    smallest = min(row[2] for table in rows.values() for row in table)
    count = max(n_devices, cfg.runs_per_point)
    if count / smallest > sys.float_info.max / 2:
        raise ConfigError(f"the energy efficiencies of {count} devices or runs, each up to "
                          f"1 / {smallest} per mJ, must sum to a finite total")
    return rows


def _make_policies(setup: RunSetup, arms: list[ParamCombo], seed: int) -> list:
    # One policy per device, each with select() -> PolicyDecision and
    # observe(arm_index, acked, reward). Only the learners draw, so only they
    # get a random stream. Fixed and ADR-Lite devices share the decisions
    # they choose from, built once.
    cfg, devices = setup.config, range(setup.n_devices)
    if setup.policy == "proposed_ucb_tuned":
        return [UcbTunedPolicy(len(arms), device_rng(seed, i, stream=0)) for i in devices]
    if setup.policy == "epsilon_greedy":
        return [EpsilonGreedyPolicy(len(arms), cfg.epsilon, device_rng(seed, i, stream=0))
                for i in devices]
    if setup.policy == "fixed":
        choices = fixed_choices(arms)
        return [FixedPolicy(choices[i % len(choices)]) for i in devices]
    if setup.policy == "adr_lite":
        search = adr_lite_search(arms)
        return [AdrLitePolicy(search) for _ in devices]
    raise ConfigError(f"unknown policy {setup.policy!r}; expected one of {POLICY_NAMES}")


def run_simulation(setup: RunSetup, seed: int) -> RunLog:
    """Execute one run and return its RunLog: per attempt, in event order,
    the loop appends only its prebuilt row id and its attempt index.

    Events run in time order; at equal µs every wake runs before every end
    of airtime, wakes run by device index and ends in the order their
    transmissions started. Device i wakes at offset_i + k·interval, each
    offset below the interval, and its payload has one airtime, so a
    transmission ends offset_i + cs + airtime_i into the period, or that
    minus the interval into the next; cost_rows requires the interval to
    exceed cs plus the longest airtime, so a wrapped end still precedes the
    device's next wake. Every period thus runs the same 2N events in one
    order: the loop sorts that template once, runs it period by period,
    skips each end whose device has no transmission pending, and after the
    last period runs the wrapped ends once more. Airtime, energy and ACK
    reward are worked out and checked per (device payload, arm) first.

    Fixed and ADR-Lite never draw, so the whole state of their run at a
    period boundary is the key the loop takes there: ADR-Lite's next list
    index per device (its pending index, if any, equals it), and per
    wrapped end whether its device has a transmission on the air, with its
    arm and collided flag. No other device has one on the air, and where
    a transmission starts and ends in its period is fixed per device. At
    the first key seen before, the periods since form a cycle that repeats
    to the end of the run: their rows and moved-on attempts are copied once
    for each whole cycle before the last period, the transmissions on the
    air move on by the periods copied, and the loop runs the rest. UCB and
    ε-greedy carry their random streams' state, so their runs are never keyed.
    """
    cfg = setup.config
    n_devices = setup.n_devices
    if n_devices < 1:
        raise ConfigError("need at least one device")

    arms = build_arm_space(cfg.channels, cfg.powers)
    interval_us = round(cfg.interval_s * 1e6)
    cs_us = round(cfg.cs_duration_s * 1e6)
    ack_only = setup.policy == "epsilon_greedy" and cfg.epsilon_reward == "ack"

    # Per payload size, per arm, by outcome (RunLog's: the collided flag of
    # an end of airtime, or 2 for CarrierBusy): its record's (channel_hz,
    # power_dbm, cause, acked, reward, e_toa, e_active), all checked before
    # any event runs. A channel the gateway does not hear loses the frame
    # whether or not it collided. Arms run channel-major with powers in
    # ascending dBm (build_arm_space), so each channel repeats the power rows.
    costs = cost_rows(cfg, n_devices)
    overhead_mj = cfg.energy.overhead_mj
    ends = {n_payload: [] for n_payload in costs}
    for n_payload, rows in costs.items():
        for a, (_, e_toa, e_active, reward) in zip(arms, rows * len(cfg.channels)):
            hz, dbm, heard = a.channel.center_frequency_hz, a.power.level_dbm, a.channel.receivable
            deaf = (hz, dbm, Cause.CHANNEL_NOT_RECEIVABLE, False, 0.0, e_toa, e_active)
            ends[n_payload].append((
                (hz, dbm, Cause.SUCCESS, True, 1.0 if ack_only else reward, e_toa, e_active)
                if heard else deaf,
                (hz, dbm, Cause.COLLISION, False, 0.0, e_toa, e_active) if heard else deaf,
                (hz, dbm, Cause.CARRIER_BUSY, False, 0.0, 0.0, overhead_mj)))
    payloads = [payload_symbols(i, cfg.payload_base, cfg.payload_spread) for i in range(n_devices)]
    device_ends = [ends[n] for n in payloads]
    device_air = [costs[n][0][0] for n in payloads]  # one airtime per payload
    # RunLog's row ids, int objects made once: per device, per arm, by outcome.
    ids = iter(range(3 * len(arms) * n_devices))
    triples = list(zip(ids, ids, ids))
    row_ids = [triples[k:k + len(arms)] for k in range(0, len(triples), len(arms))]

    policies = _make_policies(setup, arms, seed)
    select = [p.select for p in policies]
    observe = [p.observe for p in policies]
    # One period's events as (µs into the period, kind, device), kind 0 for a
    # wake, 1 for an end wrapped in from the previous period and 2 for an end
    # of this period's own. Listed in (offset, device) order and sorted
    # stably by (µs, kind), so wakes at equal µs run by device index and ends
    # in the order their transmissions started.
    template = []
    offsets = [0] * n_devices
    for offset, i in sorted(
        (device_rng(seed, i, stream=1).integers(0, interval_us), i) for i in range(n_devices)
    ):
        offsets[i] = offset
        end_us = offset + cs_us + device_air[i]
        template += [(offset, 0, i), (end_us - interval_us, 1, i) if end_us >= interval_us
                     else (end_us, 2, i)]
    template.sort(key=lambda event: event[:2])
    wrapped = [event for event in template if event[1] == 1]
    wrapped_devices = [i for _, _, i in wrapped]
    # Per device, its transmission in flight or None; per channel, those in
    # flight on it. Each is [start_us, end_us, collided, device, arm,
    # attempt]; no two in flight share a device, so list.remove's equality
    # test finds the very one it is given.
    pending: list[list | None] = [None] * n_devices
    in_flight: list[list[list]] = [[] for _ in cfg.channels]
    arm_in_flight = [in_flight[cfg.channels.index(a.channel)] for a in arms]
    rows, attempts = [], []
    add_row, add_attempt = rows.append, attempts.append
    # Boundary keys of the policies that never draw, with the period and
    # row count each was first seen at; None once a key has repeated.
    seen = {} if setup.policy in ("fixed", "adr_lite") else None
    adr, next_index = setup.policy == "adr_lite", attrgetter("next_list_index")

    # Period t_attempts has no wakes: it runs the ends wrapped in from the last.
    attempt = 0
    while attempt <= cfg.t_attempts:
        if seen is not None:
            key = (tuple(map(next_index, policies)) if adr else (),
                   tuple(tx and (tx[4], tx[2]) for tx in map(pending.__getitem__,
                                                             wrapped_devices)))
            if key not in seen:
                seen[key] = attempt, len(rows)
            else:
                first, start = seen[key]
                cycle = attempt - first
                skip = (cfg.t_attempts - attempt) // cycle * cycle
                cycle_rows, cycle_attempts = rows[start:], attempts[start:]
                for shift in range(cycle, skip + 1, cycle):
                    rows += cycle_rows
                    attempts += map(add, cycle_attempts, repeat(shift))
                skip_us = skip * interval_us
                for tx in pending:
                    if tx is not None:
                        tx[0] += skip_us
                        tx[1] += skip_us
                        tx[5] += skip
                attempt += skip
                seen = None
        period_us = attempt * interval_us
        for t_us, kind, i in template if attempt < cfg.t_attempts else wrapped:
            if kind:
                tx = pending[i]
                if tx is None:
                    continue
                pending[i] = None
                _, _, collided, _, arm, k = tx
                arm_in_flight[arm].remove(tx)
                _, _, _, acked, reward, _, _ = device_ends[i][arm][collided]
                observe[i](arm, acked, reward)
                add_row(row_ids[i][arm][collided])
                add_attempt(k)
                continue

            t_us += period_us
            arm = select[i]().arm_index
            on_channel = arm_in_flight[arm]
            # Carrier sense over [t_us, start_us): half-open, so a transmission
            # ending exactly at the wake or starting exactly at start_us is not heard.
            start_us = t_us + cs_us
            for other in on_channel:
                if other[0] < start_us and other[1] > t_us:
                    # Abandon this interval: overheads are paid, the radio never fires.
                    observe[i](arm, False, 0.0)
                    add_row(row_ids[i][arm][2])
                    add_attempt(attempt)
                    break
            else:
                end_us = start_us + device_air[i]
                tx = [start_us, end_us, False, i, arm, attempt]
                for other in on_channel:
                    if other[0] < end_us and other[1] > start_us:
                        other[2] = tx[2] = True
                on_channel.append(tx)
                pending[i] = tx

        attempt += 1

    if any(in_flight):
        raise RuntimeError("transmissions left in flight after the last period")
    return RunLog(seed, device_ends, interval_us, offsets, rows, attempts)
