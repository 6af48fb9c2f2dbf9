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

import numpy as np

from .energy import AttemptEnergy, attempt_energy, min_toa_energy, reward_basis
from .metrics import Cause, RunRecord
from .params import Channel, ConfigError, ParamCombo, build_arm_space
from .policies import (
    AdrLitePolicy,
    EpsilonGreedyPolicy,
    Feedback,
    FixedPolicy,
    UcbTunedPolicy,
)

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


@dataclass
class DeviceState:
    device_index: int
    policy: Policy
    start_offset_us: int
    n_payload: int
    attempts_done: int = 0


# eq=False: list.remove on the in-flight lists matches by identity.
@dataclass(eq=False)
class _Transmission:
    device: int
    start_us: int
    end_us: int
    arm_index: int
    attempt: int
    wake_us: int
    energy: AttemptEnergy
    collided: bool = False


def payload_symbols(device_index: int, base: int = 36, spread: int = 9) -> int:
    """Deterministic per-device payload size: base + (index mod spread)."""
    return base + device_index % spread


def device_rng(seed: int, device_index: int, stream: int) -> np.random.Generator:
    """Independent per-device RNG stream; adding devices never reshuffles others."""
    ss = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, device_index, stream])
    return np.random.default_rng(ss)


def carrier_sense(in_flight: list[_Transmission], t_us: int, cs_duration_us: int) -> bool:
    """True iff any transmission in flight on the channel overlaps the sense window.

    Intervals are half-open: a transmission ending exactly at t is not heard,
    and one starting exactly at the end of the window is not heard either.
    """
    window_end = t_us + cs_duration_us
    return any(
        tx.start_us < window_end and tx.end_us > t_us
        for tx in in_flight
    )


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
    """Execute one run and return every attempt record in event order."""
    cfg = setup.config
    if setup.n_devices < 1:
        raise ConfigError("need at least one device")

    arms = build_arm_space(cfg.channels, cfg.powers)
    arm_channel = [cfg.channels.index(a.channel) for a in arms]
    interval_us = round(cfg.interval_s * 1e6)
    cs_us = round(cfg.cs_duration_s * 1e6)

    # Validate energies for every (device payload, power) pair up front.
    payloads = sorted(
        {
            payload_symbols(i, cfg.payload_base, cfg.payload_spread)
            for i in range(setup.n_devices)
        }
    )
    energy_cache: dict[tuple[int, int], AttemptEnergy] = {}
    e_toa_min: dict[int, float] = {}
    for n_payload in payloads:
        radio = dataclasses.replace(cfg.radio, n_payload=n_payload)
        for pw in cfg.powers:
            energy_cache[(n_payload, pw.level_dbm)] = attempt_energy(radio, cfg.energy, pw)
        e_toa_min[n_payload] = min_toa_energy(radio, cfg.energy, cfg.powers)

    devices = []
    for i in range(setup.n_devices):
        sim_rng = device_rng(seed, i, stream=1)
        devices.append(
            DeviceState(
                device_index=i,
                policy=_make_policy(setup, i, arms, seed),
                start_offset_us=int(sim_rng.integers(0, interval_us)),
                n_payload=payload_symbols(i, cfg.payload_base, cfg.payload_spread),
            )
        )

    # (time_us, seq, device, transmission); a wake carries no transmission.
    # seq makes the order total and deterministic.
    queue: list = []
    seq = 0
    for dev in devices:
        for i in range(cfg.t_attempts):
            heapq.heappush(queue, (dev.start_offset_us + i * interval_us, seq, dev.device_index, None))
            seq += 1

    in_flight: list[list[_Transmission]] = [[] for _ in cfg.channels]
    records: list[RunRecord] = []

    def finish(dev: DeviceState, tx: _Transmission, cause: Cause) -> None:
        acked = cause is Cause.SUCCESS
        reward = 0.0
        if acked:
            if setup.policy == "epsilon_greedy" and cfg.epsilon_reward == "ack":
                reward = 1.0
            else:
                reward = reward_basis(
                    tx.energy, cfg.reward_mode, e_toa_min[dev.n_payload]
                )
        arm = arms[tx.arm_index]
        dev.policy.observe(
            Feedback(tx.arm_index, acked, reward, tx.energy.e_toa_mj)
        )
        records.append(
            RunRecord(
                run_seed=seed,
                device=dev.device_index,
                attempt=tx.attempt,
                arm_index=tx.arm_index,
                channel_hz=arm.channel.center_frequency_hz,
                power_dbm=arm.power.level_dbm,
                cause=cause.value,
                acked=acked,
                reward=reward,
                e_toa=tx.energy.e_toa_mj,
                e_active=tx.energy.e_active_mj,
                wake_time=tx.wake_us / 1e6,
            )
        )

    while queue:
        t_us, _, device_index, tx = heapq.heappop(queue)
        dev = devices[device_index]

        if tx is not None:
            arm = arms[tx.arm_index]
            in_flight[arm_channel[tx.arm_index]].remove(tx)
            finish(dev, tx, resolve_reception(arm.channel, tx))
            continue

        decision = dev.policy.select()
        arm = arms[decision.arm_index]
        on_channel = in_flight[arm_channel[decision.arm_index]]
        attempt = dev.attempts_done
        dev.attempts_done += 1

        if carrier_sense(on_channel, t_us, cs_us):
            # Abandon this interval: overheads are paid, the radio never fires.
            dev.policy.observe(Feedback(decision.arm_index, False, 0.0, 0.0))
            records.append(
                RunRecord(
                    run_seed=seed,
                    device=dev.device_index,
                    attempt=attempt,
                    arm_index=decision.arm_index,
                    channel_hz=arm.channel.center_frequency_hz,
                    power_dbm=arm.power.level_dbm,
                    cause=Cause.CARRIER_BUSY.value,
                    acked=False,
                    reward=0.0,
                    e_toa=0.0,
                    e_active=cfg.energy.overhead_mj,
                    wake_time=t_us / 1e6,
                )
            )
            continue

        e = energy_cache[(dev.n_payload, arm.power.level_dbm)]
        start_us = t_us + cs_us
        end_us = start_us + round(e.t_toa * 1e6)
        tx = _Transmission(
            device=dev.device_index,
            start_us=start_us,
            end_us=end_us,
            arm_index=decision.arm_index,
            attempt=attempt,
            wake_us=t_us,
            energy=e,
        )
        for other in on_channel:
            if other.start_us < end_us and other.end_us > start_us:
                other.collided = True
                tx.collided = True
        on_channel.append(tx)
        heapq.heappush(queue, (end_us, seq, dev.device_index, tx))
        seq += 1

    if any(in_flight):
        raise RuntimeError("transmissions left in flight after the event queue drained")
    return records
