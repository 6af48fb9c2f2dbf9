"""A deliberately naive reference for netsim.run_simulation.

It keeps no heap and no tables. Before each event it scans every device's
next wake and every transmission in flight, and runs the smallest under the
tie rule: at equal µs every wake runs before every end of airtime, wakes run
by device index, and ends run in the order their transmissions started. It
builds the same policy classes from the same device_rng streams and takes
its energies from the energy module, one attempt at a time, so the fast
loop's records must equal these field by field (differential testing,
McKeeman 1998).
"""

from __future__ import annotations

from lorabandit.energy import attempt_energy
from lorabandit.metrics import Cause, RunRecord
from lorabandit.netsim import device_rng, payload_symbols
from lorabandit.params import build_arm_space
from lorabandit.policies import (AdrLitePolicy, EpsilonGreedyPolicy, FixedPolicy, UcbTunedPolicy,
                                 adr_lite_search, fixed_choices)


def select_fixed(device_index, arms):
    """One device's fixed decision, built on its own: the receivable channels
    round-robin by frequency, at the minimum power."""
    choices = fixed_choices(arms)
    return choices[device_index % len(choices)]


def _policy(setup, i, arms, seed):
    cfg = setup.config
    rng = device_rng(seed, i, stream=0)
    return {
        "proposed_ucb_tuned": lambda: UcbTunedPolicy(len(arms), rng),
        "epsilon_greedy": lambda: EpsilonGreedyPolicy(len(arms), cfg.epsilon, rng),
        "fixed": lambda: FixedPolicy(select_fixed(i, arms)),
        "adr_lite": lambda: AdrLitePolicy(adr_lite_search(arms)),
    }[setup.policy]()


def reference_run(setup, seed, events=None):
    """Every attempt record of one run, in event order. If events is a
    list, the (µs, "wake" or "end") of each event is appended to it."""
    cfg = setup.config
    arms = build_arm_space(cfg.channels, cfg.powers)
    interval_us = round(cfg.interval_s * 1e6)
    cs_us = round(cfg.cs_duration_s * 1e6)
    devices = []
    for i in range(setup.n_devices):
        offset = int(device_rng(seed, i, stream=1).integers(0, interval_us))
        devices.append({"policy": _policy(setup, i, arms, seed), "next": offset, "done": 0,
                        "payload": payload_symbols(i, cfg.payload_base, cfg.payload_spread)})
    in_flight = []  # dicts, in the order their transmissions started
    records = []

    while True:
        wakes = [(d["next"], i) for i, d in enumerate(devices) if d["done"] < cfg.t_attempts]
        first_wake = min(wakes, default=None)
        first_end = min((tx["end"] for tx in in_flight), default=None)
        if first_wake is None and first_end is None:
            return records
        if first_end is None or (first_wake is not None and first_wake[0] <= first_end):
            t, i = first_wake
            dev = devices[i]
            if events is not None:
                events.append((t, "wake"))
            arm = arms[dev["policy"].select().arm_index]
            attempt = dev["done"]
            dev["done"] += 1
            dev["next"] += interval_us
            same_channel = [tx for tx in in_flight if tx["arm"].channel == arm.channel]
            if any(tx["start"] < t + cs_us and tx["end"] > t for tx in same_channel):
                dev["policy"].observe(arm.arm_index, False, 0.0)
                records.append(RunRecord(
                    seed, i, attempt, arm.arm_index, arm.channel.center_frequency_hz,
                    arm.power.level_dbm, Cause.CARRIER_BUSY, False, 0.0, 0.0,
                    cfg.energy.overhead_mj, t / 1e6))
                continue
            energy = attempt_energy(cfg.radio, dev["payload"], cfg.energy, arm.power)
            tx = {"device": i, "arm": arm, "attempt": attempt, "wake": t,
                  "energy": energy, "start": t + cs_us,
                  "end": t + cs_us + round(energy.t_toa * 1e6), "collided": False}
            for other in same_channel:
                if other["start"] < tx["end"] and other["end"] > tx["start"]:
                    other["collided"] = tx["collided"] = True
            in_flight.append(tx)
            continue

        tx = next(tx for tx in in_flight if tx["end"] == first_end)
        in_flight.remove(tx)
        if events is not None:
            events.append((first_end, "end"))
        arm, energy = tx["arm"], tx["energy"]
        if not arm.channel.receivable:
            cause = Cause.CHANNEL_NOT_RECEIVABLE
        elif tx["collided"]:
            cause = Cause.COLLISION
        else:
            cause = Cause.SUCCESS
        reward = 0.0
        acked = cause == Cause.SUCCESS
        if acked:
            n_payload = devices[tx["device"]]["payload"]
            e_min = min(attempt_energy(cfg.radio, n_payload, cfg.energy, p).e_toa_mj
                        for p in cfg.powers)
            reward = e_min / energy.e_toa_mj
        devices[tx["device"]]["policy"].observe(arm.arm_index, acked, reward)
        records.append(RunRecord(
            seed, tx["device"], tx["attempt"], arm.arm_index,
            arm.channel.center_frequency_hz, arm.power.level_dbm, cause,
            acked, reward, energy.e_toa_mj, energy.e_active_mj, tx["wake"] / 1e6))
