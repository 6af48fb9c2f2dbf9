"""A per-record reference for metrics.summarize_run and summarize_groups.

It folds a run's records one at a time, keeping every energy, and sums
them by math.fsum: the fold the summary had before it was computed from
record counts. The grouped summary must equal it field by field on every
log whose energies it can add up (differential testing, McKeeman 1998).
"""

from __future__ import annotations

import math

from lorabandit.metrics import ArmStats, MetricsSummary, RunRecord


def summarize_run(records: list[RunRecord], config_key: str = "") -> MetricsSummary:
    """Fold one run's record log into a MetricsSummary in one pass.

    Energies are summed by math.fsum, which is exact, so no figure depends
    on the order of the records.
    """
    # [attempts, successes, active energies] per device and per arm.
    by_device: dict[int, list] = {}
    by_arm: dict[int, list] = {}
    acked_by_dbm: dict[int, int] = {}
    for r in records:
        dev = by_device.get(r.device)
        if dev is None:
            dev = by_device[r.device] = [0, 0, []]
        arm = by_arm.get(r.arm_index)
        if arm is None:
            arm = by_arm[r.arm_index] = [0, 0, []]
        dev[0] += 1
        arm[0] += 1
        dev[2].append(r.e_active)
        arm[2].append(r.e_active)
        if r.acked:
            dev[1] += 1
            arm[1] += 1
            acked_by_dbm[r.power_dbm] = acked_by_dbm.get(r.power_dbm, 0) + 1

    attempts = len(records)
    successes = sum(acked_by_dbm.values())
    total_energy = math.fsum(e for _, _, es in by_device.values() for e in es)
    if attempts and total_energy <= 0:
        raise ValueError("total active energy must be positive")
    # Per-device cumulative EE, written rate-over-mean-energy so a constant
    # per-attempt energy yields exactly success_rate / e_active.
    device_ee = [(s / n) / (math.fsum(es) / n) for n, s, es in by_device.values()]
    per_arm = {}
    for arm_index, (n, s, es) in by_arm.items():
        rate = s / n
        per_arm[arm_index] = ArmStats(n, s, rate, rate / (math.fsum(es) / n))

    return MetricsSummary(
        config_key=config_key,
        n_runs=1,
        attempts=attempts,
        successes=successes,
        success_rate=successes / attempts if attempts else None,
        energy_efficiency=math.fsum(device_ee) / len(device_ee) if device_ee else None,
        energy_efficiency_network=successes / total_energy if attempts else None,
        # The share of each TX power among successful transmissions only.
        tp_ratio={dbm: c / successes for dbm, c in acked_by_dbm.items()},
        per_arm=per_arm,
    )
