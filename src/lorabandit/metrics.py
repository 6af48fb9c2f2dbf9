"""Evaluation metrics computed from per-attempt record logs.

Success rate is successes over selections; energy efficiency is successes
per millijoule of active-mode energy.  The headline efficiency figure is the
per-device cumulative ratio averaged across devices; per-arm figures follow
the rate-over-mean-energy form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from enum import Enum
from typing import NamedTuple


class Cause(str, Enum):
    SUCCESS = "Success"
    CHANNEL_NOT_RECEIVABLE = "ChannelNotReceivable"
    CARRIER_BUSY = "CarrierBusy"
    COLLISION = "Collision"


class RunRecord(NamedTuple):
    """One attempt: who transmitted what, with which outcome and cost.

    An immutable named tuple: the simulator builds one per attempt.
    """

    run_seed: int
    device: int
    attempt: int
    arm_index: int
    channel_hz: float
    power_dbm: int
    cause: str
    acked: bool
    reward: float
    e_toa: float
    e_active: float
    wake_time: float

    def to_dict(self) -> dict:
        return self._asdict()


@dataclass
class ArmStats:
    selections: int = 0
    successes: int = 0

    #: mean transmission success rate over this arm's selections
    success_rate: float | None = None
    #: success rate over mean per-attempt active energy, 1/mJ
    energy_efficiency: float | None = None


@dataclass
class MetricsSummary:
    """All evaluation quantities of one run (or an average of runs)."""

    config_key: str
    n_runs: int
    attempts: int
    successes: int
    success_rate: float | None
    energy_efficiency: float | None  # device-mean cumulative EE, 1/mJ
    energy_efficiency_network: float | None  # total successes / total energy
    tp_ratio: dict[int, float] = field(default_factory=dict)
    per_arm: dict[int, ArmStats] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["tp_ratio"] = {str(k): v for k, v in self.tp_ratio.items()}
        d["per_arm"] = {str(k): v for k, v in d["per_arm"].items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsSummary":
        return cls(**{
            **d,
            "tp_ratio": {int(k): v for k, v in d["tp_ratio"].items()},
            "per_arm": {int(k): ArmStats(**v) for k, v in d["per_arm"].items()},
        })


def success_rate(records):
    """Successes over selections; None for an empty log (never 0-by-fiat)."""
    attempts = successes = 0
    for r in records:
        attempts += 1
        successes += 1 if r.acked else 0
    return successes / attempts if attempts else None


def energy_efficiency(records):
    """Successes per millijoule of active energy; None for an empty log."""
    successes, energies = 0, []
    for r in records:
        successes += 1 if r.acked else 0
        energies.append(r.e_active)
    if not energies:
        return None
    total = math.fsum(energies)
    if total <= 0:
        raise ValueError("total active energy must be positive")
    return successes / total


def tp_selection_ratio(records) -> dict[int, float]:
    """Share of each TX power among successful transmissions only."""
    counts: dict[int, int] = {}
    total = 0
    for r in records:
        if r.acked:
            counts[r.power_dbm] = counts.get(r.power_dbm, 0) + 1
            total += 1
    if total == 0:
        return {}
    return {dbm: c / total for dbm, c in counts.items()}


def summarize_run(records: list[RunRecord], config_key: str = "") -> MetricsSummary:
    """Fold one run's record log into a MetricsSummary."""
    attempts = len(records)
    successes = sum(1 for r in records if r.acked)

    # Per-device cumulative EE, written rate-over-mean-energy so a constant
    # per-attempt energy yields exactly success_rate / e_active.
    by_device: dict[int, tuple[int, int, list[float]]] = {}
    for r in records:
        n, s, es = by_device.get(r.device, (0, 0, []))
        es.append(r.e_active)
        by_device[r.device] = (n + 1, s + (1 if r.acked else 0), es)
    device_ee = [
        (s / n) / (math.fsum(es) / n) for n, s, es in by_device.values()
    ]
    ee_mean = math.fsum(device_ee) / len(device_ee) if device_ee else None
    ee_network = energy_efficiency(records)

    per_arm: dict[int, ArmStats] = {}
    arm_energy: dict[int, list[float]] = {}
    for r in records:
        stats = per_arm.setdefault(r.arm_index, ArmStats())
        stats.selections += 1
        stats.successes += 1 if r.acked else 0
        arm_energy.setdefault(r.arm_index, []).append(r.e_active)
    for arm, stats in per_arm.items():
        stats.success_rate = stats.successes / stats.selections
        mean_e = math.fsum(arm_energy[arm]) / stats.selections
        stats.energy_efficiency = stats.success_rate / mean_e

    return MetricsSummary(
        config_key=config_key,
        n_runs=1,
        attempts=attempts,
        successes=successes,
        success_rate=successes / attempts if attempts else None,
        energy_efficiency=ee_mean,
        energy_efficiency_network=ee_network,
        tp_ratio=tp_selection_ratio(records),
        per_arm=per_arm,
    )


def aggregate_runs(summaries: list[MetricsSummary]) -> MetricsSummary:
    """Pointwise arithmetic mean of run summaries.

    All inputs must share a config key; tp_ratio maps are averaged with
    missing keys treated as 0.
    """
    if not summaries:
        raise ValueError("need at least one summary")
    keys = {s.config_key for s in summaries}
    if len(keys) > 1:
        raise ValueError(f"refusing to average runs with mixed configs: {sorted(keys)}")
    k = len(summaries)

    def mean_opt(values):
        present = [v for v in values if v is not None]
        if not present:
            return None
        return math.fsum(present) / len(present)

    tp_keys = sorted({dbm for s in summaries for dbm in s.tp_ratio})
    tp_ratio = {
        dbm: math.fsum(s.tp_ratio.get(dbm, 0.0) for s in summaries) / k
        for dbm in tp_keys
    }

    arm_keys = sorted({a for s in summaries for a in s.per_arm})
    per_arm = {}
    for a in arm_keys:
        stats = [s.per_arm.get(a, ArmStats()) for s in summaries]
        per_arm[a] = ArmStats(
            selections=sum(st.selections for st in stats),
            successes=sum(st.successes for st in stats),
            success_rate=mean_opt([st.success_rate for st in stats]),
            energy_efficiency=mean_opt([st.energy_efficiency for st in stats]),
        )

    return MetricsSummary(
        config_key=summaries[0].config_key,
        n_runs=sum(s.n_runs for s in summaries),
        attempts=sum(s.attempts for s in summaries),
        successes=sum(s.successes for s in summaries),
        success_rate=mean_opt([s.success_rate for s in summaries]),
        energy_efficiency=mean_opt([s.energy_efficiency for s in summaries]),
        energy_efficiency_network=mean_opt(
            [s.energy_efficiency_network for s in summaries]
        ),
        tp_ratio=tp_ratio,
        per_arm=per_arm,
    )
