"""Evaluation metrics computed from per-attempt record logs, by record counts.

Success rate is successes over selections; energy efficiency is successes
per millijoule of active-mode energy.  The headline efficiency figure is the
per-device cumulative ratio averaged across devices; per-arm figures follow
the rate-over-mean-energy form.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, asdict
from itertools import chain, repeat, starmap
from operator import itemgetter
from typing import NamedTuple


class Cause:
    """The outcome of an attempt, as its record's cause."""

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


#: A run summary depends on its records only through their counts by these.
GROUP_FIELDS = ("device", "arm_index", "acked", "power_dbm", "e_active")
_group_key = itemgetter(*map(RunRecord._fields.index, GROUP_FIELDS))


def summarize_run(records: list[RunRecord], config_key: str = "") -> MetricsSummary:
    """summarize_groups of the records counted by GROUP_FIELDS."""
    return summarize_groups(Counter(map(_group_key, records)), config_key)


def summarize_groups(groups: dict[tuple, int], config_key: str = "") -> MetricsSummary:
    """Fold one run's record counts, keyed by GROUP_FIELDS, into its summary.

    math.fsum returns the correctly rounded exact sum, so a group's c equal
    energies, summed as c copies, give the figures of any per-record sum.
    Every device and every arm must have spent positive active energy.
    """
    # Per device and per arm: [attempts, successes, [(energy, count), ...]], then ArmStats.
    by_device, by_arm, acked_by_dbm = {}, {}, {}
    for (device, arm, acked, dbm, e_active), c in groups.items():
        for tally, key in ((by_device, device), (by_arm, arm)):
            t = tally.setdefault(key, [0, 0, []])
            t[0] += c
            t[1] += c if acked else 0
            t[2].append((e_active, c))
        if acked:
            acked_by_dbm[dbm] = acked_by_dbm.get(dbm, 0) + c
    for what, tally in (("device", by_device), ("arm", by_arm)):
        for key, (n, s, pairs) in tally.items():
            energy = math.fsum(chain.from_iterable(starmap(repeat, pairs)))
            if energy <= 0:
                raise ValueError(f"active energy of {what} {key} must be positive")
            # Rate over mean energy, so a constant per-attempt energy yields
            # exactly success_rate / e_active.
            tally[key] = ArmStats(n, s, s / n, (s / n) / (energy / n))

    attempts = sum(groups.values())
    successes = sum(acked_by_dbm.values())
    total_energy = math.fsum(chain.from_iterable(repeat(k[4], c) for k, c in groups.items()))
    device_ee = [d.energy_efficiency for d in by_device.values()]  # cumulative, per device
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
        per_arm=by_arm,
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
