"""Evaluation metrics computed from per-attempt record logs, by record counts.

Success rate is successes over selections; energy efficiency is successes
per millijoule of active-mode energy.  The headline efficiency figure is the
per-device cumulative ratio averaged across devices, each device's written
as its success rate over its mean energy per attempt.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator
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

    An immutable named tuple, which a RunLog builds when it is read.
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


class RunLog:
    """One run's records as a row table, each built when it is read. A row
    is a (device, arm, outcome), outcome 0 or 1 for an end of airtime by its
    collided flag and 2 for CarrierBusy: row = (device·n_arms + arm)·3 +
    outcome, and its records' (channel_hz, power_dbm, cause, acked, reward,
    e_toa, e_active) are ends[device][arm][outcome]. Per attempt the log
    keeps its row and attempt; wake_time is (attempt·interval_us +
    offsets_us[device]) / 1e6. A log has a length and is read by iterating
    it, as list(log) does."""

    def __init__(self, seed, ends, interval_us, offsets_us, rows, attempts):
        self.seed, self.ends, self.interval_us, self.offsets_us = seed, ends, interval_us, offsets_us
        self.rows, self.attempts = rows, attempts

    def row_fields(self, row: int) -> tuple:
        """A row's record fields but attempt and wake_time, in record order."""
        device, rest = divmod(row, 3 * len(self.ends[0]))
        arm, outcome = divmod(rest, 3)
        return (self.seed, device, arm, *self.ends[device][arm][outcome])

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[RunRecord]:
        for row, attempt in zip(self.rows, self.attempts):
            seed, device, *fields = self.row_fields(row)
            yield RunRecord(seed, device, attempt, *fields,
                            (attempt * self.interval_us + self.offsets_us[device]) / 1e6)


class MetricsSummary(NamedTuple):
    """All evaluation quantities of one run (or an average of runs)."""

    config_key: str
    n_runs: int
    attempts: int
    successes: int
    success_rate: float | None
    energy_efficiency: float | None  # device-mean cumulative EE, 1/mJ
    energy_efficiency_network: float | None  # total successes / total energy
    tp_ratio: dict[int, float]

    def to_dict(self) -> dict:
        return {**self._asdict(), "tp_ratio": {str(k): v for k, v in self.tp_ratio.items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsSummary":
        """A summary from its to_dict form. Other keys are ignored, such as
        the per_arm table that summaries of earlier versions hold."""
        return cls(**{
            **{name: d[name] for name in cls._fields},
            "tp_ratio": {int(k): v for k, v in d["tp_ratio"].items()},
        })


#: A run summary depends on its records only through their counts by these.
GROUP_FIELDS = ("device", "acked", "power_dbm", "e_active")
_group_key = itemgetter(*map(RunRecord._fields.index, GROUP_FIELDS))


def summarize_run(records: Iterable[RunRecord], config_key: str = "") -> MetricsSummary:
    """Fold one run's records, counted by GROUP_FIELDS, into its summary; a
    RunLog's are counted from its rows, by each row's fields.

    math.fsum returns the correctly rounded exact sum, so a group's c equal
    energies, summed as c copies, give the figures of any per-record sum.
    Every device must have spent positive active energy, and the active
    energies and the devices' efficiencies must each sum to a finite total.
    """
    if isinstance(records, RunLog):
        groups = Counter()
        for row, c in Counter(records.rows).items():
            _, device, _, _, dbm, _, acked, _, _, e_active = records.row_fields(row)
            groups[device, acked, dbm, e_active] += c
    else:
        groups = Counter(map(_group_key, records))
    # Per device: [attempts, successes, [(energy, count), ...]].
    by_device, acked_by_dbm = {}, {}
    for (device, acked, dbm, e_active), c in groups.items():
        t = by_device.setdefault(device, [0, 0, []])
        t[0] += c
        t[2].append((e_active, c))
        if acked:
            t[1] += c
            acked_by_dbm[dbm] = acked_by_dbm.get(dbm, 0) + c
    device_ee = []  # cumulative, per device
    try:
        for device, (n, s, pairs) in by_device.items():
            energy = math.fsum(chain.from_iterable(starmap(repeat, pairs)))
            if energy <= 0:
                raise ValueError(f"active energy of device {device} must be positive")
            # Rate over mean energy, so a constant per-attempt energy yields
            # exactly success_rate / e_active.
            device_ee.append((s / n) / (energy / n))
        total_energy = math.fsum(chain.from_iterable(repeat(k[3], c) for k, c in groups.items()))
        ee_sum = math.fsum(device_ee)
    except OverflowError:
        raise ValueError(f"the active energies or the energy efficiencies of the run's "
                         f"{len(by_device)} devices must sum to a finite total") from None
    attempts = sum(groups.values())
    successes = sum(acked_by_dbm.values())
    return MetricsSummary(
        config_key=config_key,
        n_runs=1,
        attempts=attempts,
        successes=successes,
        success_rate=successes / attempts if attempts else None,
        energy_efficiency=ee_sum / len(device_ee) if device_ee else None,
        energy_efficiency_network=successes / total_energy if attempts else None,
        # The share of each TX power among successful transmissions only.
        tp_ratio={dbm: c / successes for dbm, c in acked_by_dbm.items()},
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
    )
