"""The benchmark's workloads: the config each one generates from a seed, the
outcome digest that the golden gate compares, and the gauge of the host's
speed that every time is divided by.

Shared by run.py (the command-line entry point), job.py (one pass in a
fresh interpreter) and update_goldens.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import os
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
JOB = Path(__file__).resolve().parent / "job.py"

WORKLOADS = ("stock_sweep", "ucb_longrun", "dense_parallel")
SIZES = ("full", "smoke")

#: The stock config's base_seed, so stock_sweep at the default seed is the
#: paper's experiment; the held-out seed is never used while tuning a change.
DEFAULT_SEED = 20240901
HELD_OUT_SEED = 7
STORED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: Per-attempt fields the digest covers. Extra record keys (such as
#: run_seed, channel_hz and power_dbm, or a future phase) are ignored, as is
#: key order, so a record-format change that keeps these values passes.
RECORD_FIELDS = (
    "device", "attempt", "arm_index", "cause", "acked",
    "reward", "e_toa", "e_active", "wake_time",
)

UCB_POLICY = "proposed_ucb_tuned"

# Workload size per --size. stock_sweep is the stock {} config at one run per
# point; ucb_longrun runs one N=30 UCB network for a long horizon over
# several run seeds; dense_parallel is a short-interval sweep of the two
# cheap policies, so carrier sense is hot and the policies do almost nothing.
_SHAPES = {
    "full": {
        "stock_sweep": {"runs_per_point": 1},
        "ucb_longrun": {"device_counts": [30], "runs_per_point": 3, "t_attempts": 600},
        "dense_parallel": {"policies": ["fixed", "adr_lite"], "interval_s": 1.0,
                           "runs_per_point": 2},
    },
    "smoke": {
        "stock_sweep": {"device_counts": [10, 15], "runs_per_point": 1, "t_attempts": 40},
        "ucb_longrun": {"device_counts": [10], "runs_per_point": 2, "t_attempts": 60},
        "dense_parallel": {"policies": ["fixed", "adr_lite"], "interval_s": 1.0,
                           "device_counts": [10, 20], "runs_per_point": 2,
                           "t_attempts": 40},
    },
}


def config_doc(workload: str, seed: int, size: str = "full") -> dict:
    """The JSON config the program receives for this workload and seed.

    The seed becomes base_seed for the sweeps. ucb_longrun does not use
    base_seed (its run seeds come from ucb_run_seeds) and so omits it.
    """
    doc = dict(_SHAPES[size][workload])
    if workload == "ucb_longrun":
        doc["policies"] = [UCB_POLICY]
    else:
        doc["base_seed"] = seed
    return doc


def ucb_run_seeds(seed: int, runs: int) -> list[int]:
    """ucb_longrun's per-run simulation seeds, derived from the workload seed."""
    return [
        int.from_bytes(hashlib.sha256(f"ucb_longrun:{seed}:{r}".encode()).digest()[:8], "big")
        for r in range(runs)
    ]


def expected_attempts(doc: dict) -> int:
    """Attempts a pass must record: T per device, per run, per policy."""
    from lorabandit.config import config_from_dict

    cfg = config_from_dict(doc)
    return len(cfg.policies) * cfg.runs_per_point * cfg.t_attempts * sum(cfg.device_counts)


def parallel_workers(doc: dict) -> int:
    """Pool workers for dense_parallel: one per usable CPU, at most one per job."""
    from lorabandit.config import config_from_dict

    cfg = config_from_dict(doc)
    jobs = len(cfg.policies) * len(cfg.device_counts) * cfg.runs_per_point
    return max(1, min(len(os.sched_getaffinity(0)), jobs))


#: Seconds loop_seconds() reads on the 2-core Xeon the benchmark was built
#: on, at that host's full speed (8.3-8.9 ms measured). Times are reported in
#: seconds at this speed.
REFERENCE_LOOP_S = 0.0085


def _gauge_loop(n: int = 10_000) -> float:
    """Fixed pure-Python work of the simulator's kind: a heap, a dict, floats."""
    heap, bins, acc = [], {}, 0.0
    for i in range(n):
        x = (i * 2654435761) % 1000003
        heapq.heappush(heap, (x * 1e-3, i))
        bins[x & 255] = bins.get(x & 255, 0.0) + x * 0.5
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return acc + sum(bins.values())


def loop_seconds() -> float:
    """Wall seconds of the gauge loop on the current CPU, best of two.

    Each CPU of the host the benchmark was built on runs in spells, from
    seconds to minutes long and independent of the other CPU, at down to
    half its full speed; the loop slows with them as the program does. Each
    time the benchmark takes is divided by the loop seconds read on its CPU
    just before and after it (and multiplied by REFERENCE_LOOP_S), so that
    it reads the program and not the spell.
    """
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _gauge_loop()
        best = min(best, time.perf_counter() - t0)
    return best


@contextlib.contextmanager
def pinned(cpu: int):
    """Run this process (and the children it starts) on one CPU only."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def loop_seconds_per_cpu() -> dict[int, float]:
    """loop_seconds() read on each CPU this process may use."""
    readings = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        with pinned(cpu):
            readings[cpu] = loop_seconds()
    return readings


def fastest_cpu() -> tuple[int, float]:
    """The CPU that runs the gauge loop fastest now, and its loop seconds."""
    readings = loop_seconds_per_cpu()
    cpu = min(readings, key=readings.get)
    return cpu, readings[cpu]


def all_cpus_loop_seconds() -> float:
    """Loop seconds of the whole host, for work spread over every CPU: the
    harmonic mean over the CPUs, as their speeds add up."""
    readings = loop_seconds_per_cpu().values()
    return len(readings) / sum(1 / x for x in readings)


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class RecordDigest:
    """sha256 over the RECORD_FIELDS of records fed one at a time, in order."""

    def __init__(self):
        self._fields = hashlib.sha256()
        self.count = 0

    def add(self, values) -> None:
        self._fields.update(json.dumps(list(values), separators=(",", ":")).encode() + b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        return self._fields.hexdigest()


def sweep_digest(out: Path, parse: bool = True) -> dict:
    """Digest of a sweep's output directory.

    records: the RECORD_FIELDS of every record, in manifest run order; None
    unless parse, for a pass whose raw_records can be compared with an
    earlier pass at the same seed instead (equal bytes parse equally).
    attempts: the number of records.
    artifacts: sha256 of the bytes of each CSV under tables/.
    raw_records: sha256 of the records/ files' bytes.
    """
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    fields, raw, lines = RecordDigest(), hashlib.sha256(), 0
    for entry in manifest["runs"]:
        with open(out / entry["records"], "rb") as fh:
            for line in fh:
                raw.update(line)
                lines += 1
                if parse:
                    rec = json.loads(line)
                    fields.add(rec[f] for f in RECORD_FIELDS)
    tables = {p.name: _sha(p.read_bytes()) for p in sorted((out / "tables").glob("*.csv"))}
    return {"attempts": lines, "records": fields.hexdigest() if parse else None,
            "artifacts": tables, "raw_records": raw.hexdigest()}


def _summary_fields(s) -> dict:
    return {
        "attempts": s.attempts,
        "successes": s.successes,
        "success_rate": s.success_rate,
        "energy_efficiency": s.energy_efficiency,
        "energy_efficiency_network": s.energy_efficiency_network,
        "tp_ratio": {str(k): v for k, v in sorted(s.tp_ratio.items())},
    }


def library_digest(fields: RecordDigest, summaries: list, aggregate) -> dict:
    """Digest of ucb_longrun: its records, fed to `fields` run by run, and its
    per-run and aggregated summaries."""
    summary = json.dumps(
        {"runs": [_summary_fields(s) for s in summaries],
         "aggregate": _summary_fields(aggregate)},
        sort_keys=True, separators=(",", ":"),
    ).encode()
    return {"attempts": fields.count, "records": fields.hexdigest(),
            "artifacts": {"summaries": _sha(summary)}, "raw_records": None}


def matches_golden(digest: dict, golden: dict) -> bool:
    """Records digest equal and every golden artifact present and equal.

    Artifacts the golden does not name (a new table) are ignored.
    """
    return digest["records"] == golden["records"] and all(
        digest["artifacts"].get(name) == sha for name, sha in golden["artifacts"].items()
    )


def outcome(digest: dict) -> dict:
    """The part of a digest a golden stores and two passes must agree on."""
    return {"records": digest["records"], "artifacts": digest["artifacts"]}


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)
