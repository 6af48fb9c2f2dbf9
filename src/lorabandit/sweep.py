"""Experiment sweeps: run every (policy, device count, seed) point and
persist record logs, per-run summaries, aggregated summaries and plot-ready
CSV tables under one manifest."""

from __future__ import annotations

import json
import os
import shutil
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from pathlib import Path

from . import __version__
from .config import ExperimentConfig
# summarize_run is unused here, but bound: perfbench/spans.py traces sweep.summarize_run.
from .metrics import MetricsSummary, RunRecord, aggregate_runs, summarize_groups, summarize_run
from .netsim import run_simulation

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def run_seed(base_seed: int, policy: str, n_devices: int, run_index: int) -> int:
    """Per-run seed from a splitmix64 chain over (base, policy name, N, run).

    Keying on the policy *name* rather than its position means adding or
    reordering policies never perturbs existing results.
    """
    h = base_seed & _MASK64
    for v in (_fnv1a64(policy.encode()), n_devices, run_index):
        h = _splitmix64(h ^ (v & _MASK64))
    return h


@dataclass
class RunManifest:
    config_hash: str
    base_seed: int
    version: str
    out_dir: str
    config: dict
    runs: list[dict] = field(default_factory=list)  # policy, n, run, seed, paths

    def to_dict(self) -> dict:
        """Every field but out_dir, which load takes from the file's place."""
        return {k: v for k, v in asdict(self).items() if k != "out_dir"}

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a manifest; its artifacts are found next to the file, wherever
        the sweep that wrote it was started from (an out_dir it carries is
        ignored)."""
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        d["out_dir"] = str(Path(path).parent)
        return cls(**d)


def write_records(records: list[RunRecord], path: Path) -> Counter:
    """Newline-delimited JSON, one record per line, keys sorted: byte for byte
    json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) for the
    simulator's records: floats finite (written by repr), causes Cause strings.

    Only attempt and wake_time vary between a run's records of one (device,
    arm, cause), so the fragments around them are built once per rest of
    the record. That key holds floats by id, as 0.0 == -0.0 with unequal
    reprs; the records keep the ids live, and netsim reuses table floats.
    Each entry counts its records; merged by value, they are returned as the
    run's counts by metrics.GROUP_FIELDS, for summarize_groups.
    """
    fragments = {}
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write
        for r in records:
            seed, device, attempt, arm, hz, dbm, cause, acked, reward, e_toa, e_active, wake = r
            key = (device, arm, acked, dbm, cause, seed, id(hz), id(reward), id(e_toa), id(e_active))
            try:
                entry = fragments[key]
            except KeyError:
                entry = fragments[key] = [
                    f'{{"acked":{"true" if acked else "false"},"arm_index":{arm},"attempt":',
                    f',"cause":"{cause}","channel_hz":{hz!r},"device":{device},"e_active":'
                    f'{e_active!r},"e_toa":{e_toa!r},"power_dbm":{dbm},"reward":{reward!r},'
                    f'"run_seed":{seed},"wake_time":', 0, e_active]
            entry[2] += 1
            write(f"{entry[0]}{attempt}{entry[1]}{wake!r}}}\n")
    groups = Counter()
    for key, (_, _, count, e_active) in fragments.items():
        groups[(*key[:4], e_active)] += count
    return groups


def read_records(path) -> list[RunRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            records.append(RunRecord(**json.loads(line)))
    return records


def _execute_point(args) -> MetricsSummary:
    cfg, policy, n, run_index, seed, records_path, config_hash = args
    records = run_simulation(cfg.run_setup(policy, n), seed)
    return summarize_groups(write_records(records, Path(records_path)), config_hash)


def run_sweep(cfg: ExperimentConfig, out_dir, parallel: int = 1) -> RunManifest:
    """Execute the full sweep and write all artifacts under out_dir.

    If it fails, it removes the files it writes and the directories it made;
    a directory that existed before the call stays.
    """
    out = Path(out_dir)
    new_dirs = [d for d in (out, out / "records", out / "summaries", out / "tables")
                if not d.exists()]
    created: list[Path] = []
    try:
        (out / "records").mkdir(parents=True, exist_ok=True)
        (out / "summaries").mkdir(parents=True, exist_ok=True)

        config_hash = cfg.config_hash()
        manifest = RunManifest(
            config_hash=config_hash,
            base_seed=cfg.base_seed,
            version=__version__,
            out_dir=str(out),
            config=cfg.to_dict(),
        )

        jobs = []
        for policy in cfg.policies:
            for n in cfg.device_counts:
                for r in range(cfg.runs_per_point):
                    seed = run_seed(cfg.base_seed, policy, n, r)
                    rec_path = out / "records" / f"{policy}_n{n}_run{r}.jsonl"
                    jobs.append((cfg, policy, n, r, seed, str(rec_path), config_hash))
                    # Any job may have written its records when another fails.
                    created.append(rec_path)

        workers = min(parallel, len(jobs), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_execute_point, jobs))
        else:
            results = [_execute_point(j) for j in jobs]

        points: dict[tuple[str, int], list[MetricsSummary]] = {}
        for job, summary in zip(jobs, results):
            _, policy, n, r, seed, rec_path, _ = job
            sum_path = out / "summaries" / f"{policy}_n{n}_run{r}.json"
            created.append(sum_path)
            with open(sum_path, "w", encoding="utf-8") as fh:
                json.dump(summary.to_dict(), fh, sort_keys=True, indent=2)
            points.setdefault((policy, n), []).append(summary)
            manifest.runs.append(
                {
                    "policy": policy,
                    "n_devices": n,
                    "run": r,
                    "seed": seed,
                    "records": os.path.relpath(rec_path, out),
                    "summary": os.path.relpath(sum_path, out),
                }
            )

        # Written whole or not at all: a reader never sees a partial manifest.
        manifest_path = out / "manifest.json"
        tmp_path = out / "manifest.json.tmp"
        created.append(tmp_path)
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(manifest.to_dict(), fh, sort_keys=True, indent=2)
        os.replace(tmp_path, manifest_path)
        created.append(manifest_path)

        emit_tables(manifest, points)
        return manifest
    except Exception:
        for p in created:
            p.unlink(missing_ok=True)
        for d in new_dirs:
            shutil.rmtree(d, ignore_errors=True)
        raise


def _load_point_summaries(manifest: RunManifest):
    """(policy, n) -> list of per-run MetricsSummary, in run order."""
    out = Path(manifest.out_dir)
    points: dict[tuple[str, int], list[MetricsSummary]] = {}
    for entry in manifest.runs:
        path = out / entry["summary"]
        if not path.exists():
            raise FileNotFoundError(
                f"missing summary for {entry['policy']} n={entry['n_devices']} "
                f"run={entry['run']}: {path}"
            )
        with open(path, encoding="utf-8") as fh:
            summary = MetricsSummary.from_dict(json.load(fh))
        points.setdefault((entry["policy"], entry["n_devices"]), []).append(summary)
    return points


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for row in [header, *rows]:
            fh.write(",".join(row) + "\n")
    return path


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def emit_tables(manifest: RunManifest, points=None) -> list[Path]:
    """Write the long-form CSVs of success rate, energy efficiency and the
    per-power success share, plus one plot-ready wide table each.

    points maps (policy, n) to that point's per-run summaries in run order;
    when it is not given, the summaries are read back from the manifest's
    summaries/ files.
    """
    if points is None:
        points = _load_point_summaries(manifest)
    tables = Path(manifest.out_dir) / "tables"
    tables.mkdir(parents=True, exist_ok=True)

    policies = list(dict.fromkeys(p for p, _ in points))
    counts = sorted({n for _, n in points})
    order = [(p, n) for p in policies for n in counts if (p, n) in points]
    means = {point: aggregate_runs(points[point]) for point in order}
    run_cols = [f"run_{i}" for i in range(max(len(runs) for runs in points.values()))]

    def by_policy(n, value) -> list[str]:
        """One cell per policy: value of its mean at n, empty where it has none."""
        return [_fmt(value(means[p, n])) if (p, n) in means else "" for p in policies]

    written = []
    for metric in ("success_rate", "energy_efficiency"):
        value = attrgetter(metric)
        rows = [[p, str(n), _fmt(value(means[p, n])), *(_fmt(value(s)) for s in points[p, n])]
                for p, n in order]
        written.append(_write_csv(tables / f"{metric}.csv",
                                  ["policy", "n_devices", "mean", *run_cols], rows))
        # Wide companion: one row per device count, one column per policy.
        rows = [[str(n), *by_policy(n, value)] for n in counts]
        written.append(_write_csv(tables / f"{metric}_wide.csv", ["n_devices", *policies], rows))

    rows = [[p, str(n), str(dbm), _fmt(frac)]
            for p, n in order for dbm, frac in sorted(means[p, n].tp_ratio.items())]
    written.append(_write_csv(tables / "tp_ratio.csv",
                              ["policy", "n_devices", "power_dbm", "fraction"], rows))
    # The wide share table is drawn at the largest device count.
    levels = sorted({dbm for mean in means.values() for dbm in mean.tp_ratio})
    rows = [[str(dbm), *by_policy(max(counts), lambda mean: mean.tp_ratio.get(dbm, 0.0))]
            for dbm in levels]
    written.append(_write_csv(tables / "tp_ratio_wide.csv", ["power_dbm", *policies], rows))
    return written
