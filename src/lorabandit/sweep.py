"""Experiment sweeps: run every (policy, device count, seed) point and
persist record logs, per-run summaries, aggregated summaries and plot-ready
CSV tables under one manifest."""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .config import ExperimentConfig
from .metrics import MetricsSummary, RunRecord, aggregate_runs, summarize_run
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
        return {
            "config_hash": self.config_hash,
            "base_seed": self.base_seed,
            "version": self.version,
            "out_dir": self.out_dir,
            "config": self.config,
            "runs": self.runs,
        }

    @classmethod
    def load(cls, path) -> "RunManifest":
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        return cls(
            config_hash=d["config_hash"],
            base_seed=d["base_seed"],
            version=d["version"],
            out_dir=d["out_dir"],
            config=d["config"],
            runs=d["runs"],
        )


def write_records(records: list[RunRecord], path: Path) -> None:
    """Newline-delimited JSON, one record per line, stable key order."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def read_records(path) -> list[RunRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            records.append(RunRecord(**json.loads(line)))
    return records


def _execute_point(args) -> dict:
    cfg, policy, n, run_index, seed, records_path, config_hash = args
    records = run_simulation(cfg.run_setup(policy, n), seed)
    write_records(records, Path(records_path))
    summary = summarize_run(records, config_key=config_hash)
    return summary.to_dict()


def run_sweep(cfg: ExperimentConfig, out_dir, parallel: int = 1) -> RunManifest:
    """Execute the full sweep and write all artifacts under out_dir."""
    out = Path(out_dir)
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

        workers = min(parallel, len(jobs), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_execute_point, jobs))
        else:
            results = [_execute_point(j) for j in jobs]

        for job, summary_dict in zip(jobs, results):
            _, policy, n, r, seed, rec_path, _ = job
            sum_path = out / "summaries" / f"{policy}_n{n}_run{r}.json"
            with open(sum_path, "w", encoding="utf-8") as fh:
                json.dump(summary_dict, fh, sort_keys=True, indent=2)
            created.extend([Path(rec_path), sum_path])
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

        emit_tables(manifest)
        return manifest
    except Exception:
        for p in created:
            p.unlink(missing_ok=True)
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


def emit_tables(manifest: RunManifest) -> list[Path]:
    """Write the three long-form CSVs plus one plot-ready wide table each."""
    out = Path(manifest.out_dir)
    tables = out / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    points = _load_point_summaries(manifest)

    policies = list(dict.fromkeys(p for p, _ in points))
    counts = sorted({n for _, n in points})
    runs_per_point = max(len(v) for v in points.values())
    written = []

    def fmt(x) -> str:
        return "" if x is None else repr(float(x))

    for metric, attr in (
        ("success_rate", "success_rate"),
        ("energy_efficiency", "energy_efficiency"),
    ):
        path = tables / f"{metric}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            run_cols = ",".join(f"run_{i}" for i in range(runs_per_point))
            fh.write(f"policy,n_devices,mean,{run_cols}\n")
            for policy in policies:
                for n in counts:
                    if (policy, n) not in points:
                        continue
                    summaries = points[(policy, n)]
                    mean = getattr(aggregate_runs(summaries), attr)
                    vals = ",".join(fmt(getattr(s, attr)) for s in summaries)
                    fh.write(f"{policy},{n},{fmt(mean)},{vals}\n")
        written.append(path)

        # Wide companion: one row per device count, one column per policy.
        wide = tables / f"{metric}_wide.csv"
        with open(wide, "w", encoding="utf-8") as fh:
            fh.write("n_devices," + ",".join(policies) + "\n")
            for n in counts:
                row = [str(n)]
                for policy in policies:
                    summaries = points.get((policy, n))
                    row.append(
                        fmt(getattr(aggregate_runs(summaries), attr)) if summaries else ""
                    )
                fh.write(",".join(row) + "\n")
        written.append(wide)

    path = tables / "tp_ratio.csv"
    levels = sorted(
        {dbm for sums in points.values() for s in sums for dbm in s.tp_ratio}
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("policy,n_devices,power_dbm,fraction\n")
        for policy in policies:
            for n in counts:
                if (policy, n) not in points:
                    continue
                agg = aggregate_runs(points[(policy, n)])
                for dbm, frac in sorted(agg.tp_ratio.items()):
                    fh.write(f"{policy},{n},{dbm},{fmt(frac)}\n")
    written.append(path)

    wide = tables / "tp_ratio_wide.csv"
    n_max = max(counts)
    with open(wide, "w", encoding="utf-8") as fh:
        fh.write("power_dbm," + ",".join(policies) + "\n")
        for dbm in levels:
            row = [str(dbm)]
            for policy in policies:
                summaries = points.get((policy, n_max))
                if summaries:
                    agg = aggregate_runs(summaries)
                    row.append(fmt(agg.tp_ratio.get(dbm, 0.0)))
                else:
                    row.append("")
            fh.write(",".join(row) + "\n")
    written.append(wide)
    return written
