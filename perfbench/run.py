"""lorabandit benchmark: time a workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload stock_sweep --seed 20240901 --seconds 30 --trace 0

Each pass of the workload runs in a fresh interpreter (job.py), one after
another, with one fresh `lorabandit.cli validate` between passes, until
--seconds is used up. A pass times each of its jobs (units) on its own and
reads the host's speed around each with a fixed loop; every time reported
is divided by the loop seconds read around it and given at the reference
speed (workloads.loop_seconds), as a median over the passes, so that the
host's slow spells do not count. With --trace 1 the workload instead runs
untraced, then with every layer traced, and the per-layer metrics are
printed. Every pass's outcome digest is checked against the stored golden
for its seed (goldens.json). For a seed without a golden, one extra untimed
pass at the default seed is checked against its golden, and the timed
passes must agree with each other.

Standard output ends with one JSON line: correct, attempted and failed
(passes), and the metrics with their units. The lines before it name every
metric with its unit, the provenance and the digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from workloads import JOB, ROOT, SRC, WORK

sys.path.insert(0, str(SRC))  # the parent reads the generated configs with lorabandit.config

MIN_PASSES = 3
#: Every pass ends within this many seconds of the start of the run.
DEADLINE_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "attempts_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed by name but left out of the result line, whose metrics must never
# be 0: output_mb is 0 on ucb_longrun, and fail_ratio is 0 whenever the
# program is correct (the result line's failed/attempted carries it).
REPORTED_ONLY = {"output_mb": "MB"}

PER_LAYER = {
    "policies.ucb.select.calls": "count",
    "policies.ucb.select.us": "us",
    "policies.ucb.select.learned_us": "us",
    "policies.ucb.select.init_calls": "count",
    "policies.ucb.observe.us": "us",
    "policies.eps.select.calls": "count",
    "policies.eps.select.us": "us",
    "policies.eps.observe.us": "us",
    "policies.adr.select.calls": "count",
    "policies.adr.select.us": "us",
    "policies.adr.observe.us": "us",
    "policies.fixed.select.calls": "count",
    "policies.fixed.select.us": "us",
    "policies.fixed.observe.us": "us",
    "policies.share_of_job": "ratio",
    "netsim.run_simulation.calls": "count",
    "netsim.run_simulation.s": "s",
    "netsim.self_s": "s",
    "netsim.self_us_per_attempt": "us",
    "netsim.attempts": "count",
    "netsim.tx_started": "count",
    "netsim.carrier_busy_ratio": "ratio",
    "netsim.success_ratio": "ratio",
    "netsim.collisions": "count",
    "sweep.write_records.s": "s",
    "sweep.write_records.us_per_record": "us",
    "sweep.bytes_per_record": "B",
    "sweep.emit_tables.s": "s",
    "sweep.job_s.p50": "s",
    "sweep.job_s.tail": "s",
    "sweep.pool.efficiency": "ratio",
    "sweep.output_mb": "MB",
    "config.config_from_dict.calls": "count",
    "config.config_from_dict.s": "s",
    "metrics.summarize_run.s": "s",
    "metrics.summarize_run.us_per_record": "us",
    "metrics.aggregate_runs.s": "s",
    "energy.attempt_energy.calls": "count",
    "params.build_arm_space.calls": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "trace_overhead_ratio": "ratio",
}


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "lorabandit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def _run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess | None:
    """Run argv in its own process group; kill the whole group at the deadline."""
    with subprocess.Popen(argv, env=workloads.child_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"error: {argv[1:4]} killed at the deadline", file=sys.stderr)
            return None
        except BaseException:  # interrupted or terminated: take the group down too
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def setup_seconds(cfg_path: Path, deadline: float) -> float:
    """Wall seconds of one fresh `lorabandit.cli validate` of the config."""
    argv = [sys.executable, "-m", "lorabandit.cli", "validate", str(cfg_path)]
    t0 = time.perf_counter()
    proc = _run_child(argv, deadline)
    seconds = time.perf_counter() - t0
    if proc is None or proc.returncode != 0:
        raise RuntimeError(f"lorabandit validate failed: {proc and proc.stderr}")
    return seconds


class Workload:
    """The passes of one workload in one run, each checked as it finishes."""

    def __init__(self, name: str, seed: int, size: str, goldens: dict, deadline: float):
        self.name, self.seed, self.size, self.deadline = name, seed, size, deadline
        self.goldens = goldens[size][name]
        self.expected = workloads.expected_attempts(workloads.config_doc(name, seed, size))
        self.first: dict[int, dict] = {}  # seed -> outcome of its first good pass
        self.raw: dict[int, str | None] = {}  # seed -> records/ byte digest
        self.attempted = 0
        self.problems: list[str] = []

    def run_pass(self, seed: int, level: int = 0) -> dict | None:
        argv = [sys.executable, str(JOB), "--workload", self.name,
                "--seed", str(seed), "--size", self.size, "--level", str(level),
                "--out", str(WORK / self.name)]
        if level == 2:
            argv += ["--spans", str(WORK / f"spans_{self.name}.jsonl")]
        if self.raw.get(seed):  # parsing 80,000 records would cost a third of a pass
            argv.append("--raw-only")
        self.attempted += 1
        proc = _run_child(argv, self.deadline)
        report = None
        if proc is not None and proc.returncode == 0:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        problem = self._check(seed, report, proc)
        if problem:
            self.problems.append(f"seed {seed} level {level}: {problem}")
            return None
        self.first.setdefault(seed, workloads.outcome(report["digest"]))
        self.raw.setdefault(seed, report["digest"]["raw_records"])
        return report

    def _check(self, seed: int, report: dict | None, proc) -> str | None:
        if report is None:
            tail = proc.stderr.strip().splitlines()[-1:] if proc else ["killed"]
            return "raised: " + " ".join(tail)
        digest = report["digest"]
        if digest["records"] is None:
            if digest["raw_records"] != self.raw[seed]:
                return "records/ bytes differ from an earlier pass at the same seed"
            digest["records"] = self.first[seed]["records"]
        if digest["attempts"] != self.expected:
            return f"{digest['attempts']} attempts recorded, {self.expected} expected"
        golden = self.goldens.get(str(seed))
        if golden is not None and not workloads.matches_golden(digest, golden):
            return "outcome digest missed the golden"
        if seed in self.first and workloads.outcome(digest) != self.first[seed]:
            return "outcome differs from an earlier pass at the same seed"
        return None

    def reference_pass(self) -> None:
        """Without a golden for the seed, check the program at the default seed."""
        if str(self.seed) not in self.goldens:
            self.run_pass(workloads.DEFAULT_SEED)


def _median(values):
    return statistics.median(values) if values else None


def at_reference_speed(passes: list[dict], col: int) -> float:
    """Seconds of one pass at the reference host speed.

    Each unit's time over the loop seconds read around it, median over the
    passes, summed over the units; plus the rest of a pass outside its units
    over the slowest loop reading of that pass, median over the passes; all
    times workloads.REFERENCE_LOOP_S. col 0 reads wall seconds, col 1 CPU
    seconds. A workload without units (dense_parallel) is one rest: its pass
    spreads over every CPU, and a spell on any of them at either end of the
    pass stretches the slowest job, which sets its wall.
    """
    total = ("wall_s", "cpu_s")[col]
    per_unit = [statistics.median(p["units"][j][col] / p["units"][j][2] for p in passes)
                for j in range(len(passes[0]["units"]))]
    rest = statistics.median((p[total] - sum(u[col] for u in p["units"]))
                             / max(p["loop_s"]) for p in passes)
    return (sum(per_unit) + rest) * workloads.REFERENCE_LOOP_S


def setup_at_reference_speed(cfg_path: Path, deadline: float) -> tuple[float, float]:
    """A fresh validate run's seconds, raw and at the reference host speed;
    it runs on the fastest CPU, between two loop readings there."""
    cpu, before = workloads.fastest_cpu()
    with workloads.pinned(cpu):
        seconds = setup_seconds(cfg_path, deadline)
        after = workloads.loop_seconds()
    return seconds, seconds / ((before + after) / 2) * workloads.REFERENCE_LOOP_S


def end_to_end(wl: Workload, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the raw per-pass samples beside them."""
    WORK.mkdir(exist_ok=True)
    cfg_path = WORK / f"{wl.name}.config.json"
    cfg_path.write_text(json.dumps(workloads.config_doc(wl.name, wl.seed, wl.size)),
                        encoding="utf-8")
    setup_seconds(cfg_path, wl.deadline)  # warms the file cache; not kept
    passes, setup, t0, cost = [], [], time.monotonic(), 0.0
    # Start another pass while it would end closer to --seconds than to not
    # running it, so a run measures about --seconds on average.
    while len(passes) < MIN_PASSES or time.monotonic() - t0 + cost / 2 <= seconds:
        start = time.monotonic()
        passes.append(wl.run_pass(wl.seed))
        setup.append(setup_at_reference_speed(cfg_path, wl.deadline))
        cost = time.monotonic() - start
        if time.monotonic() + cost > wl.deadline:
            break
    ok = [p for p in passes if p is not None]
    (WORK / f"passes_{wl.name}.json").write_text(json.dumps(ok), encoding="utf-8")
    samples = {
        "wall_s": [p["wall_s"] for p in ok],
        "attempts_per_s": [wl.expected / p["wall_s"] for p in ok],
        "cpu_s": [p["cpu_s"] for p in ok],
        "setup_s": [raw for raw, _ in setup],
        "peak_rss_mb": [p["peak_rss_mb"] for p in ok],
        "output_mb": [p["output_bytes"] / 1e6 for p in ok],
        "loop_s": [x for p in ok for x in p["loop_s"]],
    }
    if not ok:
        return {}, samples
    wall = at_reference_speed(ok, 0)
    metrics = {
        "wall_s": wall,
        "attempts_per_s": wl.expected / wall,
        "cpu_s": at_reference_speed(ok, 1),
        "setup_s": statistics.median(ref for _, ref in setup),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "output_mb": statistics.median(samples["output_mb"]),
    }
    return metrics, samples


def per_layer(wl: Workload) -> dict:
    untraced = wl.run_pass(wl.seed, level=0)
    # Only dense_parallel's level 1 differs from level 0: its jobs run
    # serially in-process, so each can be timed.
    jobs = wl.run_pass(wl.seed, level=1) if wl.name == "dense_parallel" else untraced
    traced = wl.run_pass(wl.seed, level=2)
    if not (untraced and jobs and traced):
        return {}
    m = dict(traced["layers"])
    job_s = [] if wl.name == "ucb_longrun" else sorted(u[0] for u in jobs["units"])
    doc = workloads.config_doc(wl.name, wl.seed, wl.size)
    workers = workloads.parallel_workers(doc) if wl.name == "dense_parallel" else 1
    # Job seconds come from an untraced pass, so layer tracing does not
    # inflate them.
    m["sweep.job_s.p50"] = _median(job_s) or 0.0
    m["sweep.job_s.tail"] = max(job_s, default=0.0)
    m["sweep.pool.efficiency"] = sum(job_s) / (workers * untraced["wall_s"])
    m["sweep.output_mb"] = untraced["output_bytes"] / 1e6
    m["trace_overhead_ratio"] = traced["wall_s"] / jobs["wall_s"]
    return m


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size: str = "full") -> dict:
    """Run one workload, print its report lines and return its result object."""
    deadline = time.monotonic() + DEADLINE_S
    load_before = os.getloadavg()
    wl = Workload(name, seed, size, workloads.load_goldens(), deadline)
    wl.reference_pass()
    if trace:
        values, units = per_layer(wl), PER_LAYER
        for metric, unit in units.items():
            print(f"{name} {metric} {_fmt(values.get(metric))} {unit}")
    else:
        values, samples = end_to_end(wl, seconds)
        units = END_TO_END
        for metric, series in samples.items():
            if metric == "loop_s":
                print(f"{name} host loop_s (reference {workloads.REFERENCE_LOOP_S}): "
                      f"median {_fmt(_median(series))} min {_fmt(min(series, default=None))} "
                      f"max {_fmt(max(series, default=None))} of {len(series)} readings")
                continue
            unit = END_TO_END.get(metric) or REPORTED_ONLY[metric]
            raw = (f"raw median {_fmt(_median(series))} min {_fmt(min(series))} "
                   f"max {_fmt(max(series))}" if series else "no samples")
            print(f"{name} {metric} {_fmt(values.get(metric))} {unit} "
                  f"({len(series)} passes; {raw})")
    failed = len(wl.problems)
    print(f"{name} fail_ratio {failed / wl.attempted:.6g} ratio "
          f"({failed} of {wl.attempted} passes)")
    for problem in wl.problems:
        print(f"{name} FAILED {problem}")
    for digest_seed, digest in sorted(wl.first.items()):
        golden = wl.goldens.get(str(digest_seed))
        verdict = "no golden" if golden is None else "matches golden"
        print(f"{name} digest seed {digest_seed} records {digest['records']} ({verdict}); "
              f"raw records/ bytes {wl.raw[digest_seed]} (information only)")
    print(f"{name} loadavg before {load_before} after {os.getloadavg()}")
    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()
               if m in units and v is not None}
    return {"correct": failed == 0, "attempted": wl.attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    if not (SRC / "lorabandit" / "__init__.py").is_file():
        print(f"error: no lorabandit package under {SRC}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance()))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
