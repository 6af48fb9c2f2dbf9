"""One pass of one workload in a fresh interpreter; run.py starts it.

    python perfbench/job.py --workload W --seed S --size full --level L --out DIR

Level 0 runs the workload as a user would: dense_parallel is a
`python -m lorabandit.cli run ... --parallel <nproc>` subprocess, and the
in-process workloads time each of their jobs (units) on their own. Level 1
is level 0 run in-process: it differs only for dense_parallel, whose jobs
then run serially in the CLI so that each can be timed. Level 2 also wraps
every traced call (see spans.py) and reports the per-layer numbers.

Below level 2, a pass reads the host's speed (workloads.loop_seconds) around
each unit, with its clock stopped.

The last line of standard output is one JSON object: the workload's wall
and CPU seconds (children included), the wall and CPU seconds of each unit
with the loop seconds read around it, every loop-seconds reading, its peak
RSS, the bytes it wrote, its outcome digest and, at level 2, the per-layer
numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads


def _cpu_s(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Stopwatch:
    """Wall and CPU seconds summed over the stretches it was running."""

    def __init__(self, who=resource.RUSAGE_SELF):
        self.who = who
        self.wall = self.cpu = 0.0
        self._since = None

    def start(self) -> None:
        self._since = (time.perf_counter(), _cpu_s(self.who))

    def stop(self) -> None:
        w0, c0 = self._since
        self.wall += time.perf_counter() - w0
        self.cpu += _cpu_s(self.who) - c0
        self._since = None

    @contextlib.contextmanager
    def running(self):
        self.start()
        try:
            yield self
        finally:
            self.stop()

    @contextlib.contextmanager
    def paused(self):
        was_running = self._since is not None
        if was_running:
            self.stop()
        try:
            yield self
        finally:
            if was_running:
                self.start()


class HostGauge:
    """Loop-seconds readings (see workloads.loop_seconds), taken with the
    pass's clock stopped. reader reads the CPU the pass is pinned to, or
    every CPU for a pass that spreads over all of them."""

    def __init__(self, clock: Stopwatch, reader):
        self.clock, self.reader = clock, reader
        self.readings: list[float] = []

    def read(self) -> float:
        with self.clock.paused():
            self.readings.append(self.reader())
        return self.readings[-1]


def _timed_units(fn, units: list, gauge: HostGauge):
    """fn, appending to units, per call, its wall and CPU seconds and the
    mean of the loop seconds read just before and just after it."""
    def timed(*args):
        before = gauge.readings[-1] if gauge.readings else gauge.read()
        watch = Stopwatch()
        with watch.running():
            result = fn(*args)
        units.append([watch.wall, watch.cpu, (before + gauge.read()) / 2])
        return result

    return timed


def _stock_sweep(doc, out, clock, parse):
    from lorabandit import config, sweep

    with clock.running():
        sweep.run_sweep(config.config_from_dict(doc), out, parallel=1)  # also emits the tables
    return workloads.sweep_digest(out, parse)


def _ucb_longrun(doc, seed, clock, run_unit, tracer):
    """The README library path. Each run's records are hashed and dropped
    as soon as it ends, with the clock stopped, so neither the hashing nor
    the benchmark's own copies of earlier runs count. run_unit times a call
    as one unit."""
    from lorabandit import config, metrics, netsim

    def one_run(run_seed):
        with tracer.span("ucb_longrun.job"):
            records = netsim.run_simulation(cfg.run_setup(workloads.UCB_POLICY, n), run_seed)
            return records, metrics.summarize_run(records)

    with clock.running():
        cfg = config.config_from_dict(doc)
    n = doc["device_counts"][0]
    fields, summaries = workloads.RecordDigest(), []
    for run_seed in workloads.ucb_run_seeds(seed, doc["runs_per_point"]):
        with clock.running():
            records, summary = run_unit(one_run)(run_seed)
        summaries.append(summary)
        for r in records:
            fields.add(getattr(r, f) for f in workloads.RECORD_FIELDS)
        del records
    with clock.running():
        aggregate = metrics.aggregate_runs(summaries)
    return workloads.library_digest(fields, summaries, aggregate)


def _dense_parallel(doc, out, level, clock, gauge, parse):
    cfg_path = out.parent / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    if level == 0:
        argv = [sys.executable, "-m", "lorabandit.cli", "run", str(cfg_path),
                "--out", str(out), "--parallel", str(workloads.parallel_workers(doc))]
        gauge.read()  # the pool hides its jobs, so the whole pass is read as one
        with clock.running():
            subprocess.run(argv, env=workloads.child_env(), check=True,
                           stdout=subprocess.DEVNULL, timeout=150)
        gauge.read()
        return workloads.sweep_digest(out, parse)
    from lorabandit import cli

    with clock.running(), contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["run", str(cfg_path), "--out", str(out), "--parallel", "1"])
    if code != 0:
        raise RuntimeError(f"lorabandit run exited with {code}")
    return workloads.sweep_digest(out, parse)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--level", type=int, default=0, choices=(0, 1, 2))
    ap.add_argument("--out", required=True, help="scratch directory, emptied first")
    ap.add_argument("--spans", default=None, help="where a level-2 pass writes its spans")
    ap.add_argument("--raw-only", action="store_true",
                    help="digest a sweep's records/ bytes without parsing them")
    args = ap.parse_args(argv)

    work = Path(args.out)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "results"
    doc = workloads.config_doc(args.workload, args.seed, args.size)
    import lorabandit  # noqa: F401  (import cost belongs to setup_s, not the pass)
    from lorabandit import sweep

    tracer = spans.Tracer()
    subprocess_pass = args.workload == "dense_parallel" and args.level == 0
    who = resource.RUSAGE_CHILDREN if subprocess_pass else resource.RUSAGE_SELF
    clock, units = Stopwatch(who), []
    if subprocess_pass:
        gauge = HostGauge(clock, workloads.all_cpus_loop_seconds)
    else:
        # A single-threaded pass runs on one CPU, the fastest now, so that
        # the loop readings around its units are taken where they ran.
        cpu, reading = workloads.fastest_cpu()
        os.sched_setaffinity(0, {cpu})
        gauge = HostGauge(clock, workloads.loop_seconds)
        gauge.readings.append(reading)

    def run_unit(fn):
        return _timed_units(fn, units, gauge) if args.level < 2 else fn

    execute_point = sweep._execute_point
    sweep._execute_point = run_unit(execute_point)
    try:
        with spans.traced(tracer, args.level == 2):
            if args.workload == "ucb_longrun":
                digest = _ucb_longrun(doc, args.seed, clock, run_unit, tracer)
            elif args.workload == "stock_sweep":
                digest = _stock_sweep(doc, out, clock, not args.raw_only)
            else:
                digest = _dense_parallel(doc, out, args.level, clock, gauge,
                                         not args.raw_only)
    finally:
        sweep._execute_point = execute_point
    # ru_maxrss is in KiB; for children it is the largest of the CLI process
    # and every pool worker it reaped.
    peak_rss_mb = resource.getrusage(who).ru_maxrss * 1024 / 1e6

    report = {
        "wall_s": clock.wall,
        "cpu_s": clock.cpu,
        "units": units,
        "loop_s": gauge.readings,
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": _dir_bytes(out) if out.exists() else 0,
        "digest": digest,
    }
    if args.level == 2:
        report["layers"] = spans.layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
