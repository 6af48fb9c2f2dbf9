"""Experiment sweeps: run every (policy, device count, seed) point and
persist record logs, per-run summaries, aggregated summaries and plot-ready
CSV tables under one manifest."""

from __future__ import annotations

import json
import math
import os
import shutil
from itertools import cycle, islice
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .config import ExperimentConfig
from .metrics import MetricsSummary, RunLog, RunRecord, aggregate_runs, summarize_run
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


class RunManifest(NamedTuple):
    config_hash: str
    base_seed: int
    version: str
    out_dir: str
    config: dict
    runs: list[dict]  # policy, n, run, seed, paths

    def to_dict(self) -> dict:
        """Every field but out_dir, which load takes from the file's place."""
        return {k: v for k, v in self._asdict().items() if k != "out_dir"}

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a manifest; its artifacts are found next to the file, wherever
        the sweep that wrote it was started from (an out_dir it carries is
        ignored)."""
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        d["out_dir"] = str(Path(path).parent)
        return cls(**d)


def wake_texts(interval_us: int, offset_us: int, n: int) -> list[str]:
    """repr((k·interval_us + offset_us) / 1e6) for k < n, made from the integers.

    A wake a = k·interval_us + offset_us of 0 or in [100, 10**15) µs is below
    2**53, so a / 1e6 is the double nearest the decimal a/10**6; that decimal
    has at most 15 significant digits, and no two such decimals round to one
    double (DBL_DIG is 15). So repr prints its digits, in fixed notation: the
    whole seconds, a point and the µs fraction without trailing zeros (or 0).
    A device with a wake of 1-99 µs (repr writes 5e-05) or of 10**15 µs and
    more keeps repr. The fraction repeats in k with period
    10**6 // gcd(interval_us, 10**6), so each is formatted once.
    """
    wakes = range(offset_us, offset_us + n * interval_us, interval_us)
    nonzero = wakes[1:] if offset_us == 0 else wakes
    if nonzero and (nonzero[0] < 100 or nonzero[-1] >= 10 ** 15):
        return [repr(a / 1e6) for a in wakes]
    period = 10 ** 6 // math.gcd(interval_us, 10 ** 6)
    fractions = ["." + (f"{a % 10 ** 6:06d}".rstrip("0") or "0") for a in wakes[:period]]
    return [f"{a // 10 ** 6}{fraction}" for a, fraction in zip(wakes, cycle(fractions))]


# Lines per write. At about 230 B a line, a joined block of about 60 KB
# stays under glibc's 128 KiB mmap threshold, so its buffer is reused from
# the heap; blocks of 1,024 lines measured no faster.
_BLOCK_LINES = 256


def write_records(log: RunLog, path: Path) -> None:
    """Newline-delimited JSON, one record per line, keys sorted: byte for byte
    json.dumps(r._asdict(), sort_keys=True, separators=(",", ":")) for each
    record r of the simulator's log: floats finite (written by repr), causes
    Cause strings.

    Only attempt and wake_time vary between the records of one row (see
    RunLog), so the fragments around them are built once for each row the
    run uses, the attempt texts once per run and each device's wake texts
    once, by wake_texts from its integer µs; each line is one f-string of
    these texts, and the lines go out in blocks of _BLOCK_LINES, one write
    per block.
    """
    rows, attempts = log.rows, log.attempts
    n = max(attempts, default=-1) + 1
    attempt_texts = list(map(str, range(n)))
    wakes = [wake_texts(log.interval_us, offset, n) for offset in log.offsets_us]
    used = set(rows)
    fragments = {
        row: (f'{{"acked":{"true" if acked else "false"},"arm_index":{arm},"attempt":',
              f',"cause":"{cause}","channel_hz":{hz!r},"device":{device},"e_active":'
              f'{e_active!r},"e_toa":{e_toa!r},"power_dbm":{dbm},"reward":{reward!r},'
              f'"run_seed":{seed},"wake_time":', wakes[device])
        for row, (seed, device, arm, hz, dbm, cause, acked, reward, e_toa, e_active)
        in zip(used, map(log.row_fields, used))
    }
    records = zip(map(fragments.__getitem__, rows), attempts)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(0, len(rows), _BLOCK_LINES):
            fh.write("".join([f"{head}{attempt_texts[attempt]}{tail}{device_wakes[attempt]}}}\n"
                              for (head, tail, device_wakes), attempt
                              in islice(records, _BLOCK_LINES)]))


def read_records(path) -> list[RunRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            records.append(RunRecord(**json.loads(line)))
    return records


def _execute_point(args) -> None:
    """Simulate one run and write its two files: the records, then the summary."""
    cfg, policy, n, seed, records_path, summary_path, config_hash = args
    log = run_simulation(cfg.run_setup(policy, n), seed)
    write_records(log, records_path)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summarize_run(log, config_hash).to_dict(), fh, sort_keys=True, indent=2)


def _take(jobs: list, tickets: int, block: int) -> None:
    """_execute_point of the jobs of every ticket read from the pipe tickets
    until EOF. On an error it reads the remaining tickets, so that no process
    starts another job, and raises it."""
    try:
        while ticket := os.read(tickets, 4):
            start = int.from_bytes(ticket, "little")
            for job in jobs[start:start + block]:
                _execute_point(job)
    except BaseException:
        while os.read(tickets, 4096):
            pass
        raise


def _serve(jobs: list, tickets: int, block: int, out: int, inherited: list) -> None:
    """A forked worker's whole life: it closes the read ends it inherited
    (so that, if the parent dies, a child left writing gets EPIPE), takes
    its share of the tickets, sends back through the pipe out nothing, or
    one pickle of its error, and ends with os._exit. It never returns into
    the sweep, whose cleanup, atexit handlers and caller belong to the
    parent."""
    import pickle

    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(out, "wb") as fh:
            try:
                _take(jobs, tickets, block)
            except BaseException as exc:
                try:  # the parent gets back the same error, or a RuntimeError naming it
                    copy = pickle.loads(pickle.dumps(exc))
                except Exception:
                    copy = None
                fh.write(pickle.dumps(exc if type(copy) is type(exc) and str(copy) == str(exc)
                                      else RuntimeError(f"{type(exc).__name__}: {exc}")))
        status = 0
    finally:
        os._exit(status)


def _run_forked(jobs: list, workers: int) -> None:
    """_execute_point of every job, run by this process and workers - 1
    forked children; a child sends back only its error, if it has one.

    Before the first fork the job indices go into one pipe as 4-byte
    tickets, in one write of at most PIPE_BUF bytes (atomic, and it fits
    the empty pipe); with more jobs than that holds, a ticket names a block
    of consecutive jobs. Every process takes tickets until EOF, so each job
    goes to whichever process is free. Every child is reaped before this
    returns or raises. Of several errors, this process's own is raised, else
    that of the first child forked.
    """
    import pickle  # here, as validate and serial runs need neither
    import select

    block = -(-len(jobs) * 4 // select.PIPE_BUF)
    tickets, w = os.pipe()
    os.write(w, b"".join(i.to_bytes(4, "little") for i in range(0, len(jobs), block)))
    os.close(w)
    children, ended = [], []  # (pid, read end of its error pipe); (pid, status, bytes)
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(jobs, tickets, block, w, [r, *(fd for _, fd in children)])
            os.close(w)  # now: a later child holding it would keep r from EOF
            children.append((pid, r))
        _take(jobs, tickets, block)
    finally:
        os.close(tickets)
        for pid, r in children:
            with open(r, "rb") as fh:
                data = fh.read()
            ended.append((pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), data))
    for pid, status, data in ended:
        if status != 0:
            raise RuntimeError(f"sweep worker {pid} ended with exit status {status}")
        if data:
            raise pickle.loads(data)


def run_sweep(cfg: ExperimentConfig, out_dir, parallel: int = 1) -> RunManifest:
    """Execute the full sweep and write all artifacts under out_dir, in at
    most parallel processes (a parallel of 1 or less runs it serially).

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
            runs=[],
        )

        jobs = []
        for policy in cfg.policies:
            for n in cfg.device_counts:
                for r in range(cfg.runs_per_point):
                    seed = run_seed(cfg.base_seed, policy, n, r)
                    entry = {"policy": policy, "n_devices": n, "run": r, "seed": seed,
                             "records": f"records/{policy}_n{n}_run{r}.jsonl",
                             "summary": f"summaries/{policy}_n{n}_run{r}.json"}
                    manifest.runs.append(entry)
                    rec_path, sum_path = out / entry["records"], out / entry["summary"]
                    jobs.append((cfg, policy, n, seed, rec_path, sum_path, config_hash))
                    # Any job may have written its files when another fails.
                    created += [rec_path, sum_path]

        # A cpuset or taskset can forbid some of the machine's CPUs.
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(parallel, len(jobs), cpus)
        if workers > 1 and hasattr(os, "fork"):  # elsewhere the sweep runs serially
            _run_forked(jobs, workers)
        else:
            for job in jobs:
                _execute_point(job)

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
        for d in new_dirs:
            shutil.rmtree(d, ignore_errors=True)
        raise


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for row in [header, *rows]:
            fh.write(",".join(row) + "\n")
    return path


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def emit_tables(manifest: RunManifest) -> list[Path]:
    """Write the long-form CSVs of success rate, energy efficiency and the
    per-power success share, plus one plot-ready wide table each, from the
    per-run summaries the manifest lists, in run order."""
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
    tables = out / "tables"
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
