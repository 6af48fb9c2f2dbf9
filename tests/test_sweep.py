"""Sweep execution, seed derivation, artifact layout, and CSV emission."""

import csv
import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lorabandit
from lorabandit import sweep
from lorabandit.config import ExperimentConfig
from lorabandit.metrics import Cause, RunLog, RunRecord, aggregate_runs, summarize_run
from lorabandit.sweep import (
    RunManifest,
    emit_tables,
    read_records,
    run_seed,
    run_sweep,
    wake_texts,
    write_records,
)
from lorabandit.netsim import run_simulation
from lorabandit.params import TxPower
from reference_metrics import summarize_run as reference_summary


def tiny_config(**kw):
    defaults = dict(
        policies=["fixed", "adr_lite"],
        device_counts=[3, 6],
        runs_per_point=2,
        t_attempts=20,
        base_seed=11,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# --- seed derivation -----------------------------------------------------

def test_run_seed_is_deterministic():
    assert run_seed(11, "fixed", 10, 0) == run_seed(11, "fixed", 10, 0)


def test_run_seed_distinguishes_every_axis():
    base = run_seed(11, "fixed", 10, 0)
    assert base != run_seed(12, "fixed", 10, 0)
    assert base != run_seed(11, "adr_lite", 10, 0)
    assert base != run_seed(11, "fixed", 15, 0)
    assert base != run_seed(11, "fixed", 10, 1)


def test_run_seed_keyed_on_policy_name_not_position():
    # Adding or reordering policies in the config must not move seeds.
    seeds_a = [run_seed(11, p, 10, 0) for p in ("fixed", "adr_lite")]
    seeds_b = [run_seed(11, p, 10, 0) for p in ("adr_lite", "epsilon_greedy", "fixed")]
    assert seeds_a[0] == seeds_b[2]
    assert seeds_a[1] == seeds_b[0]


def test_run_seed_fits_64_bits():
    s = run_seed(2**70, "proposed_ucb_tuned", 30, 4)
    assert 0 <= s < 2**64


def test_run_seed_values_pinned():
    # Every record, summary and golden follows from these seeds, so the
    # chain's order and steps may not change.
    assert run_seed(20240901, "proposed_ucb_tuned", 30, 0) == 13492727300409056553
    assert run_seed(11, "fixed", 3, 1) == 1248343463956222373


# --- record persistence ----------------------------------------------------

def test_records_round_trip(tmp_path):
    cfg = tiny_config()
    records = run_simulation(cfg.run_setup("fixed", 3), seed=5)
    path = tmp_path / "r.jsonl"
    write_records(records, path)
    assert read_records(path) == list(records)


@settings(max_examples=300)
@given(interval_us=st.one_of(st.sampled_from([10**6, 10**7, 2_500_000, 999_983, 1]),
                             st.integers(1, 10**17)),
       offset_us=st.one_of(st.integers(0, 200), st.integers(0, 10**17)),
       n=st.integers(0, 30))
@example(interval_us=10**7, offset_us=0, n=20)  # whole seconds, period 1
@example(interval_us=10**6, offset_us=1, n=3)  # 1e-06: repr's exponent notation
@example(interval_us=10**6, offset_us=99, n=3)
@example(interval_us=10**6, offset_us=100, n=3)  # 0.0001: fixed notation
@example(interval_us=2_500_000, offset_us=7, n=5)  # period 2
@example(interval_us=2_500_000, offset_us=123_456, n=6)
@example(interval_us=999_983, offset_us=100, n=30)  # coprime with 10**6
@example(interval_us=1, offset_us=0, n=300)  # 1 µs: wakes 1-99 µs
@example(interval_us=1, offset_us=100, n=300)
@example(interval_us=10**15 - 101, offset_us=100, n=2)  # last wake 10**15 - 1 µs
@example(interval_us=10**15 - 100, offset_us=100, n=2)  # last wake 10**15 µs
@example(interval_us=3 * 10**15, offset_us=100_001, n=4)  # 9000000000.1 by repr
def test_wake_texts_are_the_reprs_of_the_wake_times(interval_us, offset_us, n):
    assert wake_texts(interval_us, offset_us, n) == [
        repr((k * interval_us + offset_us) / 1e6) for k in range(n)]


def _dumps(log) -> bytes:
    return "".join(json.dumps(r._asdict(), sort_keys=True, separators=(",", ":")) + "\n"
                   for r in log).encode()


def hand_built_log(n_records: int) -> RunLog:
    """n_records records of 4 devices, attempt by attempt, with offsets of 0,
    7, 99 and 100 µs at a 2.5 s interval. Row (device·2 + arm)·3 + outcome,
    as RunLog documents."""
    outcomes = [(868100000.0, -3, Cause.SUCCESS, True, 0.25, 0.5, 214.308),
                (868100000.0, -3, Cause.COLLISION, False, 0.0, 0.5, 214.308),
                (868300000.0, 13, Cause.CARRIER_BUSY, False, -0.0, 0.0, 207.9)]
    ends = [[outcomes, outcomes[::-1]] for _ in range(4)]
    rows, attempts = [], []
    for k in range(n_records):
        attempt, device = divmod(k, 4)
        rows.append((device * 2 + (attempt + device) % 2) * 3 + (attempt + device) % 3)
        attempts.append(attempt)
    return RunLog(42, ends, 2_500_000, [0, 7, 99, 100], rows, attempts)


def test_writer_bytes_on_a_hand_built_log(tmp_path):
    # The writer writes each record as json.dumps does, wakes of 7 and 99 µs
    # in exponent notation.
    log = hand_built_log(12)
    path = tmp_path / "r.jsonl"
    write_records(log, path)
    text = path.read_bytes()
    assert text == _dumps(log)
    assert b'"wake_time":7e-06}' in text and b'"wake_time":9.9e-05}' in text
    assert b'"wake_time":0.0001}' in text and b'"wake_time":2.500007}' in text
    assert read_records(path) == list(log)


BLOCK = sweep._BLOCK_LINES


@pytest.mark.parametrize("n_records", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_writer_bytes_at_the_block_edges(tmp_path, n_records):
    # The lines go out in blocks: none may be lost or repeated at an edge.
    log = hand_built_log(n_records)
    path = tmp_path / "r.jsonl"
    write_records(log, path)
    assert path.read_bytes() == _dumps(log)


def test_writer_bytes_of_a_one_attempt_run(tmp_path):
    log = run_simulation(tiny_config(t_attempts=1).run_setup("adr_lite", 6), seed=5)
    assert len(log) == 6
    path = tmp_path / "r.jsonl"
    write_records(log, path)
    assert path.read_bytes() == _dumps(log)


CAUSES = [Cause.SUCCESS, Cause.CHANNEL_NOT_RECEIVABLE, Cause.CARRIER_BUSY, Cause.COLLISION]


# Records that differ from another only in the sign of a zero reward or
# e_toa, in which of two equal but distinct float objects they hold, or in
# their cause or ACK: the summary must count each as a record of its own.
_A, _B = float("0.25"), float("0.25")
_BASE = RunRecord(7, 1, 0, 3, 868100000.0, -3, Cause.SUCCESS, True, 0.0, 0.0, _A, 1.5)
TWINS = [
    _BASE,
    _BASE._replace(attempt=1, reward=-0.0),
    _BASE._replace(attempt=2, e_toa=-0.0),
    _BASE._replace(attempt=3, reward=-0.0, e_toa=-0.0),
    _BASE._replace(attempt=4, e_active=_B),
    _BASE._replace(attempt=5, cause=Cause.COLLISION),
    _BASE._replace(attempt=6, acked=False),
    _BASE._replace(attempt=7),
]


# Energies a log can add up: positive, down to the least subnormal, and small
# enough that the largest log's total stays finite, but for the largest
# log at the bound: max / 12 rounds up, so twelve of it overflow, and the
# summary refuses that log (TOO_MUCH_ENERGY). Past the largest float,
# math.fsum's intermediate overflow depends on the order it adds in, and a
# simulated run never gets there: config validation (netsim.cost_rows)
# refuses a config whose run's total active energy would not be finite. The
# efficiencies of devices that spent subnormal energies can still overflow
# their sum; config validation refuses such runs too, and the summaries
# refuse such logs.
_MAX_LOG = 12
ENERGIES = st.one_of(
    st.sampled_from([5e-324, 2.2250738585072014e-308, 0.25, 1.0, 214.308]),
    st.floats(min_value=5e-324, max_value=sys.float_info.max / _MAX_LOG),
)
ZEROS = st.sampled_from([0.0, -0.0]).map(lambda z: float(repr(z)))


@st.composite
def record_logs(draw):
    """Up to _MAX_LOG records over a few devices, arms and powers. Each
    energy is one object of a small pool or an equal but distinct copy;
    rewards and e_toa include both signed zeros."""
    pool = draw(st.lists(ENERGIES, min_size=1, max_size=3))
    pool += [float(repr(e)) for e in pool]
    return [
        RunRecord(
            run_seed=1, device=draw(st.integers(0, 3)), attempt=i,
            arm_index=draw(st.integers(0, 4)), channel_hz=868100000.0,
            power_dbm=draw(st.sampled_from([-3, 1, 13])), cause=draw(st.sampled_from(CAUSES)),
            acked=draw(st.booleans()), reward=draw(st.one_of(ZEROS, ENERGIES)),
            e_toa=draw(st.one_of(ZEROS, ENERGIES)), e_active=draw(st.sampled_from(pool)),
            wake_time=float(i),
        )
        for i in range(draw(st.integers(0, _MAX_LOG)))
    ]


# Device 0 is about 1.8e308 successes per mJ and device 1 about 4.5e307:
# their efficiencies are finite, but not their sum.
_TINY = RunRecord(1, 0, 0, 0, 868100000.0, -3, Cause.SUCCESS, True, 0.0, 0.0, 5e-324, 0.0)
OVERFLOWING = [_TINY._replace(attempt=i, wake_time=float(i)) for i in range(3)] + [
    _TINY._replace(attempt=3, e_active=2.2250738585072014e-308, wake_time=3.0),
    _TINY._replace(device=1, attempt=4, e_active=2.2250738585072014e-308, wake_time=4.0),
]

TOO_MUCH_ENERGY = [_TINY._replace(attempt=i, e_active=sys.float_info.max / _MAX_LOG,
                                  wake_time=float(i)) for i in range(_MAX_LOG)]


@given(record_logs())
@example(TWINS)
@example(OVERFLOWING)
@example(TOO_MUCH_ENERGY)
def test_grouped_summaries_match_the_per_record_fold(records):
    """summarize_run gives the per-record reference's summary, to the byte of
    its JSON; where the reference overflows, it refuses the log."""
    try:
        want = reference_summary(records, "k")
    except OverflowError:
        with pytest.raises(ValueError, match="must sum to a finite total"):
            summarize_run(records, "k")
    else:
        assert (json.dumps(summarize_run(records, "k").to_dict(), sort_keys=True)
                == json.dumps(want.to_dict(), sort_keys=True))


# --- sweeps ------------------------------------------------------------------

def test_sweep_records_bytes_pinned(tmp_path):
    # The records/ bytes of a small sweep over all four policies at one power,
    # so that every ACK reward is e_toa / e_toa = 1.0 and epsilon-greedy's
    # means tie often: it draws over a tie of several arms in most selects.
    cfg = ExperimentConfig(
        policies=["proposed_ucb_tuned", "epsilon_greedy", "adr_lite", "fixed"],
        device_counts=[3, 8], runs_per_point=2, t_attempts=60, powers=[TxPower(-3, 15.0)],
        base_seed=11,
    )
    run_sweep(cfg, tmp_path / "out")
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "out" / "records").iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == (
        "a8dc21bd2884e0dd68109a66930b957ef75a2729ce9a7fea74e69b832b636f10")


def test_sweep_summaries_match_the_per_record_fold(tmp_path):
    # Every run's summary file holds the per-record reference's summary of
    # the records the sweep wrote.
    cfg = ExperimentConfig(
        policies=["proposed_ucb_tuned", "epsilon_greedy", "adr_lite", "fixed"],
        device_counts=[3, 8], runs_per_point=2, t_attempts=60, base_seed=11,
    )
    manifest = run_sweep(cfg, tmp_path / "out")
    assert len(manifest.runs) == 16
    for entry in manifest.runs:
        want = reference_summary(read_records(tmp_path / "out" / entry["records"]),
                                 manifest.config_hash)
        assert (tmp_path / "out" / entry["summary"]).read_text(encoding="utf-8") == json.dumps(
            want.to_dict(), sort_keys=True, indent=2)


def test_singleton_sweep(tmp_path):
    cfg = tiny_config(policies=["fixed"], device_counts=[3], runs_per_point=1)
    manifest = run_sweep(cfg, tmp_path / "out")
    assert len(manifest.runs) == 1
    entry = manifest.runs[0]
    assert (entry["policy"], entry["n_devices"], entry["run"]) == ("fixed", 3, 0)
    out = Path(manifest.out_dir)
    assert (out / entry["records"]).exists()
    assert (out / entry["summary"]).exists()
    # The manifest is written through a temporary file that is renamed away.
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "records", "summaries", "tables"
    ]


def test_sweep_shape_and_seeds(tmp_path):
    cfg = tiny_config()
    manifest = run_sweep(cfg, tmp_path / "out")
    assert len(manifest.runs) == 2 * 2 * 2
    for entry in manifest.runs:
        assert entry["seed"] == run_seed(
            cfg.base_seed, entry["policy"], entry["n_devices"], entry["run"]
        )


def test_sweep_manifest_round_trip(tmp_path):
    cfg = tiny_config()
    manifest = run_sweep(cfg, tmp_path / "out")
    loaded = RunManifest.load(Path(manifest.out_dir) / "manifest.json")
    assert loaded.to_dict() == manifest.to_dict()
    assert loaded.config_hash == cfg.config_hash()


def test_manifest_bytes_do_not_depend_on_the_directory(tmp_path):
    cfg = tiny_config()
    a = tmp_path / "a" / "manifest.json"
    run_sweep(cfg, a.parent)
    run_sweep(cfg, tmp_path / "b" / "deeper")
    assert a.read_bytes() == (tmp_path / "b" / "deeper" / "manifest.json").read_bytes()
    # A manifest that still names the directory it was written in loads
    # from where it is now.
    doc = json.loads(a.read_text()) | {"out_dir": "/elsewhere"}
    a.write_text(json.dumps(doc))
    assert RunManifest.load(a).out_dir == str(a.parent)


def test_stock_sweep_builds_no_record(tmp_path, monkeypatch):
    # The simulator hands the writer and the summary row ids: a serial stock
    # sweep builds no RunRecord, so every record a RunLog reads out counts.
    built = []

    def counting(self):
        built.append(len(self))
        return read(self)

    read = RunLog.__iter__
    monkeypatch.setattr(RunLog, "__iter__", counting)
    cfg = ExperimentConfig(runs_per_point=1)
    manifest = run_sweep(cfg, tmp_path / "out")
    assert len(manifest.runs) == 20 and built == []
    entry = manifest.runs[0]
    records = read_records(tmp_path / "out" / entry["records"])
    setup = cfg.run_setup(entry["policy"], entry["n_devices"])
    assert list(run_simulation(setup, entry["seed"])) == records
    assert built == [len(records)]


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    # Forked children write records and summaries; every file, the tables
    # and the manifest included, is the same as a serial sweep's.
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    cfg = tiny_config()
    run_sweep(cfg, tmp_path / "serial", parallel=1)
    run_sweep(cfg, tmp_path / "par", parallel=4)

    def files(out):
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file()}

    serial = files(tmp_path / "serial")
    assert {p.parts[0] for p in serial} == {"records", "summaries", "tables", "manifest.json"}
    assert files(tmp_path / "par") == serial


# --- forked workers ----------------------------------------------------------
# Each case runs sweep._run_forked in a fresh interpreter with a time limit,
# so that a runner that hangs fails the test instead of stalling the suite.
# The prelude gives the case sweep, PARENT (the caller's pid) and done(),
# which checks that every child was reaped and reports success.

RUNNER_PRELUDE = """
import os, select, signal, sys, time
from lorabandit import sweep
PARENT = os.getpid()

def done():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("ok")
    else:
        print("a child was left behind")
"""


def _child_env():
    src = str(Path(lorabandit.__file__).resolve().parents[1])
    return os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}


def run_runner_case(body: str, timeout: float = 30) -> None:
    """Run RUNNER_PRELUDE and body in a new session; on a timeout the whole
    process group, forked workers included, is killed."""
    with subprocess.Popen([sys.executable, "-c", RUNNER_PRELUDE + textwrap.dedent(body)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=_child_env(), start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"the runner did not finish within {timeout} s")
    assert proc.returncode == 0, err
    assert out.splitlines() == ["ok"], out


@pytest.mark.parametrize("n_jobs", [3, 2000])
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_runner_results_in_job_order(tmp_path, n_jobs, workers):
    # A sweep job writes its results to its own files, so they are in job
    # order however the processes share the jobs if every job runs exactly
    # once: here each job appends its index to one file. 2,000 jobs do not
    # fit one ticket each in PIPE_BUF, so tickets name blocks; the tickets
    # still go in one write, the only one the caller makes.
    run_runner_case(f"""
        path = {str(tmp_path / "jobs")!r}
        log = open(path, "ab", buffering=0)  # O_APPEND: each line lands whole
        sweep._execute_point = lambda job: log.write(b"%d\\n" % job)
        writes, write = [], os.write
        os.write = lambda fd, data: writes.append(len(data)) or write(fd, data)
        n = {n_jobs}
        assert sweep._run_forked(list(range(n)), {workers}) is None
        with open(path, "rb") as fh:
            assert sorted(map(int, fh.read().split())) == list(range(n))
        block = -(-4 * n // select.PIPE_BUF)
        assert writes == [4 * len(range(0, n, block))] and writes[0] <= select.PIPE_BUF
        assert (block == 1) == (n == 3)
        done()
    """)


@pytest.mark.parametrize("workers", [3, 4])
def test_runner_errors_larger_than_a_pipe_holds(workers):
    # Every child sends back an error larger than a pipe buffers, so each
    # must be read while later children wait to write: no child may hold
    # another's pipe. Each child fails only after every child has a job, and
    # the first child's error is raised.
    run_runner_case(f"""
        pids, fork = [], os.fork
        os.fork = lambda: pids.append(fork()) or pids[-1]
        def job(j):
            if os.getpid() == PARENT:
                time.sleep(0.01)
                return
            time.sleep(0.3)
            raise ValueError(f"{{os.getpid()}} " + "x" * 70000)
        sweep._execute_point = job
        try:
            sweep._run_forked(list(range(100)), {workers})
        except ValueError as exc:
            assert str(exc).split()[0] == str(pids[0]), str(exc)[:20]
        else:
            raise AssertionError("no error")
        done()
    """)


@pytest.mark.parametrize("where", ["child", "caller"])
def test_runner_error_keeps_its_type_and_message(where):
    # Jobs that do not fail are slow, so the failing side surely gets one.
    # A failure drains the tickets, so the caller's own failure leaves each
    # child at most the one job it had started.
    run_runner_case(f"""
        fail_in_child = {where == "child"}
        started, start = os.pipe()
        def job(j):
            if (os.getpid() != PARENT) == fail_in_child:
                raise LookupError(f"job {{j}} failed")
            os.write(start, b"j")
            time.sleep(0.2 if fail_in_child else 1.0)
            return j
        sweep._execute_point = job
        try:
            sweep._run_forked(list(range(12)), 3)
        except LookupError as exc:
            assert str(exc).startswith("job ") and str(exc).endswith(" failed"), exc
        else:
            raise AssertionError("no error")
        os.close(start)
        assert fail_in_child or len(os.read(started, 64)) <= 2
        done()
    """)


@pytest.mark.parametrize("name,error", [
    pytest.param("Local", 'Local("cannot be pickled")', id="local-class"),
    pytest.param("TwoArgs", 'TwoArgs("cannot be", "pickled")', id="two-arguments"),
])
def test_runner_unpicklable_error_becomes_runtime_error(name, error):
    # pickle cannot find a local class, and cannot rebuild TwoArgs from the
    # one argument its Exception keeps.
    run_runner_case(f"""
        class TwoArgs(Exception):
            def __init__(self, what, why):
                super().__init__(f"{{what}} {{why}}")
        def job(j):
            class Local(Exception):
                pass
            if os.getpid() != PARENT:
                raise {error}
            time.sleep(0.2)
        sweep._execute_point = job
        try:
            sweep._run_forked(list(range(4)), 2)
        except RuntimeError as exc:
            assert str(exc) == "{name}: cannot be pickled", exc
        else:
            raise AssertionError("no error")
        done()
    """)


def test_runner_killed_child_is_an_error():
    run_runner_case("""
        def job(j):
            if os.getpid() != PARENT:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.2)
        sweep._execute_point = job
        try:
            sweep._run_forked(list(range(3)), 2)
        except RuntimeError as exc:
            assert str(exc).endswith(f"ended with exit status {-signal.SIGKILL}"), exc
        else:
            raise AssertionError("no error")
        done()
    """)


@pytest.mark.parametrize("parallel,cpus,allowed,expected", [
    pytest.param(8, 3, 3, 3, id="8-3-3"),
    pytest.param(8, 16, 16, 4, id="8-16-4"),
    pytest.param(2, 16, 16, 2, id="2-16-2"),
    pytest.param(8, 16, 2, 2, id="8-16-2-allowed"),
    pytest.param(8, 3, None, 3, id="8-3-3-no-affinity"),
])
def test_pool_workers_capped(tmp_path, monkeypatch, parallel, cpus, allowed, expected):
    # Workers are capped at min(parallel, jobs, CPUs the process may run
    # on), by cpu_count where the platform has no affinity set (allowed is
    # None); the fake runner maps serially, so no process starts.
    seen = []

    def serial_runner(jobs, workers):
        seen.append(workers)
        for job in jobs:
            sweep._execute_point(job)

    monkeypatch.setattr(sweep, "_run_forked", serial_runner)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    if allowed is None:
        monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: set(range(allowed)))
    manifest = run_sweep(tiny_config(runs_per_point=1), tmp_path / "out", parallel=parallel)
    assert seen == [expected]
    assert len(manifest.runs) == 4


def test_sweep_without_fork_runs_serially(tmp_path, monkeypatch):
    def no_runner(jobs, workers):
        raise AssertionError("no worker can be forked here")

    monkeypatch.setattr(sweep, "_run_forked", no_runner)
    monkeypatch.delattr(sweep.os, "fork")
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    manifest = run_sweep(tiny_config(runs_per_point=1), tmp_path / "out", parallel=4)
    assert len(manifest.runs) == 4


def test_validate_and_serial_runs_load_no_process_pool(tmp_path):
    # concurrent.futures brings multiprocessing, logging, socket and pickle;
    # no sweep imports it or multiprocessing, not even one that forks workers.
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"device_counts": [2], "t_attempts": 3}))
    script = textwrap.dedent(f"""
        import os, sys
        import lorabandit.cli
        pools = {{"concurrent.futures", "multiprocessing"}}
        assert lorabandit.cli.main(["validate", {str(config)!r}]) == 0
        assert not pools & set(sys.modules)
        out = {str(tmp_path / "out")!r}
        assert lorabandit.cli.main(["run", {str(config)!r}, "--out", out, "--parallel", "1"]) == 0
        assert not pools & set(sys.modules)
        os.sched_getaffinity = lambda pid: {{0, 1}}  # two workers on any host
        out = {str(tmp_path / "out2")!r}
        assert lorabandit.cli.main(["run", {str(config)!r}, "--out", out, "--parallel", "2"]) == 0
        assert not pools & set(sys.modules)
    """)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=_child_env())
    assert result.returncode == 0, result.stderr


def test_aggregate_runs_once_per_point(tmp_path, monkeypatch):
    calls = []

    def counting(summaries):
        calls.append(len(summaries))
        return aggregate_runs(summaries)

    monkeypatch.setattr(sweep, "aggregate_runs", counting)
    run_sweep(tiny_config(), tmp_path / "out")
    assert calls == [2, 2, 2, 2]  # 2 policies x 2 device counts, 2 runs each


@pytest.mark.parametrize("existing,parallel", [
    pytest.param(False, 1, id="False"),
    pytest.param(True, 1, id="True"),
    pytest.param(False, 2, id="False-parallel"),
    pytest.param(True, 2, id="True-parallel"),
])
def test_failed_sweep_cleans_up(tmp_path, monkeypatch, existing, parallel):
    # With two workers each process fails at its own second job; the parent
    # reaps both before the cleanup.
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "out"
    if existing:
        (out / "records").mkdir(parents=True)
        (out / "keep.txt").write_text("mine")
    jobs = []

    def failing(setup, seed):
        jobs.append(seed)
        if len(jobs) == 2:
            raise RuntimeError("boom")
        return run_simulation(setup, seed)

    monkeypatch.setattr(sweep, "run_simulation", failing)
    with pytest.raises(RuntimeError, match="boom"):
        run_sweep(tiny_config(), out, parallel=parallel)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if existing:
        # Directories that were there before stay; those the sweep made go.
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt", "records"]
        assert list((out / "records").iterdir()) == []
    else:
        assert not out.exists()


def test_tables_shapes(tmp_path):
    cfg = tiny_config()
    manifest = run_sweep(cfg, tmp_path / "out")
    tables = Path(manifest.out_dir) / "tables"

    with open(tables / "success_rate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2  # policies x device counts
    assert set(rows[0]) == {"policy", "n_devices", "mean", "run_0", "run_1"}

    with open(tables / "tp_ratio.csv") as fh:
        tp_rows = list(csv.DictReader(fh))
    fixed_rows = [r for r in tp_rows if r["policy"] == "fixed"]
    assert {r["power_dbm"] for r in fixed_rows} == {"-3"}
    assert all(float(r["fraction"]) == 1.0 for r in fixed_rows)

    with open(tables / "energy_efficiency_wide.csv") as fh:
        wide = list(csv.DictReader(fh))
    assert [r["n_devices"] for r in wide] == ["3", "6"]
    assert set(wide[0]) == {"n_devices", "fixed", "adr_lite"}


def test_csv_round_trip_exact(tmp_path):
    # Every float is serialized with repr(): parsing the CSV reproduces the
    # in-memory per-run values bit for bit.
    cfg = tiny_config(policies=["adr_lite"], device_counts=[4])
    manifest = run_sweep(cfg, tmp_path / "out")
    out = Path(manifest.out_dir)
    per_run = []
    for entry in manifest.runs:
        with open(out / entry["summary"]) as fh:
            per_run.append(json.load(fh)["success_rate"])
    with open(out / "tables" / "success_rate.csv") as fh:
        row = next(csv.DictReader(fh))
    got = [float(row[f"run_{i}"]) for i in range(cfg.runs_per_point)]
    assert got == per_run


def test_emit_tables_missing_artifact(tmp_path):
    cfg = tiny_config(policies=["fixed"], device_counts=[3], runs_per_point=1)
    manifest = run_sweep(cfg, tmp_path / "out")
    victim = Path(manifest.out_dir) / manifest.runs[0]["summary"]
    victim.unlink()
    with pytest.raises(FileNotFoundError, match="fixed"):
        emit_tables(manifest)
