"""Sweep execution, seed derivation, artifact layout, and CSV emission."""

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from lorabandit import sweep
from lorabandit.config import ExperimentConfig
from lorabandit.metrics import Cause, RunRecord, aggregate_runs, summarize_groups, summarize_run
from lorabandit.sweep import (
    RunManifest,
    emit_tables,
    read_records,
    run_seed,
    run_sweep,
    write_records,
)
from lorabandit.netsim import run_simulation
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


# --- record persistence ----------------------------------------------------

def test_records_round_trip(tmp_path):
    cfg = tiny_config()
    records = run_simulation(cfg.run_setup("fixed", 3), seed=5)
    path = tmp_path / "r.jsonl"
    write_records(records, path)
    assert read_records(path) == records


FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 200.0, -3.0, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
INTS = st.integers(min_value=-(2**63), max_value=2**64 - 1)
CAUSES = [Cause.SUCCESS, Cause.CHANNEL_NOT_RECEIVABLE, Cause.CARRIER_BUSY, Cause.COLLISION]


# Records that differ from another only in the sign of a zero reward or
# e_toa, in which of two equal but distinct float objects they hold, or in
# their cause or ACK: a writer that reuses a line's fragments must not take
# one for the other.
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


def test_record_lines_tell_twins_apart(tmp_path):
    assert _A == _B and _A is not _B
    assert [repr(r.reward) + repr(r.e_toa) for r in TWINS[:4]] == [
        "0.00.0", "-0.00.0", "0.0-0.0", "-0.0-0.0"]
    path = tmp_path / "r.jsonl"
    write_records(TWINS, path)
    assert path.read_bytes() == "".join(
        json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) + "\n" for r in TWINS
    ).encode()


@given(st.lists(st.builds(
    RunRecord, run_seed=INTS, device=INTS, attempt=INTS, arm_index=INTS,
    channel_hz=FLOATS, power_dbm=INTS, cause=st.sampled_from(CAUSES),
    acked=st.booleans(), reward=FLOATS, e_toa=FLOATS, e_active=FLOATS, wake_time=FLOATS,
), max_size=5))
@example(TWINS)
def test_record_lines_match_sorted_json(records):
    """The record writer gives the bytes of the sorted-key JSON form, and
    they read back as the same records.

    Floats here are finite: the simulator writes no inf or nan, because a
    config whose energies or rewards are not finite fails validation.
    """
    want = "".join(
        json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) + "\n" for r in records
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.jsonl"
        write_records(records, path)
        assert path.read_bytes() == want.encode()
        assert read_records(path) == records


# Energies a log can add up: positive, down to the least subnormal, and small
# enough that the largest log's total stays finite. Past the largest float,
# math.fsum's intermediate overflow depends on the order it adds in, and a
# simulated run never gets there: config validation (netsim.cost_rows)
# refuses a config whose run's total active energy would not be finite.
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


@given(record_logs())
@example(TWINS)
def test_grouped_summaries_match_the_per_record_fold(records):
    """summarize_run, and summarize_groups of the writer's counts, give the
    per-record reference's summary, to the byte of its JSON."""
    def as_json(summary):
        return json.dumps(summary.to_dict(), sort_keys=True)

    want = as_json(reference_summary(records, "k"))
    assert as_json(summarize_run(records, "k")) == want
    with tempfile.TemporaryDirectory() as tmp:
        groups = write_records(records, Path(tmp) / "r.jsonl")
    assert as_json(summarize_groups(groups, "k")) == want


# --- sweeps ------------------------------------------------------------------

def test_sweep_records_bytes_pinned(tmp_path):
    # The records/ bytes of a small sweep over all four policies, epsilon-greedy
    # in ack mode (its means tie at 1.0), as written before the record writer
    # reused line fragments and epsilon-greedy kept its tie set up to date.
    cfg = ExperimentConfig(
        policies=["proposed_ucb_tuned", "epsilon_greedy", "adr_lite", "fixed"],
        device_counts=[3, 8], runs_per_point=2, t_attempts=60, epsilon_reward="ack",
        base_seed=11,
    )
    run_sweep(cfg, tmp_path / "out")
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "out" / "records").iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == (
        "71b7d669fbc4602523967a12e499d1e9142948fd308b81e2a89114fcc6a6594d")


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


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = tiny_config()
    a = run_sweep(cfg, tmp_path / "serial", parallel=1)
    b = run_sweep(cfg, tmp_path / "par", parallel=4)
    for ea, eb in zip(a.runs, b.runs):
        bytes_a = (Path(a.out_dir) / ea["records"]).read_bytes()
        bytes_b = (Path(b.out_dir) / eb["records"]).read_bytes()
        assert bytes_a == bytes_b


@pytest.mark.parametrize("parallel,cpus,expected", [(8, 3, 3), (8, 16, 4), (2, 16, 2)])
def test_pool_workers_capped(tmp_path, monkeypatch, parallel, cpus, expected):
    # Workers are capped at min(parallel, jobs, cpus); the fake pool maps
    # serially, so no process starts.
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    manifest = run_sweep(tiny_config(runs_per_point=1), tmp_path / "out", parallel=parallel)
    assert seen == [expected]
    assert len(manifest.runs) == 4


def test_aggregate_runs_once_per_point(tmp_path, monkeypatch):
    calls = []

    def counting(summaries):
        calls.append(len(summaries))
        return aggregate_runs(summaries)

    monkeypatch.setattr(sweep, "aggregate_runs", counting)
    run_sweep(tiny_config(), tmp_path / "out")
    assert calls == [2, 2, 2, 2]  # 2 policies x 2 device counts, 2 runs each


@pytest.mark.parametrize("existing", [False, True])
def test_failed_sweep_cleans_up(tmp_path, monkeypatch, existing):
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
        run_sweep(tiny_config(), out)
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
