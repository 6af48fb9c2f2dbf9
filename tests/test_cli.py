"""Command-line verbs, options and exit codes."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lorabandit
from lorabandit import sweep
from lorabandit.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

TINY = {
    "policies": ["fixed"],
    "device_counts": [2],
    "runs_per_point": 1,
    "t_attempts": 5,
}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", write_config(tmp_path, {})]) == EXIT_OK
    assert "ok:" in capsys.readouterr().out


def test_validate_bad_config(tmp_path, capsys):
    code = main(["validate", write_config(tmp_path, {"epsilon": 2.0})])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_exit_codes_of_the_process(tmp_path):
    # The documented codes, as the process exits with them: 2 for a config
    # error, 3 for a runtime one.
    src = str(Path(lorabandit.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    for argv, code in ((["validate", write_config(tmp_path, {"epsilon": 2.0})], 2),
                       (["tables", str(tmp_path / "absent.json")], 3)):
        done = subprocess.run([sys.executable, "-m", "lorabandit.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert done.returncode == code, done.stderr


TWO_CHANNELS = [{"mhz": 921.0, "receivable": True}, {"mhz": 921.4, "receivable": True}]


def _draws(*mw):
    """A powers list: the default levels, drawing mw in turn."""
    return [{"level_dbm": dbm, "draw_mw": d} for dbm, d in zip((-3, 1, 5, 9, 13), mw)]


# Each config validate refuses, and, where the rule is reached only through
# one field among valid ones, the fragment of the refusal it must print.
REFUSED = [
    ({"runs_per_point": "5"}, None),
    ({"device_counts": ["3"]}, None),
    ({"t_attempts": 2.5}, None),
    ({"payload_spread": 0}, None),
    ({"payload_base": 10 ** 400}, None),  # beyond a float: time_on_air could not convert it
    ({"interval_s": 1e-9}, None),
    ({"interval_s": 0.03, "policies": ["adr_lite"]}, None),
    ({"radio": {"sf": 3}}, None),
    ({"radio": {"sf": 13}}, None),
    # ADR-Lite runs on any plan but one whose channels the gateway never hears.
    ({"policies": ["adr_lite"], "channels": [TWO_CHANNELS[0] | {"receivable": False}]},
     "at least one channel must be receivable"),
    ({"radio": {"sf": "x"}}, None),
    ({"radio": 7}, None),
    ({"energy": 5}, None),
    ({"powers": [{"level_dbm": "x", "draw_mw": 1}]}, "level_dbm must be an integer, got 'x'"),
    ({"channels": 5}, None),
    ({"powers": 5}, None),
    # ADR-Lite ranks the channels from the plan: no config field orders them.
    ({"adr_quality_mhz": 5}, "unknown config fields: ['adr_quality_mhz']"),
    ({"channels": [{"mhz": 921.0, "receivable": "false"}, TWO_CHANNELS[1]]}, None),
    ({"powers": [{"level_dbm": 1.7}, {"level_dbm": 5}]}, None),
    # Times that overflow the microsecond clock (or the int64 start offsets).
    ({"interval_s": 1e308}, None),
    ({"cs_duration_s": 1e308}, None),
    ({"radio": {"bw_hz": 1e-300}}, None),
    ({"interval_s": 1e13}, None),
    # Unknown keys inside the nested sections.
    ({"radio": {"SF": 9}}, None),
    ({"energy": {"e_wu": 1}}, None),
    ({"channels": [TWO_CHANNELS[0] | {"rx": 1}, TWO_CHANNELS[1]]}, None),
    ({"powers": [{"level_dbm": 5, "dbm": 1}, {"level_dbm": 9}]}, None),
    # A draw is given on its power only.
    ({"energy": {"p_toa_mw": {"-3": 1, "1": 3}}}, "unknown energy fields: ['p_toa_mw']"),
    # Energies that are not positive finite numbers.
    # (At 13 dBm and SF 12, e_active overflows from 43-symbol payloads on.)
    ({"radio": {"sf": 12}, "payload_base": 43, "powers": _draws(1, 2, 3, 4, 1e308)},
     "e_active must be finite, but for 43-symbol payloads at 13 dBm it is inf mJ"),
    ({"energy": {"e_wu_mj": 1e308, "e_proc_mj": 1e308}}, None),
    ({"radio": {"bw_hz": 1e300}, "energy": {"p_mcu_mw": 1e-300},
      "powers": _draws(1e-300, 1e-10, 1, 10, 100)},
     "e_toa must be positive, but for 36-symbol payloads it is 0.0 mJ at -3 dBm"),
    # One reward scale: e_toa_min / e_toa, in [0, 1].
    ({"reward_mode": "raw"}, "unknown config fields: ['reward_mode']"),
    # A run's total active energy that overflows when summed (40 x 1e307 mJ).
    ({"energy": {"e_wu_mj": 1e307}, "t_attempts": 20}, None),
    # A frequency finite in MHz but not in Hz, which records and the manifest
    # would write as inf.
    ({"channels": [{"mhz": 1e308, "receivable": True}, TWO_CHANNELS[0]], "t_attempts": 2}, None),
    # One frequency twice, which ADR-Lite's rank would tell apart only by
    # whether the gateway hears it.
    ({"policies": ["adr_lite"],
      "channels": [TWO_CHANNELS[0], TWO_CHANNELS[0] | {"receivable": False}]},
     "duplicate channel frequency 921.0 MHz"),
    # Sweep points given twice, whose jobs would overwrite each other's files.
    ({"policies": ["fixed", "fixed"], "device_counts": [2, 2], "t_attempts": 2}, None),
    ({"device_counts": [2, 3, 2]}, None),
    # More runs than run_seed's 64-bit run index tells apart; run would list
    # every job before the first one starts.
    ({"runs_per_point": 10 ** 30}, None),
    # Integers beyond a float, where a float or an exact-as-float count is due.
    ({"interval_s": 10 ** 400}, None),
    ({"radio": {"n_preamble": 10 ** 400}}, None),
    # Device efficiencies that overflow when summed (3 x about 1 / 9e-309 per mJ).
    ({"energy": {"e_wu_mj": 3e-309, "e_proc_mj": 3e-309, "e_r_mj": 3e-309, "p_mcu_mw": 1e-310},
      "powers": [{"level_dbm": 1, "draw_mw": 1e-310}, {"level_dbm": 5, "draw_mw": 2e-310}],
      "device_counts": [3]}, None),
    # A config that earlier versions saved names the ADR order, if only as null.
    ({"adr_quality_mhz": None}, "unknown config fields: ['adr_quality_mhz']"),
]


@pytest.mark.parametrize("doc, message", REFUSED, ids=[f"doc{i}" for i in range(len(REFUSED))])
def test_validate_implies_run(tmp_path, capsys, doc, message):
    # Whatever validate refuses, run refuses the same way, before any work.
    cfg = write_config(tmp_path, TINY | doc)
    assert main(["validate", cfg]) == EXIT_CONFIG
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.count("config error") == 2
    if message is not None:
        assert err.count(message) == 2, err


def test_adr_lite_runs_on_any_plan(tmp_path, capsys):
    # A plan other than the default one, given in no particular order, with
    # a channel the gateway does not hear.
    channels = [{"mhz": 922.2, "receivable": True}, {"mhz": 900.4, "receivable": False},
                {"mhz": 900.0, "receivable": True}]
    for plan in (TWO_CHANNELS, channels):
        cfg = write_config(tmp_path, TINY | {"policies": ["adr_lite"], "channels": plan})
        out = tmp_path / "out"
        assert main(["validate", cfg]) == EXIT_OK
        assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
        (records,) = (out / "records").iterdir()
        assert len(records.read_text().splitlines()) == 2 * TINY["t_attempts"]
        shutil.rmtree(out)
    capsys.readouterr()


def test_validate_unparseable(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == EXIT_CONFIG


def test_validate_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"policies": ["fixed"], "note": "caf\xe9"}')
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_validate_nested_too_deep(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_and_tables(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "results"
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "manifest.json").exists()
    assert (out / "tables" / "success_rate.csv").exists()
    capsys.readouterr()

    assert main(["tables", str(out / "manifest.json")]) == EXIT_OK
    listed = capsys.readouterr().out.strip().splitlines()
    assert any(line.endswith("success_rate.csv") for line in listed)


def test_tables_rebuilds_the_run_tables(tmp_path, capsys):
    # The tables a run writes from its in-memory summaries and the ones the
    # tables verb rebuilds from summaries/ must be the same bytes.
    doc = TINY | {"policies": ["fixed", "epsilon_greedy"], "device_counts": [3, 2],
                  "runs_per_point": 2}
    out = tmp_path / "results"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    tables = out / "tables"
    written = {p.name: p.read_bytes() for p in tables.iterdir()}
    assert len(written) == 6
    for p in tables.iterdir():
        p.unlink()
    assert main(["tables", str(out / "manifest.json")]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in tables.iterdir()} == written


def test_tables_reads_summaries_with_a_per_arm_table(tmp_path, capsys):
    # Earlier versions wrote each run summary with a per_arm table: per arm,
    # its selections, successes, success rate and rate over mean active
    # energy. The tables verb still rebuilds the run's tables from them.
    doc = TINY | {"policies": ["fixed", "adr_lite"], "device_counts": [3], "runs_per_point": 2}
    out = tmp_path / "results"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    written = {p.name: p.read_bytes() for p in (out / "tables").iterdir()}
    for entry in json.loads((out / "manifest.json").read_text())["runs"]:
        path = out / entry["summary"]
        summary = json.loads(path.read_text())
        assert "per_arm" not in summary
        by_arm = {}
        for line in (out / entry["records"]).read_text().splitlines():
            r = json.loads(line)
            by_arm.setdefault(str(r["arm_index"]), []).append((r["acked"], r["e_active"]))
        summary["per_arm"] = {}
        for arm, pairs in by_arm.items():
            n, s = len(pairs), sum(acked for acked, _ in pairs)
            summary["per_arm"][arm] = {
                "selections": n, "successes": s, "success_rate": s / n,
                "energy_efficiency": (s / n) / (math.fsum(e for _, e in pairs) / n)}
        path.write_text(json.dumps(summary, sort_keys=True, indent=2))
    for p in (out / "tables").iterdir():
        p.unlink()
    assert main(["tables", str(out / "manifest.json")]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in (out / "tables").iterdir()} == written


def test_tables_from_another_directory(tmp_path, monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg = write_config(tmp_path, TINY)
    monkeypatch.chdir(tmp_path / "a")
    assert main(["run", cfg, "--out", "results"]) == EXIT_OK
    monkeypatch.chdir(tmp_path / "b")
    assert main(["tables", "../a/results/manifest.json"]) == EXIT_OK
    assert list((tmp_path / "b").iterdir()) == []


def test_run_seed_override_changes_outputs(tmp_path):
    cfg = write_config(tmp_path, TINY | {"policies": ["epsilon_greedy"]})
    main(["run", cfg, "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["run", cfg, "--out", str(tmp_path / "b"), "--seed", "2"])
    rec_a = next((tmp_path / "a" / "records").iterdir()).read_bytes()
    rec_b = next((tmp_path / "b" / "records").iterdir()).read_bytes()
    assert rec_a != rec_b


def test_run_defaults_and_a_parallel_below_1(tmp_path, monkeypatch):
    # Without --out a run writes ./results. A --parallel of 0 or -1 runs the
    # jobs in this process, as 1 does, and writes the same bytes.
    def no_fork(jobs, workers):
        raise AssertionError(f"forked {workers} workers")

    monkeypatch.setattr(sweep, "_run_forked", no_fork)
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    cfg = write_config(tmp_path, TINY | {"device_counts": [2, 3]})
    monkeypatch.chdir(tmp_path)
    results, trees = tmp_path / "results", {}
    for parallel in ("1", "0", "-1"):
        assert main(["run", cfg, "--parallel", parallel]) == EXIT_OK
        trees[parallel] = {p.relative_to(results): p.read_bytes()
                           for p in results.rglob("*") if p.is_file()}
        shutil.rmtree(results)
    assert len(trees["1"]) == 2 * 2 + 6 + 1  # records, summaries, tables, manifest
    assert trees["0"] == trees["-1"] == trees["1"]


def test_tables_missing_manifest(tmp_path, capsys):
    code = main(["tables", str(tmp_path / "absent.json")])
    assert code == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err
