"""The benchmark's own tests, on smoke-sized workloads.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent


def _run(*args, cwd):
    """run.py of the checkout at cwd, started from the checkout's root."""
    script = Path(HERE.name) / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _run_all(trace: int, seed: int, capsys) -> tuple[dict, str]:
    """Smoke-sized run of every workload: result objects, and the lines printed."""
    results = {name: run.run_workload(name, seed, 1.0, trace, size="smoke")
               for name in workloads.WORKLOADS}
    return results, capsys.readouterr().out


def test_every_end_to_end_metric_is_reported_with_its_unit(capsys):
    results, out = _run_all(0, workloads.DEFAULT_SEED, capsys)
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= run.MIN_PASSES
        assert {m: v["unit"] for m, v in result["metrics"].items()} == run.END_TO_END
        assert all(v["value"] > 0 for v in result["metrics"].values())
        named = dict(run.END_TO_END, **run.REPORTED_ONLY, fail_ratio="ratio")
        for metric, unit in named.items():
            line = next(l for l in out.splitlines() if l.startswith(f"{name} {metric} "))
            assert line.split()[3] == unit, line
        assert f"{name} loadavg before" in out


def test_every_per_layer_metric_is_reported_with_its_unit(capsys):
    results, out = _run_all(1, 3, capsys)
    for name, result in results.items():
        assert result["correct"], (name, out)
        assert {m: v["unit"] for m, v in result["metrics"].items()} == run.PER_LAYER
    layer = {name: {m: v["value"] for m, v in r["metrics"].items()}
             for name, r in results.items()}
    # The exact counts follow from the workload shapes.
    for name in workloads.WORKLOADS:
        doc = workloads.config_doc(name, 3, "smoke")
        assert layer[name]["netsim.attempts"] == workloads.expected_attempts(doc)
    assert layer["dense_parallel"]["policies.ucb.select.calls"] == 0
    assert layer["ucb_longrun"]["sweep.write_records.s"] == 0
    assert layer["dense_parallel"]["cli.main.s"] > 0


def test_tampered_golden_counts_as_a_failure():
    goldens = workloads.load_goldens()
    seed = workloads.DEFAULT_SEED
    goldens["smoke"]["ucb_longrun"][str(seed)]["records"] = "0" * 64
    wl = run.Workload("ucb_longrun", seed, "smoke", goldens, time.monotonic() + 120)
    assert wl.run_pass(seed) is None
    assert wl.problems == [f"seed {seed} level 0: outcome digest missed the golden"]
    assert wl.run_pass(7) is not None  # the untouched held-out golden still matches


def test_later_passes_must_repeat_the_first_passs_record_bytes():
    seed = workloads.DEFAULT_SEED
    wl = run.Workload("stock_sweep", seed, "smoke", workloads.load_goldens(),
                      time.monotonic() + 120)
    assert wl.run_pass(seed) is not None
    assert wl.run_pass(seed) is not None  # compares bytes, does not parse
    wl.raw[seed] = "0" * 64
    assert wl.run_pass(seed) is None
    assert wl.problems == [f"seed {seed} level 0: records/ bytes differ from an "
                           "earlier pass at the same seed"]


def test_times_are_divided_by_the_host_speed_read_around_them():
    ref = workloads.REFERENCE_LOOP_S
    # Unit 0 ran once at full speed and once at half; unit 1 at full speed.
    passes = [{"wall_s": 3.5, "cpu_s": 3.0, "loop_s": [ref, ref],
               "units": [[1.0, 1.0, ref], [2.0, 1.5, ref]]},
              {"wall_s": 4.5, "cpu_s": 4.0, "loop_s": [ref, 2 * ref],
               "units": [[2.0, 2.0, 2 * ref], [2.0, 1.5, ref]]}]
    # Rests: 0.5 s at the pass's slowest loop reading (ref, then 2 ref).
    assert abs(run.at_reference_speed(passes, 0) - (1.0 + 2.0 + (0.5 + 0.5 / 2) / 2)) < 1e-12
    assert abs(run.at_reference_speed(passes, 1) - (1.0 + 1.5 + (0.5 + 0.5 / 2) / 2)) < 1e-12
    no_units = [{"wall_s": 3.0, "units": [], "loop_s": [2 * ref]},
                {"wall_s": 2.0, "units": [], "loop_s": [ref]}]
    assert run.at_reference_speed(no_units, 0) == 1.75


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "stock_sweep", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_names_what_run_reports():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [["netsim.run_simulation", 0, 100, -1],
                    ["policies.ucb.select.learned", 10, 30, 0],
                    ["policies.ucb.observe", 40, 45, 0]]
    calls, total, own = spans._totals(tracer)
    assert total["netsim.run_simulation"] == 100
    assert own["netsim.run_simulation"] == 75
    assert calls["policies.ucb.select.learned"] == 1
