"""The names the benchmark reaches into: perfbench traces lorabandit by
replacing module attributes and methods where their callers look them up
(perfbench/spans.py), so a rename in src/ would silently zero its per-layer
numbers. These tests keep those names, and the sweep's calls through them,
in place."""

import importlib.util
from pathlib import Path

from lorabandit import sweep
from lorabandit.config import ExperimentConfig
from lorabandit.metrics import RunLog

ROOT = Path(__file__).resolve().parents[1]


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _spans()._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_serial_sweep_calls_through_the_traced_names(tmp_path, monkeypatch):
    # One run_simulation and one write_records(records, path) per job, both
    # looked up on the sweep module, where the benchmark wraps them.
    sims, writes = [], []

    def simulate(setup, seed):
        sims.append(sweep_run(setup, seed))
        return sims[-1]

    def write(*args, **kwargs):
        writes.append((args, kwargs))
        return sweep_write(*args, **kwargs)

    sweep_run, sweep_write = sweep.run_simulation, sweep.write_records
    monkeypatch.setattr(sweep, "run_simulation", simulate)
    monkeypatch.setattr(sweep, "write_records", write)
    cfg = ExperimentConfig(policies=["fixed", "epsilon_greedy"], device_counts=[2, 3],
                           runs_per_point=2, t_attempts=10)
    manifest = sweep.run_sweep(cfg, tmp_path / "out")
    assert len(sims) == len(writes) == len(manifest.runs) == 8
    for log, (args, kwargs), entry in zip(sims, writes, manifest.runs):
        assert isinstance(log, RunLog) and not kwargs
        records, path = args
        assert records is log
        assert Path(path) == tmp_path / "out" / entry["records"]
