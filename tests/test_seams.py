"""The names the benchmark reaches into: perfbench traces lorabandit by
replacing module attributes and methods where their callers look them up
(perfbench/spans.py), so a rename in src/ would silently zero its per-layer
numbers. These tests keep those names, and the sweep's calls through them,
in place."""

import importlib.util
from pathlib import Path

from lorabandit import cli, sweep
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
    # One run_simulation, one write_records(log, path) and one
    # summarize_run(log, config_hash) per job, each looked up on the sweep
    # module, where the benchmark wraps them.
    sims, writes, summaries = [], [], []

    def simulate(setup, seed):
        sims.append(sweep_run(setup, seed))
        return sims[-1]

    def write(*args, **kwargs):
        writes.append((args, kwargs))
        return sweep_write(*args, **kwargs)

    def summarize(*args, **kwargs):
        summaries.append((args, kwargs))
        return sweep_summarize(*args, **kwargs)

    sweep_run, sweep_write = sweep.run_simulation, sweep.write_records
    sweep_summarize = sweep.summarize_run
    monkeypatch.setattr(sweep, "run_simulation", simulate)
    monkeypatch.setattr(sweep, "write_records", write)
    monkeypatch.setattr(sweep, "summarize_run", summarize)
    cfg = ExperimentConfig(policies=["fixed", "epsilon_greedy"], device_counts=[2, 3],
                           runs_per_point=2, t_attempts=10)
    manifest = sweep.run_sweep(cfg, tmp_path / "out")
    assert len(sims) == len(writes) == len(summaries) == len(manifest.runs) == 8
    for log, (args, kwargs), (summary_args, summary_kwargs), entry in zip(
            sims, writes, summaries, manifest.runs):
        assert isinstance(log, RunLog) and not kwargs and not summary_kwargs
        records, path = args
        assert records is log
        assert Path(path) == tmp_path / "out" / entry["records"]
        summarized, config_hash = summary_args
        assert summarized is log and config_hash == manifest.config_hash


def test_cli_run_calls_run_sweep_on_the_sweep_module(tmp_path, monkeypatch):
    # cli.main looks run_sweep up on the sweep module when it runs, where the
    # benchmark wraps it as its sweep.run_sweep span; cli binds no copy of
    # its own at import.
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return sweep_run_sweep(*args, **kwargs)

    sweep_run_sweep = sweep.run_sweep
    monkeypatch.setattr(sweep, "run_sweep", counting)
    config = tmp_path / "small.json"
    config.write_text('{"policies": ["fixed"], "device_counts": [2], "runs_per_point": 1, '
                      '"t_attempts": 3}')
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(out), "--parallel", "1"]) == 0
    assert len(calls) == 1
    (cfg, out_dir), kwargs = calls[0]
    assert cfg.policies == ["fixed"] and out_dir == str(out) and kwargs == {"parallel": 1}
    assert (out / "manifest.json").is_file()
