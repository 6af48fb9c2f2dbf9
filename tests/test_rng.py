"""Per-device random streams: bit-exact against numpy, and numpy-free at run time;
what else a fresh lorabandit process leaves unloaded."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

import lorabandit
from lorabandit.rng import device_rng

SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1)
# Lemire's method rejects about half the 32-bit draws for 2**31 + 1 and a
# quarter of the 64-bit draws for 2**62 + 1; the other spans almost never.
WIDE_HIGHS = [3, 10**7, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62, 2**62 + 1, 2**63 - 1]
# integers(n) takes a path without the range check for 1 < n <= 2**32: its
# edges, and the span Lemire's method rejects most often there.
CALLS = st.lists(
    st.just(("random",))
    | st.tuples(st.just("integers"), st.integers(1, 30))
    | st.tuples(st.just("integers"), st.sampled_from([1, 2**31 + 1, 2**32]))
    | st.tuples(st.just("integers"), st.just(0), st.sampled_from(WIDE_HIGHS)),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, device=st.integers(0, 2**40), stream=st.integers(0, 3), calls=CALLS)
@example(seed=2**64 - 1, device=0, stream=0, calls=[("integers", 0, 2**32)] * 3 + [("random",)])
# Five entropy words, one more than the pool: the words past the table's.
@example(seed=2**64 - 1, device=2**32, stream=3, calls=[("random",), ("integers", 0, 2**32 + 1)])
# Across the inline steps: integers(3) buffers the high half of its output,
# random() steps once and keeps that half, the next integers(3) uses and
# clears it, so integers(7) after the 64-bit path steps again.
@example(seed=20240901, device=0, stream=0,
         calls=[("integers", 3), ("random",), ("integers", 3), ("integers", 0, 2**32 + 1),
                ("integers", 7)])
# A buffered high half crosses from the unchecked integers(n) into the
# checked 32-bit path and back, with a random() between: integers(3) buffers
# the high half of its output, integers(0, 5) uses it, random() steps once,
# integers(0, 9) buffers again and integers(2**31 + 1) uses that half;
# integers(1) draws nothing, so integers(3) steps.
@example(seed=20240901, device=1, stream=0,
         calls=[("integers", 3), ("integers", 0, 5), ("random",), ("integers", 0, 9),
                ("integers", 2**31 + 1), ("integers", 1), ("integers", 3)])
def test_matches_numpy_default_rng(seed, device, stream, calls):
    ours = device_rng(seed, device, stream)
    ref = np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), device, stream]))
    for name, *args in calls:
        got = getattr(ours, name)(*args)
        assert type(got) is (float if name == "random" else int)
        assert got == getattr(ref, name)(*args), (name, args)


def test_run_loads_no_numpy(tmp_path):
    config = tmp_path / "empty.json"
    config.write_text("{}")
    script = textwrap.dedent(f"""
        import sys
        import lorabandit, lorabandit.cli, lorabandit.sweep
        from lorabandit.config import config_from_dict
        from lorabandit.netsim import POLICY_NAMES, run_simulation
        assert lorabandit.cli.main(["validate", {str(config)!r}]) == 0
        cfg = config_from_dict({{"t_attempts": 3}})
        for policy in POLICY_NAMES:
            assert len(run_simulation(cfg.run_setup(policy, 2), seed=1)) == 6
        assert "numpy" not in sys.modules, sorted(m for m in sys.modules if "numpy" in m)
    """)
    run_fresh(script)


def test_cli_loads_no_dataclasses(tmp_path):
    # A fresh lorabandit process loads neither dataclasses nor what it
    # imports (inspect, ast, dis, tokenize): validate, a serial run and one
    # run of each policy. What the interpreter loaded before lorabandit (a
    # .pth file, say) is not counted.
    config = tmp_path / "small.json"
    config.write_text('{"device_counts": [2], "runs_per_point": 1, "t_attempts": 3}')
    script = textwrap.dedent(f"""
        import sys
        before = set(sys.modules)
        import lorabandit.cli
        from lorabandit.config import config_from_dict
        from lorabandit.netsim import POLICY_NAMES, run_simulation
        assert lorabandit.cli.main(["validate", {str(config)!r}]) == 0
        out = {str(tmp_path / "out")!r}
        assert lorabandit.cli.main(["run", {str(config)!r}, "--out", out, "--parallel", "1"]) == 0
        cfg = config_from_dict({{"t_attempts": 3}})
        for policy in POLICY_NAMES:
            assert len(run_simulation(cfg.run_setup(policy, 2), seed=1)) == 6
        loaded = {{"dataclasses", "inspect", "ast", "dis", "tokenize"}} & (set(sys.modules) - before)
        assert not loaded, sorted(loaded)
    """)
    run_fresh(script)


def test_validate_loads_no_sweep_policies_or_metrics(tmp_path):
    # import lorabandit and validate load neither the sweep driver nor the
    # policies nor the metrics fold; the package's run_simulation,
    # summarize_run and run_sweep load on first use, as the submodules' own.
    config = tmp_path / "empty.json"
    config.write_text("{}")
    script = textwrap.dedent(f"""
        import sys
        unused = {{"lorabandit.sweep", "lorabandit.policies", "lorabandit.metrics"}}
        import lorabandit
        assert not unused & set(sys.modules), sorted(unused & set(sys.modules))
        import lorabandit.cli
        assert lorabandit.cli.main(["validate", {str(config)!r}]) == 0
        assert not unused & set(sys.modules), sorted(unused & set(sys.modules))
        assert lorabandit.__all__ == ["ConfigError", "ExperimentConfig", "run_simulation",
                                      "run_sweep", "summarize_run"]
        from lorabandit import run_simulation, run_sweep, summarize_run
        from lorabandit import metrics, netsim, sweep
        assert run_simulation is netsim.run_simulation
        assert summarize_run is metrics.summarize_run
        assert run_sweep is sweep.run_sweep
        star = {{}}
        exec("from lorabandit import *", star)
        assert all(star[name] is getattr(lorabandit, name) for name in lorabandit.__all__)
        try:
            lorabandit.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("lorabandit.no_such_name resolved")
    """)
    run_fresh(script)


def run_fresh(script: str) -> None:
    """Run script in a fresh interpreter that imports this lorabandit."""
    src = str(Path(lorabandit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=os.environ | {"PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
