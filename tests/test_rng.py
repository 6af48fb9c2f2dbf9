"""Per-device random streams: bit-exact against numpy, and numpy-free at run time."""

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
CALLS = st.lists(
    st.just(("random",))
    | st.tuples(st.just("integers"), st.integers(1, 30))
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
    src = str(Path(lorabandit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=os.environ | {"PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
