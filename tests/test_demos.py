"""Every demo script, and every Python block of the README, runs to
completion against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


@pytest.mark.parametrize("argv", [[str(d)] for d in DEMOS] + [["-c", b] for b in README_BLOCKS],
                         ids=[d.name for d in DEMOS]
                         + [f"README.md-{i}" for i in range(len(README_BLOCKS))])
def test_demo_runs(argv, tmp_path):
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
