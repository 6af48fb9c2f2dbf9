"""Regenerate goldens.json from the program as it is now.

    python3 perfbench/update_goldens.py

Only a change meant to alter the simulated results may do this, and it says
so; a change that only claims speed must leave the goldens as they are.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads
from workloads import GOLDENS, JOB, WORK


def main() -> int:
    goldens = {}
    for size in workloads.SIZES:
        for name in workloads.WORKLOADS:
            for seed in workloads.STORED_SEEDS:
                argv = [sys.executable, str(JOB), "--workload", name, "--seed", str(seed),
                        "--size", size, "--out", str(WORK / name)]
                proc = subprocess.run(argv, env=workloads.child_env(), check=True,
                                      capture_output=True, text=True, timeout=300)
                digest = json.loads(proc.stdout.strip().splitlines()[-1])["digest"]
                goldens.setdefault(size, {}).setdefault(name, {})[str(seed)] = \
                    workloads.outcome(digest)
                print(size, name, seed, digest["records"])
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
