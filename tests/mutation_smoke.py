"""Mutation smoke test: do the tests notice small, deliberate bugs?

Each mutant replaces one snippet of a module in src/lorabandit with a wrong
one, in a copy of src/, tests/, perfbench/, demos/ and README.md made in a
temporary directory, and runs the tests there against the copy, with the
acceptance module and the snippet check (test_mutants.py, which any mutant
fails) left out. It first runs only the tests near the mutated module: its own test
module, then every other test module that imports it or checks it through
another module (CHECKED_THROUGH). A mutant that these
pass gets a full run, and survives if no test fails there, so a survivor's
verdict always comes from the whole suite. Mutants are listed per module
below; a survivor is either killed by a new test or kept here with the
reason it survives. A mutant whose tests run for more than
MUTANT_TIMEOUT_S seconds is taken to hang and counts as killed: its whole
process group, forked sweep workers included, is killed. A mutant that
makes the package fail at import stops pytest at collection (exit status
2) and counts as killed at import.

    python tests/mutation_smoke.py

Uses the standard library only (pytest runs in a subprocess); its name
does not start with test_, so the suite does not collect it. Exit status 0
if every mutant was killed or survived for its stated reason, 1 if any
other survived, 2 if a snippet is not found exactly once in its module
(the code moved on and the mutant is stale), 3 if the tests already fail
on an unmutated copy (a control run before the mutants).
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# About ten times the unmutated suite's 30 s on a 2-core host.
MUTANT_TIMEOUT_S = 300
# Neither runs for a mutant: the acceptance module takes minutes, and the
# snippet check fails on every mutant.
LEFT_OUT = ("test_acceptance.py", "test_mutants.py")

# Why the collided flag may go from the netsim cycle key unnoticed. Only
# devices that wake in the same µs can collide (carrier sense hears every
# other overlap). With the fixed policy both then transmit on their constant
# arms every period, so the flag follows from the arms and the mutant is
# equivalent. With ADR-Lite it is the same-µs partner's arm in the period
# before, which the partner's next list index does not always tell; but no
# run found differs: 61,000 random fixed and ADR-Lite runs, 58,000 of them
# ADR-Lite at 6-10 µs periods where same-µs wakes are common, and every
# two- and three-device walk of a small exhaustive model. So the flag stays
# in the key, and this mutant is expected to survive.
COLLIDED_FLAG = "no run found where the flag changes a record (see COLLIDED_FLAG)"

# (module, name, snippet, replacement, why it may survive or None). Each
# snippet must occur exactly once in its module.
MUTANTS = [
    ("netsim", "key without the transmissions on the air",
     "tuple(tx and (tx[4], tx[2]) for tx in", "tuple(None for tx in", None),
    ("netsim", "key without the collided flag",
     "tx and (tx[4], tx[2])", "tx and (tx[4],)", COLLIDED_FLAG),
    ("netsim", "key without the policy state",
     "tuple(map(next_index, policies)) if adr else ()", "()", None),
    ("netsim", "no shift of the transmissions still on the air",
     "                    if tx is not None:\n", "                    if False:\n", None),
    ("netsim", "one whole cycle too many",
     "skip = (cfg.t_attempts - attempt) // cycle * cycle",
     "skip = (cfg.t_attempts - attempt + 1) // cycle * cycle", None),
    ("netsim", "one copy too few",
     "range(cycle, skip + 1, cycle)", "range(cycle, skip, cycle)", None),
    ("netsim", "copies keep the cycle's attempts",
     "attempts += map(add, cycle_attempts, repeat(shift))", "attempts += cycle_attempts", None),
    ("netsim", "a CarrierBusy attempt on its device's end-of-airtime row",
     "add_row(row_ids[i][arm][2])", "add_row(row_ids[i][arm][0])", None),
    ("netsim", "ends before wakes at equal µs",
     "template.sort(key=lambda event: event[:2])",
     "template.sort(key=lambda event: (event[0], -event[1]))", None),
    ("netsim", "the reward divides by e_active, not e_toa",
     "e_toa[0] / e.e_toa_mj", "e_toa[0] / e.e_active_mj", None),
    ("metrics", "wake_time from seconds, not whole µs",
     "(attempt * self.interval_us + self.offsets_us[device]) / 1e6",
     "attempt * (self.interval_us / 1e6) + self.offsets_us[device] / 1e6", None),
    ("metrics", "the attempt column spliced one field late",
     "RunRecord(seed, device, attempt, *fields,",
     "RunRecord(seed, device, *fields[:1], attempt, *fields[1:],", None),
    ("metrics", "a group counted once per row, not per record",
     "groups[device, acked, dbm, e_active] += c",
     "groups[device, acked, dbm, e_active] += 1", None),
    ("metrics", "each group's energy summed once, not as c copies",
     "math.fsum(chain.from_iterable(starmap(repeat, pairs)))",
     "math.fsum(e for e, _ in pairs)", None),
    ("metrics", "power shares over attempts, not successes",
     "c / successes for dbm", "c / attempts for dbm", None),
    ("metrics", "a device with zero active energy let through",
     "if energy <= 0:", "if energy < 0:", None),
    ("policies", "ADR-Lite's step on success rounds up, not down",
     "return prev_index // 2", "return math.ceil(prev_index / 2)", None),
    ("policies", "ADR-Lite's step on failure rounds down, not up",
     "return math.ceil((list_len - 1 + prev_index) / 2)",
     "return (list_len - 1 + prev_index) // 2", None),
    ("policies", "ADR-Lite ranks the channels of a power by frequency alone",
     "a.power.level_dbm, a.channel.receivable, a.channel.center_frequency_hz",
     "a.power.level_dbm, a.channel.center_frequency_hz", None),
    ("policies", "ADR-Lite ranks the heard channels of a power before the deaf ones",
     "a.channel.receivable, a.channel.center_frequency_hz",
     "not a.channel.receivable, a.channel.center_frequency_hz", None),
    ("policies", "UCB scores every arm (no pruning break)",
     "            if bound < best:\n                break\n",
     "            if bound < best:\n                pass\n", None),
    ("policies", "UCB's tied arms drawn in bound order, not index order",
     "            tied.sort()\n", "", None),
    ("policies", "an arm joins epsilon-greedy's tie set at its end",
     "insort(tied, arm_index)", "tied.append(arm_index)", None),
    ("policies", "UCB's forced arm starts one arm late",
     "self._forced = 0", "self._forced = 1", None),
    ("policies", "UCB's forced arm does not advance", "            self._forced = i\n", "", None),
    ("policies", "the learners' variance clamp compares the wrong way",
     "0.0 if v < 0.0 else v", "0.0 if v > 0.0 else v", None),
    ("policies", "the decision cache keyed without the phase",
     "@cache\ndef _phase_decisions(",
     "@lambda f: lambda n, p, built={}: built.setdefault(n, f(n, p))\ndef _phase_decisions(",
     None),
    ("sweep", "run_seed's chain takes the run index before N",
     "(_fnv1a64(policy.encode()), n_devices, run_index)",
     "(_fnv1a64(policy.encode()), run_index, n_devices)", None),
    ("sweep", "run_seed's chain mixes before the xor, not after",
     "h = _splitmix64(h ^ (v & _MASK64))", "h = _splitmix64(h) ^ (v & _MASK64)", None),
    ("sweep", "wake texts for wakes of 1-99 µs", "nonzero[0] < 100 or ", "", None),
    ("sweep", "wake texts for wakes of 10**15 µs and more",
     " or nonzero[-1] >= 10 ** 15", "", None),
    ("sweep", "wake fractions keep their trailing zeros",
     '"{a % 10 ** 6:06d}".rstrip("0")', '"{a % 10 ** 6:06d}"', None),
    ("sweep", "whole seconds without their .0", '.rstrip("0") or "0")', '.rstrip("0"))', None),
    ("sweep", "one wake fraction for every wake (period 1)",
     "period = 10 ** 6 // math.gcd(interval_us, 10 ** 6)", "period = 1", None),
    ("sweep", "the last partial block of lines dropped",
     "for _ in range(0, len(rows), _BLOCK_LINES):",
     "for _ in range(len(rows) // _BLOCK_LINES):", None),
    ("sweep", "a ticket block that runs one job short",
     "jobs[start:start + block]", "jobs[start:start + block - 1]", None),
    ("sweep", "ticket blocks one job too large",
     "block = -(-len(jobs) * 4 // select.PIPE_BUF)",
     "block = -(-len(jobs) * 4 // select.PIPE_BUF) + 1", None),
    ("sweep", "later children keep earlier children's error pipes open",
     "            os.close(w)  # now: a later child holding it would keep r from EOF\n"
     "            children.append((pid, r))\n"
     "        _take(jobs, tickets, block)\n",
     "            children.append((pid, r))\n"
     "            kept = [*locals().get(\"kept\", ()), w]\n"
     "        for w in kept:\n"
     "            os.close(w)\n"
     "        _take(jobs, tickets, block)\n", None),
    ("sweep", "a child's pickled error dropped",
     "            raise pickle.loads(data)", "            pickle.loads(data)", None),
    ("rng", "Lemire's 32-bit threshold test never rejects",
     "m & MASK32 >= (1 << 32) % span:", "m & MASK32 >= 0:", None),
    ("rng", "Lemire's 64-bit threshold test never rejects",
     "while m & MASK64 < threshold:", "while m & MASK64 < 0:", None),
    ("rng", "the buffered 32-bit half not cleared when used",
     "            else:\n                self.buffered = None\n",
     "            else:\n                pass\n", None),
    ("rng", "integers(n) takes its unchecked path at n = 1, with a draw",
     "high is None and 1 < low <= 1 << 32", "high is None and 0 < low <= 1 << 32", None),
    ("rng", "random() from 52 bits, not 53",
     ">> 11) * 2.0 ** -53", ">> 12) * 2.0 ** -52", None),
    ("rng", "the pool-mixing hash constants read one index off",
     "(src, dst, HASH_A[k], HASH_A[k + 1])", "(src, dst, HASH_A[k - 1], HASH_A[k])", None),
    ("rng", "the pool-mixing hash constants read one index late, past the table at import",
     "(src, dst, HASH_A[k], HASH_A[k + 1])", "(src, dst, HASH_A[k + 1], HASH_A[k + 2])", None),
    ("config", "t_attempts may be 0",
     '_check_int("t_attempts", self.t_attempts, 1)',
     '_check_int("t_attempts", self.t_attempts, 0)', None),
    ("config", "a payload_base one above 2**53 let through",
     '_check_int("payload_base", self.payload_base, 0, 2 ** 53)',
     '_check_int("payload_base", self.payload_base, 0, 2 ** 53 + 1)', None),
    ("config", "payload_spread may be 0",
     '_check_int("payload_spread", self.payload_spread, 1)',
     '_check_int("payload_spread", self.payload_spread, 0)', None),
    ("config", "a device count may be 0",
     '_check_int("device_counts entry", n, 1)', '_check_int("device_counts entry", n, 0)', None),
    ("config", "an epsilon below 0 let through",
     "if not 0.0 <= self.epsilon", "if not -5e-324 <= self.epsilon", None),
    ("config", "an epsilon above 1 let through",
     "self.epsilon <= 1.0:", "self.epsilon <= 1.0000000000000002:", None),
    ("config", "a negative carrier-sense time let through",
     "if self.cs_duration_s < 0:", "if self.cs_duration_s < -5e-324:", None),
    ("config", "a frequency that reads back from MHz as another let through",
     "if hz / 1e6 * 1e6 != hz:", "if False:", None),
    ("config", "the saved document without base_seed",
     "{name: getattr(self, name) for name in _DEFAULTS}",
     '{name: getattr(self, name) for name in _DEFAULTS if name != "base_seed"}', None),
    ("config", "a power without draw_mw draws the lowest default",
     "draw = DEFAULT_DRAW_MW[level]", "draw = min(DEFAULT_DRAW_MW.values())", None),
    ("params", "an integer one above its maximum let through",
     "if maximum is not None and value > maximum:",
     "if maximum is not None and value > maximum + 1:", None),
    ("params", "a NaN let through as a finite number",
     "or not abs(value) <= sys.float_info.max", "or abs(value) > sys.float_info.max", None),
    ("params", "a channel's receivable flag not checked as a bool",
     "if not isinstance(receivable, bool):", "if False:", None),
    ("params", "a power drawing 0 mW let through",
     '_check_number("draw_mw", draw_mw, positive=True)',
     '_check_number("draw_mw", draw_mw, positive=draw_mw != 0)', None),
    ("energy", "a spreading factor of 13 let through",
     '_check_int("radio.sf", sf, 6, 12)', '_check_int("radio.sf", sf, 6, 13)', None),
    ("energy", "a spreading factor of 5 let through",
     '_check_int("radio.sf", sf, 6, 12)', '_check_int("radio.sf", sf, 5, 12)', None),
    ("energy", "a preamble one above 2**53 symbols let through",
     '"radio.n_preamble", n_preamble, 0, 2 ** 53)',
     '"radio.n_preamble", n_preamble, 0, 2 ** 53 + 1)', None),
    ("energy", "energy constants of 0 and below let through",
     '_check_number(f"energy.{name}", value, positive=True)',
     '_check_number(f"energy.{name}", value, positive=False)', None),
    ("cli", "a config error exits with the runtime error's code",
     "EXIT_CONFIG = 2", "EXIT_CONFIG = 3", None),
    ("cli", "validate loads the sweep driver again (an eager import)",
     "from .params import ConfigError\n",
     "from .params import ConfigError\nfrom .sweep import RunManifest, emit_tables, run_sweep\n",
     None),
]


# Test modules that check a module through another one without importing it:
# test_cli's test_validate_implies_run checks the config, params and energy
# bounds through cli.main.
CHECKED_THROUGH = {"config": {"test_cli.py"}, "params": {"test_cli.py"},
                   "energy": {"test_cli.py"}}


def near_tests(tests: Path, module: str) -> list[Path]:
    """tests/test_<module>.py, if there is one, then every other test module
    that imports lorabandit.<module> or checks it (CHECKED_THROUGH)."""
    imports = re.compile(rf"^\s*(?:from lorabandit import .*\b{module}\b"
                         rf"|(?:from|import) .*\blorabandit\.{module}\b)", re.M)
    own, through = tests / f"test_{module}.py", CHECKED_THROUGH.get(module, set())
    return [path for path in sorted(tests.glob("test_*.py"), key=lambda p: (p != own, p.name))
            if path.name not in LEFT_OUT
            and (path == own or path.name in through
                 or imports.search(path.read_text(encoding="utf-8")))]


def fails(work: Path, paths: list, control: bool = False) -> str | None:
    """How the tests under paths kill the copy's mutant: "killed" if a test
    fails or the run hangs, "killed at import" if pytest stops at
    collection (exit status 2: the mutated package fails at import), None if
    every test passes. On the control run, which has no mutant, an exit
    status 2 means the run itself broke, as any status but 0, 1 and 2 always
    does: both raise RuntimeError."""
    with subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *(f"--ignore={work / 'tests' / name}" for name in LEFT_OUT),
         *map(str, paths)],
        cwd=work, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=os.environ | {"PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=MUTANT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "killed"
    if proc.returncode == 2 and not control:
        return "killed at import"
    if proc.returncode not in (0, 1):  # not a test failure: the run itself broke
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{stdout[-2000:]}"
                           f"{stderr[-2000:]}")
    return "killed" if proc.returncode == 1 else None


def run_mutant(module: str, snippet: str | None, replacement: str | None) -> tuple[str, str]:
    """(verdict, by which run): the verdict is fails()'s if the tests kill
    the mutant, "SURVIVED" if it survives the full run and "STALE" if the
    snippet is not found exactly once. A None snippet leaves the copy as it
    is: the control run, which the full suite must pass."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        # perfbench/spans.py too: tests/test_seams.py reads its traced names;
        # and the demos and README.md, which tests/test_demos.py runs.
        for tree in ("src", "tests", "perfbench", "demos"):
            shutil.copytree(ROOT / tree, work / tree,
                            ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
        shutil.copy(ROOT / "README.md", work)
        path = work / "src" / "lorabandit" / f"{module}.py"
        text = path.read_text(encoding="utf-8")
        if snippet is not None:
            if text.count(snippet) != 1:
                return "STALE", "no"
            path.write_text(text.replace(snippet, replacement), encoding="utf-8")
            near = near_tests(work / "tests", module)
            if near and (verdict := fails(work, near)):
                return verdict, "near"
        return fails(work, [work / "tests"], control=snippet is None) or "SURVIVED", "full"


def main() -> int:
    begin = time.perf_counter()
    if run_mutant("netsim", None, None)[0] != "SURVIVED":
        print("the tests fail on the unmutated copy, so every mutant would count as killed")
        return 3
    survivors, expected, stale = [], [], []
    for module, name, snippet, replacement, why in MUTANTS:
        start = time.perf_counter()
        verdict, by = run_mutant(module, snippet, replacement)
        note = f"; expected: {why}" if why and verdict == "SURVIVED" else ""
        print(f"{verdict:8} {module}: {name} ({by} run, {time.perf_counter() - start:.1f} s"
              f"{note})", flush=True)
        if verdict == "STALE":
            stale.append(name)
        elif verdict == "SURVIVED":
            (expected if why else survivors).append(name)
    print(f"{len(MUTANTS)} mutants: {len(survivors)} survived unexplained, "
          f"{len(expected)} survived as expected, {len(stale)} stale "
          f"({time.perf_counter() - begin:.0f} s)")
    return 2 if stale else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
