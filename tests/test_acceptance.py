"""Acceptance suite: one test per headline criterion.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s`, and
mirrored by the test verdicts under `pytest -v`).  Criteria 5-8 share one
full default sweep (4 policies x N in {10..30} x 5 runs) executed once per
session; criterion 8 runs the sweep a second time and compares bytes, and
the content pin holds that sweep's tables and records to fixed hashes.
"""

import filecmp
import functools
import hashlib
import json
import math
import os
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lorabandit.config import ExperimentConfig
from lorabandit.energy import RadioConfig, attempt_energy
from lorabandit.metrics import aggregate_runs, summarize_run
from lorabandit.netsim import device_rng, run_simulation
from lorabandit.policies import ArmState, Phase, UcbTunedPolicy
from lorabandit.sweep import read_records, run_seed, run_sweep
from reference_ucb import ucb_score, ucb_variance

POLICIES = ("proposed_ucb_tuned", "epsilon_greedy", "adr_lite", "fixed")
COUNTS = (10, 15, 20, 25, 30)
WORKERS = min(8, os.cpu_count() or 1)


def verdict(num: int, name: str, ok: bool, detail: str = "", explain=None) -> None:
    """Print the criterion's line, and on failure the text explain() returns."""
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {name}{suffix}")
    if not ok and explain is not None:
        print(explain())
    assert ok, f"criterion {num}: {name}{suffix}"


@pytest.fixture(scope="session")
def default_sweep(tmp_path_factory):
    """One full default sweep; shared by criteria 5, 6, 7 and 8."""
    out = tmp_path_factory.mktemp("sweep") / "run_a"
    cfg = ExperimentConfig()
    manifest = run_sweep(cfg, out, parallel=WORKERS)
    return cfg, manifest


@pytest.fixture(scope="session")
def sweep_pass(default_sweep):
    """One pass over the sweep's record logs, in manifest run order: (policy,
    n) -> the mean of that point's run summaries, and the sha256 of the parsed
    records, one sorted-key compact JSON line per record. Shared by criteria
    5, 6 and 7 and the content pin, so each run's records are parsed once."""
    _, manifest = default_sweep
    out = Path(manifest.out_dir)
    runs, digest = {}, hashlib.sha256()
    line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    for e in manifest.runs:
        records = read_records(out / e["records"])
        digest.update("".join(line(r._asdict()) + "\n" for r in records).encode())
        summary = summarize_run(records, config_key="pt")
        runs.setdefault((e["policy"], e["n_devices"]), []).append(summary)
    means = {point: aggregate_runs(summaries) for point, summaries in runs.items()}
    return means, digest.hexdigest()


@pytest.fixture(scope="session")
def point_means(sweep_pass):
    """(policy, n) -> the mean of that point's run summaries."""
    return sweep_pass[0]


@pytest.fixture(scope="session")
def breakdown(default_sweep):
    """breakdown_at_30 of the default sweep, worked out once, on first call."""
    return functools.cache(lambda: breakdown_at_30(default_sweep[1]))


def breakdown_at_30(manifest, first_phase: int = 25) -> str:
    """Per policy at N=30: the cause mix of the attempts before first_phase
    (UCB's forced pass over the 25 arms) and from it on, and how many
    device-runs end below 0.7 success."""
    out = Path(manifest.out_dir)
    lines = [f"N=30 breakdown (attempts < {first_phase} | attempts >= {first_phase}):"]
    for p in POLICIES:
        mix = (Counter(), Counter())
        stuck = devices = 0
        for e in manifest.runs:
            if e["policy"] != p or e["n_devices"] != 30:
                continue
            tries, wins = Counter(), Counter()
            for r in read_records(out / e["records"]):
                mix[r.attempt >= first_phase][r.cause] += 1
                tries[r.device] += 1
                wins[r.device] += r.acked
            devices += len(tries)
            stuck += sum(wins[d] / n < 0.7 for d, n in tries.items())
        early, late = (", ".join(f"{c} {k}" for c, k in sorted(m.items())) for m in mix)
        lines.append(f"  {p}: {early} | {late}; "
                     f"{stuck} of {devices} device-runs below 0.7 success")
    return "\n".join(lines)


# --- criterion 1 -------------------------------------------------------------

def test_criterion_1_airtime_oracle():
    cfg = RadioConfig(sf=7, bw_hz=125_000.0, n_preamble=8)
    t_symbol = (2 ** 7) / 125_000.0
    expected = t_symbol * (4.25 + 8 + 36)  # 49.408 ms by hand
    from lorabandit.energy import time_on_air

    _, _, t_toa = time_on_air(cfg, 36)
    ok = math.isclose(t_toa, expected, rel_tol=1e-12) and math.isclose(
        t_toa, 49.408e-3, rel_tol=1e-12
    )
    verdict(1, "airtime oracle t_toa = 49.408 ms", ok, f"t_toa={t_toa}")


# --- criterion 2 -------------------------------------------------------------

def _oracle_variance(sigma_sq, s, m):
    return sigma_sq + math.sqrt(2.0 * math.log(m) / s)


def _oracle_score(c, s, m, sigma_sq):
    v = _oracle_variance(sigma_sq, s, m)
    capped = v if v < 0.25 else 0.25
    return c / s + math.sqrt(math.log(m) / s * capped)


def test_criterion_2_ucb_oracle():
    rng = random.Random(20240901)
    worst = 0.0
    for _ in range(1000):
        s = rng.randint(1, 200)
        m = rng.randint(s, 10_000)
        mean = rng.uniform(0.0, 1.0)
        sigma_sq = rng.uniform(0.0, 0.25)
        c = mean * s
        sq_sum = s * (sigma_sq + mean * mean)
        arm = ArmState(pulls=s, reward_sum=c, reward_sq_sum=sq_sum)
        for got, want in (
            (ucb_variance(arm, m), _oracle_variance(arm.variance, s, m)),
            (ucb_score(arm, m), _oracle_score(c, s, m, arm.variance)),
        ):
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, rel)
    verdict(2, "UCB scores match independent evaluator to 1e-12",
            worst <= 1e-12, f"worst rel err {worst:.3e}")


# --- criterion 3 -------------------------------------------------------------

def test_criterion_3_selection_conformance():
    cfg = ExperimentConfig()
    seed = run_seed(cfg.base_seed, "proposed_ucb_tuned", 30, 0)
    records = run_simulation(cfg.run_setup("proposed_ucb_tuned", 30), seed)
    n_arms = 25
    failures = 0
    for dev in range(30):
        dev_records = sorted(
            (r for r in records if r.device == dev), key=lambda r: r.attempt
        )
        replay = UcbTunedPolicy(n_arms, device_rng(seed, dev, stream=0))
        init_arms = []
        for t, r in enumerate(dev_records):
            decision = replay.select()
            if t < n_arms:
                if decision.phase is not Phase.INITIALIZATION:
                    failures += 1
                init_arms.append(decision.arm_index)
            else:
                # Audit: the logged arm must be score-maximal under stats
                # accumulated independently from the log itself.
                scores = [ucb_score(a, replay.total_plays) for a in replay.arms]
                if scores[r.arm_index] != max(scores):
                    failures += 1
            if decision.arm_index != r.arm_index:
                failures += 1
            replay.observe(r.arm_index, r.acked, r.reward)
        if sorted(init_arms) != list(range(n_arms)):
            failures += 1
    verdict(3, "every decision replays from the log (init pass + argmax + ties)",
            failures == 0, f"{failures} mismatches over 6000 decisions")


# --- criterion 4 -------------------------------------------------------------

def test_criterion_4_stationary_convergence():
    best_arm = 7
    fractions = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        policy = UcbTunedPolicy(25, np.random.default_rng(seed))
        hits = 0
        for t in range(2000):
            d = policy.select()
            p = 0.9 if d.arm_index == best_arm else 0.3
            acked = rng.random() < p
            policy.observe(d.arm_index, acked, 1.0 if acked else 0.0)
            if 500 <= t < 2000 and d.arm_index == best_arm:
                hits += 1
        fractions.append(hits / 1500)
    mean_fraction = sum(fractions) / len(fractions)
    verdict(4, "best-arm fraction > 0.85 over plays 500-2000 (20 seeds)",
            mean_fraction > 0.85, f"mean fraction {mean_fraction:.4f}")


# --- criteria 5-7: trend reproduction over the default sweep ------------------

def test_criterion_5_success_rate_trends(point_means, breakdown):
    rates = {
        (p, n): point_means[p, n].success_rate
        for p in POLICIES for n in COUNTS
    }
    problems = []
    for p in POLICIES:
        series = [rates[(p, n)] for n in COUNTS]
        violations = [
            b - a for a, b in zip(series, series[1:]) if b > a
        ]
        if len(violations) > 1 or any(v > 0.02 for v in violations):
            problems.append(
                f"{p} not non-increasing: {[round(x, 4) for x in series]}"
            )
    at30 = {p: rates[(p, 30)] for p in POLICIES}
    if not (at30["proposed_ucb_tuned"] >= at30["epsilon_greedy"] >= max(
            at30["adr_lite"], at30["fixed"])):
        problems.append(
            "N=30 ordering proposed >= eps >= max(adr, fixed) violated: "
            + ", ".join(f"{p}={v:.4f}" for p, v in at30.items())
        )
    verdict(5, "success rate non-increasing in N and ordered at N=30",
            not problems, "; ".join(problems), breakdown)


def test_criterion_6_energy_efficiency_ranking(point_means, breakdown):
    problems = []
    for n in COUNTS:
        ee = {p: point_means[p, n].energy_efficiency for p in POLICIES}
        best = max(ee, key=ee.get)
        if best != "proposed_ucb_tuned":
            problems.append(f"N={n}: best EE is {best} ({ee[best]:.6f}), "
                            f"proposed {ee['proposed_ucb_tuned']:.6f}")
        if best == "adr_lite":
            problems.append(f"N={n}: ADR-Lite ranks highest")
    verdict(6, "proposed has highest EE at every N (and ADR-Lite never does)",
            not problems, "; ".join(problems), breakdown)


def test_criterion_7_min_power_share(point_means):
    share = {
        p: point_means[p, 30].tp_ratio.get(-3, 0.0)
        for p in ("proposed_ucb_tuned", "epsilon_greedy", "adr_lite")
    }
    ok = (share["proposed_ucb_tuned"] > share["epsilon_greedy"]
          and share["adr_lite"] < share["proposed_ucb_tuned"]
          and share["adr_lite"] < share["epsilon_greedy"])
    verdict(7, "-3 dBm success share at N=30: proposed > eps, ADR-Lite lowest",
            ok, ", ".join(f"{p}={v:.4f}" for p, v in share.items()))


# --- criterion 8 -------------------------------------------------------------

def test_criterion_8_sweep_determinism(default_sweep, tmp_path_factory):
    cfg, manifest_a = default_sweep
    out_b = tmp_path_factory.mktemp("sweep_repeat") / "run_b"
    manifest_b = run_sweep(ExperimentConfig(), out_b, parallel=WORKERS)

    mismatched = []
    assert manifest_a.config_hash == manifest_b.config_hash
    for sub in ("records", "tables"):
        dir_a = Path(manifest_a.out_dir) / sub
        dir_b = Path(manifest_b.out_dir) / sub
        names_a = sorted(p.name for p in dir_a.iterdir())
        names_b = sorted(p.name for p in dir_b.iterdir())
        if names_a != names_b:
            mismatched.append(f"{sub}: different file sets")
            continue
        _, diff, errors = filecmp.cmpfiles(dir_a, dir_b, names_a, shallow=False)
        mismatched.extend(f"{sub}/{name}" for name in diff + errors)
    verdict(8, "repeated sweep is byte-identical (record logs and tables)",
            not mismatched, f"{len(mismatched)} files differ")


# --- the stock sweep's content ----------------------------------------------

#: sha256 of each table and of the records of the stock sweep (see sweep_pass).
STOCK_TABLES_SHA256 = {
    "energy_efficiency.csv": "9dddc745b7cc7fc94a4337fd8903bf06cfe01ad53409b330c091e4e8c68ddf6b",
    "energy_efficiency_wide.csv": "4c1b960ce7a6c25d98c5df3bba8354d894214640d084188a12aa99d0dac26eaa",
    "success_rate.csv": "c6851c9c84cbd02b9c352dd9b27a42486729cdafa97c9fc864528159b48887ea",
    "success_rate_wide.csv": "f1405fb440ee51dd478bc76e7508d60a24bc039c75d15ecc70f6b0434a583fd9",
    "tp_ratio.csv": "40583ef3ad3b169a7a9a59afb297c7a5916077b3280e70d7bd4b5a8b62053654",
    "tp_ratio_wide.csv": "e00973d928d48e8310e3ee29ab4b8e6991b165609ac05f4916a9ae135f37a2f8",
}
STOCK_RECORDS_SHA256 = "8c8f02cda525d98e859a381929dca4182e446a4606d92ef07bde1ef1a5f173ec"


def test_stock_sweep_content_pinned(default_sweep, sweep_pass):
    # The records are pinned as parsed, not as written, so the pin holds
    # across a change of the record files' format.
    tables = Path(default_sweep[1].out_dir) / "tables"
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tables.iterdir()} == STOCK_TABLES_SHA256
    assert sweep_pass[1] == STOCK_RECORDS_SHA256


# --- criterion 9 -------------------------------------------------------------

def test_criterion_9_degenerate_exactness():
    cfg = ExperimentConfig()
    records = run_simulation(cfg.run_setup("fixed", 1), seed=cfg.base_seed)
    s = summarize_run(records, config_key="degenerate")
    e = attempt_energy(
        RadioConfig(), 36, cfg.energy,
        next(p for p in cfg.powers if p.level_dbm == -3),
    )
    ok = (
        len(records) == 200
        and all(r.acked for r in records)
        and s.success_rate == 1.0
        and all(r.e_active == e.e_active_mj for r in records)
        and s.energy_efficiency == 1.0 / e.e_active_mj
        and s.energy_efficiency_network == 200 / math.fsum(
            r.e_active for r in records
        )
    )
    verdict(9, "N=1 fixed: success rate 1.0 and EE = 1/E_Active exactly",
            ok, f"EE={s.energy_efficiency!r}, 1/E_Active={1.0 / e.e_active_mj!r}")
