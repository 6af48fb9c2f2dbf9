"""Metric computation from record logs and multi-run aggregation."""

import math

import pytest

from lorabandit.metrics import Cause, MetricsSummary, RunRecord, aggregate_runs, summarize_run


def record(device=0, attempt=0, arm=0, power=-3, acked=True, e_active=200.0,
           channel=921.0e6):
    return RunRecord(
        run_seed=1, device=device, attempt=attempt, arm_index=arm,
        channel_hz=channel, power_dbm=power,
        cause=Cause.SUCCESS if acked else Cause.COLLISION,
        acked=acked, reward=0.5 if acked else 0.0,
        e_toa=2.0, e_active=e_active, wake_time=attempt * 10.0,
    )


def log(n, acked_count, **kw):
    return [
        record(attempt=i, acked=i < acked_count, **kw) for i in range(n)
    ]


def success_rate(records):
    return summarize_run(records).success_rate


def energy_efficiency(records):
    """Successes per millijoule of active energy, over the whole log."""
    return summarize_run(records).energy_efficiency_network


def tp_selection_ratio(records):
    return summarize_run(records).tp_ratio


# --- success rate ---------------------------------------------------------

def test_success_rate_global():
    assert success_rate(log(200, 150)) == 0.75


def test_success_rate_zero_when_never_acked():
    records = log(50, 0, channel=920.6e6)
    assert success_rate(records) == 0.0


def test_success_rate_empty_is_none():
    assert success_rate([]) is None


# --- energy efficiency -------------------------------------------------------

def test_ee_constructed_log():
    records = log(200, 150)  # every attempt costs 200 mJ -> 40,000 mJ total
    assert energy_efficiency(records) == pytest.approx(150 / 40_000, rel=1e-12)


def test_ee_zero_successes():
    assert energy_efficiency(log(10, 0)) == 0.0


def test_ee_scale_linearity():
    base = log(20, 10, e_active=100.0)
    halved = log(20, 10, e_active=50.0)
    assert energy_efficiency(halved) == pytest.approx(
        2 * energy_efficiency(base), rel=1e-12
    )


def test_ee_empty_is_none():
    assert energy_efficiency([]) is None
    assert summarize_run([]).energy_efficiency is None


def test_ee_monotone_in_energy():
    cheap = log(10, 5, e_active=100.0)
    costly = log(10, 5, e_active=100.0)
    costly[3] = record(attempt=3, acked=True, e_active=150.0)
    assert energy_efficiency(costly) < energy_efficiency(cheap)
    assert summarize_run(costly).energy_efficiency < summarize_run(cheap).energy_efficiency


# --- TP selection ratio ---------------------------------------------------------

def test_tp_ratio_single_level():
    assert tp_selection_ratio(log(10, 10, power=-3)) == {-3: 1.0}


def test_tp_ratio_two_levels():
    records = log(60, 60, power=-3) + log(40, 40, power=13)
    got = tp_selection_ratio(records)
    assert got == pytest.approx({-3: 0.6, 13: 0.4})


def test_tp_ratio_counts_successes_only():
    records = log(10, 4, power=-3) + log(10, 0, power=13)
    assert tp_selection_ratio(records) == {-3: 1.0}


def test_tp_ratio_empty_when_no_success():
    assert tp_selection_ratio(log(10, 0)) == {}


# --- run summaries ----------------------------------------------------------------

def test_summary_counts_and_normalization():
    records = log(100, 80, device=0) + log(100, 40, device=1)
    s = summarize_run(records, config_key="k")
    assert (s.attempts, s.successes) == (200, 120)
    assert s.success_rate == 0.6
    assert sum(s.tp_ratio.values()) == pytest.approx(1.0, abs=1e-9)


def test_summary_device_mean_vs_network_ee():
    # Device 0: 1.0 success rate at 100 mJ; device 1: 0.0 at 300 mJ.
    records = log(10, 10, device=0, e_active=100.0) + log(
        10, 0, device=1, e_active=300.0
    )
    s = summarize_run(records)
    assert s.energy_efficiency == pytest.approx((1 / 100 + 0.0) / 2, rel=1e-12)
    assert s.energy_efficiency_network == pytest.approx(10 / 4000, rel=1e-12)


def test_summary_constant_energy_is_exact_ratio():
    records = log(200, 200, e_active=214.308)
    s = summarize_run(records)
    assert s.energy_efficiency == pytest.approx(1.0 / 214.308, rel=1e-15)


@pytest.mark.parametrize("records,message", [
    # Device 0 spent nothing; device 1 (on the same arm) did.
    ([record(device=0, e_active=0.0), record(device=1, e_active=5.0)], "device 0"),
    ([record(device=0, e_active=-1.0), record(device=1, e_active=5.0)], "device 0"),
])
def test_summary_refuses_no_active_energy(records, message):
    with pytest.raises(ValueError, match=f"active energy of {message} must be positive"):
        summarize_run(records)


# --- aggregation -------------------------------------------------------------------

def summary(rate, key="k", tp=None):
    return MetricsSummary(
        config_key=key, n_runs=1, attempts=100, successes=int(rate * 100),
        success_rate=rate, energy_efficiency=rate / 200.0,
        energy_efficiency_network=rate / 200.0,
        tp_ratio=tp if tp is not None else {-3: 1.0},
    )


def test_aggregate_five_run_mean():
    rates = [0.8, 0.7, 0.75, 0.8, 0.7]
    agg = aggregate_runs([summary(r) for r in rates])
    assert agg.success_rate == pytest.approx(0.75, rel=1e-12)
    assert agg.n_runs == 5


def test_aggregate_single_run_identity():
    s = summary(0.62)
    agg = aggregate_runs([s])
    assert agg.success_rate == s.success_rate
    assert agg.energy_efficiency == s.energy_efficiency
    assert agg.tp_ratio == s.tp_ratio


def test_aggregate_tp_pointwise_with_missing_keys():
    a = summary(0.5, tp={-3: 1.0})
    b = summary(0.5, tp={13: 1.0})
    agg = aggregate_runs([a, b])
    assert agg.tp_ratio == pytest.approx({-3: 0.5, 13: 0.5})


def test_aggregate_refuses_mixed_configs():
    with pytest.raises(ValueError):
        aggregate_runs([summary(0.5, key="a"), summary(0.5, key="b")])


def test_aggregate_requires_input():
    with pytest.raises(ValueError):
        aggregate_runs([])


def test_summary_round_trips_through_dict():
    s = summarize_run(log(40, 25) + log(40, 10, device=1, power=13, arm=4), "cfg")
    back = MetricsSummary.from_dict(s.to_dict())
    assert back == s
