"""Airtime, per-attempt energy, and the ACK reward basis."""

import math

import pytest
from hypothesis import example, given, strategies as st

from lorabandit.config import ExperimentConfig
from lorabandit.energy import (
    EnergyModel,
    RadioConfig,
    attempt_energy,
    reward_basis,
    symbol_time,
    time_on_air,
)
from lorabandit.netsim import cost_rows
from lorabandit.params import ConfigError, TxPower

REL = 1e-12


def test_symbol_time_sf7_bw125():
    assert symbol_time(RadioConfig(sf=7, bw_hz=125_000)) == pytest.approx(
        1.024e-3, rel=REL
    )


def test_symbol_time_halves_with_double_bandwidth():
    assert symbol_time(RadioConfig(sf=7, bw_hz=250_000)) == pytest.approx(
        0.512e-3, rel=REL
    )


def test_symbol_time_degenerate():
    assert symbol_time(RadioConfig(sf=6, bw_hz=64.0)) == 1.0


def test_time_on_air_default_payload():
    t_pre, t_pay, t_toa = time_on_air(RadioConfig(sf=7, bw_hz=125_000, n_preamble=8), 36)
    assert t_pre == pytest.approx(12.544e-3, rel=REL)
    assert t_pay == pytest.approx(36.864e-3, rel=REL)
    assert t_toa == pytest.approx(49.408e-3, rel=REL)


def test_time_on_air_zero_payload():
    t_pre, t_pay, t_toa = time_on_air(RadioConfig(), 0)
    assert t_pay == 0.0
    assert t_toa == t_pre


def test_time_on_air_max_payload():
    _, t_pay, t_toa = time_on_air(RadioConfig(), 44)
    assert t_pay == pytest.approx(45.056e-3, rel=REL)
    assert t_toa == pytest.approx(57.600e-3, rel=REL)


def test_attempt_energy_known_values():
    e = attempt_energy(RadioConfig(), 36, EnergyModel(), TxPower(13, 100.0))
    # (29.7 + 100) mW * 49.408 ms
    assert e.e_toa_mj == pytest.approx(129.7 * 0.049408, rel=REL)
    assert e.e_toa_mj == pytest.approx(6.408, rel=1e-4)
    assert e.e_active_mj == pytest.approx(56.1 + 85.8 + 66.0 + e.e_toa_mj, rel=REL)
    assert e.e_active_mj == pytest.approx(214.308, rel=1e-5)


def test_attempt_energy_depends_on_power_only_through_draw():
    e1 = attempt_energy(RadioConfig(), 36, EnergyModel(), TxPower(1, 50.0))
    e9 = attempt_energy(RadioConfig(), 36, EnergyModel(), TxPower(9, 50.0))
    assert e1.e_toa_mj == e9.e_toa_mj


def test_reward_normalized():
    e = attempt_energy(RadioConfig(), 36, EnergyModel(), TxPower(-3, 15.0))
    assert reward_basis(e, "normalized", e.e_toa_mj) == 1.0
    assert reward_basis(e, "normalized", e.e_toa_mj / 2) == 0.5


def test_reward_raw():
    e = attempt_energy(RadioConfig(), 36, EnergyModel(), TxPower(13, 100.0))
    assert reward_basis(e, "raw") == pytest.approx(1.0 / 6.408, rel=1e-4)
    assert reward_basis(e, "raw") == 1.0 / e.e_toa_mj


def test_reward_unknown_mode():
    e = attempt_energy(RadioConfig(), 36, EnergyModel(), TxPower(-3, 15.0))
    with pytest.raises(ConfigError):
        reward_basis(e, "bogus")


def test_min_toa_energy_matches_cheapest_level():
    # A run's normalized rewards divide the e_toa at the cheapest power.
    powers = [TxPower(13, 100.0), TxPower(-3, 15.0), TxPower(1, 30.0)]
    cfg = ExperimentConfig(powers=powers, payload_spread=1)
    e_min = attempt_energy(cfg.radio, cfg.payload_base, cfg.energy, TxPower(-3, 15.0)).e_toa_mj
    (rows,) = cost_rows(cfg, 1).values()
    assert [reward for *_, reward in rows] == [
        e_min / attempt_energy(cfg.radio, cfg.payload_base, cfg.energy, p).e_toa_mj
        for p in sorted(powers, key=lambda p: p.level_dbm)
    ]
    assert rows[0][1] == e_min and rows[0][3] == 1.0


def test_invalid_radio_config():
    with pytest.raises(ConfigError):
        RadioConfig(bw_hz=0)
    with pytest.raises(ConfigError):
        RadioConfig(n_preamble=-1)
    with pytest.raises(ConfigError):
        time_on_air(RadioConfig(), -1)


def test_energy_model_validation():
    # Every field must be above 0, down to the smallest float.
    for name in ("e_wu_mj", "e_proc_mj", "e_r_mj", "p_mcu_mw"):
        for value in (0, -0.0, -1e-300):
            with pytest.raises(ConfigError, match=name):
                EnergyModel(**{name: value})
        assert getattr(EnergyModel(**{name: 5e-324}), name) == 5e-324


@given(
    sf=st.integers(min_value=6, max_value=12),
    bw=st.sampled_from([125_000.0, 250_000.0, 500_000.0]),
    n_pre=st.integers(min_value=0, max_value=16),
    n_pay=st.integers(min_value=0, max_value=64),
)
def test_airtime_additivity(sf, bw, n_pre, n_pay):
    cfg = RadioConfig(sf=sf, bw_hz=bw, n_preamble=n_pre)
    _, _, t_toa = time_on_air(cfg, n_pay)
    expected = symbol_time(cfg) * (4.25 + n_pre + n_pay)
    assert t_toa == pytest.approx(expected, rel=REL)


@given(
    draws=st.lists(
        st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
        min_size=2,
        max_size=6,
        unique=True,
    )
)
@example(draws=[1.0, 1.0000000000000002])
def test_e_toa_monotone_in_draw(draws):
    # Validation is what guarantees the ordering: a table whose draws are
    # too close for p_mcu + draw to stay distinct must be refused.
    powers = [TxPower(i, d) for i, d in enumerate(sorted(draws))]
    try:
        cfg = ExperimentConfig(powers=powers)
    except ConfigError as exc:
        assert "e_toa must be strictly increasing" in str(exc)
        return
    for n_payload in range(cfg.payload_base, cfg.payload_base + cfg.payload_spread):
        energies = [attempt_energy(cfg.radio, n_payload, cfg.energy, p).e_toa_mj
                    for p in powers]
        assert all(b > a for a, b in zip(energies, energies[1:]))


@given(mode=st.sampled_from(["normalized", "raw"]))
def test_reward_strictly_decreasing_in_power(mode):
    cfg = RadioConfig()
    table = {-3: 15.0, 1: 30.0, 5: 70.0, 9: 165.0, 13: 400.0}
    m = EnergyModel()
    powers = [TxPower(lvl, mw) for lvl, mw in sorted(table.items())]
    e_min = min(attempt_energy(cfg, 36, m, p).e_toa_mj for p in powers)
    rewards = [
        reward_basis(attempt_energy(cfg, 36, m, p), mode, e_min) for p in powers
    ]
    assert all(b < a for a, b in zip(rewards, rewards[1:]))
    if mode == "normalized":
        assert rewards[0] == 1.0
        assert all(0 < r <= 1 for r in rewards)


def test_all_quantities_positive():
    e = attempt_energy(RadioConfig(), 36, EnergyModel(), TxPower(-3, 15.0))
    t_preamble, t_payload, t_toa = time_on_air(RadioConfig(), 36)
    assert t_preamble > 0 and t_payload > 0
    assert e.t_toa > 0 and e.e_toa_mj > 0 and e.e_active_mj > 0
    assert e.e_active_mj >= e.e_toa_mj
    assert e.t_toa == t_toa == t_preamble + t_payload
