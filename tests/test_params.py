"""Arm-space construction and channel/power domain types."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from lorabandit.energy import EnergyModel, RadioConfig
from lorabandit.params import (
    DEFAULT_CHANNEL_MHZ,
    DEFAULT_RECEIVABLE_MHZ,
    Channel,
    ConfigError,
    ParamCombo,
    TxPower,
    build_arm_space,
    default_channels,
    default_powers,
)


def make_channels(freqs_mhz, receivable=()):
    return [Channel(f * 1e6, f in receivable) for f in freqs_mhz]


def make_powers(levels):
    return [TxPower(lvl, 10.0 + i) for i, lvl in enumerate(sorted(levels))]


def test_default_plan_shape():
    channels = default_channels()
    assert [c.mhz for c in channels] == list(DEFAULT_CHANNEL_MHZ)
    assert sum(c.receivable for c in channels) == 3
    assert {c.mhz for c in channels if c.receivable} == set(DEFAULT_RECEIVABLE_MHZ)


def test_default_powers_strictly_increasing_draw():
    powers = default_powers()
    assert [p.level_dbm for p in powers] == [-3, 1, 5, 9, 13]
    draws = [p.draw_mw for p in powers]
    assert all(b > a for a, b in zip(draws, draws[1:]))


def test_nonpositive_draw_rejected():
    with pytest.raises(ConfigError):
        TxPower(5, 0.0)
    with pytest.raises(ConfigError):
        TxPower(5, -1.0)


def test_full_default_product_is_25():
    arms = build_arm_space(default_channels(), default_powers())
    assert len(arms) == 25
    assert [a.arm_index for a in arms] == list(range(25))


def test_singleton_product():
    arms = build_arm_space(make_channels([921.0]), make_powers([5]))
    assert len(arms) == 1
    assert arms[0].arm_index == 0


def test_two_by_three_order():
    # Channel-major, powers ascending: combo 3 is (second channel, lowest power).
    arms = build_arm_space(make_channels([921.0, 921.4]), make_powers([1, 5, 9]))
    assert len(arms) == 6
    assert [a.arm_index for a in arms] == [0, 1, 2, 3, 4, 5]
    assert arms[3].channel.mhz == 921.4
    assert arms[3].power.level_dbm == 1


def test_duplicate_frequency_rejected():
    with pytest.raises(ConfigError, match="duplicate channel frequency 921.0 MHz"):
        build_arm_space(make_channels([921.0, 921.0]), make_powers([5]))


def test_duplicate_power_rejected():
    powers = [TxPower(5, 10.0), TxPower(5, 20.0)]
    with pytest.raises(ConfigError, match="duplicate power level 5 dBm"):
        build_arm_space(make_channels([921.0]), powers)


def test_empty_inputs_rejected():
    with pytest.raises(ConfigError):
        build_arm_space([], make_powers([5]))
    with pytest.raises(ConfigError):
        build_arm_space(make_channels([921.0]), [])


@given(
    n_ch=st.integers(min_value=1, max_value=8),
    n_pw=st.integers(min_value=1, max_value=8),
)
def test_arm_space_size_is_product(n_ch, n_pw):
    channels = make_channels([900.0 + 0.2 * i for i in range(n_ch)])
    powers = make_powers(list(range(n_pw)))
    assert len(build_arm_space(channels, powers)) == n_ch * n_pw


@given(
    n_ch=st.integers(min_value=1, max_value=6),
    n_pw=st.integers(min_value=1, max_value=6),
)
def test_arm_index_round_trip(n_ch, n_pw):
    channels = make_channels([900.0 + 0.2 * i for i in range(n_ch)])
    powers = make_powers(list(range(n_pw)))
    arms = build_arm_space(channels, powers)
    for a in arms:
        back = arms[a.arm_index]
        assert (back.channel.center_frequency_hz, back.power.level_dbm) == (
            a.channel.center_frequency_hz, a.power.level_dbm
        )


VALUES = {
    "channel": lambda: Channel(921e6, True),
    "power": lambda: TxPower(5, 70.0),
    "radio": lambda: RadioConfig(sf=9),
    "energy": lambda: EnergyModel(e_r_mj=60.0),
    "arm": lambda: ParamCombo(Channel(921e6, True), TxPower(5, 70.0), 3),
}


@pytest.mark.parametrize("build", VALUES.values(), ids=VALUES.keys())
def test_values_are_frozen_and_equal_by_their_fields(build):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert pickle.loads(pickle.dumps(a)) == copy.deepcopy(a) == a
    fields = a._fields if isinstance(a, tuple) else type(a).__slots__
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and not hasattr(a, "__dict__")


def test_values_differ_by_any_field():
    assert Channel(921e6, True) != Channel(921e6, False)
    assert Channel(921e6, True) != Channel(921.2e6, True)
    assert TxPower(5, 70.0) != TxPower(5, 70.5)
    assert RadioConfig() != RadioConfig(n_preamble=9)
    assert EnergyModel() != EnergyModel(p_mcu_mw=30.0)


def test_a_channel_equals_only_a_channel():
    channel = Channel(921e6, True)
    for other in (TxPower(5, 70.0), (921e6, True), [921e6, True], RadioConfig()):
        assert channel != other and other != channel
    assert EnergyModel() != tuple(EnergyModel.__slots__)


def test_values_print_their_fields():
    assert repr(Channel(921e6, True)) == "Channel(center_frequency_hz=921000000.0, receivable=True)"
    assert repr(TxPower(5, 70)) == "TxPower(level_dbm=5, draw_mw=70.0)"
    assert repr(RadioConfig()) == "RadioConfig(sf=7, bw_hz=125000.0, n_preamble=8)"
