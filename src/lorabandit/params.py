"""Channel / transmission-power domain types and the bandit arm space."""

from __future__ import annotations

import sys
from typing import NamedTuple


class ConfigError(ValueError):
    """Raised for invalid or inconsistent configuration."""


def _check_int(name: str, value, minimum: int | None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name} must be at most {maximum}, got {value}")
    return value


def _check_number(name: str, value, positive: bool = False) -> float:
    """value as a float, refused unless it is a finite int or float (and,
    if positive, above 0). An int is compared exactly, never converted
    before it is known to fit."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return float(value)


class _Value:
    """Base of the checked value types: its __slots__ are its fields, set
    once by its __init__. An instance refuses to assign or delete a field,
    equals and hashes as another of its type with equal fields (never a
    tuple), prints as Type(field=value, ...), and is pickled and copied by
    calling its type with its fields."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Channel(_Value):
    """One selectable uplink frequency.

    ``receivable`` is True only for the frequencies the gateway actually
    listens on; transmitting on any other channel can never be ACKed.
    """

    __slots__ = ("center_frequency_hz", "receivable")

    def __init__(self, center_frequency_hz: float, receivable: bool):
        hz = _check_number("channel frequency in Hz", center_frequency_hz)
        if not isinstance(receivable, bool):
            raise ConfigError(f"receivable must be true or false, got {receivable!r}")
        self._set(hz, receivable)

    @property
    def mhz(self) -> float:
        return self.center_frequency_hz / 1e6


class TxPower(_Value):
    """One transmission power level and the radio draw it induces."""

    __slots__ = ("level_dbm", "draw_mw")

    def __init__(self, level_dbm: int, draw_mw: float):
        _check_int("level_dbm", level_dbm, None)
        self._set(level_dbm, _check_number("draw_mw", draw_mw, positive=True))


class ParamCombo(NamedTuple):
    """A single bandit arm: a (channel, power) pair with its ordinal index."""

    channel: Channel
    power: TxPower
    arm_index: int


# Default experiment setup: five selectable channels, the gateway listening
# on the middle three, and five power levels.
DEFAULT_CHANNEL_MHZ = (920.6, 921.0, 921.4, 921.8, 922.2)
DEFAULT_RECEIVABLE_MHZ = (921.0, 921.4, 921.8)

# The five power levels, dBm -> transmit-draw mW.  A placeholder table shaped
# like a low-efficiency PA (draw tracking radiated power, which grows ~2.5x
# per 4 dBm); it is configuration, not measurement, and can be overridden
# per run.  The steep spread lets a learner separate power levels
# within a couple hundred attempts.
DEFAULT_DRAW_MW = {-3: 15.0, 1: 30.0, 5: 70.0, 9: 165.0, 13: 400.0}


def default_channels() -> list[Channel]:
    return [
        Channel(mhz * 1e6, receivable=mhz in DEFAULT_RECEIVABLE_MHZ)
        for mhz in DEFAULT_CHANNEL_MHZ
    ]


def default_powers() -> list[TxPower]:
    return [TxPower(dbm, mw) for dbm, mw in DEFAULT_DRAW_MW.items()]


def build_arm_space(channels: list[Channel], powers: list[TxPower]) -> list[ParamCombo]:
    """Enumerate the full Cartesian product of channels and powers.

    Order is channel-major (channels in the given order) with powers
    ascending by dBm inside each channel; ``arm_index`` follows that order.
    """
    if not channels:
        raise ConfigError("at least one channel required")
    if not powers:
        raise ConfigError("at least one power level required")

    freqs = [c.center_frequency_hz for c in channels]
    for hz in freqs:
        if freqs.count(hz) > 1:
            raise ConfigError(f"duplicate channel frequency {hz / 1e6} MHz")
    levels = [p.level_dbm for p in powers]
    for level in levels:
        if levels.count(level) > 1:
            raise ConfigError(f"duplicate power level {level} dBm")

    ordered_powers = sorted(powers, key=lambda p: p.level_dbm)
    combos = []
    for ch in channels:
        for pw in ordered_powers:
            combos.append(ParamCombo(ch, pw, len(combos)))
    return combos

