"""Channel / transmission-power domain types and the bandit arm space."""

from __future__ import annotations

import sys
from dataclasses import dataclass


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


@dataclass(frozen=True)
class Channel:
    """One selectable uplink frequency.

    ``receivable`` is True only for the frequencies the gateway actually
    listens on; transmitting on any other channel can never be ACKed.
    """

    center_frequency_hz: float
    receivable: bool

    def __post_init__(self):
        object.__setattr__(self, "center_frequency_hz", _check_number(
            "channel frequency in Hz", self.center_frequency_hz))
        if not isinstance(self.receivable, bool):
            raise ConfigError(f"receivable must be true or false, got {self.receivable!r}")

    @property
    def mhz(self) -> float:
        return self.center_frequency_hz / 1e6


@dataclass(frozen=True)
class TxPower:
    """One transmission power level and the radio draw it induces."""

    level_dbm: int
    draw_mw: float

    def __post_init__(self):
        _check_int("level_dbm", self.level_dbm, None)
        object.__setattr__(self, "draw_mw", _check_number("draw_mw", self.draw_mw, positive=True))


@dataclass(frozen=True)
class ParamCombo:
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

