"""Experiment configuration: JSON ingestion, validation and defaults.

An empty JSON document yields the default experiment: 4 policies x
device counts {10, 15, 20, 25, 30} x 5 runs of 200 attempts each, on the
5-channel / 5-power plan with the stock energy constants.
"""

from __future__ import annotations

import hashlib
import json

from .energy import EnergyModel, RadioConfig
from .netsim import POLICY_NAMES, RunSetup, cost_rows
from .params import (
    DEFAULT_DRAW_MW,
    Channel,
    ConfigError,
    TxPower,
    _check_int,
    _check_number,
    build_arm_space,
    default_channels,
    default_powers,
)

DEFAULT_DEVICE_COUNTS = (10, 15, 20, 25, 30)

# Each config field's default, in field order; a config gets its own copy of
# each list. A saved document (to_dict) names every field, and writes
# channels, powers, energy and radio as objects.
_DEFAULTS = {
    "policies": list(POLICY_NAMES), "device_counts": list(DEFAULT_DEVICE_COUNTS),
    "runs_per_point": 5, "t_attempts": 200, "interval_s": 10.0,
    "channels": default_channels(), "powers": default_powers(),
    "energy": EnergyModel(), "radio": RadioConfig(),
    "epsilon": 0.1, "cs_duration_s": 0.005, "epsilon_reward": "energy",
    "payload_base": 36, "payload_spread": 9, "base_seed": 20240901,
}


class ExperimentConfig:
    """One experiment: every field by keyword, each omitted one at its
    default (_DEFAULTS), checked by validate() when built."""

    def __init__(self, **fields):
        for name in fields.keys() - _DEFAULTS.keys():
            raise TypeError(f"ExperimentConfig got an unexpected keyword argument {name!r}")
        vars(self).update({k: v.copy() if type(v) is list else v for k, v in _DEFAULTS.items()},
                          **fields)
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.policies, (list, tuple)) or not self.policies:
            raise ConfigError("policies must be a non-empty list")
        for p in self.policies:
            if p not in POLICY_NAMES:
                raise ConfigError(f"unknown policy {p!r}; expected one of {POLICY_NAMES}")
        if not isinstance(self.device_counts, (list, tuple)) or not self.device_counts:
            raise ConfigError("device_counts must be a non-empty list")
        for n in self.device_counts:
            _check_int("device_counts entry", n, 1)
        for name in ("policies", "device_counts"):
            entries = getattr(self, name)
            for entry in entries:
                if entries.count(entry) > 1:
                    raise ConfigError(f"duplicate {name} entry {entry!r}")
        _check_int("runs_per_point", self.runs_per_point, 1, 2 ** 64)  # run_seed's range
        _check_int("t_attempts", self.t_attempts, 1)
        _check_int("payload_base", self.payload_base, 0, 2 ** 53)  # exact as a float
        _check_int("payload_spread", self.payload_spread, 1)
        _check_int("base_seed", self.base_seed, None)
        for name in ("interval_s", "epsilon", "cs_duration_s"):
            setattr(self, name, _check_number(name, getattr(self, name)))
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0, 1]")
        if self.cs_duration_s < 0:
            raise ConfigError("cs_duration_s must be non-negative")
        if self.epsilon_reward not in ("energy", "ack"):
            raise ConfigError("epsilon_reward must be 'energy' or 'ack'")
        for name, kind in (("radio", RadioConfig), ("energy", EnergyModel)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
        for name, kind in (("channels", Channel), ("powers", TxPower)):
            value = getattr(self, name)
            if not (isinstance(value, (list, tuple)) and all(isinstance(v, kind) for v in value)):
                raise ConfigError(f"{name} must be a list of {kind.__name__}, got {value!r}")
        for hz in (c.center_frequency_hz for c in self.channels):
            if hz / 1e6 * 1e6 != hz:  # to_dict's MHz must read back as hz
                raise ConfigError(f"{hz!r} Hz would read back from MHz as {hz / 1e6 * 1e6!r} Hz")
        build_arm_space(self.channels, self.powers)  # duplicate or missing channels/levels
        if not any(c.receivable for c in self.channels):
            raise ConfigError("at least one channel must be receivable")
        cost_rows(self, max(self.device_counts))  # what a run's payloads cost

    def run_setup(self, policy: str, n_devices: int) -> RunSetup:
        return RunSetup(self, policy, n_devices)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _DEFAULTS} | {
            "channels": [
                {"mhz": c.mhz, "receivable": c.receivable} for c in self.channels
            ],
            "powers": [
                {"level_dbm": p.level_dbm, "draw_mw": p.draw_mw} for p in self.powers
            ],
            "energy": {k: getattr(self.energy, k) for k in EnergyModel.__slots__},
            "radio": {k: getattr(self.radio, k) for k in RadioConfig.__slots__},
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _check_type(name: str, value, kind: type):
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _check_keys(name: str, doc, known: set[str]) -> dict:
    unknown = set(_check_type(name, doc, dict)) - known
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    return doc


def _parse_channels(raw) -> list[Channel]:
    channels = []
    for entry in _check_type("channels", raw, list):
        _check_keys("channel entry", entry, {"mhz", "receivable"})
        try:
            channels.append(Channel(_check_number("mhz", entry["mhz"]) * 1e6, entry["receivable"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad channel entry {entry!r}: {exc}") from exc
    return channels


def _parse_powers(raw) -> list[TxPower]:
    """Each power draws its own draw_mw, else its level's default draw."""
    powers = []
    for entry in _check_type("powers", raw, list):
        _check_keys("power entry", entry, {"level_dbm", "draw_mw"})
        try:
            level = _check_int("level_dbm", entry["level_dbm"], None)  # keys the default draws
            if "draw_mw" in entry:
                draw = entry["draw_mw"]
            elif level in DEFAULT_DRAW_MW:
                draw = DEFAULT_DRAW_MW[level]
            else:
                raise ConfigError(f"no draw_mw, and the default draws lack {level} dBm")
            powers.append(TxPower(level, draw))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad power entry {entry!r}: {exc}") from exc
    return powers


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build and validate a config, filling every omitted field with defaults."""
    kwargs = dict(_check_keys("config", doc, _DEFAULTS.keys()))  # objects parsed below
    if "channels" in doc:
        kwargs["channels"] = _parse_channels(doc["channels"])
    energy_doc = _check_keys("energy", doc.get("energy", {}), set(EnergyModel.__slots__))
    kwargs["energy"] = EnergyModel(**energy_doc)
    if "powers" in doc:
        kwargs["powers"] = _parse_powers(doc["powers"])
    radio_doc = _check_keys("radio", doc.get("radio", {}), set(RadioConfig.__slots__))
    kwargs["radio"] = RadioConfig(**radio_doc)
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
        raise ConfigError(f"{path}: unreadable JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(doc)
