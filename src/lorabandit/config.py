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
from .policies import adr_lite_list

DEFAULT_DEVICE_COUNTS = (10, 15, 20, 25, 30)

# The config fields a document gives as plain values, and the fields of its
# "energy" and "radio" objects (each power's draw comes from "powers" or
# energy.p_toa_mw).
_SCALAR_FIELDS = (
    "policies", "device_counts", "runs_per_point", "t_attempts", "interval_s",
    "epsilon", "cs_duration_s", "reward_mode", "epsilon_reward",
    "payload_base", "payload_spread", "base_seed",
)
_ENERGY_FIELDS = set(EnergyModel.__slots__)
_RADIO_FIELDS = set(RadioConfig.__slots__)

# Each field's default, in field order; a config gets its own copy of each
# list.
_DEFAULTS = {
    "policies": list(POLICY_NAMES), "device_counts": list(DEFAULT_DEVICE_COUNTS),
    "runs_per_point": 5, "t_attempts": 200, "interval_s": 10.0,
    "channels": default_channels(), "powers": default_powers(),
    "energy": EnergyModel(), "radio": RadioConfig(),
    "epsilon": 0.1, "cs_duration_s": 0.005, "reward_mode": "normalized",
    "epsilon_reward": "energy", "payload_base": 36, "payload_spread": 9,
    "adr_quality_hz": None, "base_seed": 20240901,
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
        if self.reward_mode not in ("normalized", "raw"):
            raise ConfigError("reward_mode must be 'normalized' or 'raw'")
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
        if not isinstance(self.adr_quality_hz, (list, tuple, type(None))):
            raise ConfigError(f"adr_quality_hz must be a list or None, got {self.adr_quality_hz!r}")
        for hz in self.adr_quality_hz or ():
            _check_number("adr quality frequency in Hz", hz)
        arms = build_arm_space(self.channels, self.powers)  # duplicate or missing channels/levels
        if not any(c.receivable for c in self.channels):
            raise ConfigError("at least one channel must be receivable")
        cost_rows(self, max(self.device_counts))  # what a run's payloads cost
        if "adr_lite" in self.policies:
            adr_lite_list(arms, self.adr_quality_hz)

    def run_setup(self, policy: str, n_devices: int) -> RunSetup:
        return RunSetup(self, policy, n_devices)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _SCALAR_FIELDS} | {
            "channels": [
                {"mhz": c.mhz, "receivable": c.receivable} for c in self.channels
            ],
            "powers": [
                {"level_dbm": p.level_dbm, "draw_mw": p.draw_mw} for p in self.powers
            ],
            "energy": {k: getattr(self.energy, k) for k in EnergyModel.__slots__} | {
                "p_toa_mw": {str(p.level_dbm): p.draw_mw for p in self.powers},
            },
            "radio": {k: getattr(self.radio, k) for k in RadioConfig.__slots__},
            "adr_quality_mhz": (
                None
                if self.adr_quality_hz is None
                else [hz / 1e6 for hz in self.adr_quality_hz]
            ),
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


def _parse_powers(raw, table: dict[int, float] | None) -> list[TxPower]:
    """Each power's draw is its own draw_mw, else its entry in table (the
    parsed energy.p_toa_mw), else, with no table, the default draw."""
    lookup = DEFAULT_DRAW_MW if table is None else table
    powers = []
    for entry in _check_type("powers", raw, list):
        _check_keys("power entry", entry, {"level_dbm", "draw_mw"})
        try:
            level = _check_int("level_dbm", entry["level_dbm"], None)  # keys the draw tables
            if "draw_mw" in entry:
                power = TxPower(level, entry["draw_mw"])
                if table is not None and table.get(level, power.draw_mw) != power.draw_mw:
                    raise ConfigError(
                        f"{level} dBm draws {power.draw_mw} mW here but {table[level]} mW "
                        f"in energy.p_toa_mw"
                    )
            elif level in lookup:
                power = TxPower(level, lookup[level])
            else:
                where = "the default draws" if table is None else "energy.p_toa_mw"
                raise ConfigError(f"no draw_mw, and {where} lack {level} dBm")
            powers.append(power)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad power entry {entry!r}: {exc}") from exc
    return powers


def _parse_draw_table(raw) -> dict[int, float]:
    table = {}
    for key, mw in _check_type("energy.p_toa_mw", raw, dict).items():
        try:
            level = int(key)
        except (TypeError, ValueError):
            level = None
        if level is None or str(level) != key:
            raise ConfigError(
                f"energy.p_toa_mw keys must be dBm integers written as such "
                f"(\"-3\", \"13\"), got {key!r}"
            )
        table[level] = _check_number(f"energy.p_toa_mw[{key!r}]", mw)
    return table


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build and validate a config, filling every omitted field with defaults."""
    _check_keys("config", doc, {
        *_SCALAR_FIELDS, "channels", "powers", "energy", "radio", "adr_quality_mhz",
    })
    kwargs = {name: doc[name] for name in _SCALAR_FIELDS if name in doc}

    if "channels" in doc:
        kwargs["channels"] = _parse_channels(doc["channels"])

    energy_doc = _check_keys("energy", doc.get("energy", {}), {*_ENERGY_FIELDS, "p_toa_mw"})
    kwargs["energy"] = EnergyModel(**{k: v for k, v in energy_doc.items() if k != "p_toa_mw"})
    table = None
    if "p_toa_mw" in energy_doc:
        table = _parse_draw_table(energy_doc["p_toa_mw"])
    if "powers" in doc or table is not None:
        default = [{"level_dbm": dbm} for dbm in DEFAULT_DRAW_MW]
        kwargs["powers"] = _parse_powers(doc.get("powers", default), table)

    radio_doc = _check_keys("radio", doc.get("radio", {}), _RADIO_FIELDS)
    kwargs["radio"] = RadioConfig(**radio_doc)

    if doc.get("adr_quality_mhz") is not None:
        quality = _check_type("adr_quality_mhz", doc["adr_quality_mhz"], list)
        kwargs["adr_quality_hz"] = [
            _check_number("adr_quality_mhz entry", mhz) * 1e6 for mhz in quality
        ]

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
