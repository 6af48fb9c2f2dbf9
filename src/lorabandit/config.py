"""Experiment configuration: JSON ingestion, validation and defaults.

An empty JSON document yields the default experiment: 4 policies x
device counts {10, 15, 20, 25, 30} x 5 runs of 200 attempts each, on the
5-channel / 5-power plan with the stock energy constants.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field

from .energy import EnergyModel, RadioConfig, attempt_energy, reward_basis, time_on_air
from .netsim import POLICY_NAMES, RunSetup
from .params import (
    DEFAULT_DRAW_MW,
    DEFAULT_POWER_DBM,
    Channel,
    ConfigError,
    TxPower,
    build_arm_space,
    default_channels,
    default_powers,
)
from .policies import adr_lite_list

DEFAULT_DEVICE_COUNTS = (10, 15, 20, 25, 30)

# The simulator counts time in whole microseconds, and each device's start
# offset is drawn below the interval as a signed 64-bit integer, the domain
# of the device streams' bounded draws (lorabandit.rng).
_US_LIMIT = 2 ** 63
# The learners square every reward.
_REWARD_LIMIT = math.sqrt(sys.float_info.max)


@dataclass
class ExperimentConfig:
    policies: list[str] = field(default_factory=lambda: list(POLICY_NAMES))
    device_counts: list[int] = field(default_factory=lambda: list(DEFAULT_DEVICE_COUNTS))
    runs_per_point: int = 5
    t_attempts: int = 200
    interval_s: float = 10.0
    channels: list[Channel] = field(default_factory=default_channels)
    powers: list[TxPower] = field(default_factory=default_powers)
    energy: EnergyModel = None
    radio: RadioConfig = field(default_factory=RadioConfig)
    epsilon: float = 0.1
    cs_duration_s: float = 0.005
    reward_mode: str = "normalized"
    epsilon_reward: str = "energy"
    payload_base: int = RadioConfig.n_payload
    payload_spread: int = 9
    adr_quality_hz: list[float] | None = None
    base_seed: int = 20240901

    def __post_init__(self):
        if self.energy is None:
            self.energy = EnergyModel(
                p_toa_by_level={p.level_dbm: p.draw_mw for p in self.powers}
            )
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
        _check_int("runs_per_point", self.runs_per_point, 1)
        _check_int("t_attempts", self.t_attempts, 1)
        _check_int("payload_base", self.payload_base, 0)
        _check_int("payload_spread", self.payload_spread, 1)
        _check_int("base_seed", self.base_seed, None)
        for name in ("interval_s", "epsilon", "cs_duration_s"):
            _check_number(name, getattr(self, name))
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0, 1]")
        if self.cs_duration_s < 0:
            raise ConfigError("cs_duration_s must be non-negative")
        if self.reward_mode not in ("normalized", "raw"):
            raise ConfigError("reward_mode must be 'normalized' or 'raw'")
        if self.epsilon_reward not in ("energy", "ack"):
            raise ConfigError("epsilon_reward must be 'energy' or 'ack'")
        if not 6 <= self.radio.sf <= 12:
            raise ConfigError(f"radio.sf must be in 6..12, got {self.radio.sf}")
        build_arm_space(self.channels, self.powers)  # duplicate or missing channels/levels
        if not any(c.receivable for c in self.channels):
            raise ConfigError("at least one channel must be receivable")
        powers = sorted(self.powers, key=lambda p: p.level_dbm)
        draws = [p.draw_mw for p in powers]
        if any(b <= a for a, b in zip(draws, draws[1:])):
            raise ConfigError("draw_mw must be strictly increasing in level_dbm")

        self.check_payloads(max(self.device_counts))
        if "adr_lite" in self.policies:
            adr_lite_list(self.channels, self.powers, self.adr_quality_hz)

    def check_payloads(self, n_devices: int) -> None:
        """Check the payload sizes a run of n_devices uses, the ones netsim
        builds tables for: payload_base + i mod payload_spread for i < n_devices."""
        powers = sorted(self.powers, key=lambda p: p.level_dbm)
        # Every device payload: rewards rank powers by e_toa, so it must rise
        # strictly with the level; every energy must be finite and every reward
        # small enough to square; and a transmission must end before the
        # device's next wake.
        longest_us = 0
        sizes = min(self.payload_spread, n_devices)
        for n_payload in range(self.payload_base, self.payload_base + sizes):
            radio = dataclasses.replace(self.radio, n_payload=n_payload)
            energies = [attempt_energy(radio, self.energy, p) for p in powers]
            e_toa = [e.e_toa_mj for e in energies]
            if any(b <= a for a, b in zip(e_toa, e_toa[1:])):
                raise ConfigError(
                    f"e_toa must be strictly increasing in level_dbm, but for "
                    f"{n_payload}-symbol payloads it is {e_toa} mJ"
                )
            if not e_toa[0] > 0:
                raise ConfigError(
                    f"e_toa must be positive, but for {n_payload}-symbol payloads it is "
                    f"{e_toa[0]} mJ at {powers[0].level_dbm} dBm"
                )
            for p, e in zip(powers, energies):
                reward = reward_basis(e, self.reward_mode, e_toa[0])
                if not (math.isfinite(e.e_active_mj) and reward < _REWARD_LIMIT):
                    raise ConfigError(
                        f"e_active must be finite and the reward under {_REWARD_LIMIT:.4g}, but "
                        f"for {n_payload}-symbol payloads at {p.level_dbm} dBm they are "
                        f"{e.e_active_mj} mJ and {reward}"
                    )
            longest_us = max(longest_us, _whole_us("the airtime", time_on_air(radio)[2]))
        busy_us = _whole_us("cs_duration_s", self.cs_duration_s) + longest_us
        if _whole_us("interval_s", self.interval_s) <= busy_us:
            raise ConfigError(
                f"interval_s must exceed carrier sense plus the longest airtime "
                f"({busy_us / 1e6} s), got {self.interval_s}"
            )

    def run_setup(self, policy: str, n_devices: int) -> RunSetup:
        return RunSetup(self, policy, n_devices)

    def to_dict(self) -> dict:
        return {
            "policies": self.policies,
            "device_counts": self.device_counts,
            "runs_per_point": self.runs_per_point,
            "t_attempts": self.t_attempts,
            "interval_s": self.interval_s,
            "channels": [
                {"mhz": c.mhz, "receivable": c.receivable} for c in self.channels
            ],
            "powers": [
                {"level_dbm": p.level_dbm, "draw_mw": p.draw_mw} for p in self.powers
            ],
            "energy": {
                "e_wu_mj": self.energy.e_wu_mj,
                "e_proc_mj": self.energy.e_proc_mj,
                "e_r_mj": self.energy.e_r_mj,
                "p_mcu_mw": self.energy.p_mcu_mw,
                "p_toa_mw": {str(k): v for k, v in self.energy.p_toa_by_level.items()},
            },
            "radio": {
                "sf": self.radio.sf,
                "bw_hz": self.radio.bw_hz,
                "n_preamble": self.radio.n_preamble,
            },
            "epsilon": self.epsilon,
            "cs_duration_s": self.cs_duration_s,
            "reward_mode": self.reward_mode,
            "epsilon_reward": self.epsilon_reward,
            "payload_base": self.payload_base,
            "payload_spread": self.payload_spread,
            "adr_quality_mhz": (
                None
                if self.adr_quality_hz is None
                else [hz / 1e6 for hz in self.adr_quality_hz]
            ),
            "base_seed": self.base_seed,
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _check_int(name: str, value, minimum: int | None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _whole_us(name: str, seconds: float) -> int:
    """seconds in whole microseconds, refused where they overflow the
    simulator's clock."""
    us = seconds * 1e6
    if not us < _US_LIMIT:
        raise ConfigError(f"{name} must be under {_US_LIMIT / 1e6:.6g} s, got {seconds} s")
    return round(us)


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
            mhz = _check_number("mhz", entry["mhz"])
            receivable = entry["receivable"]
            if not isinstance(receivable, bool):
                raise ConfigError(f"receivable must be true or false, got {receivable!r}")
            channels.append(Channel(mhz * 1e6, receivable))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad channel entry {entry!r}: {exc}") from exc
    return channels


def _parse_powers(raw, draw_table: dict[int, float]) -> list[TxPower]:
    powers = []
    for entry in _check_type("powers", raw, list):
        _check_keys("power entry", entry, {"level_dbm", "draw_mw"})
        try:
            level = _check_int("level_dbm", entry["level_dbm"], None)
            if "draw_mw" not in entry and level not in draw_table:
                raise ConfigError(f"no draw_mw, and energy.p_toa_mw lacks {level} dBm")
            draw = _check_number("draw_mw", entry.get("draw_mw", draw_table.get(level)))
            powers.append(TxPower(level, draw))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad power entry {entry!r}: {exc}") from exc
    return powers


def _parse_draw_table(raw) -> dict[int, float]:
    table = {}
    for key, mw in _check_type("energy.p_toa_mw", raw, dict).items():
        try:
            level = int(key)
        except ValueError:
            raise ConfigError(f"energy.p_toa_mw keys must be dBm integers, got {key!r}") from None
        table[level] = _check_number(f"energy.p_toa_mw[{key!r}]", mw)
    return table


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build and validate a config, filling every omitted field with defaults."""
    _check_keys("config", doc, {
        "policies", "device_counts", "runs_per_point", "t_attempts", "interval_s",
        "channels", "powers", "energy", "radio", "epsilon", "cs_duration_s",
        "reward_mode", "epsilon_reward", "payload_base", "payload_spread",
        "adr_quality_mhz", "base_seed",
    })

    kwargs: dict = {}
    for key in (
        "policies", "device_counts", "runs_per_point", "t_attempts", "interval_s",
        "epsilon", "cs_duration_s", "reward_mode", "epsilon_reward",
        "payload_base", "payload_spread", "base_seed",
    ):
        if key in doc:
            kwargs[key] = doc[key]

    if "channels" in doc:
        kwargs["channels"] = _parse_channels(doc["channels"])

    energy_doc = _check_keys("energy", doc.get("energy", {}),
                             {"e_wu_mj", "e_proc_mj", "e_r_mj", "p_mcu_mw", "p_toa_mw"})
    draw_table = dict(DEFAULT_DRAW_MW)
    if "p_toa_mw" in energy_doc:
        draw_table = _parse_draw_table(energy_doc["p_toa_mw"])

    if "powers" in doc or "p_toa_mw" in energy_doc:
        default = [{"level_dbm": dbm} for dbm in DEFAULT_POWER_DBM]
        kwargs["powers"] = _parse_powers(doc.get("powers", default), draw_table)

    if energy_doc:
        base = EnergyModel(p_toa_by_level=draw_table)
        kwargs["energy"] = EnergyModel(
            e_wu_mj=_check_number("energy.e_wu_mj", energy_doc.get("e_wu_mj", base.e_wu_mj)),
            e_proc_mj=_check_number("energy.e_proc_mj", energy_doc.get("e_proc_mj", base.e_proc_mj)),
            e_r_mj=_check_number("energy.e_r_mj", energy_doc.get("e_r_mj", base.e_r_mj)),
            p_mcu_mw=_check_number("energy.p_mcu_mw", energy_doc.get("p_mcu_mw", base.p_mcu_mw)),
            p_toa_by_level=draw_table,
        )

    if "radio" in doc:
        radio_doc = _check_keys("radio", doc["radio"], {"sf", "bw_hz", "n_preamble"})
        base_radio = RadioConfig()
        kwargs["radio"] = RadioConfig(
            sf=_check_int("radio.sf", radio_doc.get("sf", base_radio.sf), None),
            bw_hz=_check_number("radio.bw_hz", radio_doc.get("bw_hz", base_radio.bw_hz)),
            n_preamble=_check_int(
                "radio.n_preamble", radio_doc.get("n_preamble", base_radio.n_preamble), 0
            ),
        )

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
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(doc)
