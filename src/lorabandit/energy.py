"""Airtime and active-mode energy model, plus the ACK reward basis.

All times are in seconds, energies in millijoules and powers in milliwatts,
so power * time lands directly in mJ.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .params import ConfigError, TxPower, _check_int, _check_number


@dataclass(frozen=True)
class RadioConfig:
    """PHY parameters shared by every device: a config's "radio" block."""

    sf: int = 7
    bw_hz: float = 125_000.0
    n_preamble: int = 8

    def __post_init__(self):
        _check_int("radio.sf", self.sf, 6, 12)
        object.__setattr__(self, "bw_hz", _check_number("radio.bw_hz", self.bw_hz, positive=True))
        _check_int("radio.n_preamble", self.n_preamble, 0, 2 ** 53)  # exact as a float


@dataclass(frozen=True)
class EnergyModel:
    """Fixed per-attempt energy overheads and the MCU draw.

    e_wu / e_proc / e_r are treated as fixed per-attempt contributions in mJ
    (wake-up, parameter-selection processing, receive window).  The radio's
    draw at each power level lives on its TxPower.
    """

    e_wu_mj: float = 56.1
    e_proc_mj: float = 85.8
    e_r_mj: float = 66.0
    p_mcu_mw: float = 29.7

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _check_number(
                f"energy.{f.name}", getattr(self, f.name), positive=True))

    @property
    def overhead_mj(self) -> float:
        """Energy charged even when no transmission happens."""
        return self.e_wu_mj + self.e_proc_mj + self.e_r_mj


@dataclass(frozen=True)
class AttemptEnergy:
    """On-air time and energy of one transmission attempt."""

    t_toa: float
    e_toa_mj: float
    e_active_mj: float


def symbol_time(cfg: RadioConfig) -> float:
    """Duration of one chirp symbol: 2^SF / BW."""
    return (2 ** cfg.sf) / cfg.bw_hz


def time_on_air(cfg: RadioConfig, n_payload: int) -> tuple[float, float, float]:
    """Preamble, payload and total on-air time for one packet.

    Preamble lasts (4.25 + n_preamble) symbols; payload lasts n_payload
    symbols; the total is their sum.
    """
    if n_payload < 0:
        raise ConfigError("symbol counts must be non-negative")
    t_sym = symbol_time(cfg)
    t_preamble = (4.25 + cfg.n_preamble) * t_sym
    t_payload = n_payload * t_sym
    return t_preamble, t_payload, t_preamble + t_payload


def attempt_energy(cfg: RadioConfig, n_payload: int, model: EnergyModel,
                   power: TxPower) -> AttemptEnergy:
    """Full energy accounting of one transmitted attempt of n_payload symbols.

    e_toa = (p_mcu + power.draw_mw) * t_toa;
    e_active = e_wu + e_proc + e_toa + e_r.
    """
    t_toa = time_on_air(cfg, n_payload)[2]
    e_toa = (model.p_mcu_mw + power.draw_mw) * t_toa
    e_active = model.e_wu_mj + model.e_proc_mj + e_toa + model.e_r_mj
    return AttemptEnergy(t_toa=t_toa, e_toa_mj=e_toa, e_active_mj=e_active)


def reward_basis(e: AttemptEnergy, mode: str, e_toa_min_mj: float | None = None) -> float:
    """Reward granted for an ACKed attempt.

    normalized: e_toa_min / e_toa, in (0, 1], where e_toa_min is
    the transmission energy at the cheapest configured power for the same
    payload.  raw: 1 / e_toa in 1/mJ.  Both decrease with TX power, so the
    learner is pushed toward the cheapest power that still gets ACKed.
    """
    if e.e_toa_mj <= 0:
        raise ValueError("e_toa must be positive")
    if mode == "raw":
        return 1.0 / e.e_toa_mj
    if mode == "normalized":
        if e_toa_min_mj is None:
            raise ValueError("normalized mode requires e_toa_min_mj")
        return e_toa_min_mj / e.e_toa_mj
    raise ConfigError(f"unknown reward mode {mode!r}")

