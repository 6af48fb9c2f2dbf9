"""Walk through the airtime and energy model for a single attempt.

Shows how symbol time, preamble/payload airtime, transmission energy and the
ACK reward are derived from the radio configuration, and why the reward
pushes a learner toward the cheapest transmit power that still gets through.
"""

from lorabandit.energy import (
    EnergyModel,
    RadioConfig,
    attempt_energy,
    symbol_time,
    time_on_air,
)
from lorabandit.params import default_powers

radio = RadioConfig(sf=7, bw_hz=125_000, n_preamble=8)
n_payload = 36
powers = default_powers()
energy = EnergyModel()

print(f"symbol time    : {symbol_time(radio) * 1e3:.3f} ms")
t_pre, t_pay, t_toa = time_on_air(radio, n_payload)
print(f"preamble       : {t_pre * 1e3:.3f} ms  (4.25 + 8 symbols)")
print(f"payload        : {t_pay * 1e3:.3f} ms  ({n_payload} symbols)")
print(f"time on air    : {t_toa * 1e3:.3f} ms")
print(f"fixed overhead : {energy.overhead_mj:.1f} mJ per attempt "
      "(wake-up + processing + receive window)")
print()

# An ACK earns e_toa_min / e_toa, e_toa_min at the cheapest power, as
# lorabandit.netsim.cost_rows works it out for a run.
e_min = min(attempt_energy(radio, n_payload, energy, p).e_toa_mj for p in powers)
print(f"{'power':>6} {'draw':>7} {'e_toa':>8} {'e_active':>9} {'ack reward':>11}")
for p in powers:
    e = attempt_energy(radio, n_payload, energy, p)
    r = e_min / e.e_toa_mj
    print(f"{p.level_dbm:>4} dBm {p.draw_mw:>5.0f} mW {e.e_toa_mj:>6.2f} mJ "
          f"{e.e_active_mj:>6.1f} mJ {r:>11.3f}")

print()
print("The reward is 1.0 at the cheapest power and shrinks as draw grows,")
print("so an ACK at low power is strictly better than an ACK at high power;")
print("a missed ACK is worth 0 regardless of what it cost.")
