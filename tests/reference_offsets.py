"""An offsets-only oracle for the fixed policy's runs.

A fixed device sends on one arm every period, so whether it transmits
follows from the devices' start offsets, airtimes and channels alone, with
no event loop, no cycle skip and no policy object. Device j's transmission
keeps its channel busy for its busy window, carrier sense plus airtime,
from its wake w_j; a device waking at w_i hears it if 0 < w_i - w_j <
that window (the sense is half-open, and an end at the very µs of a wake is
not heard). Hence, period by period and in wake order:

- a device transmits unless a device that transmits on its channel woke
  less than one busy window before it: earlier in the same period, or
  late in the period before, with its window wrapping into this one;
- period 0 has no period before it, so no wrapped end;
- devices that wake in the same µs do not hear each other, and if both
  transmit on one channel they collide (any other overlap is heard first).

Fixed devices send on receivable channels only, so every other
transmission succeeds.
"""

from __future__ import annotations

from lorabandit.energy import time_on_air
from lorabandit.metrics import Cause
from lorabandit.netsim import device_rng, payload_symbols
from lorabandit.params import build_arm_space
from lorabandit.policies import fixed_choices


def fixed_causes(setup, seed, shadows=None) -> list[list[str]]:
    """Each device's causes, in attempt order, of a fixed-policy run of
    setup at seed, by the rules above. If shadows is a list, (device,
    attempt, wrapped) is appended to it for each CarrierBusy, wrapped
    telling whether a window from the period before covers the wake."""
    cfg = setup.config
    arms = build_arm_space(cfg.channels, cfg.powers)
    choices = fixed_choices(arms)
    interval_us = round(cfg.interval_s * 1e6)
    cs_us = round(cfg.cs_duration_s * 1e6)
    devices = []  # (offset µs, device, channel, busy window µs), in wake order
    for i in range(setup.n_devices):
        payload = payload_symbols(i, cfg.payload_base, cfg.payload_spread)
        devices.append((int(device_rng(seed, i, stream=1).integers(0, interval_us)), i,
                        arms[choices[i % len(choices)].arm_index].channel,
                        cs_us + round(time_on_air(cfg.radio, payload)[2] * 1e6)))
    devices.sort()
    causes = [[None] * cfg.t_attempts for _ in devices]
    # Per channel, its transmitters of the period before whose windows wrap
    # into this one, as (wake µs, device, busy window µs).
    wrapping = {channel: [] for _, _, channel, _ in devices}
    for attempt in range(cfg.t_attempts):
        sent = {channel: [] for channel in wrapping}  # this period's, so far
        for offset, i, channel, busy in devices:
            wrapped = any(offset + interval_us - wake < window
                          for wake, _, window in wrapping[channel])
            if wrapped or any(0 < offset - wake < window for wake, _, window in sent[channel]):
                causes[i][attempt] = Cause.CARRIER_BUSY
                if shadows is not None:
                    shadows.append((i, attempt, wrapped))
            else:
                sent[channel].append((offset, i, busy))
        for txs in sent.values():
            for offset, i, _ in txs:
                causes[i][attempt] = (Cause.COLLISION if any(wake == offset and j != i
                                                             for wake, j, _ in txs)
                                      else Cause.SUCCESS)
        wrapping = {channel: [tx for tx in txs if tx[0] + tx[2] > interval_us]
                    for channel, txs in sent.items()}
    return causes
