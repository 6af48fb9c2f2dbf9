"""An offsets-only oracle for the fixed policy's runs and UCB's forced pass.

A fixed device sends on one arm every period, and in its first n_arms
periods a UCB device forces arm k in period k, so every UCB device sends on
arm k's channel in period k. Whether a device transmits then follows from
the devices' start offsets, airtimes and channels alone, with no event
loop, no cycle skip and no policy object. Device j's transmission keeps its
channel busy for its busy window, carrier sense plus airtime, from its wake
w_j; a device waking at w_i hears it if 0 < w_i - w_j < that window (the
sense is half-open, and an end at the very µs of a wake is not heard).
Hence, period by period and in wake order:

- a device transmits unless a device that transmits on its channel woke
  less than one busy window before it: earlier in the same period, or
  late in the period before, with its window wrapping into this one;
- period 0 has no period before it, so no wrapped end;
- devices that wake in the same µs do not hear each other, and if both
  transmit on one channel they collide (any other overlap is heard first);
- the busy check comes before receivability: a device that hears its
  channel busy is CarrierBusy whether or not the gateway hears the channel,
  and a transmission on a channel it does not hear is ChannelNotReceivable
  whether or not it collided.

Fixed devices send on receivable channels only.
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
    arms = build_arm_space(setup.config.channels, setup.config.powers)
    choices = fixed_choices(arms)
    return _causes(setup, seed, setup.config.t_attempts,
                   lambda i, attempt: arms[choices[i % len(choices)].arm_index].channel, shadows)


def ucb_initial_causes(setup, seed, shadows=None) -> list[list[str]]:
    """Each device's causes in the first min(n_arms, t_attempts) periods of
    a UCB run of setup at seed, its forced pass: in period k every device
    sends on arm k's channel. shadows as for fixed_causes."""
    arms = build_arm_space(setup.config.channels, setup.config.powers)
    return _causes(setup, seed, min(len(arms), setup.config.t_attempts),
                   lambda i, attempt: arms[attempt].channel, shadows)


def _causes(setup, seed, periods, channel_of, shadows) -> list[list[str]]:
    """Each device's causes in the first periods periods, device i sending
    on channel_of(i, attempt)."""
    cfg = setup.config
    interval_us = round(cfg.interval_s * 1e6)
    cs_us = round(cfg.cs_duration_s * 1e6)
    devices = []  # (offset µs, device, busy window µs), in wake order
    for i in range(setup.n_devices):
        payload = payload_symbols(i, cfg.payload_base, cfg.payload_spread)
        devices.append((int(device_rng(seed, i, stream=1).integers(0, interval_us)), i,
                        cs_us + round(time_on_air(cfg.radio, payload)[2] * 1e6)))
    devices.sort()
    causes = [[None] * periods for _ in devices]
    # Per channel, its transmitters of the period before whose windows wrap
    # into this one, as (wake µs, device, busy window µs).
    wrapping = {}
    for attempt in range(periods):
        sent = {}  # this period's, so far
        for offset, i, busy in devices:
            channel = channel_of(i, attempt)
            wrapped = any(offset + interval_us - wake < window
                          for wake, _, window in wrapping.get(channel, ()))
            if wrapped or any(0 < offset - wake < window
                              for wake, _, window in sent.get(channel, ())):
                causes[i][attempt] = Cause.CARRIER_BUSY
                if shadows is not None:
                    shadows.append((i, attempt, wrapped))
            else:
                sent.setdefault(channel, []).append((offset, i, busy))
        for channel, txs in sent.items():
            for offset, i, _ in txs:
                causes[i][attempt] = (
                    Cause.CHANNEL_NOT_RECEIVABLE if not channel.receivable
                    else Cause.COLLISION if any(wake == offset and j != i for wake, j, _ in txs)
                    else Cause.SUCCESS)
        wrapping = {channel: [tx for tx in txs if tx[0] + tx[2] > interval_us]
                    for channel, txs in sent.items()}
    return causes
