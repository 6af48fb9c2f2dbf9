"""Distributed LoRa transmission-parameter selection with bandit policies.

A deterministic discrete-event simulator in which each end device picks a
(channel, TX power) pair per uplink using a variance-aware UCB learner, with
epsilon-greedy, fixed allocation and ADR-Lite baselines, evaluated on
transmission success rate and energy efficiency.

The package exports what a script needs to run the model: the config
(``ExperimentConfig``, ``ConfigError``), one run (``ExperimentConfig.run_setup``
then ``run_simulation``, folded by ``summarize_run``) and a full sweep
(``run_sweep``, which writes each run's records and summarizes the run with
the same ``summarize_run``).
Everything else lives in its submodule (``lorabandit.energy`` for the
airtime/energy model, ``lorabandit.policies``, ``lorabandit.netsim``, ...).
"""

__version__ = "0.1.0"

from .params import ConfigError
from .netsim import run_simulation
from .metrics import summarize_run
from .config import ExperimentConfig
from .sweep import run_sweep

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "run_simulation",
    "run_sweep",
    "summarize_run",
]
