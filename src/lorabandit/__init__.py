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
from .config import ExperimentConfig

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "run_simulation",
    "run_sweep",
    "summarize_run",
]

# Loaded on first use (PEP 562), so that `import lorabandit`, and with it
# `lorabandit validate`, compiles no sweep driver, policies or metrics fold.
_LAZY = {"run_simulation": "netsim", "summarize_run": "metrics", "run_sweep": "sweep"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
