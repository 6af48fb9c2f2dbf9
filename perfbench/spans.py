"""In-memory span tracing around the calls into each lorabandit module.

Nothing under src/ changes: the tracer replaces attributes at the name each
caller looks up (a module global such as lorabandit.sweep.run_simulation, or
a method on a policy class) with a wrapper that records a span
(name, start, end, parent), and puts the originals back afterwards. Pool
workers never see the wrappers, so traced sweeps run their jobs serially.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

POLICY_SPANS = {
    "UcbTunedPolicy": "policies.ucb",
    "EpsilonGreedyPolicy": "policies.eps",
    "AdrLitePolicy": "policies.adr",
    "FixedPolicy": "policies.fixed",
}
JOB_SPANS = ("sweep.job", "ucb_longrun.job")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        """fn with a span around each call; after(tracer, span, args, result)
        then runs outside the span to count the work the call did."""
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            span = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span)
            if after is not None:
                after(self, span, args, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines, after a header naming the columns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["name", "start_ns", "end_ns", "parent"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _count_outcomes(tracer, span, args, records):
    c = tracer.counts
    c["netsim.attempts"] += len(records)
    for r in records:
        c["cause." + r.cause] += 1


def _count_written(tracer, span, args, result):
    records, path = args
    tracer.counts["sweep.records_written"] += len(records)
    tracer.counts["sweep.bytes_written"] += os.path.getsize(path)


def _count_summarized(tracer, span, args, result):
    tracer.counts["metrics.records_summarized"] += len(args[0])


def _ucb_phase(tracer, span, args, decision):
    span[0] += ".learned" if decision.phase.value == "learned" else ".init"


def _targets() -> list[tuple]:
    """(owner, attribute, span name, counting hook) of every traced call."""
    from lorabandit import cli, config, metrics, netsim, policies, sweep

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "run_sweep", "sweep.run_sweep", None),
        (sweep, "run_sweep", "sweep.run_sweep", None),
        (sweep, "_execute_point", "sweep.job", None),
        (config, "config_from_dict", "config.config_from_dict", None),
        (sweep, "run_simulation", "netsim.run_simulation", _count_outcomes),
        (netsim, "run_simulation", "netsim.run_simulation", _count_outcomes),
        (netsim, "build_arm_space", "params.build_arm_space", None),
        (netsim, "attempt_energy", "energy.attempt_energy", None),
        (sweep, "write_records", "sweep.write_records", _count_written),
        (sweep, "summarize_run", "metrics.summarize_run", _count_summarized),
        (metrics, "summarize_run", "metrics.summarize_run", _count_summarized),
        (sweep, "aggregate_runs", "metrics.aggregate_runs", None),
        (metrics, "aggregate_runs", "metrics.aggregate_runs", None),
        (sweep, "emit_tables", "sweep.emit_tables", None),
    ]
    for cls_name, prefix in POLICY_SPANS.items():
        cls = getattr(policies, cls_name)
        hook = _ucb_phase if prefix == "policies.ucb" else None
        targets.append((cls, "select", prefix + ".select", hook))
        targets.append((cls, "observe", prefix + ".observe", None))
    return targets


@contextmanager
def traced(tracer: Tracer, enabled: bool):
    """Install the wrappers (if enabled), then restore the originals."""
    saved = []
    try:
        for owner, attr, name, hook in (_targets() if enabled else []):
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, name, hook))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _totals(tracer: Tracer):
    """Per span name: calls, total ns, and self ns (minus direct children)."""
    child_ns = defaultdict(int)
    for name, t0, t1, parent in tracer.spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    calls, total, own = Counter(), Counter(), Counter()
    for i, (name, t0, t1, parent) in enumerate(tracer.spans):
        calls[name] += 1
        total[name] += t1 - t0
        own[name] += t1 - t0 - child_ns[i]
    return calls, total, own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of a traced pass, keyed by metric name.

    A layer the workload does not reach reads 0.
    """
    calls, total, own = _totals(tracer)
    c = tracer.counts
    m = {}

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    for prefix in POLICY_SPANS.values():
        sel_calls = sum(calls[n] for n in calls if n.startswith(prefix + ".select"))
        sel_ns = sum(total[n] for n in total if n.startswith(prefix + ".select"))
        m[prefix + ".select.calls"] = sel_calls
        m[prefix + ".select.us"] = per(sel_ns, sel_calls, 1e-3)
        m[prefix + ".observe.us"] = per(total[prefix + ".observe"],
                                        calls[prefix + ".observe"], 1e-3)
    m["policies.ucb.select.learned_us"] = per(total["policies.ucb.select.learned"],
                                              calls["policies.ucb.select.learned"], 1e-3)
    m["policies.ucb.select.init_calls"] = calls["policies.ucb.select.init"]
    policy_ns = sum(t for n, t in total.items() if n.startswith("policies."))
    job_ns = sum(total[n] for n in JOB_SPANS)
    m["policies.share_of_job"] = per(policy_ns, job_ns)

    attempts = c["netsim.attempts"]
    busy = c["cause.CarrierBusy"]
    m["netsim.run_simulation.calls"] = calls["netsim.run_simulation"]
    m["netsim.run_simulation.s"] = total["netsim.run_simulation"] / 1e9
    m["netsim.self_s"] = own["netsim.run_simulation"] / 1e9
    m["netsim.self_us_per_attempt"] = per(own["netsim.run_simulation"], attempts, 1e-3)
    m["netsim.attempts"] = attempts
    m["netsim.tx_started"] = attempts - busy
    m["netsim.carrier_busy_ratio"] = per(busy, attempts)
    m["netsim.success_ratio"] = per(c["cause.Success"], attempts)
    m["netsim.collisions"] = c["cause.Collision"]

    written = c["sweep.records_written"]
    m["sweep.write_records.s"] = total["sweep.write_records"] / 1e9
    m["sweep.write_records.us_per_record"] = per(total["sweep.write_records"], written, 1e-3)
    m["sweep.bytes_per_record"] = per(c["sweep.bytes_written"], written)
    m["sweep.emit_tables.s"] = total["sweep.emit_tables"] / 1e9

    m["config.config_from_dict.calls"] = calls["config.config_from_dict"]
    m["config.config_from_dict.s"] = total["config.config_from_dict"] / 1e9
    m["metrics.summarize_run.s"] = total["metrics.summarize_run"] / 1e9
    m["metrics.summarize_run.us_per_record"] = per(
        total["metrics.summarize_run"], c["metrics.records_summarized"], 1e-3)
    m["metrics.aggregate_runs.s"] = total["metrics.aggregate_runs"] / 1e9
    m["energy.attempt_energy.calls"] = calls["energy.attempt_energy"]
    m["params.build_arm_space.calls"] = calls["params.build_arm_space"]
    m["cli.main.s"] = total["cli.main"] / 1e9
    m["cli.self_s"] = own["cli.main"] / 1e9
    return m
