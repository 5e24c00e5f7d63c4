"""Per-layer timing for the traced run: spans around calls into layers.

The benchmark does not change the program.  For one traced round it
rebinds the public functions :func:`layer_calls` lists to wrappers
that record a span -- name, start, end, parent -- into a
:class:`SpanRecorder` kept in memory, and restores the originals
afterwards.  A layer's self time is its spans' duration minus the time
its child spans cover.  Per-layer numbers come only from this run;
the end-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: engine phases reported per simulated cycle, from SimConfig(profile=True).
PHASES = ("switch", "routing", "injection", "arrival", "credit",
          "ejection", "kill", "idle")

#: store methods whose time and calls are reported.
STORE_CALLS = ("record_success", "acquire_leases", "record_spans",
               "worker_heartbeat", "completed", "rows", "result_states",
               "spans")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "size",
                 "child_s")

    def __init__(self, name: str, parent: Optional["Span"],
                 thread: int) -> None:
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.size: Optional[int] = None  #: len() of a list result
        self.child_s = 0.0  #: time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class SpanRecorder:
    """Collects spans in memory; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def wrap(self, name: str, function: Callable[..., Any]
             ) -> Callable[..., Any]:
        recorder = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            span = Span(name, stack[-1] if stack else None,
                        threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                if isinstance(result, list):
                    span.size = len(result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                recorder.spans.append(span)

        return traced

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total_s(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def self_total_s(self, name: str) -> float:
        return sum(span.self_s for span in self.named(name))

    def covered_s(self) -> float:
        """Time the outermost spans of the main thread cover."""
        main = threading.main_thread().ident
        return sum(span.duration for span in self.spans
                   if span.parent is None and span.thread == main)


def layer_calls(capture: Any) -> List[Tuple[str, Any, str]]:
    """(span name, owner, attribute) for every call the run times."""
    from repro.campaign import fabric, runner, store, timeline
    from repro.obs.log import StructuredLogger
    from repro.sim import parallel
    from repro.sim.config import SimConfig
    from repro.stats.collector import StatsCollector

    calls = [
        ("config.build", SimConfig, "build"),
        ("stats.report", StatsCollector, "report"),
        ("sim.run_simulation", capture, "run"),
        ("parallel.run_reports", runner, "run_reports"),
        ("parallel.run_reports", fabric, "run_reports"),
        ("runner.submit_campaign", runner, "submit_campaign"),
        ("runner.submit_campaign", fabric, "submit_campaign"),
        ("runner.run_campaign", runner, "run_campaign"),
        ("fabric.worker_run", fabric.Worker, "run"),
        ("obs.log", StructuredLogger, "log"),
        ("timeline.campaign_timeline", timeline, "campaign_timeline"),
    ]
    calls += [(f"store.{name}", store.CampaignStore, name)
              for name in STORE_CALLS]
    return calls


@contextlib.contextmanager
def armed(recorder: SpanRecorder, capture: Any) -> Iterator[None]:
    """Rebind every layer call to a span-recording wrapper, then restore."""
    from repro.sim import parallel

    saved = []
    for name, owner, attr in layer_calls(capture):
        original = vars(owner).get(attr, getattr(owner, attr))
        saved.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))
    saved.append((parallel, "run_simulation", parallel.run_simulation,
                  True))
    parallel.run_simulation = capture.run
    try:
        yield
    finally:
        for owner, attr, original, owned in reversed(saved):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def profile_point(simulator: Any, workload: Any) -> Dict[str, Any]:
    """The engine self-profiler's summary for the workload's probe point."""
    config = workload.profile_config().with_(profile=True)
    return simulator.run_simulation(config).report["profile"]


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def per_layer(recorder: SpanRecorder, plain: Any, traced: Any,
              profile: Dict[str, Any], import_s: float,
              workload: Any) -> Dict[str, float]:
    """Every per-layer metric of the traced run, by name."""
    points = len(traced.stats)
    counters = traced.counters
    engine_s = recorder.total_s("sim.run_simulation")
    engine_self_s = recorder.self_total_s("sim.run_simulation")
    leases = recorder.named("store.acquire_leases")
    empty_polls = sum(1 for span in leases if span.size == 0)
    metrics: Dict[str, float] = {
        "import.repro_s": import_s,
        "config.build_ms": _ms(recorder.total_s("config.build")),
        "config.build_calls": len(recorder.named("config.build")),
        "engine.node_cycles": traced.node_cycles,
        "engine.ns_per_node_cycle": _per(engine_self_s * 1e9,
                                         traced.node_cycles),
        "engine.profiled_cycles": profile["cycles"],
    }
    for phase in PHASES:
        metrics[f"engine.phase.{phase}_ns_per_cycle"] = _per(
            profile["phases"][phase]["wall_ns"], profile["cycles"])
    attempts = counters.get("injection_attempts", 0)
    flits = counters.get("flits_injected", 0)
    metrics.update({
        "core.injection_attempts": attempts,
        "core.kills": counters.get("kills", 0),
        "core.retransmissions": counters.get("retransmissions", 0),
        "core.delivered_per_attempt": _per(
            counters.get("messages_delivered", 0), attempts),
        "core.pad_flit_share": _per(
            counters.get("pad_flits_injected", 0), flits),
        "stats.report_ms": _ms(recorder.total_s("stats.report")),
        "stats.report_calls": len(recorder.named("stats.report")),
        "parallel.run_reports_self_ms_per_point": _ms(_per(
            recorder.self_total_s("parallel.run_reports"), points)),
        "parallel.run_reports_calls": len(
            recorder.named("parallel.run_reports")),
        "runner.submit_ms": _ms(recorder.total_s("runner.submit_campaign")),
        "runner.submit_calls": len(
            recorder.named("runner.submit_campaign")),
        "runner.resume_ms": _ms(traced.phases.get("resume", 0.0)),
        "runner.point_overhead_ms": _ms(_per(
            traced.exec_s - engine_s, points)),
    })
    for name in STORE_CALLS:
        spans = recorder.named(f"store.{name}")
        metrics[f"store.{name}_ms"] = _ms(sum(s.duration for s in spans))
        metrics[f"store.{name}_calls"] = len(spans)
    metrics.update({
        "fabric.lease_batches": len(leases) - empty_polls,
        "fabric.idle_poll_s": empty_polls * getattr(workload, "poll", 0.0),
        "obs.spans_journaled": traced.spans_journaled,
        "obs.log_records": traced.log_records,
        "obs.log_ms": _ms(recorder.total_s("obs.log")),
        "timeline.build_ms": _ms(
            recorder.total_s("timeline.campaign_timeline")),
        "bench.untraced_wall_s": plain.wall_s,
        "bench.traced_wall_s": traced.wall_s,
        "bench.trace_overhead_s": traced.wall_s - plain.wall_s,
        "bench.untimed_share": 1.0 - _per(recorder.covered_s(),
                                          traced.wall_s),
    })
    return metrics
