"""The benchmark's workloads, correctness gate, and child-process entry.

``run.py`` starts this file in a fresh interpreter, once per measured
process, with ``PYTHONPATH`` pointing at the checkout's ``src``::

    python3 perfbench/workloads.py MODE --workload NAME --seed N
        [--seconds S] [--size full|tiny] [--expected PATH] --work DIR

Modes:

* ``setup`` -- import ``repro``, build the workload's configs, submit
  its spec into a fresh store, build the first point's engine, then
  print the ``time.monotonic()`` stamp it got there.  The parent
  stamps ``time.monotonic()`` before it starts the interpreter, so the
  difference is the set-up time from interpreter start to the first
  simulated cycle (``CLOCK_MONOTONIC`` is system-wide on Linux).
* ``run`` -- set up, then repeat timed rounds of the workload for
  ``--seconds`` (at least one), gating every round's outputs.
* ``trace`` -- one untraced round, one round with the layer spans of
  ``layers.py`` armed, and one profiled point; prints per-layer data.
* ``record`` -- run one round of every workload at both sizes for the
  default seed and write the expected statistics to ``--expected``.

``setup`` and ``run`` interleave the host-speed calibration of
``calibrate.py`` from their first statement on and report times net
of it, with the scale to reference-speed seconds.  ``trace`` and
``record`` report raw host time.

The last stdout line of every mode is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from calibrate import Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 42

def point_key(config: Any) -> str:
    """Identity of one simulated point inside a workload."""
    return (f"{config.routing}/load={config.load}"
            f"/fr={config.fault_rate}/pf={config.permanent_faults}"
            f"/seed={config.seed}")


# ----------------------------------------------------------------------
# Capturing simulated outputs
# ----------------------------------------------------------------------

class Point:
    """What the gate needs from one simulated point.

    Built as soon as the point finishes, so the ledger and collector
    are freed as they would be without the benchmark.
    """

    __slots__ = ("key", "report", "stats", "errors", "node_cycles",
                 "done_at")

    def __init__(self, result: Any, done_at: float) -> None:
        self.key = point_key(result.config)
        self.report = result.report
        self.stats = point_stats(result)
        self.errors = invariant_errors(result)
        self.node_cycles = result.cycles_run * result.stats.num_nodes
        self.done_at = done_at


class Capture:
    """Runs simulations for a workload and keeps what the gate checks.

    Campaign workloads reach the simulator through
    ``repro.sim.parallel.run_simulation``; :meth:`install` points that
    name at :meth:`run`, so every point is seen by the gate.  Times come
    from ``clock``, which excludes calibration.
    """

    def __init__(self, simulator: Any, clock: Calibrator) -> None:
        self._simulate = simulator.run_simulation
        self.clock = clock
        self.points: List[Point] = []  #: points of the current round
        self.engines: set = set()  #: engine classes that actually ran

    def run(self, config: Any, keep_engine: bool = False,
            setup: Optional[Callable[[Any], None]] = None) -> Any:
        result = self._simulate(config, keep_engine=True, setup=setup)
        done_at = self.clock.now()
        self.engines.add(type(result.engine).__name__)
        if not keep_engine:
            result.engine = None
        self.points.append(Point(result, done_at))
        return result

    def install(self, parallel: Any) -> None:
        parallel.run_simulation = self.run

    def take(self) -> List[Point]:
        """Hand over (and forget) the points captured so far."""
        points, self.points = self.points, []
        return points


def point_stats(result: Any) -> Dict[str, Any]:
    """The simulated statistics the gate holds to exact identity."""
    report = result.report
    return {
        "cycles_run": result.cycles_run,
        "messages_delivered": report.get("messages_delivered", 0),
        "latency_mean": report["latency_mean"],
        "throughput": report["throughput"],
        "kills": report.get("kills", 0),
        "retransmissions": report.get("retransmissions", 0),
        "undelivered": report["undelivered"],
    }


def invariant_errors(result: Any) -> List[str]:
    """Seed-independent guarantees every point must meet."""
    ledger = result.ledger
    errors = []
    if len(ledger.delivered_uids) != len(ledger.deliveries):
        errors.append("duplicate delivery")
    inversions = ledger.count_fifo_violations()
    if inversions:
        errors.append(f"{inversions} out-of-order deliveries")
    if result.config.routing == "fcr" and ledger.corrupt_deliveries:
        errors.append(f"{ledger.corrupt_deliveries} corrupt FCR deliveries")
    measured = sum(1 for message in ledger.deliveries if message.measured)
    created = result.stats.measured_created
    if measured + result.report["undelivered"] != created:
        errors.append(
            f"delivered {measured} + undelivered "
            f"{result.report['undelivered']} != measured created {created}"
        )
    return errors


class Gate:
    """Checks one round's points; remembers the first round's stats."""

    def __init__(self, workload: str, size: str, seed: int,
                 expected: Dict[str, Any]) -> None:
        self.expected = expected.get(workload, {}).get(size, {})
        self.require_all = seed == DEFAULT_SEED
        self.first: Dict[str, Dict[str, Any]] = {}

    def check(self, key: str, stats: Dict[str, Any]) -> List[str]:
        errors = []
        reference = self.expected.get(key)
        if reference is None and self.require_all:
            errors.append("no expected statistics for the default seed")
        for name, want in (reference or {}).items():
            if stats.get(name) != want:
                errors.append(f"{name} {stats.get(name)!r} != expected "
                              f"{want!r}")
        seen = self.first.setdefault(key, stats)
        if seen != stats:
            errors.append("statistics differ from the run's first round")
        return errors


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Round:
    """What one round produced: timing plus per-point outcomes."""

    def __init__(self) -> None:
        self.wall_s = 0.0  #: the timed phase, net of calibration
        self.scale = 1.0  #: net seconds -> reference-speed seconds
        self.exec_s = 0.0  #: the part that executes points
        self.point_s: Dict[str, float] = {}  #: completion-to-completion
        self.stats: Dict[str, Dict[str, Any]] = {}
        self.errors: Dict[str, List[str]] = {}
        self.attempted = 0
        self.node_cycles = 0
        self.counters: Dict[str, int] = {}
        self.reports: Dict[str, Dict[str, Any]] = {}
        self.phases: Dict[str, float] = {}
        #: observability output of the round (campaign-tiny only)
        self.spans_journaled = 0
        self.log_records = 0

    def absorb(self, points: List[Point], started: float) -> None:
        """Record captured points (call after the timed phase)."""
        previous = started
        for point in points:
            self.point_s[point.key] = point.done_at - previous
            previous = point.done_at
            self.stats[point.key] = point.stats
            self.reports[point.key] = point.report
            self.errors.setdefault(point.key, []).extend(point.errors)
            self.node_cycles += point.node_cycles
            for name, value in point.report.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    self.counters[name] = self.counters.get(name, 0) + value

    def fail(self, key: str, message: str) -> None:
        self.errors.setdefault(key, []).append(message)


class Workload:
    """One benchmark workload: inputs from a seed, rounds of work."""

    name = ""

    def __init__(self, seed: int, size: str, work: str,
                 capture: Capture) -> None:
        self.seed = seed
        self.size = size
        self.work = work
        self.capture = capture
        self.clock = capture.clock
        self.rounds = 0

    def configs(self) -> List[Any]:
        raise NotImplementedError

    def profile_config(self) -> Any:
        """The point the traced run profiles phase by phase."""
        raise NotImplementedError

    def prepare(self) -> Any:
        """Untimed per-round set-up; returns the round's state."""
        return None

    def execute(self, state: Any, out: Round) -> None:
        """The timed phase."""
        raise NotImplementedError

    def verify(self, state: Any, out: Round) -> None:
        """Untimed checks of the program's outputs beyond the points."""

    def round(self, gate: Gate,
              arm: Callable[[], Any] = contextlib.nullcontext) -> Round:
        """Prepare, time ``execute`` inside ``arm()``, then gate."""
        self.rounds += 1
        state = self.prepare()
        out = Round()
        out.attempted = len(self.configs())
        self.capture.take()
        with arm():
            mark = self.clock.mark()
            started = self.clock.now()
            self.execute(state, out)
            out.wall_s = self.clock.now() - started
            out.scale = self.clock.scale(mark)
        out.absorb(self.capture.take(), started)
        self.verify(state, out)
        for key, stats in out.stats.items():
            out.errors[key].extend(gate.check(key, stats))
        if len(out.stats) != out.attempted:
            out.fail("round", f"{len(out.stats)} of {out.attempted} "
                     f"points ran")
        return out


class E01Sweep(Workload):
    """The QUICK E01 grid through ``run_simulation``, no orchestration."""

    name = "e01-sweep"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        from repro.experiments.common import QUICK

        scale = QUICK.scaled(seed=self.seed)
        if self.size == "tiny":
            scale = scale.scaled(radix=4, warmup=20, measure=100,
                                 drain=600)
        base = scale.base_config(num_vcs=2, buffer_depth=2)
        self._configs = [base.with_(routing=routing, load=load)
                         for routing in ("cr", "dor")
                         for load in scale.loads]

    def configs(self) -> List[Any]:
        return self._configs

    def profile_config(self) -> Any:
        return self._configs[len(self._configs) // 2 - 1]  # CR, top load

    def execute(self, state: Any, out: Round) -> None:
        started = self.clock.now()
        for config in self._configs:
            try:
                self.capture.run(config)
            except Exception as exc:  # a failed point is measured
                out.fail(point_key(config), repr(exc))
        out.exec_s = self.clock.now() - started


class CampaignWorkload(Workload):
    """Shared store handling for the two campaign workloads."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.spec = self.make_spec()
        self._points = list(self.spec.points())

    def make_spec(self) -> Any:
        raise NotImplementedError

    def configs(self) -> List[Any]:
        return [point.config for point in self._points]

    def fresh_store(self) -> Any:
        from repro.campaign.store import CampaignStore

        directory = os.path.join(self.work, f"round-{self.rounds}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        return CampaignStore(os.path.join(directory, "campaign.sqlite"))

    def verify(self, state: Any, out: Round) -> None:
        """Every point journaled ok, as simulated; closes the store."""
        store = state["store"]
        by_id = {point.point_id: point_key(point.config)
                 for point in self._points}
        try:
            rows = store.rows(self.spec.name)
        finally:
            store.close()
        if len(rows) != len(self._points):
            out.fail("store", f"{len(rows)} stored rows for "
                     f"{len(self._points)} points")
        for row in rows:
            key = by_id[row["point_id"]]
            if row["status"] != "ok":
                out.fail(key, f"journaled {row['status']}: {row['error']}")
                continue
            report = out.reports.get(key, {})
            for metric in self.spec.metrics:
                if metric in report and row.get(metric) != report[metric]:
                    out.fail(key, f"stored {metric} {row.get(metric)!r} "
                             f"!= simulated {report[metric]!r}")


class FaultCampaign(CampaignWorkload):
    """FCR under transient and permanent faults through ``run_campaign``."""

    name = "fault-campaign"

    def make_spec(self) -> Any:
        from repro.campaign.library import get_campaign
        from repro.campaign.spec import CampaignSpec
        from repro.experiments.common import QUICK

        scale = QUICK.scaled(seed=self.seed)
        if self.size == "tiny":
            scale = scale.scaled(radix=4, warmup=20, measure=100,
                                 drain=300)
        data = get_campaign("fault-matrix", scale).to_dict()
        data["name"] = "bench-fault"
        data["axes"] = {"fault_rate": [5e-3], "permanent_faults": [0, 2],
                        "load": [0.2]}
        data["metrics"] = list(data["metrics"]) + [
            "messages_delivered", "kills", "retransmissions"]
        return CampaignSpec.from_dict(data)

    def profile_config(self) -> Any:
        return self.configs()[-1]  # two permanent faults

    def prepare(self) -> Any:
        return {"store": self.fresh_store()}

    def execute(self, state: Any, out: Round) -> None:
        from repro.campaign import runner

        started = self.clock.now()
        stats = runner.run_campaign(self.spec, state["store"])
        out.exec_s = self.clock.now() - started
        out.phases["campaign"] = out.exec_s
        if stats.failed:
            out.fail("campaign", f"{stats.failed} points failed")


class CampaignTiny(CampaignWorkload):
    """Many minimal points through an in-process, traced fabric worker."""

    name = "campaign-tiny"
    poll = 0.25  #: the worker's idle poll (seconds), as the fabric default

    def make_spec(self) -> Any:
        from repro.campaign.spec import CampaignSpec

        return CampaignSpec.from_dict({
            "name": "bench-tiny",
            "base": {"radix": 4, "dims": 2, "warmup": 0, "measure": 8,
                     "drain": 40},
            "axes": {"routing": ["cr", "fcr", "dor"],
                     "load": [0.1, 0.2, 0.3, 0.4]},
            "replications": 2 if self.size == "tiny" else 40,
            "seed": self.seed,
            "metrics": ["latency_mean", "throughput", "undelivered",
                        "messages_delivered", "kills",
                        "retransmissions"],
        })

    def profile_config(self) -> Any:
        return self.configs()[-1]  # DOR at the top load

    def prepare(self) -> Any:
        from repro.campaign.runner import submit_campaign

        store = self.fresh_store()
        submit_campaign(self.spec, store)
        return {"store": store}

    def execute(self, state: Any, out: Round) -> None:
        from repro.campaign import fabric, runner, timeline

        store = state["store"]
        started = self.clock.now()
        worker = fabric.Worker(self.spec.name, store.path,
                               worker_id="bench-worker", trace=True,
                               poll=self.poll)
        state["worker"] = worker.run()
        resumed = self.clock.now()
        state["resume"] = runner.run_campaign(self.spec, store)
        timed = self.clock.now()
        state["timeline"] = timeline.campaign_timeline(store,
                                                       self.spec.name)
        ended = self.clock.now()
        out.exec_s = resumed - started
        out.phases = {"worker": resumed - started,
                      "resume": timed - resumed, "timeline": ended - timed}

    def verify(self, state: Any, out: Round) -> None:
        from repro.campaign.timeline import timeline_summary
        from repro.obs.log import campaign_log_dir, read_campaign_logs

        total = len(self._points)
        worker, resume = state["worker"], state["resume"]
        if not worker.complete or worker.ran != total:
            out.fail("worker", f"worker ran {worker.ran} of {total}")
        if resume.skipped != total or resume.ran:
            out.fail("resume", f"resume skipped {resume.skipped}, "
                     f"ran {resume.ran} of {total}")
        summary = timeline_summary(state["store"], self.spec.name)
        if summary["open"] or not state["timeline"]["traceEvents"]:
            out.fail("timeline", f"{summary['open']} open spans")
        out.spans_journaled = summary["spans"]
        out.log_records = len(read_campaign_logs(
            campaign_log_dir(state["store"].path, self.spec.name)))
        super().verify(state, out)


WORKLOADS = {cls.name: cls for cls in (E01Sweep, FaultCampaign,
                                       CampaignTiny)}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def _load_expected(path: str) -> Dict[str, Any]:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _make(args: argparse.Namespace, capture: Capture) -> Workload:
    return WORKLOADS[args.workload](args.seed, args.size, args.work,
                                    capture)


def _round_summary(out: Round) -> Dict[str, Any]:
    return {
        "wall_s": out.wall_s,
        "scale": out.scale,
        "exec_s": out.exec_s,
        "phases": out.phases,
        "point_s": out.point_s,
        "node_cycles": out.node_cycles,
        "errors": {key: errors for key, errors in out.errors.items()
                   if errors},
        "attempted": out.attempted,
    }


def mode_setup(args: argparse.Namespace,
               clock: Calibrator) -> Dict[str, Any]:
    import repro  # noqa: F401 - the import is part of set-up
    from repro.sim import parallel, simulator

    capture = Capture(simulator, clock)
    capture.install(parallel)
    workload = _make(args, capture)
    state = workload.prepare()
    workload.configs()[0].build()
    ready = time.monotonic()
    clock.stop()
    if isinstance(state, dict) and "store" in state:
        state["store"].close()
    return {"ready": ready, "calibration_s": clock.spent,
            "scale": clock.scale((0.0, 0))}


def mode_run(args: argparse.Namespace, clock: Calibrator) -> Dict[str, Any]:
    import repro  # noqa: F401
    from repro.sim import parallel, simulator

    capture = Capture(simulator, clock)
    capture.install(parallel)
    workload = _make(args, capture)
    gate = Gate(args.workload, args.size, args.seed,
                _load_expected(args.expected))
    deadline = time.perf_counter() + args.seconds
    rounds = [_round_summary(workload.round(gate))]
    # Peak RSS through set-up and one round: later rounds only add
    # allocator slack, and how many run depends on host speed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while time.perf_counter() < deadline:
        rounds.append(_round_summary(workload.round(gate)))
    clock.stop()
    return {
        "rounds": rounds,
        "engines": sorted(capture.engines),
        "peak_rss_mb": peak_rss_mb,
    }


def mode_trace(args: argparse.Namespace,
               clock: Calibrator) -> Dict[str, Any]:
    started = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - started
    from repro.sim import parallel, simulator

    import layers

    capture = Capture(simulator, clock)
    capture.install(parallel)
    workload = _make(args, capture)
    gate = Gate(args.workload, args.size, args.seed,
                _load_expected(args.expected))
    plain = workload.round(gate)
    recorder = layers.SpanRecorder()
    traced = workload.round(gate, lambda: layers.armed(recorder, capture))
    profile = layers.profile_point(simulator, workload)
    metrics = layers.per_layer(
        recorder, plain, traced, profile, import_s, workload)
    return {
        "rounds": [_round_summary(plain), _round_summary(traced)],
        "engines": sorted(capture.engines),
        "per_layer": metrics,
    }


def mode_record(args: argparse.Namespace,
                clock: Calibrator) -> Dict[str, Any]:
    import repro  # noqa: F401
    from repro.sim import parallel, simulator

    capture = Capture(simulator, clock)
    capture.install(parallel)
    expected: Dict[str, Any] = {}
    for name, cls in WORKLOADS.items():
        for size in ("full", "tiny"):
            workload = cls(DEFAULT_SEED, size, args.work, capture)
            out = workload.round(Gate(name, size, -1, {}))
            bad = {key: errors for key, errors in out.errors.items()
                   if errors}
            if bad:
                raise SystemExit(f"{name}/{size}: {bad}")
            expected.setdefault(name, {})[size] = dict(
                sorted(out.stats.items()))
    with open(args.expected, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return {"recorded": args.expected}


MODES = {"setup": mode_setup, "run": mode_run, "trace": mode_trace,
         "record": mode_record}

#: modes whose times are calibrated; the others report raw host time.
CALIBRATED = ("setup", "run")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="e01-sweep")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--expected", default=DEFAULT_EXPECTED)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    clock = Calibrator()
    if args.mode in CALIBRATED:
        clock.start()  # before `import repro`, which set-up times
    result = MODES[args.mode](args, clock)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
