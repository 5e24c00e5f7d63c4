"""Run orchestration: warmup -> measurement -> drain -> result.

Engine-agnostic: ``SimConfig.build`` hands back whichever engine the
config selects (the default ``engine="fast"`` or ``"reference"``), and
because the fast engine is flit-for-flit identical, the orchestration —
and every report field it produces — is byte-identical under either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.guarantees import DeliveryLedger
from ..network.engine import Engine
from ..stats.collector import StatsCollector
from .config import SimConfig


@dataclass
class SimResult:
    """Everything a single run produced."""

    config: SimConfig
    report: Dict[str, object]
    stats: StatsCollector
    ledger: DeliveryLedger
    drained: bool
    cycles_run: int
    engine: Optional[Engine] = None

    @property
    def latency(self) -> float:
        """Mean total (queue + network) latency of measured messages."""
        return float(self.report["latency_mean"])

    @property
    def throughput(self) -> float:
        """Accepted payload flits per node per cycle in the window."""
        return float(self.report["throughput"])

    def __getitem__(self, key: str) -> object:
        return self.report[key]


def run_simulation(
    config: SimConfig,
    keep_engine: bool = False,
    setup: Optional[Callable[[Engine], None]] = None,
) -> SimResult:
    """Build and run one simulation to completion.

    Generation runs for ``warmup + measure`` cycles; the network is then
    drained (bounded by ``config.drain``) so late measured messages still
    record their latency.  Messages still undelivered after the drain
    budget are reported in the ``undelivered`` field (censored sample).

    ``setup`` runs on the freshly built engine before the first cycle --
    the hook :func:`repro.obs.run_traced` uses to attach event sinks.
    """
    engine = config.build()
    if setup is not None:
        setup(engine)
    active = config.warmup + config.measure
    engine.run(active)
    drained = engine.run_until_drained(config.drain)
    report = engine.stats.report()
    report["drained"] = drained
    report["offered_load"] = config.load
    if engine.sampler is not None:
        engine.sampler.finalize(engine.now)
        report["timeseries"] = engine.sampler.rows()
    if engine.alerts is not None:
        report["alerts"] = engine.alerts.rows()
        report["alerts_summary"] = engine.alerts.summary()
    if engine.telemetry is not None:
        # Publishes the end-of-run snapshot; stops a server this run
        # started (a caller-provided TelemetryServer keeps serving).
        engine.telemetry.close(engine)
    if engine.checker is not None:
        engine.checker.on_run_end(drained, engine.now)
        report["verify"] = engine.checker.summary()
    if engine.profiler is not None:
        report["profile"] = engine.profiler.summary()
    return SimResult(
        config=config,
        report=report,
        stats=engine.stats,
        ledger=engine.ledger,
        drained=drained,
        cycles_run=engine.now,
        engine=engine if keep_engine else None,
    )
