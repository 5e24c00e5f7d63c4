"""FastEngine differential equivalence and behaviour tests.

The fast engine's contract is flit-for-flit identity with the
reference engine, so nearly every test here is a differential run:
same config, both engines, identical events/report/channel state.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.network.engine import Engine
from repro.network.fastengine import FastEngine
from repro.network.message import reset_uid_counter
from repro.obs.tracing import run_traced
from repro.sim.config import SimConfig
from repro.verify import (
    ENGINE_EQUIVALENCE_PRESETS,
    assert_engines_equivalent,
    engine_equivalence_presets,
    iter_fuzz_equivalence_configs,
)
from repro.verify.fuzz import DEFAULT_SEED

#: the fuzz corpus seed; the nightly workflow rotates it (as it does for
#: tests/verify/test_fuzz_smoke.py) so the engine differential keeps
#: seeing new configurations.
FUZZ_SEED = int(os.environ.get("CR_FUZZ_SEED", str(DEFAULT_SEED)))

# Small-but-busy base for the targeted cases: large enough to exercise
# kills/misrouting, small enough to keep the differential runs quick.
SMALL = dict(
    radix=4, dims=2, message_length=8, load=0.3,
    warmup=60, measure=240, drain=800, seed=11,
)


class TestPresetEquivalence:
    """Acceptance presets: e01, e07, and the e16-style no-VC mesh."""

    @pytest.mark.parametrize("name", ENGINE_EQUIVALENCE_PRESETS)
    def test_preset_is_flit_identical(self, name):
        config = engine_equivalence_presets()[name]
        assert_engines_equivalent(config, label=name)


class TestFuzzCorpusEquivalence:
    """The seeded 25-config fuzz corpus, run under both engines."""

    @pytest.mark.parametrize(
        "index,config",
        list(iter_fuzz_equivalence_configs(FUZZ_SEED)),
        ids=lambda value: (
            f"case{value:02d}" if isinstance(value, int) else ""
        ),
    )
    def test_fuzz_case_is_flit_identical(self, index, config):
        assert_engines_equivalent(config, label=f"fuzz case {index}")


class TestTargetedEquivalence:
    def test_pcs_falls_back_and_stays_identical(self):
        # PCS uses the reference stepping path inside FastEngine; the
        # outputs must still match exactly.
        assert_engines_equivalent(
            SimConfig(routing="pcs", num_vcs=2, **SMALL),
            label="pcs",
        )

    def test_swretry_falls_back_and_stays_identical(self):
        assert_engines_equivalent(
            SimConfig(
                routing="dor", software_retry=True, num_vcs=2,
                fault_rate=5e-4, **SMALL
            ),
            label="swretry",
        )

    def test_faulty_run_is_identical(self):
        assert_engines_equivalent(
            SimConfig(
                routing="fcr", num_vcs=2, fault_rate=5e-4, **SMALL
            ),
            label="fcr-faults",
        )


class TestE23TraceIdentity:
    """E23's recorded-workload replay, run under both engines.

    E23's whole argument rests on byte-identical workloads, so the
    engines must agree not just on generated traffic but on trace
    replay — including the drained makespan cycle count.
    """

    @pytest.mark.parametrize("scheme", ("cr", "dor"))
    def test_replay_is_flit_identical(self, scheme):
        from repro.traffic.trace import record_trace

        reset_uid_counter()
        trace = record_trace(SimConfig(routing="cr", **SMALL))
        assert_engines_equivalent(
            SimConfig(
                routing=scheme, num_vcs=2, trace=trace, **SMALL
            ),
            label=f"e23-{scheme}",
        )


class TestEngineBehaviour:
    def _run(self, **overrides):
        params = dict(SMALL)
        params.update(overrides)
        reset_uid_counter()
        return run_traced(
            SimConfig(engine="fast", **params), keep_engine=True
        )

    def test_event_skipping_happens_when_sparse(self):
        # At very low load the network is quiescent most of the time;
        # the fast engine must jump those gaps rather than tick them.
        traced = self._run(routing="cr", num_vcs=2, load=0.02)
        engine = traced.result.engine
        assert isinstance(engine, FastEngine)
        assert engine.cycles_skipped > 0

    def test_profiler_attributes_skipped_cycles_to_idle(self):
        # Profiled runs keep paced generator cycles timed, so idle-phase
        # accounting shows up on pure skips: replay a sparse trace,
        # where the gaps between entries have no actor at all.
        from repro.traffic.trace import record_trace

        reset_uid_counter()
        trace = record_trace(
            SimConfig(routing="cr", num_vcs=2, **{
                **SMALL, "load": 0.02,
            })
        )
        traced = self._run(
            routing="cr", num_vcs=2, load=0.0, trace=trace, profile=True
        )
        idle = traced.report["profile"]["phases"]["idle"]
        assert idle["calls"] > 0
        assert traced.result.engine.cycles_skipped > 0

    def test_saturated_run_skips_nothing_yet_matches(self):
        traced = self._run(routing="cr", num_vcs=2, load=0.9)
        assert traced.result.engine.cycles_skipped == 0

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SimConfig(engine="bogus", **SMALL).build()

    def test_routing_memo_shares_equal_tiers(self):
        traced = self._run(routing="cr", num_vcs=2)
        cache = traced.result.engine._table._cache
        entries = list(cache.values())
        assert entries and all(
            isinstance(tiers, tuple)
            and all(isinstance(tier, tuple) for tier in tiers)
            for tiers in entries
        )
        # Equal answers are one interned object, not per-key copies.
        assert len({id(tiers) for tiers in entries}) == len(set(entries))
        assert len(set(entries)) < len(entries)


class TestDefaultEngine:
    def test_default_config_builds_fast_engine(self):
        engine = SimConfig(**SMALL).build()
        assert type(engine) is FastEngine

    def test_reference_engine_still_selectable(self):
        engine = SimConfig(engine="reference", **SMALL).build()
        assert type(engine) is Engine

    def test_quick_campaign_point_builds_fast_engine(self):
        from repro.campaign import get_campaign

        point = next(iter(get_campaign("fault-matrix").points()))
        assert type(point.config.build()) is FastEngine

    def test_import_repro_leaves_numpy_unloaded(self):
        # numpy serves only the channel-state snapshots; every CLI call
        # and fabric worker imports repro and must not pay for it.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('numpy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert probe.stdout.strip() == "False"
