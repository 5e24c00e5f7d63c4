"""Seeded configuration-fuzz smoke: random configs under full checking.

The corpus is deterministic per seed: CI runs the fixed default seed on
every push, and the nightly workflow rotates ``CR_FUZZ_SEED`` (set to
the date) so the config space keeps getting new coverage without ever
producing an unreproducible failure.  When a case fails, the message
carries the exact command that replays it locally.
"""

import os

import pytest

from repro.sim.parallel import config_cache_key
from repro.verify.fuzz import (
    DEFAULT_CASES,
    DEFAULT_SEED,
    fuzz_config,
    repro_command,
    run_fuzz_case,
)

SEED = int(os.environ.get("CR_FUZZ_SEED", str(DEFAULT_SEED)))


class TestCorpusDeterminism:
    def test_same_seed_same_corpus(self):
        for index in range(5):
            assert config_cache_key(
                fuzz_config(SEED, index)
            ) == config_cache_key(fuzz_config(SEED, index))

    def test_cases_differ(self):
        keys = {
            config_cache_key(fuzz_config(SEED, index))
            for index in range(DEFAULT_CASES)
        }
        assert len(keys) > 1

    def test_every_case_is_armed(self):
        for index in range(DEFAULT_CASES):
            assert fuzz_config(SEED, index).verify is not None

    def test_cases_build_across_many_seeds(self):
        # Valid by construction for every seed the nightly job may
        # pick, not just the pinned one: e.g. duato needs 3 VCs however
        # num_vcs was drawn.
        for seed in (*range(1, 41), DEFAULT_SEED, SEED):
            for index in range(DEFAULT_CASES):
                config = fuzz_config(seed, index)
                try:
                    config.build()
                except ValueError as exc:
                    pytest.fail(
                        f"seed {seed} case {index} ({config.routing}) "
                        f"does not build: {exc}"
                    )


@pytest.mark.parametrize("index", range(DEFAULT_CASES))
def test_fuzz_case_holds_all_invariants(index):
    config = fuzz_config(SEED, index)
    label = (
        f"fuzz case {index}: {config.routing} on {config.radix}-ary "
        f"{config.dims}-{config.topology}, load {config.load}"
    )
    try:
        result = run_fuzz_case(SEED, index)
    except Exception as exc:  # noqa: BLE001 - any failure must repro
        pytest.fail(
            f"{label} failed: {exc}\n"
            f"reproduce with: {repro_command(SEED, index)}"
        )
    summary = result.report["verify"]
    assert summary["checks"] > 0, label
