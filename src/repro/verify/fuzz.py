"""Seeded configuration fuzzing: random configs under full checking.

:func:`fuzz_config` derives a pseudo-random but *valid-by-construction*
:class:`~repro.sim.config.SimConfig` from ``(seed, index)``: schemes are
paired with topologies they support, permanent faults only appear with
misrouting-capable schemes, and run lengths stay small enough that ~25
cases finish in seconds.  Every case runs with all invariants armed, so
the fuzzer turns the checker layer into a property: *no reachable
configuration violates a protocol invariant*.

``tests/verify/test_fuzz_smoke.py`` runs the fixed-seed corpus in CI
(the nightly workflow rotates the seed via ``CR_FUZZ_SEED``); a failure
prints the exact reproduction command::

    PYTHONPATH=src python -m repro.verify.fuzz --seed <S> --index <I>

which this module's ``__main__`` implements.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.timeout import FixedTimeout
from ..sim.config import SimConfig
from .invariants import VerifyConfig

#: default corpus size the smoke test and CLI sweep over.
DEFAULT_CASES = 25
#: default seed, rotated nightly in CI via the CR_FUZZ_SEED env var.
DEFAULT_SEED = 20260805


def repro_command(seed: int, index: int) -> str:
    """The shell command that replays one fuzz case."""
    return (
        f"PYTHONPATH=src python -m repro.verify.fuzz "
        f"--seed {seed} --index {index}"
    )


def fuzz_config(seed: int, index: int) -> SimConfig:
    """Derive fuzz case ``index`` of the corpus for ``seed``."""
    rng = random.Random(f"cr-fuzz:{seed}:{index}")
    scheme = rng.choice(
        ["cr", "cr", "fcr", "fcr", "dor", "dor+cr", "duato",
         "turn", "drop", "pcs"]
    )
    # Pair the scheme with a topology it is defined on: the turn model
    # needs a mesh, Duato's escape structure targets the torus.
    if scheme == "turn":
        topology = "mesh"
    elif scheme == "duato":
        topology = "torus"
    else:
        topology = rng.choice(["torus", "torus", "mesh", "hypercube"])
    if topology == "hypercube":
        dims = rng.randint(3, 4)
        radix = 2
    else:
        dims = 2
        radix = rng.randint(3, 5)

    timeout = None
    if scheme in ("cr", "fcr", "dor+cr") and rng.random() < 0.5:
        timeout = FixedTimeout(rng.randint(16, 64))

    fault_rate = 0.0
    permanent_faults = 0
    misrouting = False
    if scheme == "fcr":
        fault_rate = rng.choice([0.0, 1e-4, 1e-3])
        if rng.random() < 0.4:
            # Dead channels need non-minimal retries to stay routable.
            permanent_faults = 1
            misrouting = True

    num_vcs: Optional[int] = None
    if rng.random() < 0.3:
        num_vcs = 3 if scheme == "dor" else rng.randint(2, 3)
        if scheme == "duato":
            # Duato's escape structure needs 3 VCs.  Raised after the
            # draw so the RNG sequence (and every corpus) is unchanged.
            num_vcs = 3

    return SimConfig(
        topology=topology,
        radix=radix,
        dims=dims,
        routing=scheme,
        num_vcs=num_vcs,
        buffer_depth=rng.randint(1, 3),
        channel_latency=rng.randint(1, 2),
        eject_slots=rng.randint(1, 3),
        timeout=timeout,
        order_preserving=rng.random() < 0.8,
        misrouting=misrouting,
        message_length=rng.randint(4, 12),
        load=round(rng.uniform(0.05, 0.35), 3),
        pattern=rng.choice(["uniform", "transpose", "complement"]),
        fault_rate=fault_rate,
        permanent_faults=permanent_faults,
        warmup=30,
        measure=250,
        drain=4000,
        seed=seed * 1000 + index,
        verify=VerifyConfig(check_interval=8),
    )


def run_fuzz_case(seed: int, index: int):
    """Replay one fuzz case; returns the SimResult (raises on violation)."""
    from ..sim.simulator import run_simulation

    return run_simulation(fuzz_config(seed, index))


def _main(argv=None) -> int:  # pragma: no cover - manual repro entry
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.fuzz",
        description="replay seeded fuzz cases under full invariant "
                    "checking",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--index", type=int, default=None,
        help="replay one case (default: the whole corpus)",
    )
    parser.add_argument("--cases", type=int, default=DEFAULT_CASES)
    args = parser.parse_args(argv)

    indices = [args.index] if args.index is not None else range(args.cases)
    failures = 0
    for index in indices:
        config = fuzz_config(args.seed, index)
        label = (
            f"case {index}: {config.routing} on {config.radix}-ary "
            f"{config.dims}-{config.topology}, load {config.load}"
        )
        try:
            result = run_fuzz_case(args.seed, index)
        except Exception as exc:  # noqa: BLE001 - report any failure
            failures += 1
            print(f"FAIL {label}\n  repro: "
                  f"{repro_command(args.seed, index)}\n  {exc}")
            continue
        summary = result.report.get("verify", {})
        print(f"ok   {label} ({summary.get('checks', 0)} checks, "
              f"{result.report.get('messages_delivered', 0)} delivered)")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - manual repro entry
    import sys

    sys.exit(_main())
