"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the ``src/repro`` of the checkout it
lives in.  Each measured process is a fresh interpreter running
``workloads.py``, one at a time:

* ``--trace 0`` starts :data:`SETUP_SAMPLES` set-up-only interpreters
  (``setup_s`` is their median), then one interpreter that repeats
  timed rounds of the workload for ``--seconds`` and gates every
  round's simulated outputs.  Prints the end-to-end metrics.
* ``--trace 1`` starts one interpreter that runs an untraced round, a
  round with layer spans armed, and one profiled point.  Prints the
  per-layer metrics.

The line before the result holds the run's details: the host
fingerprint, per-round timings, sample counts and any gate errors.
The exit code is 0 when every output passed the gate, 1 when the gate
failed or a measured process crashed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("e01-sweep", "fault-campaign", "campaign-tiny")

#: set-up-only interpreters per ``--trace 0`` run.
SETUP_SAMPLES = 5

#: every measured process of one run must end within this many seconds.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "node_cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "point_ms_p50": "ms",
    "point_ms_p95": "ms",
}


class ChildFailed(RuntimeError):
    """A measured interpreter exited non-zero or ran out of time."""


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_ms") or "_ms_per_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "ns_per" in name:
        return "ns"
    if name.endswith("_share") or name.endswith("_per_attempt"):
        return "ratio"
    return "count"


def percentile(ordered: List[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------

def host_sample() -> Dict[str, Any]:
    """Cumulative steal time and load averages, where /proc has them."""
    sample: Dict[str, Any] = {"steal_s": None, "loadavg": None}
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        sample["steal_s"] = int(fields[8]) / os.sysconf("SC_CLK_TCK")
        with open("/proc/loadavg", encoding="ascii") as handle:
            sample["loadavg"] = [float(x) for x in handle.read().split()[:3]]
    except (OSError, IndexError, ValueError):
        pass
    return sample


def git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the measured sources, so runs name their code."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def fingerprint(before: Dict[str, Any], after: Dict[str, Any],
                engines: List[str]) -> Dict[str, Any]:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    steal = None
    if before["steal_s"] is not None and after["steal_s"] is not None:
        steal = after["steal_s"] - before["steal_s"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "engines": engines,
        "steal_s_delta": steal,
        "loadavg_start": before["loadavg"],
        "loadavg_end": after["loadavg"],
    }


# ----------------------------------------------------------------------
# Measured interpreters
# ----------------------------------------------------------------------

def run_child(mode: str, args: argparse.Namespace, work: str,
              deadline: float) -> Tuple[Dict[str, Any], float]:
    """Run ``workloads.py MODE`` in a fresh interpreter.

    Returns its result and the ``time.monotonic()`` stamp taken just
    before the interpreter started.
    """
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size,
        "--expected", args.expected, "--work", work,
    ]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} interpreter ran past the time budget")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{mode} interpreter exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def end_to_end(run: Dict[str, Any], setup: List[float]
               ) -> Dict[str, float]:
    """The bounded metrics, in host seconds at the reference speed.

    Every round's net times are multiplied by the round's calibration
    scale (see ``calibrate.py``) before medians are taken.
    """
    rounds = run["rounds"]
    wall = statistics.median(r["wall_s"] * r["scale"] for r in rounds)
    per_point = sorted(
        statistics.median(r["point_s"][key] * r["scale"] for r in rounds
                          if key in r["point_s"])
        for key in rounds[0]["point_s"]
    )
    return {
        "wall_s": wall,
        "node_cycles_per_s": rounds[0]["node_cycles"] / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run["peak_rss_mb"],
        "point_ms_p50": 1000.0 * percentile(per_point, 0.50),
        "point_ms_p95": 1000.0 * percentile(per_point, 0.95),
    }


def measure(args: argparse.Namespace, work: str
            ) -> Tuple[Dict[str, Any], Dict[str, float], List[float]]:
    """The measured run's output, its metrics, and set-up samples."""
    deadline = time.monotonic() + BUDGET_S
    setup: List[float] = []
    if args.trace:
        run, _ = run_child("trace", args, work, deadline)
        return run, run["per_layer"], setup
    for index in range(SETUP_SAMPLES):
        ready, started = run_child("setup", args,
                                   os.path.join(work, f"setup-{index}"),
                                   deadline)
        net = ready["ready"] - started - ready["calibration_s"]
        setup.append(net * ready["scale"])
    run, _ = run_child("run", args, os.path.join(work, "run"), deadline)
    return run, end_to_end(run, setup), setup


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload (self-test)")
    parser.add_argument("--expected",
                        default=os.path.join(HERE, "expected.json"),
                        help="expected statistics for the default seed")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    before = host_sample()
    try:
        run, metrics, setup = measure(args, work)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    after = host_sample()

    attempted = sum(r["attempted"] for r in run["rounds"])
    errors = {f"round {index}: {key}": messages
              for index, r in enumerate(run["rounds"])
              for key, messages in r["errors"].items()}
    failed = min(attempted, len(errors))
    units = END_TO_END_UNITS if not args.trace else {
        name: layer_unit(name) for name in metrics}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "rounds": len(run["rounds"]),
        "round_net_wall_s": [r["wall_s"] for r in run["rounds"]],
        "round_scale": [r["scale"] for r in run["rounds"]],
        "round_phases_s": [r["phases"] for r in run["rounds"]],
        "point_samples": len(run["rounds"][0]["point_s"]),
        "setup_s_samples": setup,
        "error_rate": failed / attempted,
        "errors": errors,
        "fingerprint": fingerprint(before, after, run["engines"]),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    for where, messages in list(errors.items())[:10]:
        print(f"perfbench: gate: {where}: {'; '.join(messages)}",
              file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
