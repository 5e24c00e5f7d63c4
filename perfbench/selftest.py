"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload at ``--size tiny`` with ``--trace 0`` and
   ``--trace 1`` and checks that the result line has exactly the
   result keys, passes the gate, and names every metric of
   ``BENCHMARK.json`` with its unit.
2. Alters one expected statistic in a copy of ``expected.json`` and
   checks that the correctness gate catches it: exit code 1,
   ``correct`` false, the point counted in ``failed``.

Exits 0 when every check passes.  Takes about 25 seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, trace: int, *extra: str
          ) -> Tuple[int, Dict[str, Any], Dict[str, Any]]:
    """Run ``run.py`` tiny; returns (exit code, detail, result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "42", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny", *extra],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, {}, {}
    return (proc.returncode, json.loads(lines[-2])["detail"],
            json.loads(lines[-1]))


def result_problems(result: Dict[str, Any],
                    declared: List[Dict[str, Any]]) -> List[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"gate: correct={result['correct']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    want = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(want):
        problems.append(f"missing {sorted(set(want) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            problems.append(f"{name} unit {got.get('unit')!r} != {unit!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name} value {got.get('value')!r}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    failures = 0
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, metrics in ((0, declared["end_to_end"]),
                               (1, declared["per_layer"])):
            code, _, result = bench(workload, trace)
            problems = ([f"exit {code}"] if code else []) + (
                result_problems(result, metrics) if result
                else ["no result line"])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} "
                  f"--trace {trace} {'; '.join(problems)}")

    work = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        with open(os.path.join(HERE, "expected.json"),
                  encoding="utf-8") as f:
            expected = json.load(f)
        points = expected["e01-sweep"]["tiny"]
        key = sorted(points)[0]
        points[key]["messages_delivered"] += 1
        altered = os.path.join(work, "altered.json")
        with open(altered, "w", encoding="utf-8") as f:
            json.dump(expected, f)
        code, detail, result = bench("e01-sweep", 0, "--expected", altered)
        caught = (code == 1 and result.get("correct") is False
                  and result.get("failed", 0) >= 1
                  and any("messages_delivered" in message
                          for messages in detail.get("errors", {}).values()
                          for message in messages))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    failures += not caught
    print(f"{'ok  ' if caught else 'FAIL'} gate catches an altered "
          f"expected statistic ({key}: messages_delivered)")
    print("selftest passed" if not failures
          else f"selftest: {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
