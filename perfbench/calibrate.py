"""Host-speed calibration interleaved with the measured code.

Host speed on small shared VMs moves between regimes that differ by up
to 1.8x and last from seconds to minutes.  A kernel timed apart from
the workload does not track that: it samples other moments.  So the
:class:`Calibrator` interleaves a fixed pure-Python kernel with the
measured code itself.  A CPU-time interval timer (``ITIMER_PROF``)
interrupts the measured code every :data:`INTERVAL_S` of process CPU
time, and the signal handler runs and times the kernel once.

Two things come out of it:

* :meth:`Calibrator.now` is a clock that excludes the time spent in
  the kernel, so measured intervals are net of calibration;
* :meth:`Calibrator.scale` turns a net interval into host seconds at
  the reference speed, at which one kernel pass takes
  :data:`REFERENCE_S`.  It divides by the kernel's mean duration over
  the same interval.

The kernel is stdlib-only code of the benchmark.  It does not change
with the program.  It creates about one object the garbage collector
tracks per two passes, so the program's collections rarely land inside
it.
"""

from __future__ import annotations

import signal
import time
from typing import Any, Dict, List, Tuple

#: process CPU seconds between kernel passes.
INTERVAL_S = 0.01

#: one kernel pass at the reference host speed (seconds).
REFERENCE_S = 0.001

#: rounds of token passing per kernel pass.
KERNEL_STEPS = 200


class _Node:
    __slots__ = ("inbox", "links", "seen")

    def __init__(self) -> None:
        self.inbox: List[int] = []
        self.links: List["_Node"] = []
        self.seen: Dict[int, int] = {}


_NODES = [_Node() for _ in range(16)]
_TOKENS = tuple(range(8))
for _index, _node in enumerate(_NODES):
    _node.links = [_NODES[(_index + 1) % 16], _NODES[(_index + 5) % 16]]


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Token passing between nodes: the attribute, list and dict traffic
    of a flit-level simulator, in miniature."""
    for node in _NODES:
        node.inbox.clear()
        node.seen.clear()
    _NODES[0].inbox.extend(_TOKENS)
    total = 0
    for step in range(steps):
        for node in _NODES:
            if node.inbox:
                token = node.inbox.pop()
                node.seen[token] = node.seen.get(token, 0) + 1
                node.links[(token + step) & 1].inbox.append(
                    (token * 7 + 3) % 64)
                total += token
    return total


class Calibrator:
    """Interleaves :func:`kernel` with the measured code via SIGPROF."""

    def __init__(self) -> None:
        self.spent = 0.0  #: seconds spent in the kernel so far
        self.calls = 0  #: kernel passes so far
        self._busy = False

    def _tick(self, signum: int, frame: Any) -> None:
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        kernel()
        self.spent += time.perf_counter() - started
        self.calls += 1
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        # Restart interrupted system calls (SQLite, fsync) transparently.
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def now(self) -> float:
        """``perf_counter`` minus the time spent calibrating."""
        return time.perf_counter() - self.spent

    def mark(self) -> Tuple[float, int]:
        return self.spent, self.calls

    def scale(self, since: Tuple[float, int]) -> float:
        """Factor from net seconds to reference-speed seconds since a mark.

        1.0 when the kernel has not run since the mark (calibration off).
        """
        spent = self.spent - since[0]
        calls = self.calls - since[1]
        if calls == 0:
            return 1.0
        return REFERENCE_S / (spent / calls)
