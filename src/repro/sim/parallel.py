"""Parallel sweep execution with a deterministic on-disk result cache.

Every figure reproduction funnels through sweeps whose points are
embarrassingly parallel: each ``run_simulation`` call is bit-for-bit
seeded-deterministic and shares no state with its neighbours, so fanning
points out across a process pool changes nothing about the rows — only
the wall clock.  :func:`run_reports` is the single chokepoint the sweep
and replication helpers go through:

* ``workers=1`` (the default) runs points serially in-process, exactly
  like the historical code path — tests and small sweeps pay no pool
  overhead.
* ``workers=N`` fans points out over a ``ProcessPoolExecutor`` and
  reassembles results in submission order, so the output is
  byte-identical to the serial path.
* ``cache=`` layers an on-disk result cache (JSON, one file per config
  under ``results/.sweep_cache/`` by default) keyed by a stable hash of
  the :class:`~repro.sim.config.SimConfig` dataclass.  Entries record a
  schema version and ``repro.__version__`` and are ignored when either
  is stale, so upgrading the simulator silently invalidates old rows.
* ``progress=`` receives a :class:`PointStatus` as each point lands, so
  long sweeps can report live status.
* ``on_result=`` is the journal hook campaign runners build on: it
  receives ``(index, report, elapsed, cached)`` the moment each point's
  result exists (completion order under a pool, not submission order),
  so a crash between points loses at most the in-flight work.
* ``failures="return"`` turns a point that raises into a
  :class:`PointFailure` entry instead of aborting the whole batch —
  the campaign runner records and retries failures individually.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .config import SimConfig
from .simulator import run_simulation

Report = Dict[str, object]
ProgressCallback = Callable[["PointStatus"], None]
#: journal hook: (index, report-or-PointFailure, elapsed, cached)
ResultCallback = Callable[[int, object, float, bool], None]

#: bump when the report schema or run semantics change in a way that
#: makes previously cached rows incomparable.
SCHEMA_VERSION = 1

#: default on-disk location, next to the exported figure CSVs.
DEFAULT_CACHE_DIR = os.path.join("results", ".sweep_cache")

# Default object reprs embed a memory address; a key built from one
# would vary run to run (and could collide across runs), so any config
# carrying such a field is treated as uncacheable instead.
_MEMORY_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+>")


@dataclass(frozen=True)
class PointStatus:
    """Progress record delivered once per completed sweep point."""

    index: int  #: position in the submitted config sequence
    total: int  #: number of points in the sweep
    elapsed: float  #: seconds the simulation took (0.0 on a cache hit)
    cached: bool  #: True when the row came from the result cache


@dataclass(frozen=True)
class PointFailure:
    """Stand-in result for a point whose simulation raised.

    Only produced under ``failures="return"``; callers distinguish a
    failed point from a report with ``isinstance``.
    """

    error: str  #: ``repr()`` of the exception the point raised
    elapsed: float  #: seconds spent before the failure


def _canonical(value: object) -> Optional[str]:
    """A repr that is stable across processes, or None if none exists."""
    if isinstance(value, dict):
        parts = []
        for key in sorted(value, key=repr):
            text = _canonical(value[key])
            if text is None:
                return None
            parts.append(f"{key!r}: {text}")
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        items = [_canonical(item) for item in value]
        if any(item is None for item in items):
            return None
        body = ", ".join(items)  # type: ignore[arg-type]
        return f"[{body}]" if isinstance(value, list) else f"({body})"
    text = repr(value)
    if _MEMORY_ADDRESS.search(text):
        return None
    return text


def config_cache_key(config: SimConfig) -> Optional[str]:
    """Stable hash of a config, or None when the config is uncacheable.

    The key folds in every dataclass field (sorted by name), so any two
    configs that could produce different rows hash differently.  The
    ``engine`` choice is the exception: the engines are flit-identical
    by contract, so it hashes as ``"reference"``, the value every key
    carried before the fast engine became the default, and keys written
    then still hit.  Fields whose values have no process-stable repr
    (default object reprs with memory addresses — e.g. a hand-built
    fault model without ``__repr__``) make the whole config uncacheable
    rather than risking a wrong hit.
    """
    parts: List[str] = []
    for field in sorted(dataclasses.fields(config), key=lambda f: f.name):
        if field.name == "engine":
            text = repr("reference")
        else:
            text = _canonical(getattr(config, field.name))
        if text is None:
            return None
        parts.append(f"{field.name}={text}")
    blob = ";".join(parts)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SweepCache:
    """One-file-per-config JSON result cache.

    Entries carry ``schema`` (:data:`SCHEMA_VERSION`) and ``version``
    (``repro.__version__``); :meth:`get` ignores entries where either
    does not match the running library, so stale rows are re-simulated
    rather than trusted.  Hits and misses are counted for reporting.
    """

    def __init__(self, path: str = DEFAULT_CACHE_DIR) -> None:
        self.path = str(path)
        self.hits = 0
        self.misses = 0

    def _file(self, key: str) -> str:
        return os.path.join(self.path, key + ".json")

    @staticmethod
    def _library_version() -> str:
        from .. import __version__

        return __version__

    def get(self, key: Optional[str]) -> Optional[Report]:
        if key is None:
            self.misses += 1
            return None
        try:
            with open(self._file(key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != SCHEMA_VERSION
            or entry.get("version") != self._library_version()
            or not isinstance(entry.get("report"), dict)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry["report"]

    def put(self, key: Optional[str], report: Report) -> bool:
        if key is None:
            return False
        os.makedirs(self.path, exist_ok=True)
        entry = {
            "schema": SCHEMA_VERSION,
            "version": self._library_version(),
            "report": report,
        }
        try:
            blob = json.dumps(entry)
        except (TypeError, ValueError):
            return False  # non-JSON report value: skip, don't fail the sweep
        target = self._file(key)
        tmp = target + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(blob)
        os.replace(tmp, target)
        return True

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        try:
            names = os.listdir(self.path)
        except OSError:
            return 0
        for name in names:
            if name.endswith(".json"):
                try:
                    os.remove(os.path.join(self.path, name))
                    removed += 1
                except OSError:
                    pass
        return removed


CacheSpec = Union[None, bool, str, SweepCache]


def resolve_cache(cache: CacheSpec) -> Optional[SweepCache]:
    """Normalise the ``cache=`` argument the sweep helpers accept.

    ``None``/``False`` disable caching, ``True`` uses the default
    directory, a string is a directory path, and a :class:`SweepCache`
    passes through (letting callers share hit/miss counters).
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return SweepCache()
    if isinstance(cache, SweepCache):
        return cache
    return SweepCache(str(cache))


def _run_point(config: SimConfig) -> Tuple[Report, float]:
    """Top-level (spawn-safe, picklable) pool worker: run one point."""
    start = time.perf_counter()
    report = run_simulation(config).report
    return report, time.perf_counter() - start


def run_reports(
    configs: Iterable[SimConfig],
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
    progress: Optional[ProgressCallback] = None,
    on_result: Optional[ResultCallback] = None,
    failures: str = "raise",
) -> List[Report]:
    """Run one simulation per config; reports in submission order.

    ``workers=1`` runs in-process (the exact historical serial path);
    ``workers=N`` uses a process pool of N; ``workers=None`` uses one
    worker per CPU.  Rows are reassembled in submission order, so the
    result is independent of worker count.

    ``on_result`` is called with ``(index, report, elapsed, cached)`` as
    each point's result becomes available — in completion order under a
    pool — so callers can journal results durably before the batch
    finishes.  With ``failures="return"``, a point whose simulation
    raises contributes a :class:`PointFailure` (delivered to
    ``on_result`` and placed in the returned list) instead of aborting
    the remaining points; the default ``failures="raise"`` re-raises.
    """
    if failures not in ("raise", "return"):
        raise ValueError(
            f"failures must be 'raise' or 'return', not {failures!r}"
        )
    config_list = list(configs)
    total = len(config_list)
    store = resolve_cache(cache)
    reports: List[Optional[Report]] = [None] * total

    def landed(index: int, report: object, elapsed: float,
               cached: bool) -> None:
        reports[index] = report  # type: ignore[assignment]
        failed = isinstance(report, PointFailure)
        if store is not None and not cached and not failed:
            store.put(keys[index], report)  # type: ignore[arg-type]
        if on_result is not None:
            on_result(index, report, elapsed, cached)
        if progress is not None:
            progress(PointStatus(index, total, elapsed, cached))

    pending: List[int] = []
    keys: List[Optional[str]] = [None] * total
    for index, config in enumerate(config_list):
        if store is not None:
            keys[index] = config_cache_key(config)
            hit = store.get(keys[index])
            if hit is not None:
                landed(index, hit, 0.0, True)
                continue
        pending.append(index)

    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(pending) <= 1:
        for index in pending:
            start = time.perf_counter()
            try:
                report, elapsed = _run_point(config_list[index])
            except Exception as exc:
                if failures == "raise":
                    raise
                report = PointFailure(  # type: ignore[assignment]
                    repr(exc), time.perf_counter() - start
                )
                elapsed = report.elapsed  # type: ignore[union-attr]
            landed(index, report, elapsed, False)
    else:
        pool_size = min(workers, len(pending))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            waiting = {
                pool.submit(_run_point, config_list[index]): index
                for index in pending
            }
            start = time.perf_counter()
            while waiting:
                done, _ = wait(set(waiting), return_when=FIRST_COMPLETED)
                for future in done:
                    index = waiting.pop(future)
                    try:
                        report, elapsed = future.result()
                    except Exception as exc:
                        if failures == "raise":
                            raise
                        report = PointFailure(
                            repr(exc), time.perf_counter() - start
                        )
                        elapsed = report.elapsed
                    landed(index, report, elapsed, False)
    return reports  # type: ignore[return-value]
