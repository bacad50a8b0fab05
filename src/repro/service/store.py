"""The shared result store behind the sweep service.

``run_cells`` has always consulted a :class:`ResultCache` before
dispatching; the service promotes that contract to an explicit
interface so the *same* store instance is shared by every sweep the
service runs — a cell any previous sweep computed is served at cache
speed without touching the worker pool, whoever submits it.

:class:`ResultStore` is the minimal protocol ``run_cells`` actually
uses (``lookup_spec`` / ``store`` / ``enabled``, and ``apply_budget``
once after a run that stored results) plus the ``stats_snapshot`` the
``/metrics`` endpoint reports.
:class:`DiskResultStore` is the current backend: a thin adapter over
the existing content-addressed disk cache.  A future keyed object
store (the ROADMAP's "pluggable backend") implements the same four
members and drops in.
"""

from __future__ import annotations

import abc
import os
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.runner.result_cache import RESULT_CACHE, ResultCache


class ResultStore(abc.ABC):
    """What the runner and the service need from a result backend."""

    @property
    @abc.abstractmethod
    def enabled(self) -> bool:
        """False when the backend cannot persist (lookups all miss)."""

    @abc.abstractmethod
    def lookup_spec(self, spec: Any) -> Tuple[Optional[str], Any]:
        """``(fingerprint, cached_result_or_None)`` for one spec."""

    @abc.abstractmethod
    def store(self, fingerprint: str, result: Any) -> None:
        """Persist one finished cell under its fingerprint."""

    @abc.abstractmethod
    def stats_snapshot(self) -> Dict[str, Any]:
        """Thread-safe counters (hits/misses/...) for ``/metrics``."""

    def apply_budget(self) -> int:
        """Bound the backend's size after a run that stored results;
        returns how many entries were evicted.  A backend without a
        size bound keeps this no-op."""
        return 0

    def warm_count(self, specs: Iterable[Any]) -> int:
        """How many of ``specs`` are already checkpointed.

        Restart recovery uses this to report how much of a resumed
        sweep will be served warm.  The base implementation probes with
        ``lookup_spec``; backends should override with a stat-only path
        that does not inflate the hit/miss counters."""
        return sum(1 for spec in specs if self.lookup_spec(spec)[1] is not None)


class DiskResultStore(ResultStore):
    """The content-addressed disk cache behind the store interface.

    Wraps an existing :class:`ResultCache` (default: the process-wide
    :data:`~repro.runner.result_cache.RESULT_CACHE`, so a service and
    an in-process CLI sweep share entries *and* counters).  Passing a
    dedicated ``ResultCache(disk_dir=...)`` isolates a service — the
    tests and the smoke harness do exactly that.
    """

    def __init__(self, cache: Optional[ResultCache] = None):
        self.cache = cache if cache is not None else RESULT_CACHE

    @property
    def enabled(self) -> bool:
        return self.cache.enabled

    def lookup_spec(self, spec: Any) -> Tuple[Optional[str], Any]:
        return self.cache.lookup_spec(spec)

    def store(self, fingerprint: str, result: Any) -> None:
        self.cache.store(fingerprint, result)

    def apply_budget(self) -> int:
        return self.cache.apply_budget()

    def stats_snapshot(self) -> Dict[str, Any]:
        snapshot = self.cache.stats_snapshot()
        lookups = snapshot["hits"] + snapshot["misses"]
        snapshot["hit_rate"] = snapshot["hits"] / lookups if lookups else 0.0
        snapshot["backend"] = "disk"
        return snapshot

    def warm_count(self, specs: Iterable[Any]) -> int:
        """Stat-only checkpoint probe: fingerprints + file existence,
        so counting warm cells does not skew the hit/miss counters the
        smoke asserts on."""
        if not self.enabled:
            return 0
        warm = 0
        for spec in specs:
            fingerprint = ResultCache.fingerprint(spec)
            if fingerprint and os.path.exists(self.cache._path_for(fingerprint)):
                warm += 1
        return warm
