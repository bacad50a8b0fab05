"""Content-addressed cache of per-cell sweep results.

A sweep cell is a pure function of its spec (that is what makes the
parallel runner bit-identical for any job count), so its *result* is
fully identified by a fingerprint of

* the spec itself (``repr`` of the frozen dataclass — every field,
  including the simulator config, participates),
* the spec's ``result_cache_token()`` — a version string naming every
  piece of code whose behaviour the result depends on (simulator
  semantics, trace generators); bumping any named version orphans old
  entries rather than serving stale results,
* :data:`SIM_CODE_VERSION` below, the simulator-wide version.

``run_cells`` consults this cache in the parent process before
dispatching: cells already computed by a previous run (or an earlier
identical spec in this run) are served from disk, making re-run sweeps
incremental — only changed cells simulate.

Specs without a ``result_cache_token()`` method are never cached (their
result may not be a pure function of ``repr``), so arbitrary run()-specs
keep working unchanged.

The disk layout mirrors the trace cache: one pickle per fingerprint
under ``~/.cache/repro/results`` (override with ``REPRO_RESULT_CACHE``,
disable with ``0``/``off``/``none``/``disabled``), atomic writes, and
the shared mtime-LRU size bound (``REPRO_CACHE_MAX_MB``, see
:mod:`repro.util.diskcache`).  A store does not apply the bound:
``run_cells`` calls :meth:`ResultCache.apply_budget` once at the end of
a run that stored results, because one eviction scan stats every entry
and a scan per store made a sweep quadratic in the directory size.

A corrupt entry — unreadable pickle or a stored fingerprint that does
not match its file name — is *quarantined*: unlinked on first contact,
counted in ``corrupt_evicted``, and the cell recomputes; ``python -m
repro cache --stats`` runs the same integrity scan over the whole
directory.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from contextlib import contextmanager
from typing import Optional

from repro.util.diskcache import maybe_evict

#: bump when simulator semantics change results for unchanged specs
#: (timing model, controller, scheme construction, RNG derivation, ...)
SIM_CODE_VERSION = 2

#: ``REPRO_RESULT_CACHE`` values that disable the cache
_DISABLED_VALUES = frozenset({"0", "off", "none", "disabled"})


def default_result_dir() -> Optional[str]:
    """Resolve the result-cache directory from the environment."""
    override = os.environ.get("REPRO_RESULT_CACHE")
    if override is not None:
        if override.strip().lower() in _DISABLED_VALUES:
            return None
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "results")


class ResultCache:
    """Disk cache of cell results keyed by spec + code-version hash."""

    def __init__(self, disk_dir: Optional[str] = None, use_default_disk_dir: bool = True):
        if disk_dir is None and use_default_disk_dir:
            disk_dir = default_result_dir()
        self.disk_dir = disk_dir
        self.hits = 0
        self.misses = 0
        self.store_failures = 0
        self.corrupt_evicted = 0
        self._suspended = 0
        # Counter updates come from whichever thread ran the lookup —
        # the sweep service serves /metrics while a job thread is
        # populating the same cache — so they go through one lock and
        # are read back with :meth:`stats_snapshot`.
        self._stats_lock = threading.Lock()

    def _count(self, counter: str, delta: int = 1) -> None:
        with self._stats_lock:
            setattr(self, counter, getattr(self, counter) + delta)

    def stats_snapshot(self) -> dict:
        """A consistent copy of the counters, safe to call from any
        thread while another thread is using the cache.

        This is the one source the live-service ``/metrics`` endpoint
        and ``python -m repro cache --stats`` both read, so the two
        always agree on what the counters mean.
        """
        with self._stats_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "store_failures": self.store_failures,
                "corrupt_evicted": self.corrupt_evicted,
                "enabled": self.enabled,
                "disk_dir": self.disk_dir,
            }

    # -- keying --------------------------------------------------------------

    @staticmethod
    def fingerprint(spec) -> Optional[str]:
        """Content hash identifying ``spec``'s result; ``None`` if the
        spec does not opt into result caching."""
        token_fn = getattr(spec, "result_cache_token", None)
        if token_fn is None:
            return None
        material = f"result:v{SIM_CODE_VERSION}|{token_fn()}|{type(spec).__qualname__}|{spec!r}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path_for(self, fingerprint: str) -> str:
        return os.path.join(self.disk_dir, f"{fingerprint}.result")

    def lookup_spec(self, spec):
        """``(fingerprint, cached_result)`` for one spec in one call.

        The runner's pre-dispatch sweep uses this per cell *before* any
        batch planning: a spec that does not opt into caching returns
        ``(None, None)``; a stored result returns its fingerprint and
        the result; a miss returns the fingerprint alone.  Keying and
        lookup are pure functions of the spec value — no trace, decode,
        or scheme state is touched — which is what lets a fully cached
        grid short-circuit without ever planning a batch.
        """
        fingerprint = self.fingerprint(spec) if self.enabled else None
        if fingerprint is None:
            return None, None
        return fingerprint, self.load(fingerprint)

    # -- state ---------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.disk_dir is not None and not self._suspended

    @contextmanager
    def disabled(self):
        """Temporarily bypass the cache (benchmarks measure cold runs)."""
        self._suspended += 1
        try:
            yield self
        finally:
            self._suspended -= 1

    # -- load/store ----------------------------------------------------------

    def _quarantine(self, path: str) -> None:
        """Remove a corrupt/mismatched entry so it cannot be retried
        forever (and cannot be served by a future buggy reader)."""
        try:
            os.unlink(path)
        except OSError:
            return
        self._count("corrupt_evicted")

    def load(self, fingerprint: str):
        """The cached result, or ``None`` on any kind of miss.

        A missing file is a plain miss; an entry that exists but cannot
        be unpickled — or whose stored fingerprint does not match its
        name (truncated write, bit rot, tampering) — is *quarantined*:
        unlinked on the spot and counted in ``corrupt_evicted``.
        """
        if not self.enabled:
            return None
        path = self._path_for(fingerprint)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            stored_fingerprint, result = payload
        except FileNotFoundError:
            self._count("misses")
            return None
        except (
            OSError,
            pickle.UnpicklingError,
            EOFError,
            ValueError,
            TypeError,
            AttributeError,
            ModuleNotFoundError,
        ):
            self._quarantine(path)
            self._count("misses")
            return None
        if stored_fingerprint != fingerprint:
            self._quarantine(path)
            self._count("misses")
            return None
        try:
            # A read keeps the entry young for the mtime-LRU bound.
            os.utime(path)
        except OSError:
            pass
        self._count("hits")
        return result

    def store(self, fingerprint: str, result) -> None:
        if not self.enabled:
            return
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            path = self._path_for(fingerprint)
            fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump((fingerprint, result), fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError, TypeError, AttributeError):
            # Unpicklable results (or a full disk) only cost caching.
            self._count("store_failures")

    def apply_budget(self) -> int:
        """Evict the least recently used entries until the directory
        fits ``REPRO_CACHE_MAX_MB``; returns how many were removed.

        One call scans the whole directory, so ``run_cells`` makes it
        once per run that stored results, not once per store.
        """
        if not self.enabled:
            return 0
        return maybe_evict(self.disk_dir)

    # -- maintenance ---------------------------------------------------------

    def verify(self) -> dict:
        """Integrity-scan every entry on disk; quarantine the bad ones.

        Each ``*.result`` file must unpickle to a
        ``(fingerprint, result)`` pair whose fingerprint matches its
        file name.  Returns ``{"scanned": n, "quarantined": m}``; the
        quarantined count also accumulates into ``corrupt_evicted``.
        """
        scanned = 0
        quarantined_before = self.corrupt_evicted
        if self.disk_dir is None or not os.path.isdir(self.disk_dir):
            return {"scanned": 0, "quarantined": 0}
        for name in sorted(os.listdir(self.disk_dir)):
            if not name.endswith(".result"):
                continue
            scanned += 1
            path = os.path.join(self.disk_dir, name)
            try:
                with open(path, "rb") as fh:
                    stored_fingerprint, _result = pickle.load(fh)
            except FileNotFoundError:
                continue
            except (
                OSError,
                pickle.UnpicklingError,
                EOFError,
                ValueError,
                TypeError,
                AttributeError,
                ModuleNotFoundError,
            ):
                self._quarantine(path)
                continue
            if f"{stored_fingerprint}.result" != name:
                self._quarantine(path)
        return {"scanned": scanned, "quarantined": self.corrupt_evicted - quarantined_before}


#: process-wide result cache used by :func:`repro.runner.pool.run_cells`
RESULT_CACHE = ResultCache()
