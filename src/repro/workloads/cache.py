"""Content-addressed workload trace cache.

Trace generation is deterministic given its parameters, so a trace is
fully identified by a key tuple such as ``("spec", name, n_refs, seed,
GENERATOR_VERSION)``.  The cache exploits that:

* an **in-process LRU** layer keeps the two most recently used traces
  as live objects, so a sweep that runs the same benchmark under many
  windows synthesizes the trace once,
* an optional **on-disk** layer under ``~/.cache/repro/traces`` makes
  traces survive across processes (including the worker processes of
  the parallel runner) and across runs.

The memory layer holds two traces because no reader uses more at once
(a Figure 8 co-run cell reads its program trace plus the AES stress
trace), and a live trace costs its columns plus every decode memoized
on it.  Batch groups and the benchmark-major figure grids never come
back to a trace once they move on, so a wider layer only keeps finished
groups alive.  A dropped trace is freed at once, decodes included (see
:mod:`repro.cpu.decode`): a cold 400k-ref Figure 10 sweep peaks at
79 MB, against 142 MB when the layer held 32 traces.  A reader that
does come back (Figure 8 reads each program trace once per cache
configuration) gets the trace from the disk layer.

The generator version is part of the key: bumping it orphans old disk
entries rather than serving stale traces.  Set ``REPRO_TRACE_CACHE`` to
a directory to relocate the disk layer, or to ``0``/``off``/``none``/
``disabled`` to turn the disk layer off entirely.

Disk entries are written atomically (temp file + ``os.replace``) so a
crashed or concurrent writer can never leave a truncated entry behind;
unreadable entries are treated as misses and regenerated.

Columnar :class:`~repro.cpu.trace.Trace` values are stored as their
three numpy columns (pickled as whole buffers — no per-record object
encoding on either side); plain record lists keep the legacy list
payload, and either form is read back transparently.  The disk layer
shares the mtime-LRU size bound of :mod:`repro.util.diskcache`
(``REPRO_CACHE_MAX_MB``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np

from repro.cpu.trace import Trace
from repro.util.diskcache import maybe_evict

#: default number of traces the in-process LRU layer retains: the widest
#: reader, a Figure 8 co-run cell, reads its program trace plus the AES
#: stress trace
DEFAULT_MEMORY_ENTRIES = 2

#: ``REPRO_TRACE_CACHE`` values that disable the on-disk layer
_DISABLED_VALUES = frozenset({"0", "off", "none", "disabled"})


def default_cache_dir() -> Optional[str]:
    """Resolve the on-disk cache directory from the environment.

    Returns ``None`` when the disk layer is disabled.
    """
    override = os.environ.get("REPRO_TRACE_CACHE")
    if override is not None:
        if override.strip().lower() in _DISABLED_VALUES:
            return None
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "traces")


class TraceCache:
    """Two-layer (memory LRU + optional disk) cache of generated traces."""

    def __init__(self, memory_entries: int = DEFAULT_MEMORY_ENTRIES,
                 disk_dir: Optional[str] = None,
                 use_default_disk_dir: bool = True):
        if memory_entries < 1:
            raise ValueError(
                f"memory_entries must be >= 1, got {memory_entries}")
        self.memory_entries = memory_entries
        if disk_dir is None and use_default_disk_dir:
            disk_dir = default_cache_dir()
        self.disk_dir = disk_dir
        self._memory: "OrderedDict[tuple, object]" = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    # -- key / path mapping --------------------------------------------------

    @staticmethod
    def _path_for(disk_dir: str, key: tuple) -> str:
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return os.path.join(disk_dir, f"{digest}.trace")

    # -- layers --------------------------------------------------------------

    #: payload marker for columnar trace entries (``(_COLUMNAR, addr,
    #: gap, write)`` — legacy entries are the bare record list)
    _COLUMNAR = "columns/v1"

    def _disk_load(self, key: tuple):
        if self.disk_dir is None:
            return None
        path = self._path_for(self.disk_dir, key)
        try:
            with open(path, "rb") as fh:
                stored_key, payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                TypeError, AttributeError):
            return None
        # A hash collision (or hand-edited file) must not alias keys.
        if stored_key != key:
            return None
        try:
            # A read keeps the entry young for the mtime-LRU bound.
            os.utime(path)
        except OSError:
            pass
        if (isinstance(payload, tuple) and len(payload) == 4
                and payload[0] == self._COLUMNAR):
            addr, gap, write = payload[1:]
            if not all(isinstance(col, np.ndarray) for col in payload[1:]):
                return None
            try:
                return Trace(addr, gap, write)
            except ValueError:
                return None
        if not isinstance(payload, list):
            return None
        return payload

    @classmethod
    def _payload_for(cls, trace):
        if isinstance(trace, Trace):
            return (cls._COLUMNAR, np.ascontiguousarray(trace.addr),
                    np.ascontiguousarray(trace.gap),
                    np.ascontiguousarray(trace.write))
        return trace

    def _disk_store(self, key: tuple, trace) -> None:
        if self.disk_dir is None:
            return
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            path = self._path_for(self.disk_dir, key)
            fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump((key, self._payload_for(trace)), fh,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            maybe_evict(self.disk_dir)
        except OSError:
            # A read-only or full filesystem only costs persistence.
            pass

    def _remember(self, key: tuple, trace) -> None:
        memory = self._memory
        memory[key] = trace
        memory.move_to_end(key)
        while len(memory) > self.memory_entries:
            memory.popitem(last=False)

    # -- public API ----------------------------------------------------------

    def get(self, key: tuple, maker: Callable[[], object]):
        """Return the trace for ``key``, generating it at most once.

        Callers must treat the returned value as immutable: it is
        shared between everyone asking for the same key.  Values are
        columnar :class:`Trace` objects for the built-in workloads, but
        any picklable value (e.g. a plain record list) is accepted.
        """
        memory = self._memory
        trace = memory.get(key)
        if trace is not None:
            memory.move_to_end(key)
            self.memory_hits += 1
            return trace
        trace = self._disk_load(key)
        if trace is not None:
            self.disk_hits += 1
            self._remember(key, trace)
            return trace
        self.misses += 1
        trace = maker()
        self._disk_store(key, trace)
        self._remember(key, trace)
        return trace

    def get_trace(self, key: tuple, maker: Callable[[], object]) -> Trace:
        """Like :meth:`get`, but guarantees a columnar :class:`Trace`.

        Legacy disk entries (bare record lists written before the
        columnar engine) are upgraded on load and the upgraded object
        replaces the list in the memory layer, so the conversion
        happens at most once per process.
        """
        trace = self.get(key, maker)
        if not isinstance(trace, Trace):
            trace = Trace.from_records(trace)
            self._remember(key, trace)
        return trace

    def clear_memory(self) -> None:
        """Drop the in-process layer (disk entries are untouched)."""
        self._memory.clear()

    def stats(self) -> Tuple[int, int, int]:
        """``(memory_hits, disk_hits, misses)`` since construction."""
        return (self.memory_hits, self.disk_hits, self.misses)


#: process-wide cache used by :func:`cached_workload` and the runner
TRACE_CACHE = TraceCache()


def cached_workload(name: str, n_refs: int = 100_000,
                    seed: int = 0) -> Trace:
    """`make_workload` through the process-wide trace cache."""
    from repro.workloads.spec import GENERATOR_VERSION, make_workload
    key = ("spec", name, n_refs, seed, GENERATOR_VERSION)
    return TRACE_CACHE.get_trace(
        key, lambda: make_workload(name, n_refs=n_refs, seed=seed))
