"""Memory reference trace format.

The timing model consumes *trace records*.  A record is a plain tuple::

    (byte_addr, gap, write)

* ``byte_addr`` — the referenced byte address,
* ``gap``       — instructions executed since the previous record,
                  *including* this memory instruction (>= 1),
* ``write``     — 1 for a store, 0 for a load.

``MemRef`` is a readable constructor/inspector for the same shape; it IS
a tuple (``typing.NamedTuple``), so record lists may mix both freely.

Multi-million reference runs do not want a Python object per record, so
the canonical container is the columnar :class:`Trace`: three numpy
``int64`` columns (``addr``, ``gap``, ``write``) with

* O(1) ``len`` and (cached) ``instruction_count``,
* zero-copy slicing (``trace[split:]`` returns a view-backed ``Trace``),
* a stable content :attr:`~Trace.fingerprint` for content-addressed
  caching,
* backward-compatible record iteration — ``for addr, gap, write in
  trace`` yields plain int tuples, so every tuple-list consumer keeps
  working.

Workload generators emit ``Trace`` objects.  Ad-hoc lists of tuples
remain valid trace inputs: ``TimingModel.run`` converts one with
:meth:`Trace.from_records` as it enters, so every run simulates a
``Trace``.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Iterable, Iterator, List, NamedTuple, Tuple

import numpy as np

TraceRecord = Tuple[int, int, int]

#: bump when the fingerprint serialization below changes
_FINGERPRINT_VERSION = 1


class MemRef(NamedTuple):
    """Readable trace record; interchangeable with the raw tuple form."""

    addr: int
    gap: int = 1
    write: int = 0


class Trace:
    """Columnar memory reference trace (numpy ``int64`` columns).

    Instances are immutable: the columns are marked read-only because a
    trace may be shared between many simulation cells through the trace
    cache.  Derived data (record materialization, per-geometry address
    decode, slices) is memoized on the instance so cells sweeping many
    windows over one trace share the work.
    """

    __slots__ = ("addr", "gap", "write", "_instructions", "_fingerprint",
                 "_memo")

    def __init__(self, addr: np.ndarray, gap: np.ndarray, write: np.ndarray):
        if not (len(addr) == len(gap) == len(write)):
            raise ValueError(
                f"column lengths differ: {len(addr)}/{len(gap)}/{len(write)}")
        self.addr = self._column(addr)
        self.gap = self._column(gap)
        self.write = self._column(write)
        self._instructions: "int | None" = None
        self._fingerprint: "str | None" = None
        self._memo: dict = {}

    @staticmethod
    def _column(values) -> np.ndarray:
        column = np.asarray(values, dtype=np.int64)
        if column.ndim != 1:
            raise ValueError(f"trace column must be 1-D, got {column.ndim}-D")
        if column.flags.writeable:
            # Views of read-only parents (slices) are already protected.
            column = np.ascontiguousarray(column)
            column.flags.writeable = False
        return column

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "Trace":
        """Build a columnar trace from ``(addr, gap, write)`` records.

        A ``Trace`` passes through unchanged.  Records are flattened
        into one int64 buffer by ``fromiter``, about twice as fast as
        letting numpy discover a nested list's shape; the attack victims
        convert one short record list per measurement.
        """
        if isinstance(records, Trace):
            return records
        records = list(records)
        flat = np.fromiter(chain.from_iterable(records), dtype=np.int64,
                           count=3 * len(records))
        # Checked after the flattening pass (which already rejects too
        # few fields), once that pass has brought every record into the
        # CPU cache.
        arities = set(map(len, records))
        if arities - {3}:
            raise ValueError(
                f"records must be (addr, gap, write) triples, got "
                f"lengths {sorted(arities)}")
        return cls(flat[0::3], flat[1::3], flat[2::3])

    @classmethod
    def from_columns(cls, addr, gap, write) -> "Trace":
        """Build a trace from three parallel columns (lists or arrays)."""
        return cls(np.asarray(addr, dtype=np.int64),
                   np.asarray(gap, dtype=np.int64),
                   np.asarray(write, dtype=np.int64))

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.addr)

    def __iter__(self) -> Iterator[TraceRecord]:
        # tolist() converts whole columns to plain ints in C; zip then
        # yields ordinary tuples, so tuple-list consumers are oblivious.
        return iter(zip(self.addr.tolist(), self.gap.tolist(),
                        self.write.tolist()))

    def __getitem__(self, index):
        if isinstance(index, slice):
            key = ("slice", index.start, index.stop, index.step)
            memo = self._memo
            view = memo.get(key)
            if view is None:
                view = Trace(self.addr[index], self.gap[index],
                             self.write[index])
                memo[key] = view
            return view
        return (int(self.addr[index]), int(self.gap[index]),
                int(self.write[index]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            return (np.array_equal(self.addr, other.addr)
                    and np.array_equal(self.gap, other.gap)
                    and np.array_equal(self.write, other.write))
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and self.records() == list(other)
        return NotImplemented

    __hash__ = None  # mutable-adjacent container semantics, like list

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Trace(n={len(self)}, "
                f"instructions={self.instruction_count})")

    # -- derived data --------------------------------------------------------

    @property
    def instruction_count(self) -> int:
        """Total instructions (sum of gaps); cached, O(1) thereafter."""
        if self._instructions is None:
            self._instructions = int(self.gap.sum()) if len(self) else 0
        return self._instructions

    @property
    def fingerprint(self) -> str:
        """Stable content hash (sha256 hex) of the three columns."""
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(f"trace:v{_FINGERPRINT_VERSION}:{len(self)}|"
                          .encode("ascii"))
            digest.update(np.ascontiguousarray(self.addr).tobytes())
            digest.update(np.ascontiguousarray(self.gap).tobytes())
            digest.update(np.ascontiguousarray(self.write).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def records(self) -> List[TraceRecord]:
        """Materialized list of record tuples (memoized)."""
        memoed = self._memo.get("records")
        if memoed is None:
            memoed = list(zip(self.addr.tolist(), self.gap.tolist(),
                              self.write.tolist()))
            self._memo["records"] = memoed
        return memoed

    def decoded(self, line_shift: int):
        """Pre-decoded address columns for one cache geometry (memoized).

        See :class:`repro.cpu.decode.TraceDecode` — one vectorized pass
        computes every record's line address; set indices, tags and
        issue-cycle increments are derived (and memoized) on demand.
        """
        key = ("decode", line_shift)
        decode = self._memo.get(key)
        if decode is None:
            from repro.cpu.decode import TraceDecode
            decode = TraceDecode(self, line_shift)
            self._memo[key] = decode
        return decode


def validate_trace(trace: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
    """Yield records, raising on malformed ones (used in tests/debug)."""
    for i, record in enumerate(trace):
        if len(record) != 3:
            raise ValueError(f"record {i} has {len(record)} fields, want 3")
        addr, gap, write = record
        if addr < 0:
            raise ValueError(f"record {i}: negative address {addr}")
        if gap < 1:
            raise ValueError(f"record {i}: gap must be >= 1, got {gap}")
        if write not in (0, 1):
            raise ValueError(f"record {i}: write flag must be 0/1, got {write}")
        yield record
