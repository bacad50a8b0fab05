"""Structured telemetry for sweep runs: JSONL events + progress line.

Every supervised ``run_cells`` call can stream its lifecycle into a
JSONL event log (one JSON object per line) so a sweep leaves an
auditable record instead of a single summary dict.  The event
vocabulary:

* ``run_start``    — header: cell counts, job count, timeout/retry
  policy, python version, parent pid;
* ``cell_cached``  — a cell served from the content-addressed result
  cache (checkpoint hit) without running;
* ``cell_start``   — a cell dispatched to a worker (or inline), with
  its attempt number;
* ``cell_finish``  — a cell completed: wall seconds, worker pid,
  worker max-RSS in KB; cells that ran inside a batch additionally
  carry ``batch_id``, ``batch_size`` and ``batch_amortized_decode``
  (whether the cell ran on the shared-decode lane kernel rather than
  through ``run_cell`` inside its batch); cells advanced by the lane
  kernel also carry ``lane_width``, the width of their kernel call;
* ``cell_retry``   — an attempt raised and the cell was requeued;
* ``cell_timeout`` — an attempt exceeded ``REPRO_CELL_TIMEOUT``;
* ``batch_start``  — a planned batch dispatched as one work item:
  batch id, cell indices, size;
* ``batch_finish`` — every cell of a batch completed: batch id, size,
  ``decode_reuses`` (cells beyond the first that shared the group's
  trace decode); lane-planned batches additionally carry
  ``lane_width`` (resolved width), ``vectorized_cells`` (members
  advanced by the lane kernel, width-1 calls included) and
  ``scalar_fallback_cells`` (members that ran through ``run_cell``);
* ``batch_split``  — a batch failed (worker exception or lost pool)
  and its member cells were requeued individually, with the reason and
  the error repr; the split itself charges no per-cell attempts — the
  ordinary retry machinery takes over per cell;
* ``batch_timeout`` — a batch exceeded its deadline (per-cell timeout
  x batch size) and was split after the pool restart;
* ``check_violation`` — a cell running under ``REPRO_CHECK`` tripped
  the invariant sanitizer or diverged from the differential oracle
  (:mod:`repro.check`): violation kind, component, access index, the
  formatted delta and the cell spec repr; such a cell is never
  retried — the divergence is deterministic;
* ``pool_restart`` — the worker pool died (or was killed to enforce a
  timeout) and the unfinished cells moved to a fresh pool;
* ``inline_fallback`` — the restart budget ran out and the remaining
  cells degraded to inline execution in the parent;
* ``run_finish``   — the final ``last_run_stats`` payload.

The sweep service (:mod:`repro.service`) adds a per-sweep prologue in
the same log file:

* ``sweep_submitted`` — a sweep was accepted over HTTP: sweep id, cell
  count, client id;
* ``sweep_rejected`` — a submission was refused (service-level log):
  the reason (``rate_limited``, ``queue_full``, ``invalid_spec``,
  ``too_many_cells``, ``draining``) and the client id;
* ``sweep_start``   — the sweep left the work queue, carrying
  ``queue_wait_s`` (seconds spent queued behind earlier sweeps);
* ``sweep_resumed`` — restart recovery re-admitted this sweep from the
  durable journal: its prior state (``queued``/``running``), cell
  count, and how many cells were already warm in the result cache;
* ``sweep_finish``  — terminal state (``done``/``failed``/
  ``cancelled``) plus the run's stats payload.

Service-lifecycle events land in the service-wide ``service.jsonl``:

* ``service_recovered``    — boot replayed the sweep journal:
  recovered sweep count, cells resubmitted vs. served warm;
* ``journal_corrupt_tail`` — replay dropped a torn/corrupt trailing
  journal line (and kept going);
* ``service_draining``     — SIGTERM/SIGINT flipped the service into
  draining mode (new submissions get 503);
* ``service_drained``      — the running sweep finished and the
  journal was checkpointed; queued sweeps are preserved for the next
  process.

When ``REPRO_CHAOS`` is set, every ``emit`` first passes through the
fault-injection hook (:mod:`repro.service.chaos`) — process kills,
slow or failing spool writes — which is how the chaos tests drive the
recovery machinery deterministically; with the variable unset the hook
costs one dict lookup.

The CLI surfaces this as ``--telemetry PATH`` on the ``sweep`` and
``leakage`` subcommands; CI uploads the leakage smoke log as an
artifact.  A :class:`Telemetry` with no path and no progress stream is
a near-free no-op, so library callers pay nothing by default.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import IO, List, Optional

try:
    import resource
except ImportError:  # non-POSIX platform
    resource = None

#: fault-injection opt-in (see :mod:`repro.service.chaos`)
ENV_CHAOS = "REPRO_CHAOS"


def rss_kb() -> Optional[int]:
    """Max resident set size of this process in KB (None if unknown)."""
    if resource is None:
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return int(usage.ru_maxrss)  # KB on Linux


def worker_meta(wall_s: float) -> dict:
    """Per-attempt execution metadata recorded by the worker itself."""
    return {"wall_s": round(wall_s, 6), "worker": os.getpid(), "rss_kb": rss_kb()}


class Telemetry:
    """JSONL event sink plus an optional live progress line.

    ``path`` is the JSONL file to append to (``None`` disables event
    logging); ``progress`` turns the carriage-return progress line on
    ``stream`` (default ``sys.stderr``) on or off, with ``None``
    meaning "on when the stream is a tty".
    """

    def __init__(
        self,
        path: Optional[str] = None,
        progress: Optional[bool] = None,
        stream: Optional[IO[str]] = None,
    ):
        self.path = path
        self.stream = stream if stream is not None else sys.stderr
        if progress is None:
            isatty = getattr(self.stream, "isatty", lambda: False)
            try:
                progress = bool(isatty())
            except (OSError, ValueError):
                progress = False
        self.show_progress = progress
        self.events_written = 0
        self._fh: Optional[IO[str]] = None
        self._progress_len = 0

    # -- events --------------------------------------------------------------

    def emit(self, event: str, **fields) -> None:
        """Append one event line; never raises (telemetry is advisory)."""
        if self.path is None:
            return
        record = {"event": event, "t": round(time.time(), 6), **fields}
        try:
            if ENV_CHAOS in os.environ:
                # Fault injection (slow/failing spool writes, process
                # kill mid-sweep) for the chaos tests; the injected
                # OSError is swallowed below exactly like a disk error.
                from repro.service.chaos import chaos_telemetry_event

                chaos_telemetry_event(event)
            if self._fh is None:
                directory = os.path.dirname(os.path.abspath(self.path))
                os.makedirs(directory, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            json.dump(record, self._fh, sort_keys=True, default=repr)
            self._fh.write("\n")
            self._fh.flush()
            self.events_written += 1
        except OSError:
            pass

    # -- progress ------------------------------------------------------------

    def progress(self, done: int, total: int, note: str = "") -> None:
        """Redraw the live ``[done/total]`` line (no-op when disabled)."""
        if not self.show_progress or total <= 0:
            return
        line = f"[{done}/{total}] {note}".rstrip()
        pad = " " * max(0, self._progress_len - len(line))
        try:
            self.stream.write(f"\r{line}{pad}")
            self.stream.flush()
        except (OSError, ValueError):
            self.show_progress = False
            return
        self._progress_len = len(line)

    def finish_progress(self) -> None:
        """Terminate the progress line with a newline, if one is active."""
        if self.show_progress and self._progress_len:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass
            self._progress_len = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.finish_progress()
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events_incremental(path: str, offset: int = 0):
    """Parse events appended at or after byte ``offset``; returns
    ``(events, new_offset)``.

    Safe against a *concurrently appending* writer: only lines
    terminated by a newline are consumed, so a partially-flushed final
    line is left in place and picked up whole by the next call (the
    returned offset never advances past it).  This is what the sweep
    service's ``/events`` streamer polls — each event is delivered
    exactly once, in order, even while ``run_cells`` is still writing.

    A missing file (the sweep has not emitted yet) reads as no events;
    corrupt complete lines are skipped, exactly like
    :func:`read_events`.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except OSError:
        return [], offset
    end = data.rfind(b"\n")
    if end < 0:
        return [], offset
    events: List[dict] = []
    for raw in data[:end].split(b"\n"):
        raw = raw.strip()
        if not raw:
            continue
        try:
            events.append(json.loads(raw.decode("utf-8")))
        except (ValueError, UnicodeDecodeError):
            continue
    return events, offset + end + 1


def read_events(path: str) -> List[dict]:
    """Parse a telemetry JSONL file (skips partial/corrupt lines)."""
    events: List[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except ValueError:
                    continue
    except OSError:
        return []
    return events
