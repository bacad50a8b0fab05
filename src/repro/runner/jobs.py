"""Job handles around ``run_cells``: submit / poll / cancel.

``run_cells`` is a blocking call — fine for a CLI sweep, wrong for a
server that must answer ``GET /sweeps/{id}`` while the grid is still
simulating.  This module adds the non-blocking layer the sweep service
(:mod:`repro.service`) is built on, with no HTTP anywhere in it:

* :class:`JobHandle` — one submitted sweep: its lifecycle state
  (``queued -> running -> done | failed | cancelled``), the results and
  per-run stats once finished, and ``poll()`` / ``cancel()`` /
  ``result()`` accessors, all thread-safe;
* :class:`JobRunner` — a bounded FIFO work queue drained by one
  background executor thread.  Jobs run strictly one at a time: the
  *intra*-sweep parallelism (the process pool, ``jobs=``) already
  saturates the machine, so running sweeps concurrently would only make
  them contend.  ``submit`` refuses new work with :class:`JobQueueFull`
  once ``queue_depth`` sweeps are waiting — the caller turns that into
  a structured 429.

Cancellation is cooperative: a queued job is cancelled outright (it
never runs; :meth:`JobRunner.cancel` also settles it on the spot); a
running job cannot be preempted mid-``run_cells`` — its handle moves
to ``cancelling`` and settles as ``cancelled`` when the run returns,
with its results discarded.

A handle is *settled* once it is finished and its transition observers
have run.  Anything that publishes a terminal state to a reader who
then looks for the observers' side effects (the service's status
endpoint, whose clients go on to read the sweep's event log) reports
:meth:`JobHandle.published_state`, which stays non-terminal until the
handle settles.  Cells the run checkpointed
into the result cache before the cancel stay checkpointed (a re-submit
resumes from them), exactly like an interrupted CLI sweep.

Graceful drain (the service's SIGTERM path) is a third lifecycle verb:
:meth:`JobRunner.drain` stops the executor from *starting* anything
new — the running job finishes normally, queued jobs stay queued (not
cancelled: their journal records keep them recoverable by the next
process) — and :meth:`JobRunner.wait_idle` blocks until the executor
has parked.  ``shutdown(cancel_queued=False)`` afterwards leaves the
queued handles untouched.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

from repro.runner.pool import run_cells

#: terminal :class:`JobHandle` states
FINISHED_STATES = frozenset({"done", "failed", "cancelled"})

_job_ids = itertools.count(1)


class JobQueueFull(RuntimeError):
    """The runner's bounded work queue is at capacity."""


class JobHandle:
    """One submitted sweep; all accessors are thread-safe."""

    def __init__(self, specs: Sequence, run_kwargs: Dict):
        self.job_id = next(_job_ids)
        self.specs = specs
        self.run_kwargs = run_kwargs
        self.submitted_at = time.monotonic()
        self.queue_wait_s: Optional[float] = None
        self.run_seconds: Optional[float] = None
        self.error: Optional[str] = None
        self.stats: Dict = {}
        self._state = "queued"
        self._results: Optional[List] = None
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._settled = threading.Event()
        self._cancel_requested = False

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def finished(self) -> bool:
        return self.state in FINISHED_STATES

    @property
    def settled(self) -> bool:
        """True once the job is finished AND its transition observers
        have run.  ``finished`` flips inside ``_finish`` *before* the
        executor notifies observers, so a follower that stops at
        ``finished`` can miss side effects the observers produce (the
        service's ``sweep_finish`` telemetry row); followers of those
        side effects wait for ``settled`` instead."""
        return self._settled.is_set()

    def published_state(self) -> str:
        """The state to show readers of the observers' side effects.

        A terminal state is published only once the handle has settled;
        until then a finished job still reads as ``running`` (or
        ``cancelling`` on its way to ``cancelled``).  So "terminal
        status => observers' side effects are in place" holds for every
        reader, whatever the thread interleaving.
        """
        state = self.state
        if state in FINISHED_STATES and not self.settled:
            return "cancelling" if state == "cancelled" else "running"
        return state

    def poll(self) -> Dict:
        """A snapshot of everything observable about the job."""
        with self._lock:
            return {
                "job_id": self.job_id,
                "state": self._state,
                "cells": len(self.specs),
                "queue_wait_s": self.queue_wait_s,
                "run_seconds": self.run_seconds,
                "error": self.error,
                "stats": dict(self.stats),
            }

    def cancel(self) -> bool:
        """Request cancellation; ``True`` if the job will not produce
        results (it was still queued, or already cancelled)."""
        with self._lock:
            self._cancel_requested = True
            if self._state == "queued":
                self._state = "cancelled"
                self._finished.set()
                return True
            if self._state == "running":
                self._state = "cancelling"
            return self._state == "cancelled"

    def result(self, timeout: Optional[float] = None) -> List:
        """Block until the job finishes; the ordered cell results.

        Raises ``TimeoutError`` if ``timeout`` elapses first, and
        ``RuntimeError`` for a failed or cancelled job.
        """
        if not self._finished.wait(timeout):
            raise TimeoutError(f"job {self.job_id} still {self.state} after {timeout}s")
        with self._lock:
            if self._state != "done":
                raise RuntimeError(f"job {self.job_id} {self._state}: {self.error or 'no results'}")
            assert self._results is not None
            return self._results

    # -- executor-side transitions (JobRunner only) --------------------------

    def _start(self) -> bool:
        """Move queued -> running; ``False`` if the job was cancelled
        while waiting (it must not run)."""
        with self._lock:
            if self._state != "queued":
                return False
            if self._cancel_requested:
                self._state = "cancelled"
                self._finished.set()
                return False
            self._state = "running"
            self.queue_wait_s = time.monotonic() - self.submitted_at
            return True

    def _finish(
        self, results: Optional[List], error: Optional[BaseException], run_seconds: float
    ) -> None:
        with self._lock:
            self.run_seconds = run_seconds
            if self._cancel_requested:
                self._state = "cancelled"
            elif error is not None:
                self._state = "failed"
                self.error = repr(error)
            else:
                self._state = "done"
                self._results = results
            self._finished.set()


class JobRunner:
    """Bounded FIFO queue of sweep jobs, drained by one worker thread."""

    def __init__(self, queue_depth: int = 16):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.queue_depth = queue_depth
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._thread: Optional[threading.Thread] = None
        self._shutdown = False
        self._draining = False
        self._running: Optional[JobHandle] = None

    # -- introspection (metrics) ---------------------------------------------

    def queued(self) -> int:
        with self._lock:
            return len(self._queue)

    def running(self) -> Optional[JobHandle]:
        with self._lock:
            return self._running

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        specs: Sequence,
        on_transition: Optional[Callable[[JobHandle, str], None]] = None,
        **run_kwargs,
    ) -> JobHandle:
        """Queue one sweep; returns its :class:`JobHandle` immediately.

        ``run_kwargs`` are forwarded verbatim to
        :func:`repro.runner.pool.run_cells` (``jobs=``,
        ``result_cache=``, ``telemetry=``, ...).  ``on_transition`` is
        called from the executor thread as ``(handle, state)`` when the
        job starts and when it finishes — the service uses it to emit
        ``sweep_start`` / ``sweep_finish`` telemetry.

        Raises :class:`JobQueueFull` when ``queue_depth`` jobs are
        already waiting (the running job does not count against the
        bound).
        """
        handle = JobHandle(specs, run_kwargs)
        handle.on_transition = on_transition
        with self._lock:
            if self._shutdown:
                raise RuntimeError("JobRunner is shut down")
            if self._draining:
                raise RuntimeError("JobRunner is draining")
            if len(self._queue) >= self.queue_depth:
                raise JobQueueFull(f"work queue is full ({self.queue_depth} sweeps waiting)")
            self._queue.append(handle)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._drain, name="repro-job-runner", daemon=True
                )
                self._thread.start()
            self._wake.notify()
        return handle

    def cancel(self, handle: JobHandle) -> bool:
        """Cancel a job; ``True`` if it will not produce results.

        A job still waiting in the queue is taken out of it and settled
        here, observers included, so its terminal state is published at
        once.  The queue lock makes this and the executor's pop
        mutually exclusive: exactly one of them settles the handle.
        """
        with self._lock:
            cancelled = handle.cancel()
            dequeued = cancelled and handle in self._queue
            if dequeued:
                self._queue.remove(handle)
        if dequeued:
            self._notify(handle, handle.state)
            handle._settled.set()
        return cancelled

    # -- executor ------------------------------------------------------------

    def _drain(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._shutdown and not self._draining:
                    self._wake.wait()
                if self._draining:
                    # Park without touching the queue: queued handles
                    # stay queued (their journal records make them the
                    # next process's work, not this one's casualties).
                    return
                if self._shutdown and not self._queue:
                    return
                handle = self._queue.popleft()
                self._running = handle
            try:
                self._run_one(handle)
            finally:
                with self._lock:
                    self._running = None

    @staticmethod
    def _notify(handle: JobHandle, state: str) -> None:
        callback = getattr(handle, "on_transition", None)
        if callback is None:
            return
        try:
            callback(handle, state)
        except Exception:
            pass  # observers are advisory, never fatal

    def _run_one(self, handle: JobHandle) -> None:
        if not handle._start():
            self._notify(handle, handle.state)
            handle._settled.set()
            return
        self._notify(handle, "running")
        started = time.perf_counter()
        results: Optional[List] = None
        error: Optional[BaseException] = None
        try:
            results = run_cells(handle.specs, stats_sink=handle.stats, **handle.run_kwargs)
        except BaseException as exc:  # noqa: BLE001 — job isolation boundary
            error = exc
        handle._finish(results, error, time.perf_counter() - started)
        self._notify(handle, handle.state)
        handle._settled.set()

    # -- lifecycle -----------------------------------------------------------

    def drain(self) -> List[JobHandle]:
        """Stop *starting* work: the running job finishes normally, the
        queued handles are left queued and returned (still ``queued``
        state — they are the next process's inheritance, not cancelled
        casualties).  ``submit`` refuses new work from here on."""
        with self._lock:
            self._draining = True
            queued = list(self._queue)
            self._wake.notify_all()
        return queued

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until the executor thread has parked after
        :meth:`drain` (or :meth:`shutdown`); ``True`` once it has."""
        with self._lock:
            thread = self._thread
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()

    def shutdown(self, wait: bool = True, cancel_queued: bool = True) -> None:
        """Stop accepting work; optionally cancel what is still queued
        and join the executor thread."""
        with self._lock:
            self._shutdown = True
            if cancel_queued:
                queued = list(self._queue)
                self._queue.clear()
            else:
                queued = []
            thread = self._thread
            self._wake.notify_all()
        for handle in queued:
            handle.cancel()
            self._notify(handle, handle.state)
            handle._settled.set()
        if wait and thread is not None:
            thread.join()
