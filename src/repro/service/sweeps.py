"""Sweep service core: submission, registry, telemetry, metrics.

:class:`SweepService` is the HTTP-free heart of ``repro.service``:
it validates submitted grids through the versioned codec, enforces
per-client rate limits and the per-request cell ceiling, queues work on
a :class:`~repro.runner.jobs.JobRunner`, and tracks every sweep in a
registry the API handlers read.  All of it is plain synchronous code
guarded by locks, callable from the asyncio handlers and from tests
alike.

Each accepted sweep gets its own JSONL telemetry file under the spool
directory.  The service writes the ``sweep_submitted`` /
``sweep_start`` (with ``queue_wait_s``) / ``sweep_finish`` prologue
rows; ``run_cells`` appends its ordinary run events to the same file —
so one file is the complete audit trail of one sweep, and the
``/events`` endpoint simply streams it.

Crash safety (PR 10) adds two mechanisms on top of the registry:

* every accepted sweep is journaled to the write-ahead log
  (:mod:`repro.service.journal`) *before* it is queued, and its
  ``started``/``finished`` transitions are journaled from the job
  observer — so on boot :meth:`SweepService._recover` can replay the
  journal, re-admit every queued sweep in submission order and
  resubmit the interrupted running one, whose already-finished cells
  come back warm from the result-cache checkpoints;
* :meth:`begin_drain` / :meth:`finish_drain` implement graceful
  SIGTERM shutdown: submissions get a structured 503 ``draining``, the
  running sweep finishes, queued sweeps stay journaled for the next
  process, and the journal is checkpoint-compacted on the way out.
"""

from __future__ import annotations

import os
import secrets
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.runner.jobs import JobHandle, JobQueueFull, JobRunner
from repro.runner.telemetry import Telemetry
from repro.service.codec import SpecValidationError, decode_sweep, encode_result
from repro.service.journal import SweepJournal, journal_path, load_payload_specs
from repro.service.ratelimit import ClientQuotas
from repro.service.store import DiskResultStore, ResultStore


@dataclass
class ServiceConfig:
    """Every knob of one service instance (CLI flags mirror these)."""

    host: str = "127.0.0.1"
    port: int = 8322
    jobs: Optional[int] = None  # worker processes per sweep
    queue_depth: int = 16  # sweeps waiting, beyond the running one
    max_cells_per_request: int = 4096
    rate: float = 10.0  # submissions per second per client
    burst: float = 20.0
    spool_dir: Optional[str] = None  # per-sweep telemetry files
    keep_sweeps: int = 256  # finished sweeps kept in the registry
    port_file: Optional[str] = None  # write the bound port here once listening
    recover: bool = True  # replay the sweep journal on boot


class ServiceError(Exception):
    """A request the service refuses; carries the structured payload."""

    def __init__(self, status: int, code: str, message: str, **extra: Any):
        super().__init__(message)
        self.status = status
        self.code = code
        self.extra = extra

    def payload(self) -> Dict[str, Any]:
        return {"error": {"code": self.code, "message": str(self), **self.extra}}


@dataclass
class Sweep:
    """Registry entry: one accepted sweep and its job handle."""

    sweep_id: str
    handle: JobHandle
    client: str
    cells: int
    events_path: str
    created_at: float = field(default_factory=time.time)
    recovered: bool = False  # re-admitted from the journal on boot

    def status(self) -> Dict[str, Any]:
        poll = self.handle.poll()
        return {
            "id": self.sweep_id,
            # Terminal only once the observers have sealed the event
            # log (its sweep_finish row is on disk).
            "state": self.handle.published_state(),
            "cells": self.cells,
            "client": self.client,
            "created_at": self.created_at,
            "recovered": self.recovered,
            "queue_wait_s": poll["queue_wait_s"],
            "run_seconds": poll["run_seconds"],
            "error": poll["error"],
            "last_run_stats": poll["stats"],
        }


class SweepService:
    """Everything the HTTP handlers delegate to."""

    def __init__(
        self,
        config: ServiceConfig,
        store: Optional[ResultStore] = None,
        runner: Optional[JobRunner] = None,
    ):
        self.config = config
        self.store = store if store is not None else DiskResultStore()
        self.runner = runner if runner is not None else JobRunner(queue_depth=config.queue_depth)
        self.quotas = ClientQuotas(rate=config.rate, burst=config.burst)
        self.spool_dir = config.spool_dir or tempfile.mkdtemp(prefix="repro-service-")
        os.makedirs(self.spool_dir, exist_ok=True)
        self.started_at = time.time()
        self.journal = SweepJournal(journal_path(self.spool_dir))
        self._lock = threading.Lock()
        self._sweeps: Dict[str, Sweep] = {}
        self._order: List[str] = []
        self._sweep_seconds: List[float] = []
        self._counters = {
            "submitted": 0,
            "rejected": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
        }
        self._draining = False
        self._recovered_sweeps = 0
        self._resubmitted_cells = 0
        self._warm_cells = 0
        self._corrupt_tail_events = 0
        if config.recover:
            self._recover()

    # -- telemetry helpers ---------------------------------------------------

    def _events_path(self, sweep_id: str) -> str:
        return os.path.join(self.spool_dir, f"sweep-{sweep_id}.jsonl")

    def _service_log(self) -> str:
        return os.path.join(self.spool_dir, "service.jsonl")

    def _emit(self, path: str, event: str, **fields: Any) -> None:
        with Telemetry(path=path, progress=False) as telemetry:
            telemetry.emit(event, **fields)

    def _reject(self, client: str, reason: str, **fields: Any) -> None:
        with self._lock:
            self._counters["rejected"] += 1
        self._emit(
            self._service_log(),
            "sweep_rejected",
            reason=reason,
            client=client,
            **fields,
        )

    # -- submission ----------------------------------------------------------

    def submit(self, payload: Any, client: str) -> Dict[str, Any]:
        """Validate and queue one sweep; the 202 response body.

        Raises :class:`ServiceError` with the structured 400/429
        payloads for malformed specs, rate-limited clients, oversized
        grids, and a full work queue — and 503 ``draining`` once a
        shutdown signal has flipped the service into draining mode.

        The sweep is journaled *before* it is queued (WAL ordering): a
        crash between the append and the queue insert re-admits it on
        restart rather than losing it.  A full queue writes a
        compensating ``cancelled`` record.
        """
        if self._draining:
            self._reject(client, "draining")
            raise ServiceError(
                503,
                "draining",
                "service is draining for shutdown; retry against the next instance",
                retry_after_s=1.0,
            )
        retry_after = self.quotas.admit(client)
        if retry_after is not None:
            self._reject(client, "rate_limited", retry_after_s=retry_after)
            raise ServiceError(
                429,
                "rate_limited",
                f"client {client!r} exceeded {self.config.rate:g} "
                f"submissions/s (burst {self.config.burst:g})",
                retry_after_s=retry_after,
            )
        try:
            specs = decode_sweep(payload)
        except SpecValidationError as error:
            self.quotas.account_rejected(client)
            self._reject(client, "invalid_spec", detail=str(error))
            raise ServiceError(400, "invalid_spec", str(error)) from None
        if len(specs) > self.config.max_cells_per_request:
            self.quotas.account_rejected(client)
            self._reject(client, "too_many_cells", cells=len(specs))
            raise ServiceError(
                400,
                "too_many_cells",
                f"{len(specs)} cells exceeds the per-request ceiling of "
                f"{self.config.max_cells_per_request} (--max-cells-per-request)",
                cells=len(specs),
                max_cells_per_request=self.config.max_cells_per_request,
            )

        sweep_id = secrets.token_hex(6)
        events_path = self._events_path(sweep_id)
        try:
            self.journal.append(
                "submitted", sweep_id, client=client, cells=len(specs), payload=payload
            )
        except OSError as error:
            self.quotas.account_rejected(client)
            self._reject(client, "journal_unavailable", detail=repr(error))
            raise ServiceError(
                503,
                "journal_unavailable",
                f"cannot journal the sweep (spool write failed): {error}",
            ) from None
        try:
            handle = self.runner.submit(
                specs,
                on_transition=self._make_observer(sweep_id, events_path),
                jobs=self.config.jobs,
                result_cache=self.store,
                telemetry=events_path,
                progress=False,
            )
        except JobQueueFull as error:
            self._journal_advisory("cancelled", sweep_id, reason="queue_full")
            self.quotas.account_rejected(client)
            self._reject(client, "queue_full", queue_depth=self.runner.queue_depth)
            raise ServiceError(
                429,
                "queue_full",
                str(error),
                queue_depth=self.runner.queue_depth,
            ) from None
        self.quotas.account_accepted(client, len(specs))
        self._emit(
            events_path,
            "sweep_submitted",
            sweep=sweep_id,
            cells=len(specs),
            client=client,
        )
        sweep = Sweep(
            sweep_id=sweep_id,
            handle=handle,
            client=client,
            cells=len(specs),
            events_path=events_path,
        )
        with self._lock:
            self._counters["submitted"] += 1
            self._sweeps[sweep_id] = sweep
            self._order.append(sweep_id)
            self._prune_locked()
        return {
            "id": sweep_id,
            "state": handle.state,
            "cells": len(specs),
            "links": {
                "status": f"/sweeps/{sweep_id}",
                "results": f"/sweeps/{sweep_id}/results",
                "events": f"/sweeps/{sweep_id}/events",
            },
        }

    def _journal_advisory(self, record_type: str, sweep_id: str, **fields: Any) -> None:
        """Journal a transition, swallowing spool errors: past admission
        the journal is advisory (the worst a lost record costs is one
        harmless at-least-once re-run on recovery)."""
        try:
            self.journal.append(record_type, sweep_id, **fields)
        except OSError:
            pass

    def _make_observer(self, sweep_id: str, events_path: str):
        def observer(handle: JobHandle, state: str) -> None:
            if state == "running":
                self._journal_advisory("started", sweep_id)
                self._emit(
                    events_path,
                    "sweep_start",
                    sweep=sweep_id,
                    queue_wait_s=round(handle.queue_wait_s or 0.0, 6),
                )
                return
            self._journal_advisory("finished", sweep_id, state=state)
            counter = {
                "done": "completed",
                "failed": "failed",
                "cancelled": "cancelled",
            }.get(state)
            with self._lock:
                if counter is not None:
                    self._counters[counter] += 1
                if state == "done" and handle.run_seconds is not None:
                    self._sweep_seconds.append(handle.run_seconds)
                    del self._sweep_seconds[:-1000]
            self._emit(
                events_path,
                "sweep_finish",
                sweep=sweep_id,
                state=state,
                error=handle.error,
                run_seconds=handle.run_seconds,
                **handle.stats,
            )

        return observer

    def _prune_locked(self) -> None:
        while len(self._order) > self.config.keep_sweeps:
            for candidate in self._order:
                if self._sweeps[candidate].handle.finished:
                    self._order.remove(candidate)
                    del self._sweeps[candidate]
                    break
            else:
                return  # nothing finished yet; keep everything live

    # -- restart recovery ----------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal and re-admit every sweep still owed work.

        Runs once from ``__init__`` before the server binds, so clients
        never observe a half-recovered registry.  Queued sweeps come
        back in submission order; an interrupted running sweep is
        resubmitted and its already-checkpointed cells are served warm
        from the result store (only the lost tail re-simulates).
        """
        replay = self.journal.replay()
        if replay.corrupt_tail or replay.dropped:
            self._corrupt_tail_events += 1
            self._emit(
                self._service_log(),
                "journal_corrupt_tail",
                corrupt_tail=replay.corrupt_tail,
                dropped=replay.dropped,
            )
        if not replay.live:
            if replay.records:
                self.journal.checkpoint()  # drop the dead history
            return
        recovered = 0
        resubmitted_cells = 0
        warm_cells = 0
        for entry in replay.live:
            specs = load_payload_specs(entry.payload)
            if specs is None:
                self._journal_advisory("cancelled", entry.sweep_id, reason="invalid_payload")
                self._emit(
                    self._service_log(),
                    "sweep_rejected",
                    reason="invalid_spec",
                    client=entry.client,
                    sweep=entry.sweep_id,
                    detail="journaled payload no longer decodes",
                )
                continue
            events_path = self._events_path(entry.sweep_id)
            warm = self.store.warm_count(specs)
            try:
                handle = self.runner.submit(
                    specs,
                    on_transition=self._make_observer(entry.sweep_id, events_path),
                    jobs=self.config.jobs,
                    result_cache=self.store,
                    telemetry=events_path,
                    progress=False,
                )
            except (JobQueueFull, RuntimeError) as error:
                # More journaled sweeps than queue slots: the rest stay
                # journaled and come back on the next restart.
                self._emit(
                    self._service_log(),
                    "sweep_rejected",
                    reason="queue_full",
                    client=entry.client,
                    sweep=entry.sweep_id,
                    detail=f"recovery deferred: {error}",
                )
                break
            sweep = Sweep(
                sweep_id=entry.sweep_id,
                handle=handle,
                client=entry.client,
                cells=len(specs),
                events_path=events_path,
                recovered=True,
            )
            with self._lock:
                self._sweeps[entry.sweep_id] = sweep
                self._order.append(entry.sweep_id)
            self._emit(
                events_path,
                "sweep_resumed",
                sweep=entry.sweep_id,
                prior_state=entry.state,
                cells=len(specs),
                warm_cells=warm,
                client=entry.client,
            )
            recovered += 1
            warm_cells += warm
            resubmitted_cells += len(specs) - warm
        with self._lock:
            self._recovered_sweeps += recovered
            self._resubmitted_cells += resubmitted_cells
            self._warm_cells += warm_cells
        if recovered:
            self._emit(
                self._service_log(),
                "service_recovered",
                recovered_sweeps=recovered,
                resubmitted_cells=resubmitted_cells,
                warm_cells=warm_cells,
            )
        self.journal.checkpoint()

    # -- lookup --------------------------------------------------------------

    def get(self, sweep_id: str) -> Sweep:
        with self._lock:
            sweep = self._sweeps.get(sweep_id)
        if sweep is None:
            raise ServiceError(404, "unknown_sweep", f"no sweep {sweep_id!r}")
        return sweep

    def results_page(self, sweep_id: str, offset: int = 0, limit: int = 256) -> Dict[str, Any]:
        """One page of a finished sweep's encoded cell results."""
        sweep = self.get(sweep_id)
        state = sweep.handle.state
        if state != "done":
            raise ServiceError(
                409,
                "not_finished",
                f"sweep {sweep_id} is {state}; results exist only for completed sweeps",
                state=state,
            )
        results = sweep.handle.result()
        if offset < 0 or limit < 1:
            raise ServiceError(
                400,
                "bad_page",
                f"offset must be >= 0 and limit >= 1, got offset={offset} limit={limit}",
            )
        page = results[offset : offset + limit]
        next_offset = offset + len(page)
        return {
            "id": sweep_id,
            "total": len(results),
            "offset": offset,
            "count": len(page),
            "next_offset": next_offset if next_offset < len(results) else None,
            "results": [encode_result(result) for result in page],
        }

    def cancel(self, sweep_id: str) -> Dict[str, Any]:
        sweep = self.get(sweep_id)
        if self.runner.cancel(sweep.handle):
            # It never ran (it was still queued): journal why, next to
            # the observer's terminal record — duplicate terminal
            # records are idempotent under replay.
            self._journal_advisory("cancelled", sweep_id, reason="client_cancel")
        return sweep.status()

    # -- health & metrics ----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "uptime_s": round(time.time() - self.started_at, 3),
            "queue_depth": self.runner.queued(),
            "running": self.runner.running() is not None,
            "draining": self._draining,
        }

    def metrics(self) -> Dict[str, Any]:
        with self._lock:
            counters = dict(self._counters)
            states: Dict[str, int] = {}
            for sweep in self._sweeps.values():
                state = sweep.handle.state
                states[state] = states.get(state, 0) + 1
            seconds = sorted(self._sweep_seconds)
        latency = {"count": len(seconds)}
        for name, q in (("p50_s", 0.50), ("p95_s", 0.95), ("p99_s", 0.99)):
            if seconds:
                rank = min(len(seconds) - 1, int(round(q * (len(seconds) - 1))))
                latency[name] = round(seconds[rank], 6)
            else:
                latency[name] = 0.0
        with self._lock:
            recovery = {
                "recovered_sweeps": self._recovered_sweeps,
                "resubmitted_cells": self._resubmitted_cells,
                "warm_cells": self._warm_cells,
                "journal_corrupt_tail": self._corrupt_tail_events,
                "draining": self._draining,
            }
        return {
            "queue": {
                "depth": self.runner.queued(),
                "capacity": self.runner.queue_depth,
                "running": self.runner.running() is not None,
            },
            "sweeps": {**counters, "states": states},
            "result_store": self.store.stats_snapshot(),
            "sweep_latency": latency,
            "recovery": recovery,
            "journal": self.journal.stats_snapshot(),
            "clients": self.quotas.snapshot(),
            "limits": {
                "rate_per_s": self.config.rate,
                "burst": self.config.burst,
                "max_cells_per_request": self.config.max_cells_per_request,
            },
        }

    # -- lifecycle -----------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Flip into draining mode (idempotent): refuse new submissions
        with 503, stop starting queued sweeps, let the running one
        finish.  Returns immediately; :meth:`finish_drain` blocks."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
        queued = self.runner.drain()
        self._emit(
            self._service_log(),
            "service_draining",
            queued=len(queued),
            running=self.runner.running() is not None,
        )

    def finish_drain(self, timeout: Optional[float] = None) -> None:
        """Wait for the running sweep, checkpoint the journal (queued
        sweeps survive to the next process), and stop the runner."""
        self.runner.wait_idle(timeout)
        self.journal.checkpoint()
        self._emit(self._service_log(), "service_drained", queued=self.runner.queued())
        self.runner.shutdown(wait=True, cancel_queued=False)

    def shutdown(self, wait: bool = True) -> None:
        # A draining shutdown must not cancel queued sweeps: their
        # journal records are the next process's work list, and a
        # cancel would write terminal records that erase them.
        self.runner.shutdown(wait=wait, cancel_queued=not self._draining)
