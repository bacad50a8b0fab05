"""Supervised, fault-tolerant fan-out of sweep cells over workers.

``run_cells`` is the single entry point every figure sweep funnels
through.  Results always come back in spec order, so callers regroup
them positionally regardless of which worker finished first.

Job count resolution (first match wins):

1. an explicit ``jobs=`` argument (``--jobs`` on the CLI),
2. the ``REPRO_JOBS`` environment variable,
3. ``os.cpu_count()``.

``jobs == 1`` (or a single cell) runs inline — no executor, no pickle
round-trip — which is also what keeps the whole suite usable on
single-core machines and under debuggers.

Sweeps are **incremental and resumable**: before dispatching, the
parent consults the content-addressed result cache
(:mod:`repro.runner.result_cache`) and only the cells whose fingerprint
misses are computed; every finished cell is checkpointed back to the
cache *as it lands*, so an interrupted sweep re-run recomputes only the
cells that had not finished.  Results are bit-identical with the cache
on or off and for any job count.

Pending cells that share a ``batch_group_key()`` are additionally
planned into **batches** (:mod:`repro.runner.batch`) — groups that
share one trace decode and warm L2 replay, run their lowered cells on
the lane kernel, and are dispatched to a worker as one unit.  A failed,
hung, or crashed batch is split and its cells retried individually;
``--lanes 0`` / ``REPRO_LANES=0`` disables planning (a lowerable cell
then runs as a width-1 kernel call of its own), and ``REPRO_CHECK``
skips it and runs every cell on the object model.  Batched results are
bit-identical to per-cell results.

The pool mode is supervised rather than a bare ``Executor.map``:

* each cell gets its own future, dispatched with at most ``jobs`` in
  flight so a queued cell starts as soon as a worker frees up;
* a cell whose attempt raises is retried with exponential backoff, up
  to ``REPRO_CELL_RETRIES`` extra attempts (``retries=`` to override);
* a cell still running after ``REPRO_CELL_TIMEOUT`` seconds
  (``timeout=``; unset/0 disables) is killed with its pool, counted,
  and retried on a fresh pool;
* a worker death (``BrokenProcessPool`` — segfault, OOM-kill,
  ``os._exit``) resubmits only the unfinished cells to a fresh pool;
  after ``_MAX_POOL_RESTARTS`` pool losses the remaining cells degrade
  to inline execution in the parent, which cannot lose a worker;
* every transition is reported to :mod:`repro.runner.telemetry` and
  summarized in :func:`last_run_stats` (retries, timeouts, pool
  restarts, p50/p95 cell latency, checked-mode ``checks_run`` /
  ``violations``);
* a :exc:`~repro.check.CheckViolation` from a cell running under
  ``REPRO_CHECK`` is deterministic, so it is never retried: it is
  emitted as a ``check_violation`` telemetry event and re-raised at
  once with the failing spec attached.

Timeouts are enforced only in pool mode: inline execution cannot
preempt a running cell, so ``timeout`` is ignored there (retries still
apply).
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Union

from repro.check import CheckViolation, check_rate_from_env, check_totals
from repro.cpu.lanes import cells_run
from repro.runner.batch import BatchItem, plan_batches, run_batch
from repro.runner.cells import run_cell
from repro.runner.result_cache import RESULT_CACHE, ResultCache
from repro.runner.telemetry import Telemetry, worker_meta
from repro.util.stats import percentile

#: statistics of the most recent ``run_cells`` call in this process
_LAST_RUN: Dict[str, float] = {}

#: pool losses tolerated before degrading to inline execution
_MAX_POOL_RESTARTS = 3

#: first retry backoff; doubles per subsequent attempt of the same cell
_RETRY_BACKOFF_S = 0.1

#: default extra attempts per cell when ``REPRO_CELL_RETRIES`` is unset
_DEFAULT_RETRIES = 2

#: how often the supervisor wakes to check deadlines (pool mode)
_WAIT_TICK_S = 0.05


class CellTimeoutError(TimeoutError):
    """A cell exceeded its per-attempt timeout on every allowed attempt."""


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: argument > ``REPRO_JOBS`` > cpu count."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer worker count, got {env!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_cell_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Per-attempt cell timeout: argument > ``REPRO_CELL_TIMEOUT`` > none.

    ``None``, an empty variable, or any value <= 0 disables the timeout.
    """
    if timeout is None:
        env = os.environ.get("REPRO_CELL_TIMEOUT", "").strip()
        if not env:
            return None
        try:
            timeout = float(env)
        except ValueError:
            raise ValueError(
                f"REPRO_CELL_TIMEOUT must be a number of seconds, got {env!r}"
            ) from None
    return timeout if timeout > 0 else None


def resolve_cell_retries(retries: Optional[int] = None) -> int:
    """Extra attempts per cell: argument > ``REPRO_CELL_RETRIES`` > 2."""
    if retries is None:
        env = os.environ.get("REPRO_CELL_RETRIES", "").strip()
        if not env:
            return _DEFAULT_RETRIES
        try:
            retries = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_CELL_RETRIES must be an integer retry count, got {env!r}"
            ) from None
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    return retries


def _run_cell_task(spec):
    """Worker entry point: the cell result plus execution metadata.

    A cell that ``run_cell`` ran on the lane kernel carries
    ``lane_width`` 1, like a laned member of a batch."""
    started = time.perf_counter()
    checks_before = check_totals()["checks_run"]
    lanes_before = cells_run()
    result = run_cell(spec)
    meta = worker_meta(time.perf_counter() - started)
    checks_run = check_totals()["checks_run"] - checks_before
    if checks_run:
        meta["checks_run"] = checks_run
    if cells_run() != lanes_before:
        meta["lane_width"] = 1
    return result, meta


# -- run-wide defaults (CLI surface) -----------------------------------------

_RUN_DEFAULTS: Dict[str, Optional[object]] = {"telemetry": None, "progress": None}


@contextmanager
def run_context(
    telemetry: Union[Telemetry, str, None] = None,
    progress: Optional[bool] = None,
):
    """Scope default telemetry/progress for nested ``run_cells`` calls.

    The CLI wraps a whole figure sweep in this so ``--telemetry PATH``
    reaches the ``run_cells`` buried inside the experiment modules
    without threading a parameter through every signature.
    """
    saved = dict(_RUN_DEFAULTS)
    owned = None
    if isinstance(telemetry, str):
        telemetry = owned = Telemetry(path=telemetry, progress=progress)
    _RUN_DEFAULTS.update(telemetry=telemetry, progress=progress)
    try:
        yield telemetry
    finally:
        _RUN_DEFAULTS.clear()
        _RUN_DEFAULTS.update(saved)
        if owned is not None:
            owned.close()


class _Supervisor:
    """Shared bookkeeping for one ``run_cells`` invocation."""

    def __init__(
        self,
        specs: Sequence,
        retries: int,
        timeout: Optional[float],
        telemetry: Telemetry,
        cache: ResultCache,
        fingerprints: List[Optional[str]],
        results: List,
        total: int,
    ):
        self.specs = specs
        self.retries = retries
        self.timeout = timeout
        self.telemetry = telemetry
        self.cache = cache
        self.fingerprints = fingerprints
        self.results = results
        self.total = total
        self.done = 0
        self.stores = 0
        self.attempts: Dict[int, int] = {}
        self.latencies: List[float] = []
        self.counters = dict(
            retries=0,
            timeouts=0,
            pool_restarts=0,
            inline_fallback=0,
            checks_run=0,
            check_violations=0,
            batches=0,
            batched_cells=0,
            decode_reuse_hits=0,
            vectorized_cells=0,
            scalar_fallback_cells=0,
            lane_width=0,
        )

    def note_cached(self, index: int) -> None:
        self.done += 1
        self.telemetry.emit("cell_cached", index=index)
        self.telemetry.progress(self.done, self.total, "cached")

    def on_result(self, index: int, result, meta: dict) -> None:
        """Record one finished cell and checkpoint it immediately.

        A cell whose meta carries ``lane_width`` ran on the lane kernel
        (in a batch or alone) and counts as vectorized."""
        self.results[index] = result
        if self.fingerprints[index] is not None:
            self.cache.store(self.fingerprints[index], result)
            self.stores += 1
        self.counters["checks_run"] += meta.get("checks_run", 0)
        if "lane_width" in meta:
            self.counters["vectorized_cells"] += 1
        self.latencies.append(meta.get("wall_s", 0.0))
        self.done += 1
        self.telemetry.emit("cell_finish", index=index, attempt=self.attempts.get(index, 0), **meta)
        self.telemetry.progress(self.done, self.total, f"last cell {meta.get('wall_s', 0):.2f}s")

    def on_failure(self, index: int, error: BaseException) -> bool:
        """Count one failed attempt; True if the cell may be retried."""
        attempt = self.attempts.get(index, 0) + 1
        self.attempts[index] = attempt
        if isinstance(error, CheckViolation):
            # A checked-mode divergence is deterministic — retrying the
            # same spec would only rediscover it.  Surface it at once.
            self.counters["check_violations"] += 1
            self.telemetry.emit(
                "check_violation",
                index=index,
                kind=error.kind,
                where=error.where,
                access_index=error.index,
                error=str(error),
                spec=error.spec,
            )
            return False
        if attempt > self.retries:
            return False
        self.counters["retries"] += 1
        self.telemetry.emit("cell_retry", index=index, attempt=attempt, error=repr(error))
        return True

    def on_batch_result(self, item: BatchItem, payload) -> None:
        """Record one finished batch: per-cell results plus counters."""
        results, metas, batch_meta = payload
        self.counters["batches"] += 1
        self.counters["batched_cells"] += len(item.indices)
        self.counters["decode_reuse_hits"] += batch_meta.get("decode_reuses", 0)
        batch = item.batch
        event = dict(
            batch_id=batch.batch_id,
            size=len(item.indices),
            decode_reuses=batch_meta.get("decode_reuses", 0),
        )
        if "lanes_fallback" in batch_meta:
            # Once per process: the compiled lane kernel was unusable,
            # so no cell lowered and lane-kind cells ran per cell.
            self.telemetry.emit(
                "lanes_fallback", batch_id=batch.batch_id, reason=batch_meta["lanes_fallback"]
            )
        if "lane_width" in batch_meta:
            # Lane metrics ride along only for kernel-backed batches.
            event["lane_width"] = batch_meta["lane_width"]
            event["vectorized_cells"] = batch_meta.get("vectorized_cells", 0)
            event["scalar_fallback_cells"] = batch_meta.get("scalar_fallback_cells", 0)
            self.counters["scalar_fallback_cells"] += event["scalar_fallback_cells"]
            self.counters["lane_width"] = max(
                self.counters["lane_width"], batch_meta["lane_width"]
            )
        self.telemetry.emit("batch_finish", **event)
        for index, result, meta in zip(item.indices, results, metas):
            meta["batch_id"] = batch.batch_id
            meta["batch_size"] = len(item.indices)
            if "checks_run" in batch_meta:
                # Checked batches (defensive fallback path) account
                # their checks once, on the first member's meta.
                meta["checks_run"] = batch_meta.pop("checks_run")
            self.on_result(index, result, meta)

    def on_batch_split(
        self, item: BatchItem, reason: str, error: Optional[BaseException] = None
    ) -> None:
        """Report that a batch is dissolving into per-cell retries.

        The split itself is the mitigation, so member cells are *not*
        charged an attempt here — a deterministic failer then exhausts
        its ordinary per-cell retries, while its innocent siblings
        complete individually.
        """
        self.telemetry.emit(
            "batch_split",
            batch_id=item.batch.batch_id,
            cells=list(item.indices),
            reason=reason,
            error=repr(error) if error is not None else None,
        )

    def on_batch_timeout(self, item: BatchItem) -> None:
        self.counters["timeouts"] += 1
        self.telemetry.emit(
            "batch_timeout",
            batch_id=item.batch.batch_id,
            cells=list(item.indices),
            timeout_s=self.timeout * len(item.indices),
        )

    def on_timeout(self, index: int) -> bool:
        """Count one timed-out attempt; True if the cell may be retried."""
        attempt = self.attempts.get(index, 0) + 1
        self.attempts[index] = attempt
        self.counters["timeouts"] += 1
        self.telemetry.emit("cell_timeout", index=index, attempt=attempt, timeout_s=self.timeout)
        if attempt > self.retries:
            return False
        self.counters["retries"] += 1
        return True

    def backoff(self, index: int) -> None:
        time.sleep(_RETRY_BACKOFF_S * (2 ** (self.attempts[index] - 1)))


def _run_inline(sup: _Supervisor, pending: Sequence) -> None:
    """Sequential execution with retry (timeouts cannot be enforced)."""
    for item in pending:
        if type(item) is BatchItem:
            sup.telemetry.emit(
                "batch_start", batch_id=item.batch.batch_id, cells=list(item.indices)
            )
            try:
                payload = run_batch(item.batch)
            except Exception as error:
                sup.on_batch_split(item, "error", error)
                _run_inline(sup, list(item.indices))
                continue
            sup.on_batch_result(item, payload)
            continue
        i = item
        while True:
            sup.telemetry.emit("cell_start", index=i, attempt=sup.attempts.get(i, 0))
            try:
                result, meta = _run_cell_task(sup.specs[i])
            except Exception as error:
                if not sup.on_failure(i, error):
                    raise
                sup.backoff(i)
                continue
            sup.on_result(i, result, meta)
            break


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers without waiting on running cells.

    ``Executor.shutdown`` alone would block behind a hung or dead
    worker, so the workers are SIGTERMed first; the final ``wait=True``
    then only joins the management thread, which exits promptly once it
    notices its processes are gone (leaving no half-dead executor for
    the interpreter's atexit hook to trip over).
    """
    try:
        processes = list(pool._processes.values())
    except AttributeError:  # implementation detail moved
        processes = []
    for process in processes:
        try:
            process.terminate()
        except OSError:
            pass
    pool.shutdown(wait=True, cancel_futures=True)


def _split_to_front(queue: deque, item: BatchItem) -> None:
    """Requeue a dissolved batch's cells, preserving their order."""
    for index in reversed(item.indices):
        queue.appendleft(index)


def _run_supervised(sup: _Supervisor, pending: Sequence, jobs: int) -> int:
    """Pool execution with retry, timeout and crash recovery.

    ``pending`` holds plain cell indices and :class:`BatchItem`
    entries.  A batch is dispatched as one future with a deadline of
    ``timeout * len(batch)``; any failure, timeout, or pool loss splits
    it back into individual indices (never into a batch again), so
    per-cell retry semantics are preserved.  Returns the number of
    workers actually used.  Falls back to :func:`_run_inline` for
    whatever is left after the restart budget is exhausted.
    """
    queue = deque(pending)
    jobs_used = 1
    restarts = 0
    while queue:
        if restarts > _MAX_POOL_RESTARTS:
            sup.counters["inline_fallback"] = 1
            sup.telemetry.emit("inline_fallback", pending=len(queue), restarts=restarts)
            _run_inline(sup, list(queue))
            return jobs_used
        workers = min(jobs, len(queue))
        jobs_used = max(jobs_used, workers)
        restart_reason = None
        in_flight: Dict = {}  # future -> (item, submit time)
        pool = ProcessPoolExecutor(max_workers=workers)
        graceful = False
        try:
            while queue or in_flight:
                while queue and len(in_flight) < workers:
                    item = queue.popleft()
                    if type(item) is BatchItem:
                        sup.telemetry.emit(
                            "batch_start", batch_id=item.batch.batch_id, cells=list(item.indices)
                        )
                        future = pool.submit(run_batch, item.batch)
                    else:
                        sup.telemetry.emit(
                            "cell_start", index=item, attempt=sup.attempts.get(item, 0)
                        )
                        future = pool.submit(_run_cell_task, sup.specs[item])
                    in_flight[future] = (item, time.monotonic())
                tick = _WAIT_TICK_S if sup.timeout is not None else None
                finished, _ = wait(set(in_flight), timeout=tick, return_when=FIRST_COMPLETED)
                for future in finished:
                    item, _submitted = in_flight.pop(future)
                    error = future.exception()
                    if error is None:
                        if type(item) is BatchItem:
                            sup.on_batch_result(item, future.result())
                        else:
                            result, meta = future.result()
                            sup.on_result(item, result, meta)
                    elif isinstance(error, BrokenProcessPool):
                        in_flight[future] = (item, _submitted)
                        raise error
                    elif type(item) is BatchItem:
                        sup.on_batch_split(item, "error", error)
                        _split_to_front(queue, item)
                    else:
                        if not sup.on_failure(item, error):
                            raise error
                        sup.backoff(item)
                        queue.append(item)
                if sup.timeout is not None and in_flight:
                    now = time.monotonic()
                    expired = []
                    for future, (item, t0) in in_flight.items():
                        if future.done():
                            continue
                        scale = len(item.indices) if type(item) is BatchItem else 1
                        if now - t0 > sup.timeout * scale:
                            expired.append(item)
                    if expired:
                        for item in expired:
                            if type(item) is BatchItem:
                                sup.on_batch_timeout(item)
                            elif not sup.on_timeout(item):
                                raise CellTimeoutError(
                                    f"cell {item} exceeded its {sup.timeout}s timeout on "
                                    f"every allowed attempt "
                                    f"(REPRO_CELL_TIMEOUT / REPRO_CELL_RETRIES)"
                                )
                        restart_reason = "timeout"
                        break
            graceful = restart_reason is None
        except BrokenProcessPool:
            restart_reason = "broken_pool"
            # One of the in-flight cells likely killed the worker, but
            # the executor cannot say which: charge them all an attempt
            # so a deterministic killer cell cannot restart the pool
            # forever (the restart budget below is the hard stop).
            # Batches are not charged — they split in the salvage pass
            # below, and the killer then pays per-cell attempts.
            for future, (item, _t0) in in_flight.items():
                salvaged = future.done() and not future.cancelled() and future.exception() is None
                if type(item) is not BatchItem and not salvaged:
                    sup.attempts[item] = sup.attempts.get(item, 0) + 1
        finally:
            if graceful:
                pool.shutdown(wait=True, cancel_futures=True)
            else:
                # Timed-out / crashed / fatally-failed run: never wait
                # on a hung or dead worker.
                _kill_pool(pool)
        if restart_reason is not None:
            # Salvage futures that completed before the loss, requeue
            # everything still unfinished on a fresh pool (batches are
            # split: their cells retry individually).
            for future, (item, _t0) in in_flight.items():
                if future.done() and not future.cancelled() and future.exception() is None:
                    if type(item) is BatchItem:
                        sup.on_batch_result(item, future.result())
                    else:
                        result, meta = future.result()
                        sup.on_result(item, result, meta)
                elif type(item) is BatchItem:
                    sup.on_batch_split(item, restart_reason)
                    _split_to_front(queue, item)
                else:
                    queue.appendleft(item)
            restarts += 1
            sup.counters["pool_restarts"] = restarts
            sup.telemetry.emit(
                "pool_restart", reason=restart_reason, restarts=restarts, pending=len(queue)
            )
    return jobs_used


def run_cells(
    specs: Sequence,
    jobs: Optional[int] = None,
    result_cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    telemetry: Union[Telemetry, str, None] = None,
    progress: Optional[bool] = None,
    stats_sink: Optional[Dict] = None,
) -> List:
    """Run every cell; returns results in the order of ``specs``.

    Accepts :class:`CellSpec` instances or any other picklable spec
    :func:`run_cell` understands (specs with a ``run()`` method).

    Pending cells whose specs share a ``batch_group_key()`` are
    planned into :class:`CellBatch` work items
    (:func:`repro.runner.batch.plan_batches`) and dispatched as units,
    unless the lane width (``REPRO_LANES``) is 0; results are
    bit-identical either way.  Planning happens *after* the per-cell
    result-cache check, so a fully cached grid never plans a batch or
    touches a trace, and it is skipped entirely under ``REPRO_CHECK``,
    under which every cell runs on the object model with the oracle.

    ``jobs`` follows :func:`resolve_jobs`; ``timeout`` and ``retries``
    follow :func:`resolve_cell_timeout` / :func:`resolve_cell_retries`
    (``REPRO_CELL_TIMEOUT`` / ``REPRO_CELL_RETRIES``).

    ``result_cache`` defaults to the process-wide
    :data:`~repro.runner.result_cache.RESULT_CACHE`; cells whose
    fingerprint is already stored are not recomputed, and every newly
    finished cell is checkpointed back immediately.  The cache's size
    budget is applied once, when a run that stored results finishes,
    so a fully cached re-run never scans the directory.  Only specs that
    expose ``result_cache_token()`` participate — others always run and
    are counted as ``result_cache_uncacheable`` in
    :func:`last_run_stats`.

    ``telemetry`` is a :class:`~repro.runner.telemetry.Telemetry`, a
    JSONL path, or ``None`` (inherit the :func:`run_context` default);
    ``progress`` forces the live progress line on/off.

    ``stats_sink``, when given, receives the final
    :func:`last_run_stats` payload for *this* call — the process-wide
    ``last_run_stats()`` is a single slot, so concurrent callers (the
    sweep service's job thread vs. the main thread) pass a sink to get
    their own copy race-free.
    """
    jobs = resolve_jobs(jobs)
    timeout = resolve_cell_timeout(timeout)
    retries = resolve_cell_retries(retries)
    started = time.perf_counter()
    cache = RESULT_CACHE if result_cache is None else result_cache

    if telemetry is None:
        telemetry = _RUN_DEFAULTS["telemetry"]
    if progress is None:
        progress = _RUN_DEFAULTS["progress"]
    owned = None
    if isinstance(telemetry, str):
        telemetry = owned = Telemetry(path=telemetry, progress=progress)
    elif telemetry is None:
        telemetry = owned = Telemetry(path=None, progress=bool(progress))

    total = len(specs)
    results: List = [None] * total
    fingerprints: List[Optional[str]] = [None] * total
    pending: List[int] = []
    cache_hits = 0
    cache_misses = 0
    uncacheable = 0
    sup = _Supervisor(specs, retries, timeout, telemetry, cache, fingerprints, results, total)
    try:
        cached_indices: List[int] = []
        for i, spec in enumerate(specs):
            fingerprint, cached = cache.lookup_spec(spec)
            if fingerprint is None:
                if not hasattr(spec, "result_cache_token"):
                    uncacheable += 1
                pending.append(i)
                continue
            fingerprints[i] = fingerprint
            if cached is not None:
                results[i] = cached
                cache_hits += 1
                cached_indices.append(i)
                continue
            cache_misses += 1
            pending.append(i)

        work: List = list(pending)
        planned_batches = 0
        if len(pending) > 1 and check_rate_from_env() is None:
            work = plan_batches(specs, pending, jobs=jobs)
            planned_batches = sum(1 for item in work if type(item) is BatchItem)

        telemetry.emit(
            "run_start",
            cells=total,
            pending=len(pending),
            cached=cache_hits,
            jobs=jobs,
            timeout_s=timeout,
            retries=retries,
            batches=planned_batches,
            python=".".join(map(str, sys.version_info[:3])),
            pid=os.getpid(),
        )
        for i in cached_indices:
            sup.note_cached(i)

        jobs_used = 1
        try:
            if pending:
                # A single pending work item still goes through the
                # pool when a timeout is requested: inline execution
                # cannot preempt it.
                inline = jobs == 1 or (len(work) == 1 and timeout is None)
                if inline:
                    _run_inline(sup, work)
                else:
                    jobs_used = _run_supervised(sup, work, jobs)
            if sup.stores:
                cache.apply_budget()
        finally:
            # Recorded even when the run dies (e.g. a CheckViolation):
            # last_run_stats still reports what was counted up to the
            # failure.  run_finish is only emitted for completed runs.
            elapsed = time.perf_counter() - started
            ordered = sorted(sup.latencies)
            _LAST_RUN.clear()
            _LAST_RUN.update(
                cells=total,
                jobs=jobs_used,
                seconds=elapsed,
                cells_per_sec=(total / elapsed) if elapsed > 0 else 0.0,
                result_cache_hits=cache_hits,
                result_cache_misses=cache_misses,
                result_cache_uncacheable=uncacheable,
                retries=sup.counters["retries"],
                timeouts=sup.counters["timeouts"],
                pool_restarts=sup.counters["pool_restarts"],
                inline_fallback=sup.counters["inline_fallback"],
                checks_run=sup.counters["checks_run"],
                violations=sup.counters["check_violations"],
                batches=sup.counters["batches"],
                batched_cells=sup.counters["batched_cells"],
                decode_reuse_hits=sup.counters["decode_reuse_hits"],
                lane_width=sup.counters["lane_width"],
                vectorized_cells=sup.counters["vectorized_cells"],
                scalar_fallback_cells=sup.counters["scalar_fallback_cells"],
                latency_p50_s=percentile(ordered, 0.50),
                latency_p95_s=percentile(ordered, 0.95),
            )
            if stats_sink is not None:
                stats_sink.update(_LAST_RUN)
        telemetry.emit("run_finish", **_LAST_RUN)
    finally:
        if owned is not None:
            owned.close()
        else:
            telemetry.finish_progress()
    return results


def last_run_stats() -> Dict[str, float]:
    """Timing of the most recent :func:`run_cells` call (a copy)."""
    return dict(_LAST_RUN)
