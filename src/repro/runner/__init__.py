"""Parallel experiment runner.

The paper's evaluation is a grid of independent simulation *cells* —
(scheme, benchmark, window, seed) combinations that share no state.
This package turns a figure sweep into an explicit list of picklable
:class:`CellSpec` values and fans them over worker processes:

* :mod:`repro.runner.cells` — the cell vocabulary and the pure
  ``run_cell`` function every worker executes,
* :mod:`repro.runner.pool` — ``run_cells`` (supervised, ordered
  fan-out over a ``ProcessPoolExecutor``: per-cell retry with backoff,
  ``REPRO_CELL_TIMEOUT`` enforcement, crash recovery with pool
  restarts and inline fallback) plus the ``REPRO_JOBS`` /
  ``REPRO_CELL_RETRIES`` knobs,
* :mod:`repro.runner.batch` — batch planning and execution: pending
  cells sharing a ``batch_group_key()`` are grouped so one trace
  decode serves the whole group, and lowered general-perf and crypto
  cells advance together as lanes of one kernel call, chunked at the
  lane width (``--lanes``, ``REPRO_LANES``; width 0 plans no
  batches); a failed batch splits back to supervised per-cell retries,
* :mod:`repro.runner.telemetry` — JSONL event log of a run (cell
  start/finish/retry/timeout, pool restarts) and the live progress
  line behind ``--telemetry`` / the CLI,
* :mod:`repro.runner.jobs` — the non-blocking job-handle layer the
  sweep service uses: ``JobRunner.submit`` queues a grid on a bounded
  FIFO drained by one executor thread, returning a ``JobHandle`` with
  ``poll()`` / ``cancel()`` / ``result()``,
* :mod:`repro.runner.result_cache` — the content-addressed per-cell
  result cache that makes re-run sweeps incremental,
* :mod:`repro.runner.profiler` — ``--profile`` support: run one cell
  under cProfile and print the top cumulative hotspots,
* :mod:`repro.runner.report` — merge wall-clock / throughput numbers
  into ``BENCH_runner.json``.

Because ``run_cell`` is a pure function of its spec (fresh scheme,
deterministically derived RNG seeds, trace regenerated or loaded from
the content-addressed trace cache), a sweep's results are bit-identical
whether it runs inline, across 2 workers, or across 32 — and the result
cache can key a cell's result on a fingerprint of spec + code versions.
"""

from repro.runner.batch import (
    BatchItem,
    CellBatch,
    plan_batches,
    resolve_lanes,
    run_batch,
)
from repro.runner.cells import CellSpec, run_cell
from repro.runner.jobs import JobHandle, JobQueueFull, JobRunner
from repro.runner.pool import (
    CellTimeoutError,
    last_run_stats,
    resolve_cell_retries,
    resolve_cell_timeout,
    resolve_jobs,
    run_cells,
    run_context,
)
from repro.runner.profiler import profile_batch, profile_cell
from repro.runner.report import record_bench
from repro.runner.result_cache import RESULT_CACHE, ResultCache
from repro.runner.telemetry import (
    Telemetry,
    read_events,
    read_events_incremental,
)

__all__ = [
    "BatchItem",
    "CellBatch",
    "CellSpec",
    "CellTimeoutError",
    "JobHandle",
    "JobQueueFull",
    "JobRunner",
    "RESULT_CACHE",
    "ResultCache",
    "Telemetry",
    "last_run_stats",
    "plan_batches",
    "profile_batch",
    "profile_cell",
    "read_events",
    "read_events_incremental",
    "record_bench",
    "resolve_cell_retries",
    "resolve_cell_timeout",
    "resolve_jobs",
    "resolve_lanes",
    "run_batch",
    "run_cell",
    "run_cells",
    "run_context",
]
