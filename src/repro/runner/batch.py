"""Batch planning and execution for the supervised runner.

``run_cells`` plans its *pending* (cache-missed) cells into batches:
cells whose specs report the same ``batch_group_key()`` share per-group
work — for general-perf and crypto cells one trace decode (and one L2
warm replay, :mod:`repro.cpu.batch`), for leakage cells the dispatch
overhead — and
a batch is the unit submitted to a worker.  Supervision semantics are
preserved by construction: a batch that fails, hangs, or dies with its
pool is *split* and its member cells requeued individually, where the
ordinary per-cell retry/timeout machinery applies; each finished cell
still lands in the result cache one by one.

Batching follows the lane width (``--lanes`` / ``REPRO_LANES``,
:func:`resolve_lanes`): width 0 plans no batches, so every cell runs
through :func:`run_cell`, and any width >= 1 batches.  Checked mode
(``REPRO_CHECK``) disables planning entirely so every cell takes the
per-cell oracle path.  Within a ``"general"`` or ``"crypto"`` batch,
every cell that lowers onto the lane kernel (:mod:`repro.cpu.lanes`)
advances as a *lane* of one kernel call, chunked at the lane width; a
chunk of one is a width-1 call, and cells that do not lower run
through :func:`run_cell` inside the batch.  The planner keeps a lane
kind's leftover chunk of one cell as a one-cell batch, so that cell too
runs as a width-1 lane call; other kinds run a leftover singleton as a
plain cell.  Results are bit-identical for any jobs count or lane
width, 0 included, because the lane kernel is exact and chunk
boundaries carry no state between cells.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runner.cells import LANE_KINDS, run_cell
from repro.runner.telemetry import worker_meta

#: smallest chunk worth batching for kinds that only amortize dispatch
#: (a singleton is just a cell), and the smallest lane width that caps
#: a lane-kind chunk.  A ``"general"``/``"crypto"`` chunk of one still
#: forms a batch: its cell lowers onto a width-1 lane call, which beats
#: the per-cell path's own decode, warm replay and fused kernel
MIN_BATCH = 2

#: largest batch submitted as one work item; bounds the blast radius of
#: a split (one bad cell re-runs at most this many siblings' dispatch)
#: and keeps per-batch timeouts meaningful
MAX_BATCH = 32

#: default lane width: how many cells one lane-kernel call advances.
#: The kernel loops lanes in C, so wider mostly amortizes the shared
#: column setup; the cap bounds a split's blast radius like MAX_BATCH
DEFAULT_LANES = 64


def resolve_lanes(lanes: Optional[int] = None) -> int:
    """Lane width: argument > ``REPRO_LANES`` > :data:`DEFAULT_LANES`.

    Width 0 (``--lanes 0`` / ``REPRO_LANES=0``) turns batching off:
    no batch is planned and every cell runs through :func:`run_cell`.
    Width 1 still batches — members share the trace decode — but every
    lowered cell takes its own width-1 lane call.
    """
    if lanes is None:
        env = os.environ.get("REPRO_LANES", "").strip()
        if not env:
            return DEFAULT_LANES
        try:
            lanes = int(env)
        except ValueError:
            raise ValueError(f"REPRO_LANES must be an integer, got {env!r}")
    if lanes < 0:
        raise ValueError(f"lane width must be >= 0, got {lanes}")
    return lanes


class CellBatch:
    """A picklable group of compatible cell specs, dispatched as one.

    ``kind`` is the first element of the members' shared group key:
    ``"general"`` and ``"crypto"`` batches share trace decode (+ warm
    L2 state) through the kernels; any other kind only amortizes
    dispatch.
    """

    __slots__ = ("batch_id", "kind", "cells")

    def __init__(self, batch_id: str, kind: str, cells: Tuple):
        self.batch_id = batch_id
        self.kind = kind
        self.cells = cells

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellBatch({self.batch_id!r}, kind={self.kind!r}, cells={len(self.cells)})"


class BatchItem:
    """One batched work-queue entry: the member indices + their batch."""

    __slots__ = ("indices", "batch")

    def __init__(self, indices: Tuple[int, ...], batch: CellBatch):
        self.indices = indices
        self.batch = batch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchItem({self.batch.batch_id!r}, indices={self.indices})"


def plan_batches(
    specs: Sequence, pending: Sequence[int], jobs: int = 1, lanes: Optional[int] = None
) -> List:
    """Group pending cell indices into a work list.

    Returns a list of plain ``int`` indices (unbatched cells) and
    :class:`BatchItem` entries, ordered by each item's first index so
    sequential execution keeps sweep order.  Only specs exposing
    ``batch_group_key()`` (returning a hashable key, or ``None`` to
    opt out) are grouped; group keys are compared between *pending*
    cells only — fully cached cells were short-circuited before
    planning and never reach here.

    Lane width 0 (:func:`resolve_lanes`) plans nothing: every pending
    index comes back as a plain ``int``.  Otherwise ``"general"`` and
    ``"crypto"`` groups chunk at a lane width of 2 or more so one batch
    is one lane-kernel call; other kinds, and lane kinds at width 1,
    keep the :data:`MAX_BATCH` cap.  A chunk smaller than
    :data:`MIN_BATCH` stays a (one-cell) batch for the lane kinds and
    becomes a plain index for the others.  With ``jobs`` workers the
    batch size is additionally capped at ``ceil(pending / jobs)`` so a
    small grid still spreads across the pool; at high jobs counts this
    degrades gracefully toward per-cell dispatch without affecting
    results.
    """
    lane_width = resolve_lanes(lanes)
    if not lane_width:
        return list(pending)
    groups: "Dict[object, List[int]]" = {}
    singles: List[int] = []
    for index in pending:
        key_of = getattr(specs[index], "batch_group_key", None)
        key = key_of() if key_of is not None else None
        if key is None:
            singles.append(index)
            continue
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [index]
        else:
            bucket.append(index)

    jobs_cap = None
    if jobs > 1:
        jobs_cap = max(1, -(-len(pending) // jobs))

    items: List = list(singles)
    sequence = 0
    for key, indices in groups.items():
        kind = str(key[0]) if isinstance(key, tuple) and key else str(key)
        max_batch = MAX_BATCH
        if kind in LANE_KINDS and lane_width >= MIN_BATCH:
            max_batch = lane_width
        if jobs_cap is not None:
            max_batch = min(max_batch, jobs_cap)
        for start in range(0, len(indices), max_batch):
            chunk = indices[start : start + max_batch]
            if len(chunk) < MIN_BATCH and kind not in LANE_KINDS:
                items.extend(chunk)
                continue
            batch = CellBatch(
                batch_id=f"b{sequence}", kind=kind, cells=tuple(specs[i] for i in chunk)
            )
            items.append(BatchItem(tuple(chunk), batch))
            sequence += 1
    items.sort(key=_first_index)
    return items


def _first_index(item) -> int:
    return item.indices[0] if type(item) is BatchItem else item


def run_batch(batch: CellBatch, lanes: Optional[int] = None):
    """Worker entry point: run every cell of a batch in-process.

    Returns ``(results, metas, batch_meta)`` with one result + meta per
    cell in batch order.  ``"general"`` and ``"crypto"`` batches lower
    each cell (:func:`repro.cpu.batch.lower_cell`; the batch's group
    key fixes one configuration for all of them), build the shared
    group state once if any cell lowered, and advance every lowered
    cell on the lane kernel (:func:`repro.cpu.batch.run_lane_cells`),
    grouped by their shared kernel parameters and chunked at the lane
    width (:func:`resolve_lanes`); a chunk of one is a width-1 call.
    Cells the kernel does not cover — and every cell at lane width 0,
    or when ``REPRO_CHECK`` is active, as a belt-and-braces guard (the
    parent already skips planning in both cases) — fall back to
    :func:`run_cell` individually inside the batch; no cell lowers
    when the compiled kernel is unavailable, and the reason rides once
    per process as ``batch_meta["lanes_fallback"]``.  Any exception —
    a lane call the kernel refuses included — propagates whole: the
    supervisor splits the batch and retries the cells one by one.

    A lane call's wall time is attributed evenly across its member
    cells' ``worker_duration_s`` so per-cell latency stays meaningful.
    """
    from repro.check import check_rate_from_env, check_totals

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        lane_width = resolve_lanes(lanes)
        laned = batch.kind in LANE_KINDS and lane_width and check_rate_from_env() is None
        shared = None
        lowered = [None] * len(batch.cells)
        if laned:
            from repro.cpu.batch import group_state_for, lower_cell, run_lane_cells
            config = batch.cells[0].config
            lowered = [lower_cell(spec, config) for spec in batch.cells]
            if any(low is not None for low in lowered):
                shared = group_state_for(batch.cells[0])

        # Lane plan: lowered cells sharing identical kernel parameters
        # advance together, chunked at the lane width.
        by_params: "Dict[object, List[int]]" = {}
        for i, low in enumerate(lowered):
            if low is not None:
                by_params.setdefault(low.shared_key(), []).append(i)
        lane_chunks = [
            indices[start : start + lane_width]
            for indices in by_params.values()
            for start in range(0, len(indices), lane_width)
        ]

        results: List = [None] * len(batch.cells)
        metas: List = [None] * len(batch.cells)
        checks_before = check_totals()["checks_run"]

        vectorized = 0
        for chunk in lane_chunks:
            started = time.perf_counter()
            lane_results = run_lane_cells(shared, [lowered[i] for i in chunk])
            share = (time.perf_counter() - started) / len(chunk)
            for i, result in zip(chunk, lane_results):
                meta = worker_meta(share)
                meta["batch_amortized_decode"] = True
                meta["lane_width"] = len(chunk)
                results[i] = result
                metas[i] = meta
            vectorized += len(chunk)

        for i, spec in enumerate(batch.cells):
            if lowered[i] is not None:
                continue
            started = time.perf_counter()
            results[i] = run_cell(spec)
            meta = worker_meta(time.perf_counter() - started)
            meta["batch_amortized_decode"] = False
            metas[i] = meta
        batch_meta = {"decode_reuses": max(0, vectorized - 1)}
        if laned:
            from repro.cpu.lanes import take_native_fallback
            batch_meta["lane_width"] = lane_width
            batch_meta["vectorized_cells"] = vectorized
            batch_meta["scalar_fallback_cells"] = len(batch.cells) - vectorized
            reason = take_native_fallback()
            if reason is not None:
                batch_meta["lanes_fallback"] = reason
        checks_run = check_totals()["checks_run"] - checks_before
        if checks_run:
            batch_meta["checks_run"] = checks_run
        return results, metas, batch_meta
    finally:
        if was_enabled:
            gc.enable()
