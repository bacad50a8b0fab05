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

Batching is on by default and controlled by ``--batch/--no-batch`` or
``REPRO_BATCH`` (:func:`resolve_batch`); checked mode (``REPRO_CHECK``)
disables planning entirely so every cell takes the per-cell oracle
path.  Within a ``"general"`` or ``"crypto"`` batch, eligible cells
additionally advance together as *lanes* of one kernel call
(:mod:`repro.cpu.lanes`), chunked at the lane width (``--lanes`` /
``REPRO_LANES``, :func:`resolve_lanes`; below 2 every cell keeps the
scalar flat kernel, or a width-1 lane call when it needs the lane
kernel's hooks).  Results are bit-identical with batching and
lanes on or off, for any jobs count or lane width, because both
kernels are exact and chunk boundaries carry no state between cells.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runner.cells import LANE_KINDS, run_cell
from repro.runner.telemetry import worker_meta

#: smallest group worth batching — a singleton is just a cell
MIN_BATCH = 2

#: largest batch submitted as one work item; bounds the blast radius of
#: a split (one bad cell re-runs at most this many siblings' dispatch)
#: and keeps per-batch timeouts meaningful
MAX_BATCH = 32

#: default lane width: how many cells one lane-kernel call advances.
#: The kernel loops lanes in C, so wider mostly amortizes the shared
#: column setup; the cap bounds a split's blast radius like MAX_BATCH
DEFAULT_LANES = 64

#: ``REPRO_BATCH`` values that disable / enable batching
_FALSE_VALUES = frozenset({"0", "off", "no", "false"})
_TRUE_VALUES = frozenset({"1", "on", "yes", "true"})


def resolve_batch(batch: Optional[bool] = None) -> bool:
    """Batching switch: argument > ``REPRO_BATCH`` > on."""
    if batch is not None:
        return bool(batch)
    env = os.environ.get("REPRO_BATCH", "").strip().lower()
    if not env:
        return True
    if env in _FALSE_VALUES:
        return False
    if env in _TRUE_VALUES:
        return True
    raise ValueError(f"REPRO_BATCH must be a boolean flag (1/0/on/off/yes/no), got {env!r}")


def resolve_lanes(lanes: Optional[int] = None) -> int:
    """Lane width: argument > ``REPRO_LANES`` > :data:`DEFAULT_LANES`.

    A width below 2 (``REPRO_LANES=0`` or ``1``) disables lane
    execution — batches still amortize decode but every member runs
    the scalar flat kernel, exactly the PR 6 path.
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

    ``"general"`` and ``"crypto"`` groups chunk at the lane width
    (:func:`resolve_lanes`) so one batch is one lane-kernel call; other
    kinds keep the :data:`MAX_BATCH` cap.  With ``jobs`` workers the
    batch size is additionally capped at ``ceil(pending / jobs)`` so a
    small grid still spreads across the pool; at high jobs counts this
    degrades gracefully toward per-cell dispatch without affecting
    results.
    """
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

    lane_width = resolve_lanes(lanes)
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
            if len(chunk) < MIN_BATCH:
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
    cell in batch order.  ``"general"`` and ``"crypto"`` batches build
    the shared group state once, then advance the eligible cells as
    lanes of the lane kernel (:func:`repro.cpu.batch.run_lane_cells`),
    grouped by their shared kernel parameters and chunked at the lane
    width (:func:`resolve_lanes`; below 2, or alone in its chunk, an
    eligible cell takes :func:`repro.cpu.batch.run_lowered_cell`).
    Cells the kernels do not cover — and every cell when
    ``REPRO_CHECK`` is active, as a belt-and-braces guard (the parent
    already skips planning under checked mode) — fall back to
    :func:`run_cell` individually inside the batch.  Any exception propagates whole: the supervisor splits
    the batch and retries the cells one by one.

    A lane call's wall time is attributed evenly across its member
    cells' ``worker_duration_s`` so per-cell latency stays meaningful.
    """
    from repro.check import check_rate_from_env, check_totals

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        checked = check_rate_from_env() is not None
        shared = None
        lowered = [None] * len(batch.cells)
        if batch.kind in LANE_KINDS and not checked:
            from repro.cpu.batch import group_state_for, lower_cell
            shared = group_state_for(batch.cells[0])
            lowered = [lower_cell(spec, shared) for spec in batch.cells]
        lane_width = resolve_lanes(lanes)

        # Lane plan: eligible cells sharing identical kernel parameters
        # advance together, chunked at the lane width.
        lane_chunks: List[List[int]] = []
        if shared is not None and lane_width >= MIN_BATCH:
            by_params: "Dict[object, List[int]]" = {}
            for i, low in enumerate(lowered):
                if low is not None:
                    by_params.setdefault(low.shared_key(), []).append(i)
            for indices in by_params.values():
                for start in range(0, len(indices), lane_width):
                    chunk = indices[start : start + lane_width]
                    if len(chunk) >= MIN_BATCH:
                        lane_chunks.append(chunk)

        results: List = [None] * len(batch.cells)
        metas: List = [None] * len(batch.cells)
        checks_before = check_totals()["checks_run"]

        vectorized = 0
        laned = set()
        for chunk in lane_chunks:
            from repro.cpu.batch import run_lane_cells
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
            laned.update(chunk)

        kernel_cells = vectorized
        for i, spec in enumerate(batch.cells):
            if i in laned:
                continue
            started = time.perf_counter()
            result = None
            if lowered[i] is not None:
                from repro.cpu.batch import run_lowered_cell
                result = run_lowered_cell(shared, lowered[i])
            amortized = result is not None
            if result is None:
                result = run_cell(spec)
            kernel_cells += amortized
            meta = worker_meta(time.perf_counter() - started)
            meta["batch_amortized_decode"] = amortized
            results[i] = result
            metas[i] = meta
        batch_meta = {"decode_reuses": max(0, kernel_cells - 1)}
        if shared is not None:
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
