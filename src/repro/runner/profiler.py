"""``--profile`` support: run one sweep cell under cProfile.

Future performance work should be measured, not guessed, so every sweep
CLI can profile a single representative cell: ``python -m repro sweep
fig10 --profile`` (and ``leakage --profile``) runs the first cell of
the sweep grid under :mod:`cProfile` and prints the top cumulative
hotspots instead of running the sweep.

The cell executes inline (no worker pool, result cache bypassed) so the
profile shows simulation cost, not IPC overhead or a cache hit.  When
the sweep would run batched, the CLI profiles the first *batch* instead
(:func:`profile_batch`) so the report reflects the shared decode and
lane kernel the real run uses.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Optional

from repro.runner.cells import run_cell

#: rows of the flat profile shown by default
DEFAULT_TOP = 20


def profile_cell(spec, top: int = DEFAULT_TOP, stream: Optional[io.TextIOBase] = None):
    """Run one cell under cProfile; returns ``(result, report_text)``.

    ``report_text`` is the top-``top`` cumulative-time rows of the flat
    profile (also written to ``stream`` when given).
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_cell(spec)
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    report = buffer.getvalue()
    if stream is not None:
        stream.write(report)
    return result, report


def profile_batch(batch, top: int = DEFAULT_TOP, stream: Optional[io.TextIOBase] = None):
    """Run one :class:`~repro.runner.batch.CellBatch` under cProfile.

    Returns ``(results, report_text)`` with one result per member cell;
    the profile covers the shared group-state build (trace decode, warm
    replay) plus every cell's kernel run — lane kernel calls included —
    i.e. exactly what a worker does for one batched work item.  For a
    lane-backed batch the report is prefixed with the lane summary
    (width, vectorized vs per-cell fallback cells).
    """
    from repro.runner.batch import run_batch

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        results, _metas, batch_meta = run_batch(batch)
    finally:
        profiler.disable()
    buffer = io.StringIO()
    if batch_meta.get("vectorized_cells"):
        buffer.write(
            f"lane kernel: width {batch_meta['lane_width']}, "
            f"{batch_meta['vectorized_cells']} vectorized / "
            f"{batch_meta['scalar_fallback_cells']} per-cell fallback cells\n"
        )
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    report = buffer.getvalue()
    if stream is not None:
        stream.write(report)
    return results, report
