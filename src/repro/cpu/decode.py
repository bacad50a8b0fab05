"""Batched address pre-decode for columnar traces.

Splitting a byte address into line address / set index / tag is pure
per-record arithmetic, yet the interpreter used to pay for it once per
access — tens of millions of shift-and-mask bytecodes per sweep.  A
:class:`TraceDecode` performs each derivation exactly once per (trace,
cache geometry) as a whole-column numpy pass, then hands the timing
model plain Python lists (one ``tolist()`` call, not one ``int()`` per
element), which the per-record simulation loop iterates faster than
numpy scalars.

Instances are memoized on the :class:`~repro.cpu.trace.Trace`
(``trace.decoded(line_shift)``), so the eleven Figure-10 windows that
replay one benchmark trace at jobs=1 share a single decode.

A decode holds the ``addr``/``gap``/``write`` columns it reads, not its
trace.  The trace memoizes the decode, so a back reference would be a
cycle that only the cyclic collector frees, and the runner pauses that
collector while cells run.  Without the cycle, reference counting frees
a trace the trace cache drops at once, with its decodes and slices.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cpu.trace import Trace


class TraceDecode:
    """Per-geometry decoded columns of one trace (all lazily computed).

    ``line_shift`` is ``log2(line_size)``; every product below is cached
    after its first computation:

    * :meth:`lines` / :meth:`lines_list` — line address per record,
    * :meth:`writes_list` — the write flags as plain ints,
    * :meth:`issue_steps` — per-record cycle increment of the in-order
      issue front-end for one ``issue_width`` (the running
      ``backlog // width`` arithmetic collapsed into a cumsum diff),
    * :meth:`warm_footprint` — consecutive-duplicate-free line-address
      prefix used to pre-warm the L2.
    """

    __slots__ = ("addr", "gap", "write", "line_shift", "_lines",
                 "_lines_list", "_writes_list", "_issue_steps",
                 "_footprints")

    def __init__(self, trace: Trace, line_shift: int):
        if line_shift < 0:
            raise ValueError(f"line_shift must be >= 0, got {line_shift}")
        self.addr = trace.addr
        self.gap = trace.gap
        self.write = trace.write
        self.line_shift = line_shift
        self._lines: "np.ndarray | None" = None
        self._lines_list: "List[int] | None" = None
        self._writes_list: "List[int] | None" = None
        self._issue_steps: Dict[int, List[int]] = {}
        self._footprints: Dict[int, List[int]] = {}

    # -- line addresses ------------------------------------------------------

    def lines(self) -> np.ndarray:
        """Line address column (``addr >> line_shift``), one numpy pass."""
        if self._lines is None:
            self._lines = self.addr >> self.line_shift
        return self._lines

    def lines_list(self) -> List[int]:
        """Line addresses as plain ints (fastest form for the sim loop)."""
        if self._lines_list is None:
            self._lines_list = self.lines().tolist()
        return self._lines_list

    def writes_list(self) -> List[int]:
        if self._writes_list is None:
            self._writes_list = self.write.tolist()
        return self._writes_list

    # -- issue front-end -----------------------------------------------------

    def issue_step_array(self, issue_width: int) -> np.ndarray:
        """Cycles the issue front-end advances before each record.

        Equivalent to the scalar recurrence ``backlog += gap;
        step = backlog // width; backlog %= width`` — the running
        backlog is just the cumulative gap count modulo ``width``, so
        the per-record step is the difference of
        ``cumsum(gap) // width``.  Not memoized (the list form is).
        """
        if issue_width < 1:
            raise ValueError(f"issue_width must be >= 1, got {issue_width}")
        issued = np.cumsum(self.gap) // issue_width
        # np.diff(issued, prepend=0), in half the numpy calls: per-call
        # overhead dominates on the attack victims' short traces.
        steps = issued.copy()
        steps[1:] -= issued[:-1]
        return steps

    def issue_steps(self, issue_width: int) -> List[int]:
        """:meth:`issue_step_array` as a list (memoized per width)."""
        cached = self._issue_steps.get(issue_width)
        if cached is None:
            cached = self.issue_step_array(issue_width).tolist()
            self._issue_steps[issue_width] = cached
        return cached

    # -- warm-up -------------------------------------------------------------

    def warm_footprint(self, split: int) -> List[int]:
        """Line addresses of ``trace[:split]`` with consecutive runs
        collapsed (the warm-up loop probes each run once anyway)."""
        cached = self._footprints.get(split)
        if cached is None:
            prefix = self.lines()[:split]
            if len(prefix) == 0:
                cached = []
            else:
                keep = np.empty(len(prefix), dtype=bool)
                keep[0] = True
                np.not_equal(prefix[1:], prefix[:-1], out=keep[1:])
                cached = prefix[keep].tolist()
            self._footprints[split] = cached
        return cached
