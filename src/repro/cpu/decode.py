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
    * :meth:`set_indices` / :meth:`tags` — placement for one tag-store
      geometry,
    * :meth:`issue_steps` — per-record cycle increment of the in-order
      issue front-end for one ``issue_width`` (the running
      ``backlog // width`` arithmetic collapsed into a cumsum diff),
    * :meth:`warm_footprint` — consecutive-duplicate-free line-address
      prefix used to pre-warm the L2.
    """

    __slots__ = ("trace", "line_shift", "_lines", "_lines_list",
                 "_gaps_list", "_writes_list", "_issue_steps",
                 "_set_indices", "_tags", "_footprints")

    def __init__(self, trace: Trace, line_shift: int):
        if line_shift < 0:
            raise ValueError(f"line_shift must be >= 0, got {line_shift}")
        self.trace = trace
        self.line_shift = line_shift
        self._lines: "np.ndarray | None" = None
        self._lines_list: "List[int] | None" = None
        self._gaps_list: "List[int] | None" = None
        self._writes_list: "List[int] | None" = None
        self._issue_steps: Dict[int, List[int]] = {}
        self._set_indices: Dict[int, np.ndarray] = {}
        self._tags: Dict[int, np.ndarray] = {}
        self._footprints: Dict[int, List[int]] = {}

    # -- line addresses ------------------------------------------------------

    def lines(self) -> np.ndarray:
        """Line address column (``addr >> line_shift``), one numpy pass."""
        if self._lines is None:
            self._lines = self.trace.addr >> self.line_shift
        return self._lines

    def lines_list(self) -> List[int]:
        """Line addresses as plain ints (fastest form for the sim loop)."""
        if self._lines_list is None:
            self._lines_list = self.lines().tolist()
        return self._lines_list

    def gaps_list(self) -> List[int]:
        if self._gaps_list is None:
            self._gaps_list = self.trace.gap.tolist()
        return self._gaps_list

    def writes_list(self) -> List[int]:
        if self._writes_list is None:
            self._writes_list = self.trace.write.tolist()
        return self._writes_list

    # -- placement -----------------------------------------------------------

    def set_indices(self, num_sets: int) -> np.ndarray:
        """Set index per record for a power-of-two ``num_sets`` geometry."""
        cached = self._set_indices.get(num_sets)
        if cached is None:
            cached = self.lines() & (num_sets - 1)
            self._set_indices[num_sets] = cached
        return cached

    def tags(self, num_sets: int) -> np.ndarray:
        """Tag per record (line address above the set-index bits)."""
        cached = self._tags.get(num_sets)
        if cached is None:
            cached = self.lines() >> (num_sets - 1).bit_length()
            self._tags[num_sets] = cached
        return cached

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
        issued = np.cumsum(self.trace.gap) // issue_width
        return np.diff(issued, prepend=0)

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
