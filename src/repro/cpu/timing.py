"""Trace-driven CPU timing model.

Stands in for the paper's gem5 4-way out-of-order core (Table IV) with a
model that keeps what the evaluation measures:

* non-memory instructions retire at ``issue_width`` per cycle,
* an L1 hit costs ``l1_hit_latency`` (1 cycle),
* demand misses overlap: the out-of-order core keeps up to ``mlp``
  demand misses in flight before the reorder buffer backs up; only then
  does it stall until the earliest outstanding miss returns (minus an
  ``overlap_credit`` of further latency the window hides).  This is the
  memory-level parallelism that makes the paper's "disable cache"
  baseline lose 45% rather than 10x, and that lets the nofill re-misses
  of the random fill strategy merge cheaply (Section VII),
* misses to a line already in flight merge in the L1 miss queue and pay
  only a hit cost (the "do not take a whole cache miss latency" remark),
* MPKI uses the paper's definition (demand misses that issue a request
  to L2, excluding merges).

Absolute IPC is therefore a proxy, but the quantities the figures plot —
normalized IPC between fill strategies and MPKI — depend on cache
behaviour, which is modelled faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro import check as _check
from repro.cache.context import AccessContext, DEFAULT_CONTEXT
from repro.cache.controller import L1Controller
from repro.cpu.trace import Trace, TraceRecord


@dataclass
class SimResult:
    """Outcome of one timed trace run."""

    instructions: int
    cycles: int
    l1_accesses: int
    l1_hits: int
    l1_demand_misses: int
    l2_accesses: int
    l2_demand_misses: int
    memory_lines: int
    random_fill_issued: int = 0

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def l1_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.l1_demand_misses / self.instructions

    @property
    def l2_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.l2_demand_misses / self.instructions


#: ``charged`` (line -> completion cycle already paid for) only needs
#: entries for lines still in flight; once this many entries accumulate
#: the past ones are swept out.  Entries whose completion cycle has
#: passed never change timing (their exposed stall is <= 0), so eviction
#: is invisible to results — it only bounds memory on long traces with
#: many unique lines.
CHARGED_PRUNE_THRESHOLD = 8192


def prune_charged(charged: dict, now: int) -> dict:
    """Drop charge records whose completion cycle has already passed."""
    return {line: ready for line, ready in charged.items() if ready > now}


def stat_snapshot(l1: L1Controller) -> Tuple[int, ...]:
    """The counters a :class:`SimResult` reports, in its field order:
    L1 accesses / hits / demand misses, L2 accesses / demand misses,
    DRAM lines transferred and random fills issued."""
    l2 = l1.next_level
    stats = l1.stats
    return (stats.accesses, stats.hits, stats.demand_misses,
            l2.stats.accesses, l2.stats.demand_misses,
            l2.dram.lines_transferred, stats.random_fill_issued)


def result_since(l1: L1Controller, base: Tuple[int, ...], instructions: int,
                 cycles: int) -> SimResult:
    """A :class:`SimResult` whose counters are the change since
    ``base = stat_snapshot(l1)``."""
    return SimResult(instructions, cycles,
                     *[now - then for now, then in zip(stat_snapshot(l1), base)])


class _MlpWindow:
    """Amortized cost model for overlapping demand misses.

    The out-of-order core keeps up to ``limit`` independent misses in
    flight, so a miss's *exposed* stall is its remaining latency divided
    by that parallelism (minus the ``credit`` cycles the window hides
    outright).  A burst of ``limit`` back-to-back L2 hits then costs one
    L2 latency in total — the behaviour that keeps the paper's
    disable-cache baseline at ~45% slowdown rather than 10x — while an
    isolated miss still has a visible cost, preserving the MPKI -> IPC
    coupling Figure 10 relies on.
    """

    __slots__ = ("limit", "credit")

    def __init__(self, limit: int, credit: int):
        self.limit = limit
        self.credit = credit

    def note_miss(self, now: int, ready_at: int) -> int:
        """Charge one miss's exposed stall; returns the new ``now``."""
        remaining = ready_at - now - self.credit
        if remaining <= 0:
            return now
        return now + (remaining + self.limit - 1) // self.limit


class TimingModel:
    """Drives one hardware thread's trace through an L1 controller."""

    def __init__(self, l1: L1Controller, issue_width: int = 4,
                 overlap_credit: int = 8, mlp: Optional[int] = None):
        if issue_width < 1:
            raise ValueError(f"issue_width must be >= 1, got {issue_width}")
        if overlap_credit < 0:
            raise ValueError(f"overlap_credit must be >= 0, got {overlap_credit}")
        self.l1 = l1
        self.issue_width = issue_width
        self.overlap_credit = overlap_credit
        # Default MLP: half the MSHRs.  Dependent code cannot keep the
        # full MSHR file busy with demand misses, and the slack is what
        # lets random fill / prefetch requests find free entries.
        self.mlp = mlp if mlp is not None else max(1, l1.miss_queue.capacity // 2)
        if self.mlp < 1:
            raise ValueError(f"mlp must be >= 1, got {self.mlp}")

    def run(self, trace: Iterable[TraceRecord],
            ctx: AccessContext = DEFAULT_CONTEXT,
            start_cycle: int = 0) -> SimResult:
        """Run a trace to completion; counters are deltas for this run.

        Any iterable of ``(addr, gap, write)`` records is converted to a
        columnar :class:`~repro.cpu.trace.Trace` here, once (a ``Trace``
        passes through).  The trace is then decoded for the L1 geometry
        (:meth:`_columns`) and driven through the object-model loop,
        which dispatches every access through the L1 controller, so
        every tag store, fill policy and context hook takes part.  The
        lane kernel (:mod:`repro.cpu.lanes`) transcribes this loop for
        the configurations it lowers.

        With a checker installed (``REPRO_CHECK``, see
        :mod:`repro.check`) the run is delegated to the checked driver,
        which runs the same loop in sampled chunks with the invariant
        sanitizer and — where the reference interpreter models the
        configuration — the differential oracle in lockstep.  Checked
        results are bit-identical to unchecked ones.
        """
        trace = Trace.from_records(trace)
        checker = _check.active_checker()
        if checker is not None:
            from repro.check.oracle import checked_run

            return checked_run(self, trace, ctx, start_cycle, checker)
        l1 = self.l1
        base = stat_snapshot(l1)
        now, _charged = self._run_object_model(*self._columns(trace), ctx,
                                               start_cycle, {})
        l1.settle()
        return result_since(l1, base, trace.instruction_count,
                            now - start_cycle)

    def _columns(self, trace: Trace):
        """Decode ``trace`` once for the L1 geometry: the per-record line
        addresses, issue-cycle steps and write flags as plain lists, the
        first three arguments of :meth:`_run_object_model`."""
        decode = trace.decoded(self.l1._line_shift)
        return (decode.lines_list(), decode.issue_steps(self.issue_width),
                decode.writes_list())

    def _run_object_model(self, lines_l, steps_l, writes_l,
                          ctx: AccessContext, now: int,
                          charged: dict) -> Tuple[int, dict]:
        """Object-model loop: every access goes through
        :meth:`L1Controller.access_line`, so any tag store, fill policy
        or context hook takes part, including an instance override of
        a controller method (the fill-path ablation's).

        Returns the cycle after the last record together with the
        charge dict (a prune replaces it), so consecutive slices of one
        trace run bit-identically to a single call — checked mode
        relies on this.  Settling the controller at the end of the run
        is the caller's job.
        """
        l1 = self.l1
        hit_cost = l1.hit_latency
        # Everything the loop touches per record is hoisted into locals,
        # and the MLP charging arithmetic of _MlpWindow.note_miss is
        # inlined.
        access_line = l1.access_line
        mlp = self.mlp
        credit = self.overlap_credit
        prune_at = CHARGED_PRUNE_THRESHOLD

        write_ctx = AccessContext(thread_id=ctx.thread_id, domain=ctx.domain,
                                  critical=ctx.critical, is_write=True)
        # ``charged`` maps line -> completion already charged, so a
        # burst of references to one in-flight line pays its wait only
        # once — but the FIRST reference to a line someone else fetched
        # (e.g. a too-late next-line prefetch) pays the remaining
        # latency.  Pruned once it exceeds CHARGED_PRUNE_THRESHOLD
        # entries so it cannot grow with every unique line of a long
        # trace.
        for line, step, write in zip(lines_l, steps_l, writes_l):
            now += step
            result = access_line(line, now, write_ctx if write else ctx)
            if result.l1_hit:
                now += hit_cost
            elif result.merged:
                completion = result.ready_at - hit_cost
                if charged.get(line) == completion:
                    now += hit_cost
                else:
                    charged[line] = completion
                    now += hit_cost
                    remaining = completion - now - credit
                    if remaining > 0:
                        now += (remaining + mlp - 1) // mlp
            else:
                charged[line] = result.ready_at
                now += hit_cost + result.stalled_for_mshr
                remaining = result.ready_at - now - credit
                if remaining > 0:
                    now += (remaining + mlp - 1) // mlp
            if len(charged) >= prune_at:
                charged = prune_charged(charged, now)
        return now, charged
