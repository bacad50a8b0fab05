"""Two-thread SMT co-execution model (the Figure 8 experiment).

Two hardware threads share the L1 data cache and everything below it.
Each thread runs its own trace with its own architectural context
(thread id, random fill window registers).  The scheduler is
fine-grained: at every step the thread with the smallest local clock
issues its next memory reference, which interleaves the two access
streams the way simultaneous multithreading does.

The *primary* thread (the SPEC program in Figure 8) runs its trace to
completion; *background* threads (the AES stress loop) restart their
trace whenever it runs out, modelling "the cryptographic program
continuously does both AES decryption and encryption".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cache.context import AccessContext
from repro.cache.controller import L1Controller
from repro.cpu.timing import (
    CHARGED_PRUNE_THRESHOLD,
    SimResult,
    _MlpWindow,
    prune_charged,
    result_since,
    stat_snapshot,
)
from repro.cpu.trace import Trace, TraceRecord


@dataclass
class SmtThread:
    """One hardware thread's workload for an SMT run."""

    trace: Sequence[TraceRecord]
    ctx: AccessContext
    repeat: bool = False  # restart the trace when exhausted

    def __post_init__(self) -> None:
        if not len(self.trace):
            raise ValueError("SMT thread trace must be non-empty")


class _ThreadState:
    __slots__ = ("thread", "trace", "write_ctx", "cursor", "now", "backlog",
                 "instructions", "done", "window", "charged")

    def __init__(self, thread: SmtThread, mlp: int, credit: int):
        self.thread = thread
        # The scheduler indexes one record at a time; a columnar trace
        # is materialized once so each step costs a list index, not a
        # numpy scalar extraction.
        trace = thread.trace
        self.trace = trace.records() if isinstance(trace, Trace) else trace
        ctx = thread.ctx
        self.write_ctx = AccessContext(
            thread_id=ctx.thread_id, domain=ctx.domain,
            critical=ctx.critical, is_write=True)
        self.cursor = 0
        self.now = 0
        self.backlog = 0
        self.instructions = 0
        self.done = False
        self.window = _MlpWindow(mlp, credit)
        self.charged: dict = {}


def run_smt(l1: L1Controller, threads: Sequence[SmtThread],
            issue_width: int = 4, overlap_credit: int = 8) -> List[SimResult]:
    """Co-run threads until every non-repeating trace completes.

    Returns one :class:`SimResult` per thread; cache counters are whole-
    run totals attributed to the L1/L2 (shared), so per-thread results
    carry instructions/cycles (hence IPC) while the first result carries
    the shared cache statistics.
    """
    if not threads:
        raise ValueError("run_smt needs at least one thread")
    if not any(not t.repeat for t in threads):
        raise ValueError("at least one thread must have a finite trace")
    base = stat_snapshot(l1)

    # Each SMT thread gets half the core's MSHR-level parallelism.
    mlp = max(1, l1.miss_queue.capacity // 2)
    states = [_ThreadState(t, mlp, overlap_credit) for t in threads]
    active = [s for s in states if not s.thread.repeat]
    hit_cost = l1.hit_latency

    while any(not s.done for s in active):
        state = min((s for s in states if not s.done), key=lambda s: s.now)
        trace = state.trace
        if state.cursor >= len(trace):
            if state.thread.repeat:
                state.cursor = 0
            else:
                state.done = True
                continue
        addr, gap, write = trace[state.cursor]
        state.cursor += 1
        state.instructions += gap
        state.backlog += gap
        state.now += state.backlog // issue_width
        state.backlog %= issue_width
        ctx = state.write_ctx if write else state.thread.ctx
        result = l1.access(addr, state.now, ctx)
        if result.l1_hit:
            state.now += hit_cost
        elif result.merged:
            completion = result.ready_at - hit_cost
            state.now += hit_cost
            if state.charged.get(result.line_addr) != completion:
                state.charged[result.line_addr] = completion
                state.now = state.window.note_miss(state.now, completion)
        else:
            state.charged[result.line_addr] = result.ready_at
            state.now += hit_cost + result.stalled_for_mshr
            state.now = state.window.note_miss(state.now, result.ready_at)
        if len(state.charged) >= CHARGED_PRUNE_THRESHOLD:
            # Bound per-thread charge tracking exactly as TimingModel.run
            # does: stale completions never change timing.
            state.charged = prune_charged(state.charged, state.now)
    l1.settle()

    first = states[0]
    results = [result_since(l1, base, first.instructions, first.now)]
    results += [SimResult(state.instructions, state.now, 0, 0, 0, 0, 0, 0)
                for state in states[1:]]
    return results
