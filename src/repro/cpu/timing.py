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
from repro.cache.controller import DemandFetchPolicy, L1Controller
from repro.cache.mshr import RequestType
from repro.cache.set_associative import SetAssociativeCache
from repro.core.policy import RandomFillPolicy
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
        and driven through one loop (:meth:`_plan`): the fused kernel
        for the stock set-associative/LRU configuration, else the
        object model, which dispatches every access through the L1
        controller.

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
        loop, lines, steps, writes = self._plan(trace, ctx)
        now, _charged = loop(lines, steps, writes, ctx, start_cycle, {})
        l1.settle()
        return result_since(l1, base, trace.instruction_count,
                            now - start_cycle)

    def _plan(self, trace: Trace, ctx: AccessContext):
        """Decode ``trace`` once and pick the loop that runs it.

        Returns ``(loop, lines, steps, writes)``: the fused kernel when
        :meth:`_fast_path_eligible` holds, else the object-model loop,
        plus the per-record line addresses, issue-cycle steps and write
        flags as plain lists.  Either loop is called as ``loop(lines,
        steps, writes, ctx, now, charged)`` and returns the cycle after
        its last record together with the charge dict (a prune replaces
        it), so consecutive slices of one trace run bit-identically to
        a single call — checked mode relies on this.  Settling the
        controller at the end of the run is the caller's job.
        """
        decode = trace.decoded(self.l1._line_shift)
        loop = (self._run_columnar_fused if self._fast_path_eligible(ctx)
                else self._run_object_model)
        return (loop, decode.lines_list(), decode.issue_steps(self.issue_width),
                decode.writes_list())

    def _fast_path_eligible(self, ctx: AccessContext) -> bool:
        """True when the fused kernel may replace per-access dispatch.

        The kernel inlines exactly the stock configuration: a plain
        set-associative tag store (no subclass) with LRU hits, a policy
        with no ``bypass``/``on_hit`` overrides, and a context without
        lock/unlock side effects.  This covers the baseline and every
        random-fill window; PLcache, Newcache, the prefetcher and the
        disable-cache scheme run on the object-model loop.
        """
        l1 = self.l1
        return (type(l1.tag_store) is SetAssociativeCache
                and l1.tag_store._lru_hits
                and not l1._policy_bypasses
                and l1._policy_on_hit is None
                and not ctx.lock and not ctx.unlock)

    def _run_object_model(self, lines_l, steps_l, writes_l,
                          ctx: AccessContext, now: int,
                          charged: dict) -> Tuple[int, dict]:
        """Object-model loop: every access goes through
        :meth:`L1Controller.access_line`, so any tag store, fill policy
        or context hook takes part (PLcache, Newcache, prefetchers, the
        disable-cache bypass and every other scheme the fused kernel
        does not inline)."""
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

    def _run_columnar_fused(self, lines_l, steps_l, writes_l,
                            ctx: AccessContext, now: int,
                            charged: dict) -> Tuple[int, dict]:
        """Fused kernel: controller access inlined into the timing loop.

        Replicates ``L1Controller.access_line`` + the MLP charging
        arithmetic for the stock set-associative/LRU configuration (see
        ``_fast_path_eligible``) with no per-access call or
        ``AccessResult`` allocation.  Local mirrors of the miss queue's
        ``next_completion`` (``nc``) and the controller's
        ``_fills_blocked`` flag are refreshed after every operation
        that can move them (drain / fill issue / allocate), so the
        controller object stays consistent for the settle phase and for
        any later accesses.

        Two deliberate divergences from the object model's bookkeeping,
        both
        result-invisible: ``stats.accesses``/``stats.hits`` are added
        in one batch at the end (nothing reads them mid-run), and the
        ``charged`` prune check is skipped on hit records (hits never
        grow ``charged``, and pruning only ever removes entries whose
        completion has passed, which cannot change timing — see
        ``CHARGED_PRUNE_THRESHOLD``).
        """
        l1 = self.l1
        hit_cost = l1.hit_latency
        mlp = self.mlp
        credit = self.overlap_credit
        prune_at = CHARGED_PRUNE_THRESHOLD

        tag_store = l1.tag_store
        sets = tag_store._sets
        set_mask = tag_store._set_mask
        tag_access = l1._tag_access
        miss_queue = l1.miss_queue
        mq_entries = miss_queue._entries
        mq_get = mq_entries.get
        mq_capacity = miss_queue.capacity
        allocate = miss_queue.allocate
        drain = miss_queue.drain
        install = l1._install
        issue_fills = l1._issue_random_fills
        enqueue_fills = l1._enqueue_random_fills
        policy_on_miss = l1._policy_on_miss
        l2_access = l1._l2_access
        fill_queue = l1.fill_queue
        stats = l1.stats

        # Specialize the demand-miss path by fill policy.  Kind 1 is a
        # plain NORMAL miss with no extra fills (demand fetch, or random
        # fill with the window registers at zero); kind 2 is the paper's
        # mechanism with the Figure 4 masked draw and the single-request
        # fill issue inlined (every RandomFillPolicy plan carries
        # exactly one line); kind 0 is the generic enqueue-then-drain
        # path for any other policy, and for non-power-of-two windows
        # (which draw via ``draw_below``).  The kind-2 RNG draw moves
        # after the demand L2 access (the L2/DRAM path never touches the
        # fill engine's RNG, so the draw sequence per miss is
        # unchanged).
        NORMAL = RequestType.NORMAL
        NOFILL = RequestType.NOFILL
        RANDOM_FILL = RequestType.RANDOM_FILL
        policy = l1._policy
        policy_kind = 0
        rf_buf = rf_refill = None
        rf_mask = rf_a = 0
        if type(policy) is DemandFetchPolicy:
            policy_kind = 1
        elif type(policy) is RandomFillPolicy:
            engine = policy.engine
            rf_window = engine.window_for(ctx.thread_id)
            if rf_window.a == 0 and rf_window.b == 0:
                policy_kind = 1
            else:
                rf_a, rf_mask, _ = engine._params[ctx.thread_id]
                if rf_mask is not None:
                    policy_kind = 2
                    rng = engine._rng
                    rf_buf = rng._buffer
                    rf_refill = rng._refill
        fill_cap = mq_capacity - l1.fill_reserve
        demand_misses = 0
        nlr = 0
        rf_issued = 0
        rf_dropped = 0

        write_ctx = AccessContext(thread_id=ctx.thread_id, domain=ctx.domain,
                                  critical=ctx.critical, is_write=True)
        charged_get = charged.get
        hits_local = 0
        nc = miss_queue.next_completion
        fills_blocked = l1._fills_blocked
        for line, step, write in zip(lines_l, steps_l, writes_l):
            now += step
            if now >= nc:
                drain(now, install)
                l1._fills_blocked = fills_blocked = False
                nc = miss_queue.next_completion
            # Inlined SetAssociativeCache.access, LRU fast path.
            cache_set = sets[line & set_mask]
            index = 0
            hit = False
            for line_state in cache_set:
                if line_state.line_addr == line:
                    hit = True
                    break
                index += 1
            if hit:
                hits_local += 1
                if index:
                    cache_set.insert(0, cache_set.pop(index))
                if fill_queue and not fills_blocked:
                    issue_fills(now)
                    fills_blocked = l1._fills_blocked
                    nc = miss_queue.next_completion
                now += hit_cost
                continue
            record_ctx = write_ctx if write else ctx
            in_flight = mq_get(line)
            if in_flight is None and fill_queue and not fills_blocked:
                # Queued random fills are older than this demand miss,
                # so they claim MSHRs first — and one of them may be
                # for this very line, turning the miss into a merge.
                issue_fills(now)
                fills_blocked = l1._fills_blocked
                nc = miss_queue.next_completion
                in_flight = mq_get(line)
            if in_flight is not None:
                stats.mshr_merges += 1
                completion = in_flight.complete_at
                if completion < now:
                    completion = now
                if charged_get(line) == completion:
                    now += hit_cost
                else:
                    charged[line] = completion
                    now += hit_cost
                    remaining = completion - now - credit
                    if remaining > 0:
                        now += (remaining + mlp - 1) // mlp
                if len(charged) >= prune_at:
                    charged = prune_charged(charged, now)
                    charged_get = charged.get
                continue
            stall = 0
            access_now = now
            if len(mq_entries) >= mq_capacity:
                stall = nc - now
                if stall < 0:
                    stall = 0
                access_now = now + stall
                drain(access_now, install)
                l1._fills_blocked = fills_blocked = False
                nc = miss_queue.next_completion
                if tag_access(line, record_ctx):
                    # The drained line was the one we wanted; the
                    # timing loop charges only the hit (stall unused).
                    hits_local += 1
                    now += hit_cost
                    continue
            demand_misses += 1
            nlr += 1
            if policy_kind == 2:
                complete_at = l2_access(line, access_now, record_ctx)
                allocate(line, complete_at, NOFILL, record_ctx)
                l1._fills_blocked = fills_blocked = False
                nc = miss_queue.next_completion
                if not rf_buf:
                    rf_refill()
                fill_line = line + (rf_buf.pop() & rf_mask) - rf_a
                if fill_queue:
                    # Parked requests are older; preserve FIFO order.
                    enqueue_fills((fill_line,), record_ctx)
                    issue_fills(access_now)
                    fills_blocked = l1._fills_blocked
                    nc = miss_queue.next_completion
                elif fill_line < 0:
                    # Window underflow below address zero.
                    rf_dropped += 1
                else:
                    # Inlined single-request _issue_random_fills: the
                    # probe / merge-upgrade / demand-reserve sequence
                    # for exactly one queued request on an empty queue.
                    resident = False
                    for line_state in sets[fill_line & set_mask]:
                        if line_state.line_addr == fill_line:
                            resident = True
                            break
                    if resident:
                        rf_dropped += 1
                    else:
                        in_flight = mq_get(fill_line)
                        if in_flight is not None:
                            if in_flight.request_type is NOFILL:
                                in_flight.request_type = RANDOM_FILL
                                rf_issued += 1
                            else:
                                rf_dropped += 1
                        elif len(mq_entries) >= fill_cap:
                            fill_queue.append((fill_line, record_ctx))
                            l1._fills_blocked = fills_blocked = True
                        else:
                            fill_at = l2_access(fill_line, access_now,
                                                record_ctx)
                            nlr += 1
                            rf_issued += 1
                            allocate(fill_line, fill_at, RANDOM_FILL,
                                     record_ctx)
                            nc = miss_queue.next_completion
            elif policy_kind == 1:
                complete_at = l2_access(line, access_now, record_ctx)
                allocate(line, complete_at, NORMAL, record_ctx)
                l1._fills_blocked = fills_blocked = False
                nc = miss_queue.next_completion
                if fill_queue:
                    issue_fills(access_now)
                    fills_blocked = l1._fills_blocked
                    nc = miss_queue.next_completion
            else:
                plan = policy_on_miss(line, record_ctx)
                complete_at = l2_access(line, access_now, record_ctx)
                allocate(line, complete_at, plan.demand_type, record_ctx)
                l1._fills_blocked = fills_blocked = False
                nc = miss_queue.next_completion
                if plan.random_fill_lines:
                    enqueue_fills(plan.random_fill_lines, record_ctx)
                if fill_queue:
                    issue_fills(access_now)
                    fills_blocked = l1._fills_blocked
                    nc = miss_queue.next_completion
            charged[line] = complete_at
            now += hit_cost + stall
            remaining = complete_at - now - credit
            if remaining > 0:
                now += (remaining + mlp - 1) // mlp
            if len(charged) >= prune_at:
                charged = prune_charged(charged, now)
                charged_get = charged.get
        stats.accesses += len(lines_l)
        stats.hits += hits_local
        stats.demand_misses += demand_misses
        stats.next_level_requests += nlr
        stats.random_fill_issued += rf_issued
        stats.random_fill_dropped += rf_dropped
        return now, charged
