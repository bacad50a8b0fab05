"""Deliberately naive reference interpreter for the differential oracle.

This module re-implements the simulated machine — L1 tag store + MSHRs
+ fill queue, L2, open-page DRAM, the Figure 4 random-fill draw, and
the MLP timing arithmetic — as straight-line dict/list code with *no*
sharing of derived constants with the fast path.  Every mask, capacity
and latency is recomputed here from the specification-level objects
(geometry, :class:`~repro.core.window.RandomFillWindow`, the frozen
DRAM config), so a fast-path constant that drifts from the spec (a
stale set mask, a corrupted window register, a mis-specialized policy
kind) shows up as a state divergence instead of being silently
mirrored.

The reference is cloned from a live :class:`TimingModel` by
:meth:`ReferenceModel.capture` and then driven over the same decoded
access columns by :mod:`repro.check.oracle`, which diffs the two
machines at every sampled boundary.  Capture returns ``None`` for
configurations the reference does not model (non-LRU stores, locked
lines, exotic policies); those runs still get the invariant sanitizer,
just not the oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.mshr import RequestType
from repro.cpu.timing import CHARGED_PRUNE_THRESHOLD

#: Reference-side mirror of ``MissQueue.NEVER``.
_NEVER = 1 << 62


def _clone_rng(rng):
    """Clone a HardwareRng so reference draws replay the real stream."""
    from repro.util.rng import HardwareRng

    clone = HardwareRng(0, width=rng.width, buffer_size=rng._buffer_size)
    clone._rng.setstate(rng._rng.getstate())
    clone._buffer = list(rng._buffer)
    return clone


class ReferenceModel:
    """Dict-based shadow machine advanced in lockstep with the real one."""

    #: Policy kinds (the lane kernel's split, but derived from the
    #: *window spec*, not from ``engine._params``).
    DEMAND = 0
    RF_POW2 = 1
    RF_GENERIC = 2

    @classmethod
    def capture(cls, model, ctx) -> Optional["ReferenceModel"]:
        """Snapshot ``model`` into a reference machine, or None.

        Returns None unless the reference interprets the
        configuration: stock LRU set-associative L1 and L2, stock DRAM,
        a demand-fetch or random-fill policy, a hardware RNG, no locked
        lines and a context that neither locks nor unlocks.
        """
        from repro.cache.controller import DemandFetchPolicy
        from repro.cache.l2 import L2Cache
        from repro.cache.replacement import LruPolicy
        from repro.cache.set_associative import SetAssociativeCache
        from repro.core.policy import RandomFillPolicy
        from repro.memory.dram import DramModel
        from repro.util.rng import HardwareRng

        l1 = model.l1
        l2 = l1.next_level
        policy = l1._policy
        if ctx.lock or ctx.unlock:
            return None
        if type(policy) not in (DemandFetchPolicy, RandomFillPolicy):
            return None
        if type(l2) is not L2Cache or type(l2.dram) is not DramModel:
            return None
        for store in (l1.tag_store, l2.tag_store):
            if type(store) is not SetAssociativeCache:
                return None
            if type(store.policy) is not LruPolicy:
                return None
            if any(ls.locked for cache_set in store._sets for ls in cache_set):
                return None

        ref = cls()
        # -- timing constants (spec level) ---------------------------------
        ref.hit = l1.hit_latency
        ref.mlp = model.mlp
        ref.credit = model.overlap_credit
        # -- L1 geometry: recomputed from sizes, not from _set_mask --------
        store = l1.tag_store
        ref.l1_assoc = store.associativity
        num_sets = store.size_bytes // (store.line_size * store.associativity)
        ref.l1_mask = num_sets - 1
        ref.l1_sets = [[ls.line_addr for ls in s] for s in store._sets]
        # -- MSHR / fill queue ---------------------------------------------
        ref.mq_capacity = l1.miss_queue.capacity
        # Spec rule (Table III setup): one MSHR is reserved for demand
        # misses whenever there is more than one.
        ref.fill_reserve = 1 if ref.mq_capacity > 1 else 0
        ref.fq_capacity = l1.fill_queue_capacity
        ref.mshr: Dict[int, list] = {
            line: [entry.complete_at, entry.request_type]
            for line, entry in l1.miss_queue._entries.items()
        }
        ref.fill_queue: List[int] = [line for line, _ctx in l1.fill_queue]
        # -- L2 -------------------------------------------------------------
        l2_store = l2.tag_store
        ref.l2_hit = l2.hit_latency
        ref.l2_assoc = l2_store.associativity
        l2_sets = l2_store.size_bytes // (l2_store.line_size
                                          * l2_store.associativity)
        ref.l2_mask = l2_sets - 1
        ref.l2_sets = [[ls.line_addr for ls in s] for s in l2_store._sets]
        # -- DRAM ------------------------------------------------------------
        cfg = l2.dram.config
        ref.lines_per_row = cfg.row_size_bytes // cfg.line_size
        ref.num_banks = cfg.num_banks
        ref.row_hit_latency = (cfg.controller_overhead + cfg.t_cas
                               + cfg.t_burst)
        ref.row_miss_latency = (cfg.controller_overhead + cfg.t_rp
                                + cfg.t_rcd + cfg.t_cas + cfg.t_burst)
        ref.hit_busy = cfg.t_burst
        ref.miss_busy = cfg.t_rp + cfg.t_rcd + cfg.t_burst
        ref.open_row = dict(l2.dram._open_row)
        ref.bank_free_at = dict(l2.dram._bank_free_at)
        # -- fill policy (from the window spec) ------------------------------
        ref.window_a = ref.window_b = 0
        ref.rng = None
        if type(policy) is DemandFetchPolicy:
            ref.kind = cls.DEMAND
        else:
            engine = policy.engine
            if not isinstance(engine._rng, HardwareRng):
                return None
            window = engine.window_for(ctx.thread_id)
            if window.disabled:
                ref.kind = cls.DEMAND
            else:
                ref.kind = cls.RF_POW2 if window.is_power_of_two \
                    else cls.RF_GENERIC
                ref.window_a = window.a
                ref.window_b = window.b
                ref.win_mask = window.size - 1
                ref.win_size = window.size
                ref.rng = _clone_rng(engine._rng)
        # -- run state -------------------------------------------------------
        ref.now = 0
        ref.charged: Dict[int, int] = {}
        ref.counters = {
            "l1_accesses": 0, "l1_hits": 0, "l1_demand_misses": 0,
            "l1_mshr_merges": 0, "l1_fills": 0, "l1_evictions": 0,
            "l1_random_fill_issued": 0, "l1_random_fill_dropped": 0,
            "l1_next_level_requests": 0,
            "l2_accesses": 0, "l2_hits": 0, "l2_demand_misses": 0,
            "l2_fills": 0, "l2_evictions": 0, "l2_next_level_requests": 0,
            "dram_lines": 0, "dram_row_hits": 0, "dram_row_misses": 0,
        }
        return ref

    # -- machine components (all deliberately naive) -----------------------

    def _draw_offset(self) -> int:
        if self.kind == self.RF_POW2:
            return (self.rng.draw() & self.win_mask) - self.window_a
        return self.rng.draw_below(self.win_size) - self.window_a

    def _dram_access(self, line: int, now: int) -> int:
        c = self.counters
        row = line // self.lines_per_row
        bank = row % self.num_banks
        start = self.bank_free_at.get(bank, 0)
        if now > start:
            start = now
        if self.open_row.get(bank) == row:
            latency = self.row_hit_latency
            busy = self.hit_busy
            c["dram_row_hits"] += 1
        else:
            latency = self.row_miss_latency
            busy = self.miss_busy
            c["dram_row_misses"] += 1
            self.open_row[bank] = row
        self.bank_free_at[bank] = start + busy
        c["dram_lines"] += 1
        return start + latency

    def _l2_access(self, line: int, now: int) -> int:
        c = self.counters
        c["l2_accesses"] += 1
        cache_set = self.l2_sets[line & self.l2_mask]
        if line in cache_set:
            c["l2_hits"] += 1
            cache_set.remove(line)
            cache_set.insert(0, line)
            return now + self.l2_hit
        c["l2_demand_misses"] += 1
        c["l2_next_level_requests"] += 1
        done = self._dram_access(line, now + self.l2_hit)
        c["l2_fills"] += 1
        if len(cache_set) >= self.l2_assoc:
            cache_set.pop()
            c["l2_evictions"] += 1
        cache_set.insert(0, line)
        return done

    def _install_l1(self, line: int) -> None:
        c = self.counters
        c["l1_fills"] += 1
        cache_set = self.l1_sets[line & self.l1_mask]
        if line in cache_set:
            return
        if len(cache_set) >= self.l1_assoc:
            cache_set.pop()
            c["l1_evictions"] += 1
        cache_set.insert(0, line)

    def _next_completion(self) -> int:
        if not self.mshr:
            return _NEVER
        return min(entry[0] for entry in self.mshr.values())

    def _drain(self, now: int) -> int:
        """Retire completed MSHR entries; NOFILL entries never install."""
        done = [(line, entry) for line, entry in self.mshr.items()
                if entry[0] <= now]
        done.sort(key=lambda item: item[1][0])
        for line, entry in done:
            del self.mshr[line]
            if entry[1] is not RequestType.NOFILL:
                self._install_l1(line)
        return len(done)

    def _issue_fills(self, now: int) -> None:
        c = self.counters
        limit = self.mq_capacity - self.fill_reserve
        queue = self.fill_queue
        while queue:
            line = queue[0]
            if line in self.l1_sets[line & self.l1_mask]:
                queue.pop(0)
                c["l1_random_fill_dropped"] += 1
                continue
            entry = self.mshr.get(line)
            if entry is not None:
                queue.pop(0)
                if entry[1] is RequestType.NOFILL:
                    entry[1] = RequestType.RANDOM_FILL
                    c["l1_random_fill_issued"] += 1
                else:
                    c["l1_random_fill_dropped"] += 1
                continue
            if len(self.mshr) >= limit:
                break
            queue.pop(0)
            complete_at = self._l2_access(line, now)
            c["l1_next_level_requests"] += 1
            c["l1_random_fill_issued"] += 1
            self.mshr[line] = [complete_at, RequestType.RANDOM_FILL]

    def _enqueue_fill(self, line: int) -> None:
        c = self.counters
        if line < 0:
            c["l1_random_fill_dropped"] += 1
        elif len(self.fill_queue) >= self.fq_capacity:
            c["l1_random_fill_dropped"] += 1
        else:
            self.fill_queue.append(line)

    # -- the interpreter loop ----------------------------------------------

    def run_chunk(self, lines_l, steps_l, writes_l) -> None:
        """Advance the reference over one chunk of decoded accesses.

        Mirrors the semantics of ``L1Controller.access_line`` plus the
        timing loop of ``TimingModel`` (writes carry no behavioural
        difference in this configuration, so the write column is
        accepted for symmetry but unused).
        """
        c = self.counters
        hit_cost = self.hit
        mlp = self.mlp
        credit = self.credit
        charged = self.charged
        now = self.now
        for line, step in zip(lines_l, steps_l):
            c["l1_accesses"] += 1
            now += step
            if self.mshr and now >= self._next_completion():
                self._drain(now)
            cache_set = self.l1_sets[line & self.l1_mask]
            if line in cache_set:
                c["l1_hits"] += 1
                cache_set.remove(line)
                cache_set.insert(0, line)
                if self.fill_queue:
                    self._issue_fills(now)
                now += hit_cost
                continue
            entry = self.mshr.get(line)
            if entry is None and self.fill_queue:
                # Queued fills are older than this miss; one of them
                # may target this very line, turning it into a merge.
                self._issue_fills(now)
                entry = self.mshr.get(line)
            if entry is not None:
                c["l1_mshr_merges"] += 1
                completion = entry[0]
                if completion < now:
                    completion = now
                if charged.get(line) == completion:
                    now += hit_cost
                else:
                    charged[line] = completion
                    now += hit_cost
                    remaining = completion - now - credit
                    if remaining > 0:
                        now += (remaining + mlp - 1) // mlp
                if len(charged) >= CHARGED_PRUNE_THRESHOLD:
                    charged = self.charged = {
                        ln: ready for ln, ready in charged.items()
                        if ready > now
                    }
                continue
            stall = 0
            access_now = now
            if len(self.mshr) >= self.mq_capacity:
                stall = self._next_completion() - now
                if stall < 0:
                    stall = 0
                access_now = now + stall
                self._drain(access_now)
                if line in cache_set:
                    # The drained line was the one we wanted; only the
                    # hit is charged (the stall goes unused).
                    c["l1_hits"] += 1
                    cache_set.remove(line)
                    cache_set.insert(0, line)
                    now += hit_cost
                    continue
            c["l1_demand_misses"] += 1
            c["l1_next_level_requests"] += 1
            if self.kind == self.DEMAND:
                complete_at = self._l2_access(line, access_now)
                self.mshr[line] = [complete_at, RequestType.NORMAL]
                if self.fill_queue:
                    self._issue_fills(access_now)
            else:
                # Section IV-B: the demand miss forwards without
                # allocating (NOFILL) and one random line from the
                # window [i-a, i+b] is requested instead.
                complete_at = self._l2_access(line, access_now)
                self.mshr[line] = [complete_at, RequestType.NOFILL]
                fill_line = line + self._draw_offset()
                if self.fill_queue:
                    # Parked requests are older; preserve FIFO order.
                    self._enqueue_fill(fill_line)
                    self._issue_fills(access_now)
                elif fill_line < 0:
                    c["l1_random_fill_dropped"] += 1
                else:
                    # Single-request issue on an empty queue (probe /
                    # merge-upgrade / demand-reserve, no queue-capacity
                    # check — the request never enters the queue unless
                    # it must park behind the MSHR reserve).
                    if fill_line in self.l1_sets[fill_line & self.l1_mask]:
                        c["l1_random_fill_dropped"] += 1
                    else:
                        entry = self.mshr.get(fill_line)
                        if entry is not None:
                            if entry[1] is RequestType.NOFILL:
                                entry[1] = RequestType.RANDOM_FILL
                                c["l1_random_fill_issued"] += 1
                            else:
                                c["l1_random_fill_dropped"] += 1
                        elif (len(self.mshr)
                              >= self.mq_capacity - self.fill_reserve):
                            self.fill_queue.append(fill_line)
                        else:
                            fill_at = self._l2_access(fill_line, access_now)
                            c["l1_next_level_requests"] += 1
                            c["l1_random_fill_issued"] += 1
                            self.mshr[fill_line] = [fill_at,
                                                    RequestType.RANDOM_FILL]
            charged[line] = complete_at
            now += hit_cost + stall
            remaining = complete_at - now - credit
            if remaining > 0:
                now += (remaining + mlp - 1) // mlp
            if len(charged) >= CHARGED_PRUNE_THRESHOLD:
                charged = self.charged = {
                    ln: ready for ln, ready in charged.items() if ready > now
                }
        self.now = now

    def settle(self) -> None:
        """Mirror ``L1Controller.settle(None)`` end-of-run retirement."""
        c = self.counters
        while self.fill_queue or self.mshr:
            progressed = False
            if self.mshr:
                horizon = self._next_completion()
                if horizon < 0:
                    horizon = 0
                progressed |= self._drain(horizon) > 0
            if self.fill_queue and len(self.mshr) < self.mq_capacity:
                before = len(self.fill_queue)
                self._issue_fills(0)
                progressed |= len(self.fill_queue) != before
            if not progressed:
                c["l1_random_fill_dropped"] += len(self.fill_queue)
                self.fill_queue.clear()
                self.mshr.clear()
                break
