"""RPcache: random permutation cache (Wang & Lee, ISCA'07).

Each trust domain owns a permutation table over set indices.  When a
fill would evict a line belonging to a *different* domain, RPcache
instead evicts a random line from a randomly chosen set S', swaps the
indices of S and S' in the requester's permutation table, and
invalidates the requester's own lines in both sets — so the attacker
can draw no conclusion from observing which of its lines was evicted.

Like all contention-randomizing designs, RPcache remains demand fetch
and thus vulnerable to reuse based attacks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.cache.context import AccessContext, DEFAULT_CONTEXT
from repro.cache.replacement import LruPolicy, ReplacementPolicy
from repro.cache.tagstore import LineState, TagStore
from repro.memory.address import AddressMap
from repro.util.rng import HardwareRng


class RPCache(TagStore):
    """Set-associative cache with per-domain index permutation."""

    def __init__(self, size_bytes: int, associativity: int,
                 line_size: int = 64,
                 policy: Optional[ReplacementPolicy] = None,
                 rng: Optional[HardwareRng] = None, seed: int = 0):
        if size_bytes <= 0 or size_bytes % (associativity * line_size):
            raise ValueError(
                f"size {size_bytes} not divisible into {associativity}-way sets"
            )
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.capacity_lines = size_bytes // line_size
        self.num_sets = self.capacity_lines // associativity
        self.amap = AddressMap(line_size=line_size, num_sets=self.num_sets)
        self.policy = policy if policy is not None else LruPolicy()
        self._rng = rng if rng is not None else HardwareRng(seed)
        self._sets: List[List[LineState]] = [[] for _ in range(self.num_sets)]
        self._perms: Dict[int, List[int]] = {}

    # -- permutation tables ------------------------------------------------

    def _perm(self, domain: int) -> List[int]:
        table = self._perms.get(domain)
        if table is None:
            table = list(range(self.num_sets))  # identity until first swap
            self._perms[domain] = table
        return table

    def _set_index(self, line_addr: int, domain: int) -> int:
        return self._perm(domain)[self.amap.set_of_line(line_addr)]

    def _swap_indices(self, domain: int, raw_a: int, raw_b: int) -> None:
        """Swap two *physical* set indices in ``domain``'s table."""
        table = self._perm(domain)
        pos_a = table.index(raw_a)
        pos_b = table.index(raw_b)
        table[pos_a], table[pos_b] = table[pos_b], table[pos_a]

    # -- internals ---------------------------------------------------------

    def _find(self, cache_set: List[LineState], line_addr: int) -> int:
        for i, line in enumerate(cache_set):
            if line.line_addr == line_addr:
                return i
        return -1

    def _invalidate_domain_lines(self, set_index: int, domain: int) -> None:
        cache_set = self._sets[set_index]
        cache_set[:] = [line for line in cache_set if line.domain != domain]

    # -- TagStore interface ----------------------------------------------

    def probe(self, line_addr: int, ctx: AccessContext = DEFAULT_CONTEXT) -> bool:
        cache_set = self._sets[self._set_index(line_addr, ctx.domain)]
        return self._find(cache_set, line_addr) >= 0

    def access(self, line_addr: int, ctx: AccessContext = DEFAULT_CONTEXT) -> bool:
        set_index = self._set_index(line_addr, ctx.domain)
        cache_set = self._sets[set_index]
        index = self._find(cache_set, line_addr)
        if index < 0:
            return False
        self.policy.on_hit(cache_set, index)
        return True

    def fill(self, line_addr: int,
             ctx: AccessContext = DEFAULT_CONTEXT) -> Optional[int]:
        set_index = self._set_index(line_addr, ctx.domain)
        cache_set = self._sets[set_index]
        if self._find(cache_set, line_addr) >= 0:
            return None
        if len(cache_set) < self.associativity:
            self.policy.on_fill(cache_set, LineState(
                line_addr, owner=ctx.thread_id, domain=ctx.domain))
            return None
        victim_idx = self.policy.choose_victim(
            cache_set, list(range(len(cache_set))))
        victim = cache_set[victim_idx]
        if victim.domain == ctx.domain:
            cache_set.pop(victim_idx)
            self.policy.on_fill(cache_set, LineState(
                line_addr, owner=ctx.thread_id, domain=ctx.domain))
            return victim.line_addr
        # Cross-domain eviction: evict from a random set S' instead,
        # swap S and S' in the requester's permutation table, and
        # invalidate the requester's lines in both sets.
        other_index = self._rng.draw_below(self.num_sets)
        other_set = self._sets[other_index]
        evicted: Optional[int] = None
        if other_set:
            evicted = other_set.pop(
                self._rng.draw_below(len(other_set))).line_addr
        self._swap_indices(ctx.domain, set_index, other_index)
        self._invalidate_domain_lines(set_index, ctx.domain)
        self._invalidate_domain_lines(other_index, ctx.domain)
        self.policy.on_fill(self._sets[other_index], LineState(
            line_addr, owner=ctx.thread_id, domain=ctx.domain))
        return evicted

    def invalidate(self, line_addr: int) -> bool:
        # A line filled by domain d sits in set perm[d][set_of_line(line)]:
        # search only those sets, lowest index first like a full scan.
        raw = self.amap.set_of_line(line_addr)
        for set_index in sorted({table[raw] for table in self._perms.values()}):
            cache_set = self._sets[set_index]
            index = self._find(cache_set, line_addr)
            if index >= 0:
                cache_set.pop(index)
                return True
        return False

    def flush(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    def resident_lines(self) -> Iterator[int]:
        for cache_set in self._sets:
            for line in cache_set:
                yield line.line_addr
