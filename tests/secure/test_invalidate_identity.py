"""Candidate-only invalidation equals a brute-force scan, state for state.

Newcache and RPcache invalidate a line by probing only the keys (sets)
its address can occupy.  The references below keep the full scans the
stores used before: every mapping in insertion order (Newcache), every
set from index 0 up (RPcache).  Random fill/access/probe/invalidate
sequences over two domains must give the same return values, the same
resident order, the same free-frame order and the same RNG state after
every operation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.context import AccessContext, DEFAULT_CONTEXT
from repro.secure.newcache import Newcache
from repro.secure.rpcache import RPCache

DOMAINS = (AccessContext(thread_id=0, domain=0), AccessContext(thread_id=1, domain=1))


class ScanNewcache(Newcache):
    """Newcache with the full-scan invalidate and the unfused lookup."""

    def probe(self, line_addr, ctx=DEFAULT_CONTEXT):
        phys = self._mapping.get((ctx.domain, line_addr & self._index_mask))
        if phys is None:
            return False
        entry = self._phys[phys]
        return entry is not None and entry.line_addr == line_addr

    def access(self, line_addr, ctx=DEFAULT_CONTEXT):
        return self.probe(line_addr, ctx)

    def invalidate(self, line_addr):
        for (_rmt_id, _index), phys in list(self._mapping.items()):
            entry = self._phys[phys]
            if entry is not None and entry.line_addr == line_addr:
                self._evict_phys(phys)
                self._free.append(phys)
                return True
        return False


class ScanRPCache(RPCache):
    """RPcache with the every-set invalidate."""

    def invalidate(self, line_addr):
        for cache_set in self._sets:
            index = self._find(cache_set, line_addr)
            if index >= 0:
                cache_set.pop(index)
                return True
        return False


def _newcache_state(store):
    return (
        list(store.resident_lines()),
        list(store._mapping.items()),
        list(store._free),
        store._rng._rng.getstate(),
        list(store._rng._buffer),
    )


def _rpcache_state(store):
    return (
        [[(line.line_addr, line.domain) for line in cache_set] for cache_set in store._sets],
        {domain: list(table) for domain, table in store._perms.items()},
        store._rng._rng.getstate(),
        list(store._rng._buffer),
    )


def _replay(fast, slow, state, ops):
    for op, line, domain in ops:
        ctx = DOMAINS[domain]
        if op == "fill":
            results = fast.fill(line, ctx), slow.fill(line, ctx)
        elif op == "access":
            results = fast.access(line, ctx), slow.access(line, ctx)
        elif op == "probe":
            results = fast.probe(line, ctx), slow.probe(line, ctx)
        else:
            results = fast.invalidate(line), slow.invalidate(line)
        assert results[0] == results[1], (op, line, domain)
        assert state(fast) == state(slow), (op, line, domain)


OPS = ("fill", "fill", "access", "probe", "invalidate")

#: (op, line, domain): three lines per Newcache index (tag conflicts) and
#: six per RPcache set, so invalidations often hit a resident line
_ops = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(0, 23).map(lambda i: i % 8 + 32 * (i // 8)),
        st.integers(0, 1),
    ),
    max_size=250,
)


def _long_run(seed, length=2000):
    rng = random.Random(seed)
    return [(rng.choice(OPS), rng.randrange(81), rng.randrange(2)) for _ in range(length)]


def _new_pair(seed):
    # 16 frames, 32 logical indices: index misses, tag misses and evictions.
    return (
        Newcache(16 * 64, extra_index_bits=1, seed=seed),
        ScanNewcache(16 * 64, extra_index_bits=1, seed=seed),
    )


def _rp_pair(seed):
    # 4 sets x 2 ways: cross-domain evictions permute sets quickly.
    return RPCache(8 * 64, 2, seed=seed), ScanRPCache(8 * 64, 2, seed=seed)


class TestNewcacheMatchesScan:
    @settings(max_examples=80, deadline=None)
    @given(ops=_ops, seed=st.integers(0, 1000))
    def test_random_sequences(self, ops, seed):
        _replay(*_new_pair(seed), _newcache_state, ops)

    @pytest.mark.parametrize("seed", range(4))
    def test_long_random_sequences(self, seed):
        _replay(*_new_pair(seed), _newcache_state, _long_run(seed))

    @pytest.mark.parametrize("first_rmt", (0, 1))
    def test_line_held_under_two_rmts(self, first_rmt):
        fast, slow = _new_pair(3)
        other = 1 - first_rmt
        ops = [("fill", 40, first_rmt), ("fill", 7, 0), ("fill", 40, other), ("fill", 9, 1)]
        _replay(fast, slow, _newcache_state, ops)
        assert list(fast.resident_lines()).count(40) == 2
        first = fast._mapping[(first_rmt, 40 & fast._index_mask)]
        _replay(fast, slow, _newcache_state, [("invalidate", 40, 0)])
        # The RMT that mapped it first loses its copy; the other keeps it.
        assert fast._free[-1] == first
        assert fast.probe(40, DOMAINS[other]) and not fast.probe(40, DOMAINS[first_rmt])
        _replay(fast, slow, _newcache_state, [("invalidate", 40, 0), ("invalidate", 40, 1)])
        assert 40 not in fast.resident_lines()


class TestRPCacheMatchesScan:
    @settings(max_examples=80, deadline=None)
    @given(ops=_ops, seed=st.integers(0, 1000))
    def test_random_sequences(self, ops, seed):
        _replay(*_rp_pair(seed), _rpcache_state, ops)

    @pytest.mark.parametrize("seed", range(4))
    def test_long_random_sequences(self, seed):
        _replay(*_rp_pair(seed), _rpcache_state, _long_run(seed))

    def test_line_resident_in_two_sets(self):
        # Drive cross-domain conflicts until the two domains' tables put
        # line 0 in different sets and both hold a copy of it.
        fast, slow = _rp_pair(5)
        rng = random.Random(5)
        for _ in range(400):
            ops = [("fill", rng.randrange(80), rng.randrange(2)), ("fill", 0, 0), ("fill", 0, 1)]
            _replay(fast, slow, _rpcache_state, ops)
            holders = [i for i, s in enumerate(fast._sets) if any(ln.line_addr == 0 for ln in s)]
            if len(holders) == 2:
                break
        else:
            raise AssertionError("no state with line 0 in two sets")
        _replay(fast, slow, _rpcache_state, [("invalidate", 0, 0)])
        remaining = [i for i, s in enumerate(fast._sets) if any(ln.line_addr == 0 for ln in s)]
        assert remaining == holders[1:]
