"""Unit tests for the invariant sanitizer: each check catches its bug.

Every test drives a *real* hierarchy into a healthy state, corrupts one
structure the way a fast-path bug would, and asserts the matching
catalogue entry fires (and only then).
"""

import copy

import pytest

from repro.cache.context import DEFAULT_CONTEXT
from repro.cache.tagstore import LineState
from repro.check import CheckViolation
from repro.check.invariants import validate_l1, validate_tag_store
from repro.cpu.timing import TimingModel
from repro.cpu.trace import Trace
from repro.experiments.config import BASELINE_CONFIG
from repro.experiments.schemes import build_scheme


def _ran_l1(scheme_name="random_fill", window=(4, 3), n=600, seed=3):
    """An L1 that has simulated a non-trivial trace and settled."""
    scheme = build_scheme(scheme_name, BASELINE_CONFIG, seed=seed)
    if scheme.os is not None and window is not None:
        scheme.os.set_rr(*window)
    records = [(((i * 2654435761) % (1 << 20)) * 64, 1 + i % 3, i % 2 == 0)
               for i in range(n)]
    timing = TimingModel(scheme.l1, issue_width=BASELINE_CONFIG.issue_width,
                         overlap_credit=BASELINE_CONFIG.overlap_credit)
    timing.run(Trace.from_records(records))
    return scheme.l1


def _functional_store(scheme_name, trials=25):
    """A leakage-channel store after a few occupancy trials: both the
    victim's and the attacker's domain have filled lines."""
    from repro.leakage.adapters import build_functional_scheme
    from repro.leakage.occupancy import run_occupancy_trials
    from repro.secure.region import ProtectedRegion

    scheme = build_functional_scheme(scheme_name, ProtectedRegion(0x10000, 16 * 64))
    run_occupancy_trials(scheme, trials=trials, seed=5)
    return scheme.tag_store


def _kind(excinfo) -> str:
    return excinfo.value.kind


class TestTagStore:
    def test_healthy_state_validates(self):
        validate_l1(_ran_l1())

    def test_duplicate_line_in_set(self):
        l1 = _ran_l1()
        cache_set = next(s for s in l1.tag_store._sets if s)
        cache_set.insert(0, copy.copy(cache_set[-1]))
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) in ("tag-duplicate", "occupancy")

    def test_over_occupancy(self):
        l1 = _ran_l1()
        store = l1.tag_store
        num_sets = len(store._sets)
        full = next(i for i, s in enumerate(store._sets)
                    if len(s) == store.associativity)
        # One more line that genuinely maps here: no duplicate, no
        # mapping violation — only the occupancy bound trips.
        fresh = (1 << 24) + full
        assert (fresh % num_sets) == full
        store._sets[full].append(LineState(fresh))
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "occupancy"

    def test_wrong_set_mapping(self):
        l1 = _ran_l1()
        store = l1.tag_store
        donor = next(i for i, s in enumerate(store._sets) if s)
        target = (donor + 1) % len(store._sets)
        moved = store._sets[donor].pop()
        if len(store._sets[target]) >= store.associativity:
            store._sets[target].pop()
        store._sets[target].append(moved)
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "set-mapping"

    def test_generic_store_duplicate(self):
        class StubStore:
            capacity_lines = 8

            def resident_lines(self):
                return iter([1, 2, 1])

        with pytest.raises(CheckViolation) as excinfo:
            validate_tag_store(StubStore())
        assert _kind(excinfo) == "tag-duplicate"

    def test_generic_store_occupancy(self):
        class StubStore:
            capacity_lines = 2

            def resident_lines(self):
                return iter([1, 2, 3])

        with pytest.raises(CheckViolation) as excinfo:
            validate_tag_store(StubStore())
        assert _kind(excinfo) == "occupancy"


class TestMshr:
    def _l1_with_inflight(self):
        l1 = _ran_l1(n=0)
        l1.access_line(0x1234, 0, DEFAULT_CONTEXT)   # miss -> MSHR entry
        assert l1.miss_queue._entries
        return l1

    def test_inflight_state_validates(self):
        validate_l1(self._l1_with_inflight())

    def test_stale_next_completion(self):
        l1 = self._l1_with_inflight()
        l1.miss_queue.next_completion -= 1
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "mshr"

    def test_entry_keyed_by_wrong_line(self):
        l1 = self._l1_with_inflight()
        entries = l1.miss_queue._entries
        line, entry = next(iter(entries.items()))
        del entries[line]
        entries[line + 1] = entry
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "mshr"

    def test_nofill_security_resident_while_in_flight(self):
        """Section IV-B: a nofill miss must never allocate its line."""
        l1 = self._l1_with_inflight()
        line = next(iter(l1.miss_queue._entries))
        l1.tag_store.fill(line, DEFAULT_CONTEXT)
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "nofill-security"


class TestFillQueue:
    def test_negative_parked_line(self):
        l1 = _ran_l1()
        l1.fill_queue.append((-3, DEFAULT_CONTEXT))
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "fill-queue"

    def test_over_capacity(self):
        l1 = _ran_l1()
        for i in range(l1.fill_queue_capacity + 1 - len(l1.fill_queue)):
            l1.fill_queue.append((0x40 + i, DEFAULT_CONTEXT))
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "fill-queue"

    def test_blocked_flag_with_empty_queue(self):
        l1 = _ran_l1()
        assert not l1.fill_queue
        l1._fills_blocked = True
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "fill-queue"


class TestStatsLaws:
    def test_l1_conservation(self):
        l1 = _ran_l1()
        l1.stats.hits += 1
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "stats"

    def test_negative_counter(self):
        l1 = _ran_l1()
        l1.stats.accesses = -1
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "stats"

    def test_random_fill_budget(self):
        l1 = _ran_l1()
        l1.stats.random_fill_issued = l1.stats.demand_misses + \
            l1.stats.random_fill_dropped + 1
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "stats"

    def test_l2_conservation(self):
        l1 = _ran_l1()
        l1.next_level.stats.hits += 1
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "stats"

    def test_fills_bounded_by_requests(self):
        l1 = _ran_l1()
        l1.stats.fills = l1.stats.next_level_requests + 1
        with pytest.raises(CheckViolation) as excinfo:
            validate_l1(l1)
        assert _kind(excinfo) == "stats"


class TestNewcacheStore:
    def test_healthy_newcache_validates(self):
        l1 = _ran_l1("newcache", window=None)
        validate_l1(l1)

    def test_healthy_functional_newcache_validates(self):
        validate_tag_store(_functional_store("newcache"))

    def test_line_under_the_wrong_key(self):
        store = _functional_store("newcache")
        (rmt_id, line_index), phys = next(iter(store._mapping.items()))
        # Re-key the frame one index over: the entry no longer sits
        # under (rmt, line & index_mask), so invalidate could miss it.
        moved = next(i for i in range(line_index + 1, store._index_mask + 1)
                     if (rmt_id, i) not in store._mapping)
        del store._mapping[(rmt_id, line_index)]
        store._mapping[(rmt_id, moved)] = phys
        store._phys[phys].index = moved
        with pytest.raises(CheckViolation) as excinfo:
            validate_tag_store(store)
        assert _kind(excinfo) == "set-mapping"

    def test_mapping_under_an_unfilled_rmt(self):
        store = _functional_store("newcache")
        store._rmts.clear()
        with pytest.raises(CheckViolation) as excinfo:
            validate_tag_store(store)
        assert _kind(excinfo) == "set-mapping"

    def test_free_frame_still_mapped(self):
        store = _functional_store("newcache")
        store._free.append(next(iter(store._mapping.values())))
        with pytest.raises(CheckViolation) as excinfo:
            validate_tag_store(store)
        assert _kind(excinfo) == "occupancy"

    def test_lost_frame(self):
        store = _functional_store("newcache")
        # Unmapped but never returned to the free list.
        del store._mapping[next(iter(store._mapping))]
        with pytest.raises(CheckViolation) as excinfo:
            validate_tag_store(store)
        assert _kind(excinfo) == "occupancy"


class TestRPCacheStore:
    def test_healthy_rpcache_validates(self):
        validate_tag_store(_functional_store("rpcache"))

    def test_line_planted_in_the_wrong_set(self):
        store = _functional_store("rpcache")
        donor = next(i for i, s in enumerate(store._sets) if s)
        target = (donor + 1) % store.num_sets
        moved = store._sets[donor].pop()
        if len(store._sets[target]) >= store.associativity:
            store._sets[target].pop()
        store._sets[target].append(moved)
        with pytest.raises(CheckViolation) as excinfo:
            validate_tag_store(store)
        assert _kind(excinfo) == "set-mapping"

    def test_swapped_permutation_entries(self):
        store = _functional_store("rpcache")
        line_state = next(ln for s in store._sets for ln in s)
        table = store._perms[line_state.domain]
        raw = store.amap.set_of_line(line_state.line_addr)
        other = (raw + 1) % store.num_sets
        table[raw], table[other] = table[other], table[raw]
        with pytest.raises(CheckViolation) as excinfo:
            validate_tag_store(store)
        assert _kind(excinfo) == "set-mapping"
