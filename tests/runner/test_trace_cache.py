"""Unit tests for the two-layer (memory LRU + disk) trace cache."""

import gc
import pickle
import weakref

import pytest

from repro.cpu.decode import TraceDecode
from repro.experiments.perf_general import figure10
from repro.runner.result_cache import RESULT_CACHE
from repro.workloads import cache as cache_mod
from repro.workloads.cache import TraceCache, cached_workload, default_cache_dir
from repro.workloads.spec import GENERATOR_VERSION, make_workload


def memory_only(**kwargs):
    return TraceCache(use_default_disk_dir=False, **kwargs)


class TestMemoryLayer:
    def test_maker_called_once_per_key(self):
        cache = memory_only()
        calls = []

        def maker():
            calls.append(1)
            return [(1, 2, 0)]

        key = ("spec", "x", 1, 0, GENERATOR_VERSION)
        first = cache.get(key, maker)
        second = cache.get(key, maker)
        assert first is second
        assert len(calls) == 1
        assert cache.stats() == (1, 0, 1)

    def test_lru_evicts_least_recently_used(self):
        cache = memory_only(memory_entries=2)
        made = []

        def maker_for(key):
            return lambda: (made.append(key), [key])[1]

        cache.get("a", maker_for("a"))
        cache.get("b", maker_for("b"))
        cache.get("a", maker_for("a"))  # refresh "a"
        cache.get("c", maker_for("c"))  # evicts "b", the LRU entry
        cache.get("b", maker_for("b"))  # regenerated
        assert made == ["a", "b", "c", "b"]

    def test_clear_memory(self):
        cache = memory_only()
        cache.get("k", lambda: [(0, 0, 0)])
        cache.clear_memory()
        cache.get("k", lambda: [(0, 0, 0)])
        assert cache.misses == 2

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            memory_only(memory_entries=0)


class TestDiskLayer:
    def test_round_trip_across_instances(self, tmp_path):
        key = ("spec", "demo", 4, 0, GENERATOR_VERSION)
        trace = [(64 * i, 1, 0) for i in range(4)]
        writer = TraceCache(disk_dir=str(tmp_path))
        assert writer.get(key, lambda: trace) is trace
        reader = TraceCache(disk_dir=str(tmp_path))
        again = reader.get(key, lambda: pytest.fail("expected a disk hit"))
        assert again == trace
        assert reader.stats() == (0, 1, 0)

    def test_version_bump_orphans_old_entries(self, tmp_path):
        old_key = ("spec", "demo", 4, 0, GENERATOR_VERSION)
        new_key = ("spec", "demo", 4, 0, GENERATOR_VERSION + 1)
        TraceCache(disk_dir=str(tmp_path)).get(old_key, lambda: [("old",)])
        fresh = TraceCache(disk_dir=str(tmp_path))
        assert fresh.get(new_key, lambda: [("new",)]) == [("new",)]
        assert fresh.stats() == (0, 0, 1)

    def test_stored_key_is_verified(self, tmp_path):
        # A file at the right path but recording a different key (hash
        # collision / hand-edited entry) must not alias.
        key = ("spec", "demo", 4, 0, GENERATOR_VERSION)
        path = TraceCache._path_for(str(tmp_path), key)
        with open(path, "wb") as fh:
            pickle.dump((("other", "key"), [("bogus",)]), fh)
        cache = TraceCache(disk_dir=str(tmp_path))
        assert cache.get(key, lambda: [("real",)]) == [("real",)]
        assert cache.stats() == (0, 0, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        key = ("k",)
        path = TraceCache._path_for(str(tmp_path), key)
        with open(path, "wb") as fh:
            fh.write(b"definitely not a pickle")
        cache = TraceCache(disk_dir=str(tmp_path))
        assert cache.get(key, lambda: [("real",)]) == [("real",)]

    def test_env_disables_disk(self, monkeypatch):
        for value in ("0", "off", "NONE", " disabled "):
            monkeypatch.setenv("REPRO_TRACE_CACHE", value)
            assert default_cache_dir() is None
            assert TraceCache().disk_dir is None

    def test_env_relocates_disk(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        assert TraceCache().disk_dir == str(tmp_path)


class TestGetTrace:
    def test_upgrades_legacy_list_entries(self, tmp_path):
        """Disk entries written before the columnar engine are bare
        record lists; get_trace must hand back a columnar Trace."""
        from repro.cpu.trace import Trace
        key = ("spec", "demo", 3, 0, GENERATOR_VERSION)
        records = [(64 * i, 1, 0) for i in range(3)]
        writer = TraceCache(disk_dir=str(tmp_path))
        writer._disk_store(key, records)  # legacy list payload
        reader = TraceCache(disk_dir=str(tmp_path))
        trace = reader.get_trace(
            key, lambda: pytest.fail("expected a disk hit"))
        assert isinstance(trace, Trace)
        assert trace == records
        # Upgrade happens once: the memory layer now holds the Trace.
        assert reader.get_trace(key, lambda: pytest.fail("hit")) is trace

    def test_passes_columnar_through(self):
        from repro.cpu.trace import Trace
        cache = memory_only()
        trace = Trace.from_records([(0, 1, 0)])
        assert cache.get_trace("k", lambda: trace) is trace


class TestCachedWorkload:
    def test_matches_direct_generation(self, monkeypatch):
        monkeypatch.setattr(cache_mod.TRACE_CACHE, "disk_dir", None)
        trace = cached_workload("hmmer", n_refs=500, seed=3)
        assert trace == make_workload("hmmer", n_refs=500, seed=3)
        # Second lookup is a memory hit on the very same object.
        assert cached_workload("hmmer", n_refs=500, seed=3) is trace


class TestSweepMemory:
    def test_cold_sweep_keeps_at_most_two_groups_alive(self, monkeypatch):
        # A cold sweep over four benchmark groups, with the cyclic
        # collector off: once the sweep moves past a group, its trace
        # and every line column decoded from it must be freed by
        # reference counting, except the two the memory layer keeps.
        benchmarks = ("astar", "bzip2", "milc", "lbm")
        n_refs = 2000
        monkeypatch.setattr(cache_mod.TRACE_CACHE, "disk_dir", None)
        cache_mod.TRACE_CACHE.clear_memory()
        columns = []
        decode_lines = TraceDecode.lines

        def recording_lines(decode):
            lines = decode_lines(decode)
            # One whole-trace line column per group, on the lane kernel
            # and on the object model alike (slices are shorter).
            if len(lines) == n_refs and not any(ref() is lines for ref in columns):
                columns.append(weakref.ref(lines))
            return lines

        monkeypatch.setattr(TraceDecode, "lines", recording_lines)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with RESULT_CACHE.disabled():
                figure10(benchmarks=benchmarks, n_refs=n_refs, seed=3, jobs=1)
            alive = sum(1 for ref in columns if ref() is not None)
        finally:
            if was_enabled:
                gc.enable()
        assert len(columns) == len(benchmarks)
        assert alive <= 2
