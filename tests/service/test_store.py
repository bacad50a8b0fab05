"""Tests for the ResultStore interface and its disk backend."""

import os
import threading

from repro.runner.cells import CellSpec
from repro.runner.pool import run_cells
from repro.runner.result_cache import ResultCache
from repro.service.store import DiskResultStore


def make_store(tmp_path):
    return DiskResultStore(ResultCache(disk_dir=str(tmp_path / "results")))


class TestDiskResultStore:
    def test_delegates_to_cache(self, tmp_path):
        store = make_store(tmp_path)
        spec = CellSpec(kind="general", benchmark="astar", window=(2, 1),
                        n_refs=500, seed=5)
        assert store.enabled
        fingerprint, cached = store.lookup_spec(spec)
        assert fingerprint is not None and cached is None
        store.store(fingerprint, {"cycles": 123})
        again, cached = store.lookup_spec(spec)
        assert again == fingerprint
        assert cached == {"cycles": 123}

    def test_defaults_to_process_wide_cache(self):
        from repro.runner.result_cache import RESULT_CACHE
        assert DiskResultStore().cache is RESULT_CACHE

    def test_run_cells_accepts_store_as_cache(self, tmp_path):
        store = make_store(tmp_path)
        specs = [CellSpec(kind="general", benchmark="astar", window=(0, 0),
                          n_refs=400, seed=2)]
        cold = run_cells(specs, jobs=1, result_cache=store, progress=False)
        warm = run_cells(specs, jobs=1, result_cache=store, progress=False)
        assert cold == warm
        snapshot = store.stats_snapshot()
        assert snapshot["hits"] >= 1
        assert snapshot["backend"] == "disk"

    def test_run_cells_applies_the_budget_through_the_store(
            self, tmp_path, monkeypatch):
        store = make_store(tmp_path)
        for value in range(10):
            store.store(f"{value:064x}", {"value": value})
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.001")
        specs = [CellSpec(kind="general", benchmark="astar", window=(0, 0),
                          n_refs=400, seed=2)]
        run_cells(specs, jobs=1, result_cache=store, progress=False)
        directory = store.cache.disk_dir
        assert sum(os.path.getsize(os.path.join(directory, name))
                   for name in os.listdir(directory)) <= 1048
        assert store.apply_budget() == 0

    def test_stats_snapshot_shape(self, tmp_path):
        store = make_store(tmp_path)
        snapshot = store.stats_snapshot()
        for key in ("hits", "misses", "store_failures", "corrupt_evicted",
                    "enabled", "hit_rate", "backend"):
            assert key in snapshot
        assert snapshot["hit_rate"] == 0.0

    def test_hit_rate(self, tmp_path):
        store = make_store(tmp_path)
        spec = CellSpec(kind="general", benchmark="astar", window=(1, 0),
                        n_refs=300)
        fingerprint, _ = store.lookup_spec(spec)      # miss
        store.store(fingerprint, 1.0)
        store.lookup_spec(spec)                       # hit
        snapshot = store.stats_snapshot()
        assert snapshot["hits"] == 1
        assert snapshot["misses"] == 1
        assert snapshot["hit_rate"] == 0.5


class TestStatsThreadSafety:
    def test_concurrent_counter_bumps_are_exact(self, tmp_path):
        # Satellite 1: the snapshot /metrics reads must agree with the
        # CLI's counters even when many threads hammer the cache.
        cache = ResultCache(disk_dir=str(tmp_path / "results"))
        per_thread, threads = 500, 8

        def hammer():
            for _ in range(per_thread):
                cache._count("hits")
                cache._count("misses")

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        snapshot = cache.stats_snapshot()
        assert snapshot["hits"] == per_thread * threads
        assert snapshot["misses"] == per_thread * threads

    def test_concurrent_lookup_store_roundtrips(self, tmp_path):
        cache = ResultCache(disk_dir=str(tmp_path / "results"))
        store = DiskResultStore(cache)
        specs = [CellSpec(kind="general", benchmark="astar", window=(w, 0),
                          n_refs=100, seed=s)
                 for w in range(4) for s in range(4)]
        for spec in specs:
            fingerprint, _ = store.lookup_spec(spec)
            store.store(fingerprint, repr(spec))
        errors = []

        def reader():
            try:
                for _ in range(50):
                    for spec in specs:
                        _, cached = store.lookup_spec(spec)
                        assert cached == repr(spec)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        workers = [threading.Thread(target=reader) for _ in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        assert store.stats_snapshot()["hits"] == 6 * 50 * len(specs)
