"""Tests for the content-addressed per-cell result cache."""

import os
import pickle

import pytest

import repro.runner.result_cache as result_cache_mod
import repro.util.diskcache as diskcache
from repro.runner.cells import CellSpec
from repro.runner.pool import last_run_stats, run_cells
from repro.runner.result_cache import (
    ResultCache,
    SIM_CODE_VERSION,
    default_result_dir,
)


class TokenSpec:
    """Minimal cacheable cell: result derived from the spec value."""

    calls = 0

    def __init__(self, value, token="tok1"):
        self.value = value
        self.token = token

    def __repr__(self):
        return f"TokenSpec(value={self.value!r})"

    def result_cache_token(self):
        return self.token

    def run(self):
        type(self).calls += 1
        return {"value": self.value, "squared": self.value ** 2}


class PlainSpec:
    """Cell without a cache token: must always recompute."""

    calls = 0

    def run(self):
        type(self).calls += 1
        return "computed"


@pytest.fixture
def cache(tmp_path):
    return ResultCache(disk_dir=str(tmp_path / "results"))


@pytest.fixture(autouse=True)
def reset_counters():
    TokenSpec.calls = 0
    PlainSpec.calls = 0


class TestFingerprint:
    def test_stable_for_equal_specs(self):
        assert ResultCache.fingerprint(TokenSpec(3)) == \
            ResultCache.fingerprint(TokenSpec(3))

    def test_sensitive_to_spec_value(self):
        assert ResultCache.fingerprint(TokenSpec(3)) != \
            ResultCache.fingerprint(TokenSpec(4))

    def test_sensitive_to_code_token(self):
        assert ResultCache.fingerprint(TokenSpec(3, token="tok1")) != \
            ResultCache.fingerprint(TokenSpec(3, token="tok2"))

    def test_sensitive_to_sim_code_version(self, monkeypatch):
        before = ResultCache.fingerprint(TokenSpec(3))
        monkeypatch.setattr(result_cache_mod, "SIM_CODE_VERSION",
                            SIM_CODE_VERSION + 1)
        assert ResultCache.fingerprint(TokenSpec(3)) != before

    def test_none_without_token_method(self):
        assert ResultCache.fingerprint(PlainSpec()) is None

    def test_cellspec_token_names_generator_versions(self):
        token = CellSpec(kind="general", benchmark="astar") \
            .result_cache_token()
        assert "gen" in token and "aes" in token

    def test_cellspec_fingerprint_covers_config(self):
        from dataclasses import replace
        spec = CellSpec(kind="general", benchmark="astar")
        tweaked = replace(spec, config=replace(spec.config, issue_width=2))
        assert ResultCache.fingerprint(spec) != \
            ResultCache.fingerprint(tweaked)


class TestLoadStore:
    def test_roundtrip(self, cache):
        fingerprint = cache.fingerprint(TokenSpec(7))
        assert cache.load(fingerprint) is None
        cache.store(fingerprint, {"squared": 49})
        assert cache.load(fingerprint) == {"squared": 49}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_quarantined(self, cache):
        fingerprint = cache.fingerprint(TokenSpec(7))
        cache.store(fingerprint, "good")
        path = cache._path_for(fingerprint)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.load(fingerprint) is None
        assert not os.path.exists(path)          # unlinked on first contact
        assert cache.corrupt_evicted == 1
        # The quarantined entry is now a plain (uncounted) miss.
        assert cache.load(fingerprint) is None
        assert cache.corrupt_evicted == 1

    def test_truncated_entry_is_quarantined(self, cache):
        fingerprint = cache.fingerprint(TokenSpec(9))
        cache.store(fingerprint, {"big": list(range(100))})
        path = cache._path_for(fingerprint)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])     # interrupted write
        assert cache.load(fingerprint) is None
        assert not os.path.exists(path)
        assert cache.corrupt_evicted == 1

    def test_fingerprint_mismatch_is_quarantined(self, cache):
        a = cache.fingerprint(TokenSpec(1))
        b = cache.fingerprint(TokenSpec(2))
        cache.store(a, "result-a")
        # Simulate a collision/rename: file content says a, name says b.
        os.makedirs(cache.disk_dir, exist_ok=True)
        with open(cache._path_for(b), "wb") as fh:
            fh.write(open(cache._path_for(a), "rb").read())
        assert cache.load(b) is None
        assert not os.path.exists(cache._path_for(b))
        assert cache.corrupt_evicted == 1
        assert cache.load(a) == "result-a"       # the honest entry survives

    def test_plain_miss_not_counted_corrupt(self, cache):
        assert cache.load(cache.fingerprint(TokenSpec(1))) is None
        assert cache.corrupt_evicted == 0

    def test_unpicklable_result_counts_store_failure(self, cache):
        fingerprint = cache.fingerprint(TokenSpec(1))
        cache.store(fingerprint, lambda: None)  # locals don't pickle
        assert cache.store_failures == 1
        assert cache.load(fingerprint) is None

    def test_disabled_context(self, cache):
        fingerprint = cache.fingerprint(TokenSpec(1))
        cache.store(fingerprint, "result")
        with cache.disabled():
            assert not cache.enabled
            assert cache.load(fingerprint) is None
            cache.store(fingerprint, "ignored")
        assert cache.enabled
        assert cache.load(fingerprint) == "result"

    def test_no_disk_dir_disables(self):
        cache = ResultCache(disk_dir=None, use_default_disk_dir=False)
        assert not cache.enabled
        assert cache.load("deadbeef") is None

    def test_entries_pickle_with_fingerprint(self, cache):
        fingerprint = cache.fingerprint(TokenSpec(1))
        cache.store(fingerprint, "result")
        with open(cache._path_for(fingerprint), "rb") as fh:
            stored = pickle.load(fh)
        assert stored == (fingerprint, "result")


class TestVerify:
    def test_scan_quarantines_only_bad_entries(self, cache):
        good = cache.fingerprint(TokenSpec(1))
        bad = cache.fingerprint(TokenSpec(2))
        renamed = cache.fingerprint(TokenSpec(3))
        cache.store(good, "ok")
        cache.store(bad, "soon corrupt")
        cache.store(renamed, "wrong name")
        with open(cache._path_for(bad), "wb") as fh:
            fh.write(b"garbage")
        os.replace(cache._path_for(renamed),
                   cache._path_for("0" * len(renamed)))
        scan = cache.verify()
        assert scan == {"scanned": 3, "quarantined": 2}
        assert cache.corrupt_evicted == 2
        assert cache.load(good) == "ok"

    def test_scan_ignores_foreign_files(self, cache):
        cache.store(cache.fingerprint(TokenSpec(1)), "ok")
        with open(os.path.join(cache.disk_dir, "notes.txt"), "w") as fh:
            fh.write("not a result")
        assert cache.verify() == {"scanned": 1, "quarantined": 0}

    def test_scan_of_missing_dir(self, tmp_path):
        cache = ResultCache(disk_dir=str(tmp_path / "never-created"))
        assert cache.verify() == {"scanned": 0, "quarantined": 0}


class TestDefaultDir:
    def test_default_under_cache_root(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert default_result_dir().endswith(os.path.join(
            ".cache", "repro", "results"))

    @pytest.mark.parametrize("value", ["0", "off", "none", "disabled", " OFF "])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_RESULT_CACHE", value)
        assert default_result_dir() is None

    def test_path_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        assert default_result_dir() == str(tmp_path)


class TestRunCellsIntegration:
    def test_second_run_is_served_from_cache(self, cache):
        specs = [TokenSpec(1), TokenSpec(2)]
        first = run_cells(specs, jobs=1, result_cache=cache)
        assert TokenSpec.calls == 2
        stats = last_run_stats()
        assert stats["result_cache_hits"] == 0
        assert stats["result_cache_misses"] == 2

        second = run_cells(specs, jobs=1, result_cache=cache)
        assert TokenSpec.calls == 2          # nothing recomputed
        assert second == first               # bit-identical
        stats = last_run_stats()
        assert stats["result_cache_hits"] == 2
        assert stats["result_cache_misses"] == 0

    def test_incremental_sweep_runs_only_new_cells(self, cache):
        run_cells([TokenSpec(1)], jobs=1, result_cache=cache)
        results = run_cells([TokenSpec(1), TokenSpec(5)], jobs=1,
                            result_cache=cache)
        assert TokenSpec.calls == 2          # only the new cell ran
        assert results == [{"value": 1, "squared": 1},
                           {"value": 5, "squared": 25}]
        stats = last_run_stats()
        assert stats["result_cache_hits"] == 1
        assert stats["result_cache_misses"] == 1

    def test_tokenless_specs_always_run(self, cache):
        specs = [PlainSpec()]
        run_cells(specs, jobs=1, result_cache=cache)
        run_cells(specs, jobs=1, result_cache=cache)
        assert PlainSpec.calls == 2
        stats = last_run_stats()
        assert stats["result_cache_hits"] == 0
        assert stats["result_cache_misses"] == 0

    def test_cache_on_off_results_identical(self, cache):
        specs = [TokenSpec(3), TokenSpec(4)]
        with cache.disabled():
            cold = run_cells(specs, jobs=1, result_cache=cache)
        warm_fill = run_cells(specs, jobs=1, result_cache=cache)
        warm_hit = run_cells(specs, jobs=1, result_cache=cache)
        assert cold == warm_fill == warm_hit

    def test_code_version_bump_orphans_entries(self, cache, monkeypatch):
        specs = [TokenSpec(1)]
        run_cells(specs, jobs=1, result_cache=cache)
        monkeypatch.setattr(result_cache_mod, "SIM_CODE_VERSION",
                            SIM_CODE_VERSION + 1)
        run_cells(specs, jobs=1, result_cache=cache)
        assert TokenSpec.calls == 2


@pytest.fixture
def scans(monkeypatch):
    """Directories the disk caches' eviction sweeps scanned, in order."""
    seen = []
    scan = diskcache._scan

    def counting(directory):
        seen.append(directory)
        return scan(directory)

    monkeypatch.setattr(diskcache, "_scan", counting)
    return seen


class TestSizeBudget:
    """The result cache applies ``REPRO_CACHE_MAX_MB`` once per run that
    stored results, not on every store."""

    def test_store_does_not_scan(self, cache, scans, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.001")
        for value in range(10):
            cache.store(f"{value:064x}", {"value": value})
        assert scans == []
        assert len(os.listdir(cache.disk_dir)) == 10

    def test_run_ends_within_budget_after_one_scan(self, cache, scans,
                                                   monkeypatch):
        # A 1,048-byte budget holds a few of the 20 entries (~150 bytes
        # each) the run stores.
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.001")
        specs = [TokenSpec(value) for value in range(20)]
        assert run_cells(specs, jobs=1, result_cache=cache) == \
            [spec.run() for spec in specs]
        assert scans == [cache.disk_dir]
        sizes = [os.path.getsize(os.path.join(cache.disk_dir, name))
                 for name in os.listdir(cache.disk_dir)]
        assert 0 < len(sizes) < len(specs)
        assert sum(sizes) <= 1048

    def test_fully_cached_rerun_does_not_scan(self, cache, scans):
        specs = [TokenSpec(value) for value in range(5)]
        run_cells(specs, jobs=1, result_cache=cache)
        assert scans == [cache.disk_dir]
        run_cells(specs, jobs=1, result_cache=cache)
        assert last_run_stats()["result_cache_hits"] == len(specs)
        assert scans == [cache.disk_dir]
