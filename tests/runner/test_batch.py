"""Batched execution tests: planner, knobs, bit-identity, fault splits.

The batched fast path must be invisible except in speed: every grid
below is run with batching on and off (lane width 0 plans no batches)
and across lane widths and jobs counts, and the results compared for
equality, the cache short-circuit is proven to never reach planning or
trace decode, and fault-injected batches are shown to split back into
the ordinary per-cell retry machinery.
"""

import os
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runner.pool as pool_mod
from repro.cpu.lanes import native_available
from repro.runner.batch import (
    MAX_BATCH,
    BatchItem,
    CellBatch,
    plan_batches,
    run_batch,
)
from repro.runner.cells import CellSpec
from repro.runner.pool import last_run_stats, run_cells
from repro.runner.result_cache import ResultCache
from repro.runner.telemetry import read_events
from tests.object_model import object_model_only, run_object_model


class BatchSquareSpec:
    """Pure, batchable toy cell (groups by an arbitrary label)."""

    def __init__(self, value, group="g"):
        self.value = value
        self.group = group

    def __repr__(self):
        return f"BatchSquareSpec({self.value}, group={self.group!r})"

    def batch_group_key(self):
        return ("square", self.group)

    def run(self):
        return self.value * self.value


class CacheableBatchSquareSpec(BatchSquareSpec):
    """Batchable cell that opts into the result cache and counts its
    executions through marker files (atomic across processes)."""

    def __init__(self, value, state_dir, group="g"):
        super().__init__(value, group)
        self.state_dir = state_dir

    def __repr__(self):
        return f"CacheableBatchSquareSpec({self.value}, group={self.group!r})"

    def result_cache_token(self):
        return "batch-test"

    def run(self):
        _count_attempt(self.state_dir, f"square-{self.value}")
        return self.value * self.value


class FaultyBatchSpec:
    """Batchable cell that misbehaves for its first ``times`` attempts.

    ``mode`` is ``"raise"``, ``"hang"`` (sleep a minute) or ``"kill"``
    (``os._exit``, taking the worker down).  Attempts are counted via
    marker files so the count spans the batch attempt *and* the
    per-cell retries after a split.
    """

    def __init__(self, tag, state_dir, mode, times, group="g"):
        self.tag = tag
        self.state_dir = state_dir
        self.mode = mode
        self.times = times
        self.group = group

    def __repr__(self):
        return (f"FaultyBatchSpec({self.tag!r}, mode={self.mode!r}, "
                f"times={self.times})")

    def batch_group_key(self):
        return ("square", self.group)

    def run(self):
        if _count_attempt(self.state_dir, self.tag) < self.times:
            if self.mode == "raise":
                raise RuntimeError(f"injected failure in {self.tag}")
            if self.mode == "hang":
                time.sleep(60)
            if self.mode == "kill":
                os._exit(139)
        return ("ok", self.tag)


def _count_attempt(state_dir, tag):
    """Record one attempt of ``tag``; returns how many came before."""
    n = 0
    while True:
        try:
            open(os.path.join(state_dir, f"{tag}.{n}"), "x").close()
            return n
        except FileExistsError:
            n += 1


def _attempts(state_dir, tag):
    return len([name for name in os.listdir(state_dir)
                if name.startswith(f"{tag}.")])


def _run_at_width(specs, width, **kwargs):
    """``run_cells`` with ``REPRO_LANES`` set to ``width`` (0: no batches)."""
    with mock.patch.dict(os.environ, {"REPRO_LANES": str(width)}):
        return run_cells(specs, **kwargs)


@pytest.fixture
def nocache():
    return ResultCache(disk_dir=None, use_default_disk_dir=False)


@pytest.fixture
def state_dir(tmp_path):
    d = tmp_path / "state"
    d.mkdir()
    return str(d)


class TestResolveBatch:
    """Whether to batch resolves from the lane width: width 0
    (``lanes=0`` or ``REPRO_LANES=0``) plans no batch, any width >= 1
    batches."""

    SPECS = [BatchSquareSpec(i) for i in range(4)]

    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_LANES", raising=False)
        (item,) = plan_batches(self.SPECS, range(4))
        assert item.indices == (0, 1, 2, 3)

    def test_env_off_values(self, monkeypatch, nocache):
        for value in ("0", " 0 "):
            monkeypatch.setenv("REPRO_LANES", value)
            assert plan_batches(self.SPECS, range(4)) == [0, 1, 2, 3]
            assert run_cells(self.SPECS, jobs=1,
                             result_cache=nocache) == [0, 1, 4, 9]
            assert last_run_stats()["batches"] == 0

    def test_env_on_values(self, monkeypatch):
        for value in ("1", "2", "64"):
            monkeypatch.setenv("REPRO_LANES", value)
            (item,) = plan_batches(self.SPECS, range(4))
            assert item.indices == (0, 1, 2, 3)

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LANES", "0")
        (item,) = plan_batches(self.SPECS, range(4), lanes=1)
        assert item.indices == (0, 1, 2, 3)
        monkeypatch.setenv("REPRO_LANES", "64")
        assert plan_batches(self.SPECS, range(4), lanes=0) == [0, 1, 2, 3]

    def test_garbage_env_raises_naming_variable(self, monkeypatch, nocache):
        monkeypatch.setenv("REPRO_LANES", "sometimes")
        with pytest.raises(ValueError, match="REPRO_LANES"):
            run_cells(self.SPECS, jobs=1, result_cache=nocache)


class TestPlanner:
    def test_groups_by_key_and_keeps_optouts_single(self):
        class PlainSpec:                       # no batch_group_key at all
            def run(self):
                return None

        class OptOutSpec(PlainSpec):
            def batch_group_key(self):
                return None

        specs = [BatchSquareSpec(0, "a"), PlainSpec(),
                 BatchSquareSpec(1, "b"), BatchSquareSpec(2, "a"),
                 OptOutSpec(), BatchSquareSpec(3, "b")]
        items = plan_batches(specs, range(len(specs)))
        batches = [i for i in items if isinstance(i, BatchItem)]
        singles = [i for i in items if not isinstance(i, BatchItem)]
        assert sorted(singles) == [1, 4]
        assert sorted(tuple(b.indices) for b in batches) == \
            [(0, 3), (2, 5)]
        assert all(b.batch.kind == "square" for b in batches)

    def test_order_is_by_first_index(self):
        specs = [BatchSquareSpec(i, "a" if i % 2 else "b")
                 for i in range(6)]
        items = plan_batches(specs, range(len(specs)))
        firsts = [i.indices[0] if isinstance(i, BatchItem) else i
                  for i in items]
        assert firsts == sorted(firsts)

    def test_chunks_at_max_batch(self):
        specs = [BatchSquareSpec(i) for i in range(MAX_BATCH * 2 + 6)]
        items = plan_batches(specs, range(len(specs)))
        sizes = [len(i.indices) for i in items if isinstance(i, BatchItem)]
        assert sizes == [MAX_BATCH, MAX_BATCH, 6]

    def test_singleton_tail_chunk_stays_plain(self):
        specs = [BatchSquareSpec(i) for i in range(MAX_BATCH + 1)]
        items = plan_batches(specs, range(len(specs)))
        batches = [i for i in items if isinstance(i, BatchItem)]
        assert [len(b.indices) for b in batches] == [MAX_BATCH]
        assert items[-1] == MAX_BATCH      # the leftover index, unbatched

    def test_jobs_cap_spreads_small_grids(self):
        specs = [BatchSquareSpec(i) for i in range(8)]
        items = plan_batches(specs, range(len(specs)), jobs=4)
        sizes = [len(i.indices) for i in items if isinstance(i, BatchItem)]
        assert sizes == [2, 2, 2, 2]       # ceil(8 / 4) per batch

    def test_only_pending_indices_are_planned(self):
        specs = [BatchSquareSpec(i) for i in range(6)]
        items = plan_batches(specs, [1, 3, 5])
        (batch,) = items
        assert batch.indices == (1, 3, 5)


class TestBatchedRun:
    def test_inline_batches_and_counts(self, nocache, tmp_path):
        specs = [BatchSquareSpec(i) for i in range(5)]
        log = str(tmp_path / "telemetry.jsonl")
        results = run_cells(specs, jobs=1, result_cache=nocache,
                            telemetry=log)
        assert results == [0, 1, 4, 9, 16]
        stats = last_run_stats()
        assert stats["batches"] == 1
        assert stats["batched_cells"] == 5
        events = read_events(log)
        assert any(e["event"] == "batch_start" for e in events)
        finish = [e for e in events if e["event"] == "batch_finish"]
        assert len(finish) == 1 and finish[0]["size"] == 5
        cell_finish = [e for e in events if e["event"] == "cell_finish"]
        assert len(cell_finish) == 5
        for event in cell_finish:
            assert event["batch_id"] == finish[0]["batch_id"]
            assert event["batch_size"] == 5
            assert "batch_amortized_decode" in event

    def test_pooled_matches_unbatched(self, nocache):
        specs = [BatchSquareSpec(i, "a" if i < 4 else "b")
                 for i in range(8)]
        plain = _run_at_width(specs, 0, jobs=1, result_cache=nocache)
        assert last_run_stats()["batches"] == 0
        pooled = _run_at_width(specs, 64, jobs=2, result_cache=nocache)
        assert last_run_stats()["batches"] >= 1
        assert plain == pooled == [i * i for i in range(8)]

    def test_check_env_forces_per_cell(self, nocache, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "64")
        specs = [BatchSquareSpec(i) for i in range(4)]
        results = run_cells(specs, jobs=1, result_cache=nocache)
        assert results == [0, 1, 4, 9]
        assert last_run_stats()["batches"] == 0

    def test_single_pending_cell_never_batches(self, nocache):
        results = run_cells([BatchSquareSpec(3)], jobs=1,
                            result_cache=nocache)
        assert results == [9]
        assert last_run_stats()["batches"] == 0


class TestCacheShortCircuit:
    def test_fully_cached_grid_skips_planning(self, tmp_path, state_dir,
                                              monkeypatch):
        cache = ResultCache(disk_dir=str(tmp_path / "results"))
        specs = [CacheableBatchSquareSpec(i, state_dir) for i in range(4)]
        first = run_cells(specs, jobs=1, result_cache=cache)
        assert first == [0, 1, 4, 9]
        assert last_run_stats()["batches"] == 1
        assert all(_attempts(state_dir, f"square-{i}") == 1
                   for i in range(4))

        # Second run: every cell is checkpointed, so the planner must
        # never even be consulted (pending is empty).
        def boom(*_args, **_kwargs):
            raise AssertionError("plan_batches called on a cached grid")
        monkeypatch.setattr(pool_mod, "plan_batches", boom)
        log = str(tmp_path / "telemetry.jsonl")
        second = run_cells(specs, jobs=1, result_cache=cache, telemetry=log)
        assert second == first
        stats = last_run_stats()
        assert stats["batches"] == 0
        assert stats["result_cache_hits"] == 4
        assert all(_attempts(state_dir, f"square-{i}") == 1
                   for i in range(4))
        assert not any(e["event"] == "batch_start"
                       for e in read_events(log))

    def test_fully_cached_general_grid_never_decodes(self, tmp_path,
                                                     monkeypatch):
        cache = ResultCache(disk_dir=str(tmp_path / "results"))
        specs = [CellSpec(kind="general", benchmark="astar", window=window,
                          n_refs=1500, seed=3)
                 for window in ((0, 0), (0, 3), (4, 3))]
        first = run_cells(specs, jobs=1, result_cache=cache)

        def boom(*_args, **_kwargs):
            raise AssertionError("trace loaded for a fully cached grid")
        monkeypatch.setattr("repro.workloads.cache.cached_workload", boom)
        second = run_cells(specs, jobs=1, result_cache=cache)
        assert second == first
        assert last_run_stats()["result_cache_hits"] == 3


#: window shapes covering demand fetch, forward, bidirectional and the
#: non-power-of-two fallback (W = 5 has no rf_mask -> object model)
WINDOWS = ((0, 0), (0, 7), (4, 3), (2, 2), (16, 15))


class TestBitIdentity:
    """Batched == the object model, bit for bit, across schemes and
    windows (width 0 runs lowerable cells on the kernel too, one
    width-1 call each)."""

    @settings(max_examples=8, deadline=None)
    @given(windows=st.lists(st.sampled_from(WINDOWS), min_size=2,
                            max_size=4, unique=True),
           warm=st.booleans(),
           seed=st.integers(min_value=0, max_value=3))
    def test_general_grid(self, windows, warm, seed):
        nocache = ResultCache(disk_dir=None, use_default_disk_dir=False)
        specs = [CellSpec(kind="general", benchmark=benchmark,
                          scheme=scheme, window=window, n_refs=1200,
                          seed=seed, warm=warm)
                 for benchmark in ("astar", "lbm")
                 for window in windows
                 for scheme in ("random_fill",)]
        specs += [CellSpec(kind="general", benchmark="astar",
                           scheme=scheme, window=(0, 0), n_refs=1200,
                           seed=seed, warm=warm)
                  for scheme in ("baseline", "tagged_prefetch")]
        batched = _run_at_width(specs, 64, jobs=1, result_cache=nocache)
        assert last_run_stats()["batches"] >= 1
        with object_model_only():
            percell = _run_at_width(specs, 0, jobs=1, result_cache=nocache)
        assert last_run_stats()["batches"] == 0
        assert batched == percell

    def test_general_grid_across_jobs(self):
        # Lane widths 0 (no batches), 1, 2 and 64, inline and pooled.
        nocache = ResultCache(disk_dir=None, use_default_disk_dir=False)
        specs = [CellSpec(kind="general", benchmark="astar", window=window,
                          n_refs=1500, seed=0)
                 for window in WINDOWS]
        runs = {}
        for jobs, width in ((1, 0), (1, 1), (1, 2), (1, 64), (2, 0),
                            (2, 64)):
            runs[jobs, width] = _run_at_width(specs, width, jobs=jobs,
                                              result_cache=nocache)
            stats = last_run_stats()
            if width:
                assert stats["batches"] >= 1
            else:
                assert stats["batches"] == 0
        reference = [run_object_model(spec) for spec in specs]
        assert all(run == reference for run in runs.values())

    def test_leakage_grid(self):
        from repro.leakage.sweep import LeakageCellSpec, window_pair
        nocache = ResultCache(disk_dir=None, use_default_disk_dir=False)
        specs = [LeakageCellSpec(channel="eq7", window=window_pair(size),
                                 trials=120, curve_repeats=10)
                 for size in (2, 4, 8)]
        batched = _run_at_width(specs, 64, jobs=1, result_cache=nocache)
        assert last_run_stats()["batches"] == 1
        percell = _run_at_width(specs, 0, jobs=1, result_cache=nocache)
        assert last_run_stats()["batches"] == 0
        assert batched == percell

    @pytest.mark.skipif(not native_available(),
                        reason="no compiled lane kernel")
    def test_run_batch_mixed_eligibility(self):
        # One group, four cells: two run on the lane kernel, the
        # non-power-of-two window and the policy scheme run on the
        # object model *inside* the batch — results identical either way.
        specs = [
            CellSpec(kind="general", benchmark="astar", window=(16, 15),
                     n_refs=1500, seed=1),
            CellSpec(kind="general", benchmark="astar", window=(2, 2),
                     n_refs=1500, seed=1),
            CellSpec(kind="general", benchmark="astar", window=(0, 0),
                     n_refs=1500, seed=1),
            CellSpec(kind="general", benchmark="astar",
                     scheme="tagged_prefetch", window=(0, 0),
                     n_refs=1500, seed=1),
        ]
        batch = CellBatch("b0", "general", tuple(specs))
        results, metas, batch_meta = run_batch(batch)
        assert [m["batch_amortized_decode"] for m in metas] == \
            [True, False, True, False]
        assert batch_meta["decode_reuses"] == 1
        assert results == [run_object_model(spec) for spec in specs]


class TestBatchFaults:
    def test_inline_raise_splits_without_charging_attempts(
            self, nocache, state_dir, tmp_path):
        specs = [BatchSquareSpec(1),
                 FaultyBatchSpec("flaky", state_dir, "raise", times=1),
                 BatchSquareSpec(2)]
        log = str(tmp_path / "telemetry.jsonl")
        results = run_cells(specs, jobs=1, retries=0, result_cache=nocache,
                            telemetry=log)
        # The batch attempt consumed the injected failure; after the
        # split each cell completes first try, with retries=0 to prove
        # the split charged nobody an attempt.
        assert results == [1, ("ok", "flaky"), 4]
        stats = last_run_stats()
        assert stats["retries"] == 0
        events = read_events(log)
        split = [e for e in events if e["event"] == "batch_split"]
        assert len(split) == 1
        assert split[0]["reason"] == "error"
        assert split[0]["cells"] == [0, 1, 2]
        assert "injected failure" in split[0]["error"]

    def test_split_then_per_cell_retry_telemetry(self, nocache, state_dir,
                                                 tmp_path):
        specs = [BatchSquareSpec(1),
                 FaultyBatchSpec("flaky", state_dir, "raise", times=2),
                 BatchSquareSpec(2)]
        log = str(tmp_path / "telemetry.jsonl")
        results = run_cells(specs, jobs=1, retries=2, result_cache=nocache,
                            telemetry=log)
        assert results == [1, ("ok", "flaky"), 4]
        stats = last_run_stats()
        assert stats["retries"] == 1          # one *per-cell* retry
        events = read_events(log)
        assert any(e["event"] == "batch_split" for e in events)
        retry = [e for e in events if e["event"] == "cell_retry"]
        assert len(retry) == 1 and retry[0]["index"] == 1
        assert _attempts(state_dir, "flaky") == 3   # batch + 2 per-cell

    def test_pooled_raise_splits_and_completes(self, nocache, state_dir,
                                               tmp_path):
        specs = [FaultyBatchSpec("boom", state_dir, "raise", times=1)]
        specs += [BatchSquareSpec(i) for i in range(1, 4)]
        log = str(tmp_path / "telemetry.jsonl")
        results = run_cells(specs, jobs=2, retries=2, result_cache=nocache,
                            telemetry=log)
        assert results == [("ok", "boom"), 1, 4, 9]
        assert any(e["event"] == "batch_split"
                   for e in read_events(log))

    def test_hung_batch_times_out_splits_and_completes(
            self, nocache, state_dir, tmp_path):
        specs = [FaultyBatchSpec("sleeper", state_dir, "hang", times=1),
                 BatchSquareSpec(1), BatchSquareSpec(2)]
        log = str(tmp_path / "telemetry.jsonl")
        results = run_cells(specs, jobs=2, timeout=0.5, retries=2,
                            result_cache=nocache, telemetry=log)
        assert results == [("ok", "sleeper"), 1, 4]
        stats = last_run_stats()
        assert stats["timeouts"] >= 1
        assert stats["pool_restarts"] >= 1
        events = read_events(log)
        timeout_events = [e for e in events if e["event"] == "batch_timeout"]
        assert timeout_events
        assert 0 in timeout_events[0]["cells"]    # the hung cell's batch
        assert any(e["event"] == "batch_split" for e in events)

    def test_killed_worker_splits_batch_and_completes(
            self, nocache, state_dir, tmp_path):
        specs = [FaultyBatchSpec("killer", state_dir, "kill", times=1),
                 BatchSquareSpec(1), BatchSquareSpec(2)]
        log = str(tmp_path / "telemetry.jsonl")
        results = run_cells(specs, jobs=2, retries=2, result_cache=nocache,
                            telemetry=log)
        assert results == [("ok", "killer"), 1, 4]
        assert last_run_stats()["pool_restarts"] >= 1
        events = read_events(log)
        split = [e for e in events if e["event"] == "batch_split"]
        assert split and split[0]["reason"] == "broken_pool"

    def test_checkpoint_resume_mid_batch(self, tmp_path, state_dir):
        cache = ResultCache(disk_dir=str(tmp_path / "results"))
        specs = [CacheableBatchSquareSpec(i, state_dir) for i in range(3)]
        specs.append(FaultyBatchSpec("fatal", state_dir, "raise", times=99,
                                     group="other"))
        with pytest.raises(RuntimeError, match="injected failure"):
            run_cells(specs, jobs=1, retries=0, result_cache=cache)
        # The finished batch's cells were checkpointed one by one.
        results = run_cells(specs[:3], jobs=1, retries=0, result_cache=cache)
        assert results == [0, 1, 4]
        assert last_run_stats()["result_cache_hits"] == 3
        assert all(_attempts(state_dir, f"square-{i}") == 1
                   for i in range(3))
