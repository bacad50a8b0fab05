"""Lane execution through the runner: knobs, planner, telemetry, faults.

Lane execution must be invisible except in speed: grids run with any
lane width (including 0: no batches, every cell through ``run_cell``,
and 1: a width-1 kernel call per lowered cell) produce identical
results, checked mode bypasses lane planning entirely, and a lane
batch that hangs splits back into the ordinary per-cell retry
machinery exactly like any other batch.

The compiled kernel is the only lane backend.  Tests that need it skip
on a host that cannot build it; the fallback tests run either way:
without the kernel, or for a cell it cannot run, a lane-kind cell takes
the per-cell path.
"""

import dataclasses
import os
import time

import pytest

from repro.cpu import lanes as lanes_mod
from repro.cpu.batch import group_state_for, lane_eligible, lower_cell, run_lane_cells
from repro.experiments.config import BASELINE_CONFIG
from repro.experiments.perf_crypto import FIGURE6_SCHEMES

from repro.runner.batch import (
    DEFAULT_LANES,
    MAX_BATCH,
    BatchItem,
    CellBatch,
    plan_batches,
    resolve_lanes,
    run_batch,
)
from repro.runner.cells import CellSpec, run_cell
from repro.runner.pool import last_run_stats, run_cells
from repro.runner.result_cache import ResultCache
from repro.runner.telemetry import read_events

needs_kernel = pytest.mark.skipif(not lanes_mod.native_available(),
                                  reason="no compiled lane kernel")


def _crypto_specs(geometries=((8 * 1024, 1),), seed=0, message_kb=1,
                  schemes=FIGURE6_SCHEMES):
    """Figure 6 cells: every scheme at each (size, assoc) geometry."""
    return [CellSpec(kind="crypto", scheme=scheme,
                     window=(16, 15) if scheme == "random_fill" else None,
                     message_kb=message_kb, seed=seed,
                     config=BASELINE_CONFIG.with_l1d(size, assoc))
            for size, assoc in geometries for scheme in schemes]


def _general_specs(n=4, benchmark="astar", n_refs=1500, seed=0):
    windows = ((0, 0), (0, 7), (4, 3), (16, 15), (8, 7), (0, 3))
    return [CellSpec(kind="general", benchmark=benchmark,
                     window=windows[i % len(windows)], n_refs=n_refs,
                     seed=seed)
            for i in range(n)]


class HangingLaneMember:
    """Duck-typed member of a *general* batch group that hangs once.

    It copies a real cell's ``batch_group_key()`` so the planner puts
    it into the same lane batch, but it is not a ``CellSpec`` — the
    lowering step rejects it, so inside the batch it takes the
    per-cell fallback, where its first ``run()`` sleeps for a minute.
    Attempts are counted through marker files so the count spans the
    batch attempt and the per-cell retries after the split.
    """

    config = None  # lower_cell compares this against the group config

    def __init__(self, template, state_dir, tag="sleeper"):
        self.group_key = template.batch_group_key()
        self.state_dir = state_dir
        self.tag = tag

    def __repr__(self):
        return f"HangingLaneMember({self.tag!r})"

    def batch_group_key(self):
        return self.group_key

    def run(self):
        n = 0
        while True:
            try:
                open(os.path.join(self.state_dir, f"{self.tag}.{n}"),
                     "x").close()
                break
            except FileExistsError:
                n += 1
        if n == 0:
            time.sleep(60)
        return ("ok", self.tag)


@pytest.fixture(autouse=True)
def _no_ambient_check(monkeypatch):
    # These tests pin lane behaviour, which checked mode disables by
    # design; an ambient REPRO_CHECK (e.g. a whole-suite checked run)
    # would mask it.  The checked-mode tests below set the variable
    # back explicitly after this runs.
    monkeypatch.delenv("REPRO_CHECK", raising=False)


@pytest.fixture
def nocache():
    return ResultCache(disk_dir=None, use_default_disk_dir=False)


@pytest.fixture
def state_dir(tmp_path):
    d = tmp_path / "state"
    d.mkdir()
    return str(d)


class TestResolveLanes:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LANES", raising=False)
        assert resolve_lanes() == DEFAULT_LANES

    def test_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LANES", "8")
        assert resolve_lanes() == 8

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LANES", "8")
        assert resolve_lanes(3) == 3

    def test_zero_and_one_are_widths(self, monkeypatch):
        # 0 turns batching off; 1 batches with one cell per kernel call
        for value in ("0", "1"):
            monkeypatch.setenv("REPRO_LANES", value)
            assert resolve_lanes() == int(value)

    def test_garbage_env_raises_naming_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_LANES", "wide")
        with pytest.raises(ValueError, match="REPRO_LANES"):
            resolve_lanes()

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="lane width"):
            resolve_lanes(-1)


class TestLanePlanner:
    def test_general_groups_chunk_at_lane_width(self):
        specs = _general_specs(n=7)
        items = plan_batches(specs, range(len(specs)), lanes=3)
        # 7 cells -> 3 + 3 + a one-cell batch (a width-1 lane call)
        assert all(isinstance(i, BatchItem) for i in items)
        assert [i.indices for i in items] == [(0, 1, 2), (3, 4, 5), (6,)]
        assert items[-1].batch.kind == "general"

    def test_lane_kind_singletons_stay_batches(self):
        # Below MIN_BATCH a lane-kind chunk is still a batch, whether it
        # is a group's leftover or a jobs-capped chunk of one.
        specs = _general_specs(n=3)
        items = plan_batches(specs, range(3), lanes=2)
        assert [i.indices for i in items] == [(0, 1), (2,)]
        items = plan_batches(specs, range(3), jobs=3, lanes=64)
        assert [i.indices for i in items] == [(0,), (1,), (2,)]
        assert all(i.batch.kind == "general" for i in items)

    def test_width_can_exceed_max_batch(self):
        specs = _general_specs(n=MAX_BATCH + 8)
        items = plan_batches(specs, range(len(specs)),
                             lanes=MAX_BATCH + 8)
        (item,) = items
        assert len(item.indices) == MAX_BATCH + 8

    def test_width_one_keeps_max_batch_cap(self):
        specs = _general_specs(n=MAX_BATCH + 8)
        items = plan_batches(specs, range(len(specs)), lanes=1)
        sizes = [len(i.indices) for i in items if isinstance(i, BatchItem)]
        assert sizes == [MAX_BATCH, 8]

    def test_width_zero_plans_no_batches(self):
        specs = _general_specs(n=MAX_BATCH + 8)
        items = plan_batches(specs, range(len(specs)), lanes=0)
        assert items == list(range(len(specs)))

    def test_crypto_groups_are_per_geometry(self):
        geometries = [(size * 1024, assoc) for size in (8, 16, 32)
                      for assoc in (1, 2, 4)]
        specs = _crypto_specs(geometries)
        items = plan_batches(specs, range(len(specs)), lanes=64)
        assert [i.batch.kind for i in items] == ["crypto"] * 9
        assert [i.indices for i in items] == [
            tuple(range(g * 4, g * 4 + 4)) for g in range(9)]
        # Chunked at the lane width like general groups: 4 -> 3 + 1.
        items = plan_batches(specs[:4], range(4), lanes=3)
        assert [i.indices for i in items] == [(0, 1, 2), (3,)]
        assert items[-1].batch.kind == "crypto"

    def test_non_general_kinds_keep_scalar_cap(self):
        class SquareSpec:
            def __init__(self, value):
                self.value = value

            def batch_group_key(self):
                return ("square", "g")

            def run(self):
                return self.value ** 2

        specs = [SquareSpec(i) for i in range(MAX_BATCH + 4)]
        items = plan_batches(specs, range(len(specs)), lanes=256)
        sizes = [len(i.indices) for i in items if isinstance(i, BatchItem)]
        assert sizes == [MAX_BATCH, 4]


class TestLaneRuns:
    @needs_kernel
    def test_widths_are_bit_identical(self, nocache, monkeypatch):
        specs = _general_specs(n=6)
        runs = {}
        for width in (0, 1, 2, 3, 64):
            monkeypatch.setenv("REPRO_LANES", str(width))
            runs[width] = run_cells(specs, jobs=1, result_cache=nocache)
            stats = last_run_stats()
            if width:
                assert stats["vectorized_cells"] == 6
                assert stats["lane_width"] == width
            else:
                assert stats["batches"] == 0
                assert stats["vectorized_cells"] == 0
        assert all(r == runs[0] for r in runs.values())

    @needs_kernel
    def test_batch_finish_carries_lane_fields(self, nocache, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_LANES", "64")
        log = str(tmp_path / "telemetry.jsonl")
        run_cells(_general_specs(n=4), jobs=1, result_cache=nocache,
                  telemetry=log)
        (finish,) = [e for e in read_events(log)
                     if e["event"] == "batch_finish"]
        assert finish["lane_width"] == 64
        assert finish["vectorized_cells"] == 4
        assert finish["scalar_fallback_cells"] == 0

    @needs_kernel
    def test_mixed_eligibility_batch(self, monkeypatch):
        # (2, 2) is not a power of two and the policy scheme never
        # lowers: both run through run_cell inside the lane batch, and
        # every result matches its per-cell run.
        specs = _general_specs(n=3) + [
            CellSpec(kind="general", benchmark="astar", window=(2, 2),
                     n_refs=1500, seed=0),
            CellSpec(kind="general", benchmark="astar",
                     scheme="tagged_prefetch", window=(0, 0),
                     n_refs=1500, seed=0),
        ]
        batch = CellBatch("b0", "general", tuple(specs))
        results, metas, batch_meta = run_batch(batch, lanes=64)
        assert batch_meta["lane_width"] == 64
        assert batch_meta["vectorized_cells"] == 3
        assert batch_meta["scalar_fallback_cells"] == 2
        # Per-cell meta records the actual chunk size for laned members
        # and no lane field for fallbacks.
        assert [m.get("lane_width") for m in metas] == [3, 3, 3, None, None]
        assert results == [run_cell(spec) for spec in specs]

    @needs_kernel
    def test_leftover_cell_of_a_grid_runs_on_a_lane(self, nocache,
                                                    monkeypatch):
        # Five cells at width 2 plan as 2 + 2 + 1: the leftover cell is
        # a one-cell batch on a width-1 lane call, not a per-cell run.
        specs = _general_specs(n=5)
        monkeypatch.setenv("REPRO_LANES", "0")
        per_cell = run_cells(specs, jobs=1, result_cache=nocache)
        monkeypatch.setenv("REPRO_LANES", "2")
        assert run_cells(specs, jobs=1, result_cache=nocache) == per_cell
        stats = last_run_stats()
        assert stats["batches"] == 3
        assert stats["vectorized_cells"] == 5

    @needs_kernel
    def test_remainder_chunk_runs_as_width_one_lane(self):
        # Three lowered cells at width 2: a two-lane call, then the
        # remainder alone in a width-1 call — every cell on the kernel.
        specs = _general_specs(n=3)
        batch = CellBatch("b0", "general", tuple(specs))
        results, metas, batch_meta = run_batch(batch, lanes=2)
        assert batch_meta["vectorized_cells"] == 3
        assert batch_meta["scalar_fallback_cells"] == 0
        assert [m["lane_width"] for m in metas] == [2, 2, 1]
        assert results == [run_cell(spec) for spec in specs]

    def test_batch_without_lowered_cells_builds_no_group_state(
            self, monkeypatch):
        # tagged_prefetch never lowers, so its one-cell batch runs the
        # cell through run_cell and must not pay for the shared trace
        # load, decode and warm-L2 replay first.
        spec = CellSpec(kind="general", benchmark="lbm",
                        scheme="tagged_prefetch", window=(0, 0),
                        n_refs=1500, seed=0)

        def no_group_state(spec):
            raise AssertionError("group state built for a batch "
                                 "with no lowered cell")

        monkeypatch.setattr("repro.cpu.batch.group_state_for",
                            no_group_state)
        batch = CellBatch("b0", "general", (spec,))
        results, metas, batch_meta = run_batch(batch, lanes=64)
        assert batch_meta["vectorized_cells"] == 0
        assert batch_meta["scalar_fallback_cells"] == 1
        assert metas[0].get("lane_width") is None
        assert results == [run_cell(spec)]

    @needs_kernel
    def test_crypto_batch_with_ineligible_member(self):
        # random_fill_newcache never lowers: it falls back to run_cell
        # inside the crypto batch while the Figure 6 schemes lane.
        specs = _crypto_specs(seed=1)
        specs.append(CellSpec(kind="crypto", scheme="random_fill_newcache",
                              window=(8, 7), message_kb=1, seed=1,
                              config=specs[0].config))
        batch = CellBatch("b0", "crypto", tuple(specs))
        results, metas, batch_meta = run_batch(batch, lanes=64)
        assert batch_meta["vectorized_cells"] == 4
        assert batch_meta["scalar_fallback_cells"] == 1
        assert [m.get("lane_width") for m in metas] == [4, 4, 4, 4, None]
        assert results == [run_cell(spec) for spec in specs]

    @needs_kernel
    def test_crypto_widths_are_bit_identical(self, nocache, monkeypatch):
        specs = _crypto_specs(((8 * 1024, 1), (32 * 1024, 4)), seed=2)
        runs = {}
        for width in (0, 1, 2, 64):
            monkeypatch.setenv("REPRO_LANES", str(width))
            runs[width] = run_cells(specs, jobs=1, result_cache=nocache)
            stats = last_run_stats()
            assert stats["batched_cells"] == (8 if width else 0)
            assert stats["vectorized_cells"] == (8 if width else 0)
        assert all(r == runs[0] for r in runs.values())
        assert runs[0] == [run_cell(spec) for spec in specs]

    def test_lanes_fallback_event_once(self, nocache, monkeypatch, tmp_path):
        # A garbage artifact at the kernel's cache path is never called:
        # no cell lowers, so every cell of a grid mixing general and
        # crypto groups runs per cell inside its batch, with the results
        # of a run that plans no batches, and the telemetry names the
        # reason exactly once.
        specs = _general_specs(n=4) + _crypto_specs(
            ((8 * 1024, 1), (16 * 1024, 2)), seed=3)
        monkeypatch.setenv("REPRO_LANES", "0")
        expected = run_cells(specs, jobs=1, result_cache=nocache)
        monkeypatch.setenv("REPRO_LANES", "64")
        monkeypatch.setenv("REPRO_LANES_CACHE", str(tmp_path / "lanes"))
        monkeypatch.setattr(lanes_mod, "_native_fn", None)
        monkeypatch.setattr(lanes_mod, "_native_tried", False)
        monkeypatch.setattr(lanes_mod, "_native_error", None)
        path = lanes_mod.artifact_path()
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        log = str(tmp_path / "telemetry.jsonl")
        assert run_cells(specs, jobs=1, result_cache=nocache, telemetry=log) == expected
        stats = last_run_stats()
        assert stats["batches"] == 3
        assert stats["vectorized_cells"] == 0
        assert stats["scalar_fallback_cells"] == len(specs)
        fallbacks = [e for e in read_events(log) if e["event"] == "lanes_fallback"]
        assert len(fallbacks) == 1
        assert fallbacks[0]["reason"].startswith("load failed")

    def test_check_env_bypasses_lane_planning(self, nocache, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "256")
        specs = _general_specs(n=3)
        checked = run_cells(specs, jobs=1, result_cache=nocache)
        stats = last_run_stats()
        assert stats["batches"] == 0
        assert stats["vectorized_cells"] == 0
        assert stats["checks_run"] > 0
        monkeypatch.delenv("REPRO_CHECK")
        assert checked == run_cells(specs, jobs=1, result_cache=nocache)

    def test_run_batch_checked_guard_skips_lanes(self, monkeypatch):
        # Belt-and-braces: even a batch dispatched under REPRO_CHECK
        # (the parent normally never plans one) runs per-cell.
        monkeypatch.setenv("REPRO_CHECK", "256")
        batch = CellBatch("b0", "general", tuple(_general_specs(n=2)))
        _results, metas, batch_meta = run_batch(batch, lanes=64)
        assert "lane_width" not in batch_meta
        assert all("lane_width" not in m for m in metas)
        assert batch_meta.get("checks_run", 0) > 0


class TestPerCellFallback:
    """A cell the compiled kernel cannot run lowers to ``None`` and runs
    through ``run_cell``; a kernel call that fails raises and leaves the
    per-cell retry to the supervisor."""

    def test_unavailable_kernel_lowers_nothing(self, monkeypatch):
        monkeypatch.setattr(lanes_mod, "_native", lambda: None)
        specs = _general_specs(n=4) + _crypto_specs()
        assert not any(lane_eligible(spec) for spec in specs)

    def test_big_mshr_runs_per_cell(self):
        # The kernel bounds its drain scratch at 64 MSHR entries: a
        # larger file does not lower, and its batch runs it per cell.
        config = dataclasses.replace(BASELINE_CONFIG, mshr_entries=128)
        spec = CellSpec(kind="general", benchmark="astar",
                        scheme="random_fill", window=(4, 3), n_refs=1200,
                        seed=0, warm=False, config=config)
        assert lower_cell(spec, config) is None
        batch = CellBatch("b0", "general", (spec,))
        results, metas, batch_meta = run_batch(batch, lanes=64)
        assert batch_meta["vectorized_cells"] == 0
        assert batch_meta["scalar_fallback_cells"] == 1
        assert results == [run_cell(spec)]

    def test_failed_native_call_raises_and_runs_per_cell(
            self, nocache, monkeypatch, tmp_path):
        # A kernel call that scribbles over its state buffer and then
        # fails raises and hands nothing back; the supervisor splits
        # the batch and finishes its cells one by one.
        def failing(*args):
            args[6][0] = 12345           # state: the first lane's RNG block
            return -1

        specs = _general_specs(n=4)
        monkeypatch.setenv("REPRO_LANES", "0")
        expected = run_cells(specs, jobs=1, result_cache=nocache)
        monkeypatch.setattr(lanes_mod, "_native", lambda: failing)
        shared = group_state_for(specs[2])
        lowered = lower_cell(specs[2], shared.config)
        assert lowered.policy_kind == 2
        before = lowered.rng.word_state()
        with pytest.raises(RuntimeError, match="code -1"):
            run_lane_cells(shared, [lowered])
        assert lowered.rng.word_state() == before
        monkeypatch.setenv("REPRO_LANES", "64")
        log = str(tmp_path / "telemetry.jsonl")
        assert run_cells(specs, jobs=1, result_cache=nocache, telemetry=log) == expected
        assert last_run_stats()["vectorized_cells"] == 0
        (split,) = [e for e in read_events(log) if e["event"] == "batch_split"]
        assert "code -1" in split["error"]


class TestLaneBatchFaults:
    def test_hung_lane_batch_times_out_splits_and_retries_per_cell(
            self, nocache, state_dir, tmp_path):
        specs = _general_specs(n=3)
        specs.append(HangingLaneMember(specs[0], state_dir))
        log = str(tmp_path / "telemetry.jsonl")
        results = run_cells(specs, jobs=2, timeout=1.0, retries=2,
                            result_cache=nocache, telemetry=log)
        # The lane batch hung on the duck-typed member; after the
        # timeout the batch split and every cell — laned members
        # included — completed through the per-cell machinery.
        assert results[:3] == [run_cell(spec) for spec in specs[:3]]
        assert results[3] == ("ok", "sleeper")
        stats = last_run_stats()
        assert stats["timeouts"] >= 1
        assert stats["pool_restarts"] >= 1
        events = read_events(log)
        timeout_events = [e for e in events if e["event"] == "batch_timeout"]
        assert timeout_events and 3 in timeout_events[0]["cells"]
        assert any(e["event"] == "batch_split" for e in events)
        # Marker files prove the hang fired inside the batch attempt
        # and the per-cell retry ran it once more.
        markers = [n for n in os.listdir(state_dir)
                   if n.startswith("sleeper.")]
        assert len(markers) == 2
