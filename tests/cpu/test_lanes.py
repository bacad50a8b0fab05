"""Lane-kernel identity tests: lanes == the per-cell path, bit for bit.

The lane kernel (:mod:`repro.cpu.lanes`) advances every lowered cell
of a batch group over one shared decoded trace.  Its only permitted
observable difference from running each cell on its own is speed, so
every test here compares :func:`run_lane_cells` /
:func:`run_lanes_general` against the per-cell path
(:func:`run_cell`, or ``run_general_workload`` on a hand-built trace)
across schemes, windows, warm state, seeds and lane counts.  Crypto
cells (Figures 6 and 7) carry the PLcache preload's state and lock
bits and the disable-cache bypass into their lanes.  The compiled
kernel is the only lane backend, so these tests skip on a host that
cannot build it; there every cell runs per cell, which
``tests/runner/test_lanes.py`` pins.

A random-fill lane draws from its cell's own RNG at each demand miss,
so a run advances the lowered cell's RNG: every run below lowers its
cells afresh, and :class:`TestInKernelDraws` pins the RNG state each
kernel — and the per-cell path — leaves behind.
"""

import copy
import os
import shutil
import subprocess
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.schemes.builtin as builtin_schemes
from repro.core.window import RandomFillWindow
from repro.cpu import lanes as lanes_mod
from repro.cpu.batch import (
    GeneralGroupState,
    group_state_for,
    lane_eligible,
    lower_cell,
    run_lane_cells,
)
from repro.cpu.lanes import (
    artifact_path,
    native_available,
    run_lanes_general,
)
from repro.cpu.trace import Trace
from repro.experiments.config import BASELINE_CONFIG
from repro.experiments.perf_crypto import FIGURE6_SCHEMES
from repro.experiments.perf_general import run_general_workload
from repro.runner.cells import CellSpec, run_cell
from repro.util.rng import HardwareRng

#: pow2 windows the kernels cover, plus demand fetch; the (2, 2)
#: window is non-power-of-two and must fail lowering (fallback path)
POW2_WINDOWS = ((0, 0), (0, 7), (4, 3), (16, 15), (8, 7))

needs_kernel = pytest.mark.skipif(not native_available(),
                                  reason="no compiled lane kernel")

#: Figure 6 L1 geometries: {8, 16, 32} KB x {1, 2, 4} ways
FIG6_GEOMETRIES = [(size * 1024, assoc) for size in (8, 16, 32)
                   for assoc in (1, 2, 4)]

#: per-cell reference results, shared between tests
_PER_CELL: dict = {}


def _per_cell(spec):
    if spec not in _PER_CELL:
        _PER_CELL[spec] = run_cell(spec)
    return _PER_CELL[spec]


def _crypto_specs(size, assoc, seed, schemes=FIGURE6_SCHEMES,
                  message_kb=1):
    """One Figure 6 geometry's cells (random fill at the [-16, 15] window)."""
    config = BASELINE_CONFIG.with_l1d(size, assoc)
    return [CellSpec(kind="crypto", scheme=scheme,
                     window=(16, 15) if scheme == "random_fill" else None,
                     message_kb=message_kb, seed=seed, config=config)
            for scheme in schemes]


def _crypto_lanes(specs):
    shared = group_state_for(specs[0])
    lowered = [lower_cell(spec, shared.config) for spec in specs]
    assert all(lc is not None for lc in lowered)
    return run_lane_cells(shared, lowered)


def _group(benchmark, windows, warm, seed, n_refs=1200):
    """Build one batch group: shared state, a function that lowers its
    cells afresh (a run advances each lowered cell's RNG), and the
    cell specs in lowering order."""
    specs = [CellSpec(kind="general", benchmark=benchmark,
                      scheme="random_fill", window=window, n_refs=n_refs,
                      seed=seed, warm=warm)
             for window in windows if window != (0, 0)]
    specs += [CellSpec(kind="general", benchmark=benchmark,
                       scheme="baseline", window=(0, 0), n_refs=n_refs,
                       seed=seed, warm=warm)]
    shared = group_state_for(specs[0])
    return (shared,
            lambda: [lower_cell(spec, shared.config) for spec in specs],
            specs)


@needs_kernel
class TestLaneIdentity:
    @settings(max_examples=6, deadline=None)
    @given(windows=st.lists(st.sampled_from(POW2_WINDOWS), min_size=1,
                            max_size=4, unique=True),
           warm=st.booleans(),
           seed=st.integers(min_value=0, max_value=3),
           benchmark=st.sampled_from(("astar", "lbm")))
    def test_matches_per_cell(self, windows, warm, seed, benchmark):
        shared, lower, specs = _group(benchmark, windows, warm, seed)
        lowered = lower()
        assert all(lc is not None for lc in lowered)
        laned = run_lane_cells(shared, lowered)
        assert laned == [_per_cell(spec) for spec in specs]

    @pytest.mark.parametrize("n_lanes", [1, 2, 3, 7])
    def test_lane_count_never_changes_results(self, n_lanes):
        # The same cell lowered N times must produce N identical
        # results, each equal to its per-cell run — lanes share
        # read-only columns but no mutable state.
        shared, lower, specs = _group("astar", ((4, 3),), warm=False,
                                      seed=1)
        laned = run_lane_cells(shared,
                               [lower()[0] for _ in range(n_lanes)])
        assert laned == [_per_cell(specs[0])] * n_lanes

    def test_lanes_cannot_share_an_rng(self):
        shared, lower, _ = _group("astar", ((4, 3),), warm=False, seed=1)
        lowered = lower()[0]
        with pytest.raises(ValueError, match="share an RNG"):
            run_lane_cells(shared, [lowered, lowered])

    def test_mixed_group_fallback_cells_stay_scalar(self):
        # A (2, 2) window is not a power of two: it must fail lowering
        # (run_cell fallback inside the batch), while its pow2 siblings
        # lane and agree with their per-cell runs.
        windows = ((4, 3), (2, 2), (0, 7))
        specs = [CellSpec(kind="general", benchmark="astar",
                          scheme="random_fill", window=window,
                          n_refs=1200, seed=0)
                 for window in windows]
        shared = group_state_for(specs[0])
        lowered = [lower_cell(spec, shared.config) for spec in specs]
        assert [lc is not None for lc in lowered] == [True, False, True]
        eligible = [specs[0], specs[2]]
        laned = run_lane_cells(shared, [lower_cell(spec, shared.config)
                                        for spec in eligible])
        assert laned == [_per_cell(spec) for spec in eligible]


@needs_kernel
class TestCryptoLaneIdentity:
    """Figure 6/7 crypto lanes == per-cell ``run_cell``, bit for bit."""

    @pytest.mark.parametrize("size,assoc", FIG6_GEOMETRIES)
    def test_figure6_geometry_matches_per_cell(self, size, assoc):
        specs = _crypto_specs(size, assoc, seed=0)
        assert _crypto_lanes(specs) == [_per_cell(s) for s in specs]

    @settings(max_examples=4, deadline=None)
    @given(geometry=st.sampled_from(FIG6_GEOMETRIES),
           seed=st.integers(min_value=1, max_value=9),
           schemes=st.lists(st.sampled_from(FIGURE6_SCHEMES), min_size=1,
                            max_size=4, unique=True))
    def test_seeds_and_scheme_mixes(self, geometry, seed, schemes):
        specs = _crypto_specs(*geometry, seed=seed, schemes=schemes)
        assert _crypto_lanes(specs) == [_per_cell(s) for s in specs]

    @pytest.mark.parametrize("size,assoc", [(8 * 1024, 1), (32 * 1024, 4)])
    def test_figure7_windows_match_per_cell(self, size, assoc):
        config = BASELINE_CONFIG.with_l1d(size, assoc)
        windows = [RandomFillWindow.bidirectional(w)
                   for w in (1, 2, 4, 8, 16, 32)]
        specs = [CellSpec(kind="crypto", scheme="random_fill",
                          window=(w.a, w.b), message_kb=1, seed=3,
                          config=config)
                 for w in windows]
        assert _crypto_lanes(specs) == [_per_cell(s) for s in specs]

    @pytest.mark.parametrize("scheme", ("plcache_preload", "disable_cache"))
    def test_hooked_cell_runs_as_width_one_lane(self, scheme):
        (spec,) = _crypto_specs(8 * 1024, 2, seed=1, schemes=(scheme,))
        shared = group_state_for(spec)
        lowered = lower_cell(spec, shared.config)
        assert lowered.l1_image or lowered.bypass    # a lane hook is set
        assert run_lane_cells(shared, [lowered]) == [_per_cell(spec)]


#: power-of-two random-fill windows, most with a > 0: near line 0 their
#: fills fall below it and are dropped (window underflow)
DRAW_WINDOWS = ((0, 7), (1, 0), (4, 3), (8, 7), (16, 15), (31, 0))


def _advanced(rng, draws):
    """A copy of ``rng`` advanced by ``draws`` scalar ``draw()`` calls."""
    twin = copy.deepcopy(rng)
    for _ in range(draws):
        twin.draw()
    return twin


def _every_kernel(spec, group, per_cell):
    """One cell through the lanes, then through ``per_cell`` (a
    zero-argument call of the per-cell path) while recording the RNG
    its scheme build makes: ``[(result, rng after, rng before)]``, the
    per-cell run last."""
    lowered = lower_cell(spec, group.config)
    assert lowered is not None and lowered.policy_kind == 2
    start = copy.deepcopy(lowered.rng)
    (result,) = run_lane_cells(group, [lowered])
    runs = [(result, lowered.rng, start)]
    made = []
    build = builtin_schemes.HardwareRng

    def recording(*args, **kwargs):
        rng = build(*args, **kwargs)
        made.append((rng, copy.deepcopy(rng)))
        return rng

    with mock.patch.object(builtin_schemes, "HardwareRng", recording):
        result = per_cell()
    ((rng, start),) = made
    runs.append((result, rng, start))
    return runs


def _assert_draws_match(runs):
    """Every run equals the per-cell one and left its RNG exactly
    ``l1_demand_misses`` scalar draws further on."""
    reference = runs[-1][0]
    for result, rng, start in runs:
        assert result == reference
        assert rng.word_state() == \
            _advanced(start, result.l1_demand_misses).word_state()


def _small_trace(records):
    """A trace over ``(line, gap)`` records, line addresses near 0."""
    lines, gaps = zip(*records)
    return Trace(np.asarray(lines, dtype=np.int64) * BASELINE_CONFIG.line_size,
                 np.asarray(gaps, dtype=np.int64),
                 np.zeros(len(lines), dtype=np.int64))


def _rng_factory(width, buffer_size, drawn):
    """Stand-in for the scheme builder's ``HardwareRng``: the same seed,
    another width / refill size, ``drawn`` values already popped."""
    def build(seed):
        rng = HardwareRng(seed, width=width, buffer_size=buffer_size)
        for _ in range(drawn):
            rng.draw()
        return rng
    return build


@needs_kernel
class TestInKernelDraws:
    """A random-fill lane draws from its cell's own RNG at each demand
    miss: the lanes and the per-cell path agree bit for bit, and each
    leaves the RNG where ``l1_demand_misses`` scalar ``draw()`` calls
    leave it."""

    @settings(max_examples=25, deadline=None)
    @given(records=st.lists(st.tuples(st.integers(0, 300),
                                      st.integers(0, 5)),
                            min_size=1, max_size=200),
           window=st.sampled_from(DRAW_WINDOWS),
           seed=st.integers(min_value=0, max_value=2**16),
           warm=st.booleans())
    def test_short_traces_near_line_zero(self, records, window, seed, warm):
        trace = _small_trace(records)
        spec = CellSpec(kind="general", benchmark="astar",
                        scheme="random_fill", window=window,
                        n_refs=len(trace), seed=seed, warm=warm)
        group = GeneralGroupState(trace, spec.config, warm)
        runs = _every_kernel(spec, group, lambda: run_general_workload(
            spec.benchmark, window, spec.config, seed=seed, trace=trace,
            warm=warm))
        _assert_draws_match(runs)

    def test_underflow_drops_are_exercised(self):
        # Every line misses once; with a = 31 most fills land below
        # line 0, and both paths must drop exactly those.
        trace = _small_trace([(line, 1) for line in range(24)])
        spec = CellSpec(kind="general", benchmark="astar",
                        scheme="random_fill", window=(31, 0), n_refs=24,
                        seed=5, warm=False)
        group = GeneralGroupState(trace, spec.config, warm=False)
        runs = _every_kernel(spec, group, lambda: run_general_workload(
            "astar", (31, 0), spec.config, seed=5, trace=trace, warm=False))
        _assert_draws_match(runs)
        reference, _rng, start = runs[-1]
        twin = copy.deepcopy(start)
        fills = [line + (twin.draw() & 31) - 31 for line in range(24)]
        assert reference.l1_demand_misses == 24
        assert sum(fill < 0 for fill in fills) > 12

    @settings(max_examples=6, deadline=None)
    @given(window=st.sampled_from(DRAW_WINDOWS),
           seed=st.integers(min_value=0, max_value=50),
           benchmark=st.sampled_from(("astar", "lbm")),
           warm=st.booleans())
    def test_workload_cells_match_run_cell(self, window, seed, benchmark,
                                           warm):
        spec = CellSpec(kind="general", benchmark=benchmark,
                        scheme="random_fill", window=window, n_refs=1200,
                        seed=seed, warm=warm)
        group = group_state_for(spec)
        _assert_draws_match(_every_kernel(spec, group,
                                          lambda: run_cell(spec)))

    @pytest.mark.parametrize("width,buffer_size,drawn", [
        (8, 256, 37),        # buffer non-empty at lowering
        (8, 256, 255),       # one value left, then a refill
        (1, 7, 3),
        (1, 256, 0),
        (8, 1, 0),
        (32, 1, 0),
        (32, 7, 5),
        (32, 256, 100),
    ])
    def test_starting_states(self, monkeypatch, width, buffer_size, drawn):
        monkeypatch.setattr("repro.schemes.builtin.HardwareRng",
                            _rng_factory(width, buffer_size, drawn))
        # ~340 demand misses: every buffer below runs dry and refills
        spec = CellSpec(kind="general", benchmark="astar",
                        scheme="random_fill", window=(8, 7), n_refs=1500,
                        seed=4, warm=True)
        group = group_state_for(spec)
        lowered = lower_cell(spec, group.config)
        assert (lowered.rng.width, lowered.rng.buffer_size) == \
            (width, buffer_size)
        assert len(lowered.rng.word_state()[2]) == \
            (buffer_size - drawn if drawn else 0)
        _assert_draws_match(_every_kernel(spec, group,
                                          lambda: run_cell(spec)))

    def test_wider_than_one_word_runs_per_cell(self, monkeypatch):
        monkeypatch.setattr("repro.schemes.builtin.HardwareRng",
                            _rng_factory(33, 256, 0))
        spec = CellSpec(kind="general", benchmark="astar",
                        scheme="random_fill", window=(4, 3), n_refs=1200,
                        seed=1)
        assert lower_cell(spec, spec.config) is None
        assert not lane_eligible(spec)
        assert run_cell(spec).l1_demand_misses > 0

    def test_rng_wider_than_one_word_is_rejected(self):
        shared, lower, _ = _group("astar", ((4, 3),), warm=False, seed=1)
        lowered = lower()[0]
        lowered.rng = HardwareRng(1, width=33)
        with pytest.raises(ValueError, match="width"):
            run_lane_cells(shared, [lowered])

    def test_native_call_that_cannot_run_leaves_rng_untouched(self):
        # mq_capacity above the kernel's drain scratch bound: the C
        # entry refuses (-2), the call raises and no RNG may move.
        shared, lower, _ = _group("astar", ((4, 3),), warm=False, seed=0)
        lowered = lower()[0]
        before = lowered.rng.word_state()
        with pytest.raises(RuntimeError, match="code -2"):
            run_lanes_general(
                shared.line_array, shared.step_array, shared.instructions,
                lowered.l1_num_sets, lowered.l1_assoc, shared.l2_sets_view(),
                shared.l2_num_sets, shared.l2_assoc, lowered.l2_hit_latency,
                128, lowered.fill_reserve, lowered.fill_queue_capacity,
                lowered.hit_cost, lowered.mlp, lowered.credit,
                [lowered.lane_cell()], lowered.dram)
        assert lowered.rng.word_state() == before


def _fresh_cache(monkeypatch, directory):
    """Point the artifact cache at an empty directory and forget the
    loaded kernel.  A fresh path matters: a library the process has
    already mapped must never be overwritten in place."""
    monkeypatch.setenv("REPRO_LANES_CACHE", str(directory / "lanes"))
    monkeypatch.setattr(lanes_mod, "_native_fn", None)
    monkeypatch.setattr(lanes_mod, "_native_tried", False)
    monkeypatch.setattr(lanes_mod, "_native_error", None)


@needs_kernel
class TestNativeArtifact:
    """A bad cached library is never called: no cell lowers, so every
    cell takes the per-cell path, and the reason is reported once."""

    def _poisoned_run(self, monkeypatch, tmp_path, write):
        specs = _crypto_specs(8 * 1024, 1, seed=2)
        assert all(lane_eligible(spec) for spec in specs)
        _fresh_cache(monkeypatch, tmp_path)
        path = artifact_path()
        os.makedirs(os.path.dirname(path))
        write(path)
        assert not any(lane_eligible(spec) for spec in specs)
        reason = lanes_mod.take_native_fallback()
        assert lanes_mod.take_native_fallback() is None    # reported once
        return reason

    def test_garbage_artifact_falls_back(self, monkeypatch, tmp_path):
        def garbage(path):
            with open(path, "wb") as fh:
                fh.write(b"\x7fELF not really a shared object")

        reason = self._poisoned_run(monkeypatch, tmp_path, garbage)
        assert reason.startswith("load failed")

    def test_unstamped_library_is_never_called(self, monkeypatch, tmp_path):
        # Loadable and exporting the entry point, but without the ABI
        # stamp: calling it would "succeed" and return zeroed results.
        source = tmp_path / "old_kernel.c"
        source.write_text("int run_lanes(void) { return 0; }\n")
        compiler = shutil.which("cc") or shutil.which("gcc")

        def unstamped(path):
            subprocess.run([compiler, "-shared", "-fPIC", "-o", path,
                            str(source)], check=True)

        reason = self._poisoned_run(monkeypatch, tmp_path, unstamped)
        assert reason == f"ABI stamp None, expected {lanes_mod.LANES_ABI}"

    def test_fresh_build_is_stamped(self, monkeypatch, tmp_path):
        _fresh_cache(monkeypatch, tmp_path)
        assert native_available()
        assert lanes_mod.take_native_fallback() is None


class TestLaneKnobs:
    def test_empty_lane_list_is_empty(self):
        shared, _, _ = _group("astar", ((0, 0),), warm=False, seed=0)
        assert run_lane_cells(shared, []) == []
