"""Lane-kernel identity tests: lanes == the object model, bit for bit.

The lane kernel (:mod:`repro.cpu.lanes`) advances every lowered cell
of a batch group over one shared decoded trace.  Its only permitted
observable difference from the object model is speed, so every test
here compares :func:`run_lane_cells` / :func:`run_lanes_general`
against the object model (:func:`run_object_model`, which runs a cell
with lowering declined, or ``run_general_workload`` on a hand-built
trace) across schemes, windows, warm state, seeds and lane counts.
``run_cell`` itself is no reference: it runs a lowerable cell on the
kernel.  Crypto cells (Figures 6 and 7) carry the PLcache preload's
state and lock bits and the disable-cache bypass into their lanes.
The compiled kernel is the only lane backend, so these tests skip on a
host that cannot build it; there every cell runs on the object model,
which ``tests/runner/test_lanes.py`` pins.

A random-fill lane draws from its cell's own RNG at each demand miss,
so a run advances the lowered cell's RNG: every run below lowers its
cells afresh, and :class:`TestInKernelDraws` pins the RNG state the
kernel — and the object model — leaves behind.
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

import repro.cpu.timing as timing_mod
import repro.schemes.builtin as builtin_schemes
from repro.cache.set_associative import SetAssociativeCache
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
from repro.workloads.cache import cached_workload
from tests.object_model import run_object_model

#: pow2 windows the kernels cover, plus demand fetch; the (2, 2)
#: window is non-power-of-two and must fail lowering (fallback path)
POW2_WINDOWS = ((0, 0), (0, 7), (4, 3), (16, 15), (8, 7))

needs_kernel = pytest.mark.skipif(not native_available(),
                                  reason="no compiled lane kernel")

#: Figure 6 L1 geometries: {8, 16, 32} KB x {1, 2, 4} ways
FIG6_GEOMETRIES = [(size * 1024, assoc) for size in (8, 16, 32)
                   for assoc in (1, 2, 4)]

#: object-model reference results, shared between tests
_PER_CELL: dict = {}


def _per_cell(spec):
    if spec not in _PER_CELL:
        _PER_CELL[spec] = run_object_model(spec)
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
        # results, each equal to its object-model run — lanes share
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
        # (the object model, inside the batch), while its pow2 siblings
        # lane and agree with their object-model runs.
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
    """Figure 6/7 crypto lanes == the object model, bit for bit."""

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
    zero-argument call of the object model) while recording the RNG
    its scheme build makes: ``[(result, rng after, rng before)]``, the
    object-model run last."""
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
    """Every run equals the object-model one and left its RNG exactly
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
    miss: the lanes and the object model agree bit for bit, and each
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
                                          lambda: run_object_model(spec)))

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
                                          lambda: run_object_model(spec)))

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
                lowered.l1_num_sets, lowered.l1_assoc, shared.warm_lines,
                shared.l2_num_sets, shared.l2_assoc, lowered.l2_hit_latency,
                128, lowered.fill_reserve, lowered.fill_queue_capacity,
                lowered.hit_cost, lowered.mlp, lowered.credit,
                [lowered.lane_cell()], lowered.dram)
        assert lowered.rng.word_state() == before


def _kernel_warm_image(warm_lines, num_sets, assoc):
    """The warm L2 the kernel builds from ``warm_lines``, one list of
    lines per set, MRU first.  A call with no lanes only warms, and the
    image is left in its template buffer."""
    warm = np.asarray(warm_lines, dtype=np.int64)
    template = np.empty(num_sets * assoc, dtype=np.int64)
    unused = np.zeros(1, dtype=np.int64)
    ptr = lanes_mod._as_ptr
    # n_records, lines, steps, n_lanes, lane_info, l2_template, state,
    # n_warm, warm, then the 17 scalars (L1 / L2 geometry, MSHR and
    # fill-queue sizes, costs, DRAM timing) and out
    rc = lanes_mod._native()(
        0, ptr(unused), ptr(unused), 0, ptr(unused), ptr(template),
        ptr(unused), len(warm), ptr(warm), 1, 1, num_sets, assoc,
        *[1] * 13, ptr(unused))
    assert rc == 0
    return [[line for line in template[s * assoc:(s + 1) * assoc]
             if line != -1]
            for s in range(num_sets)]


def _reference_warm_image(warm_lines, num_sets, assoc):
    """``run_general_workload``'s L2 warm-up: access-or-fill over the
    prefix's ``warm_footprint`` on a SetAssociativeCache with LRU."""
    line_size = BASELINE_CONFIG.line_size
    prefix = Trace(np.asarray(warm_lines, dtype=np.int64) * line_size,
                   np.ones(len(warm_lines), dtype=np.int64),
                   np.zeros(len(warm_lines), dtype=np.int64))
    store = SetAssociativeCache(num_sets * assoc * line_size, assoc,
                                line_size=line_size)
    footprint = prefix.decoded(line_size.bit_length() - 1) \
        .warm_footprint(len(prefix))
    for line in footprint:
        if not store.access(line):
            store.fill(line)
    return [[state.line_addr for state in ways] for ways in store._sets]


#: (sets, ways) of the warm-image tests; the last is Figure 10's L2
WARM_GEOMETRIES = ((1, 1), (1, 4), (2, 2), (8, 4), (4096, 8))


@needs_kernel
class TestWarmImage:
    """The kernel's warm L2 equals the object model's after
    ``run_general_workload``'s warm-up, way for way in LRU order."""

    @settings(max_examples=60, deadline=None)
    @given(geometry=st.sampled_from(WARM_GEOMETRIES),
           accesses=st.lists(st.tuples(st.integers(0, 3),
                                       st.integers(0, 11),
                                       st.integers(1, 3)),
                             max_size=200))
    def test_matches_set_associative_lru(self, geometry, accesses):
        # (set, tag, repeats): up to twelve tags over four sets, so a set
        # sees more lines than it has ways; tag 0 of set 0 is line 0, and
        # each access repeats up to three times in a row
        num_sets, assoc = geometry
        warm = [tag * num_sets + s for s, tag, repeats in accesses
                for _ in range(repeats)]
        assert _kernel_warm_image(warm, num_sets, assoc) == \
            _reference_warm_image(warm, num_sets, assoc)

    @pytest.mark.parametrize("num_sets,assoc", WARM_GEOMETRIES)
    def test_empty_prefix_is_an_empty_l2(self, num_sets, assoc):
        assert _kernel_warm_image([], num_sets, assoc) == \
            [[] for _ in range(num_sets)]

    def test_figure10_prefix(self):
        # A group's own warm-up prefix in Figure 10's L2; milc's sets
        # hold up to four lines, so their LRU order is compared too.
        spec = CellSpec(kind="general", benchmark="milc",
                        scheme="random_fill", window=(4, 3), n_refs=100_000,
                        seed=3, warm=True)
        group = group_state_for(spec)
        num_sets, assoc = group.l2_num_sets, group.l2_assoc
        assert (num_sets, assoc) == (4096, 8)
        warm = group.warm_lines.tolist()
        assert len(warm) == 50_000
        image = _kernel_warm_image(warm, num_sets, assoc)
        assert image == _reference_warm_image(warm, num_sets, assoc)
        assert max(len(ways) for ways in image) > 1


def _charge_trace(x):
    """Line ``x`` demand-misses and retires, it and ``y = x + 1`` are
    evicted from the L1 (4 ways, 128 sets) by four lines each, then
    ``y`` misses again — an L2 hit whose window-(1, 0) fill is ``x`` or
    ``y`` — and ``x`` is read twice at once."""
    long_gap = 4000                     # 1000 cycles: every miss retires
    y = x + 1
    records = [(x, 1), (y, long_gap)]
    records += [(line + 128 * k, long_gap) for k in range(1, 5)
                for line in (x, y)]
    records += [(y, long_gap), (x, 0), (x, 0)]
    return _small_trace(records)


@needs_kernel
class TestMshrCharges:
    """The kernel keeps each MLP charge on its MSHR entry; the object
    model keeps a ``charged`` dict pruned at
    ``CHARGED_PRUNE_THRESHOLD`` entries.  Both charge alike."""

    @pytest.mark.parametrize("spec", [
        CellSpec(kind="general", benchmark=benchmark, scheme=scheme,
                 window=window, n_refs=3000, seed=2, warm=warm)
        for benchmark, scheme, window, warm in (
            ("astar", "random_fill", (4, 3), True),
            ("lbm", "random_fill", (16, 15), False),
            ("lbm", "baseline", (0, 0), True),
        )
    ] + _crypto_specs(8 * 1024, 2, seed=1),
        ids=lambda spec: f"{spec.scheme}-{spec.benchmark or 'aes'}")
    def test_matches_per_cell_pruned_at_16(self, monkeypatch, spec):
        # No tier-1 trace reaches the 8,192-entry prune.  At 16 the
        # object model's dict is pruned every few misses, the kernel
        # keeps no dict at all, and the results agree.
        shared = group_state_for(spec)
        (laned,) = run_lane_cells(shared, [lower_cell(spec, shared.config)])
        prunes = []
        prune = timing_mod.prune_charged
        monkeypatch.setattr(timing_mod, "CHARGED_PRUNE_THRESHOLD", 16)
        monkeypatch.setattr(timing_mod, "prune_charged",
                            lambda *args: prunes.append(1) or prune(*args))
        assert laned == run_object_model(spec)
        assert prunes

    def test_a_line_back_in_the_mshr_pays_its_first_merge(self):
        x = 1000
        trace = _charge_trace(x)
        hit_cost = BASELINE_CONFIG.l1_hit_latency
        scenarios = 0
        for seed in range(16):
            spec = CellSpec(kind="general", benchmark="astar",
                            scheme="random_fill", window=(1, 0),
                            n_refs=len(trace), seed=seed, warm=False)
            runs = []
            for prefix in (trace[:-2], trace[:-1], trace):
                group = GeneralGroupState(prefix, spec.config, warm=False)
                (laned,) = run_lane_cells(
                    group, [lower_cell(spec, group.config)])
                assert laned == run_general_workload(
                    "astar", (1, 0), spec.config, seed=seed, trace=prefix,
                    warm=False)
                runs.append(laned)
            before, first, second = runs
            if not (first.l1_hits == before.l1_hits
                    and first.l1_demand_misses == before.l1_demand_misses):
                continue            # x was resident or missed: no merge
            # Both reads of x merged into the random fill of x that y's
            # miss issued.  x was charged when it first missed, but that
            # charge belongs to an entry that has retired: the first
            # merge pays more than a hit, the second only a hit.
            scenarios += 1
            assert second.l1_demand_misses == first.l1_demand_misses
            assert second.l1_hits == first.l1_hits
            assert first.cycles - before.cycles > hit_cost
            assert second.cycles - first.cycles == hit_cost
        assert scenarios >= 2


def _fresh_cache(monkeypatch, directory):
    """Point the artifact cache at an empty directory and forget the
    loaded kernel.  A fresh path matters: a library the process has
    already mapped must never be overwritten in place."""
    monkeypatch.setenv("REPRO_LANES_CACHE", str(directory / "lanes"))
    monkeypatch.setattr(lanes_mod, "_native_fn", None)
    monkeypatch.setattr(lanes_mod, "_native_tried", False)
    monkeypatch.setattr(lanes_mod, "_native_error", None)


class TestGroupState:
    """A group's measured line column is a view of the full trace's
    decode, not a second decode of the measured half."""

    @pytest.mark.parametrize("program", ["astar", "lbm"])
    @pytest.mark.parametrize("warm", [True, False])
    def test_line_column_is_a_view_of_the_full_decode(self, program, warm):
        trace = cached_workload(program, n_refs=4000, seed=3)
        group = GeneralGroupState(trace, BASELINE_CONFIG, warm)
        shift = BASELINE_CONFIG.line_size.bit_length() - 1
        full = trace.decoded(shift).lines()
        split = len(trace) // 2 if warm else 0
        assert np.shares_memory(group.line_array, full)
        assert np.array_equal(group.line_array,
                              trace[split:].decoded(shift).lines())
        assert np.array_equal(group.warm_lines, full[:split])
        assert group.lines == group.line_array.tolist()


@needs_kernel
class TestNativeArtifact:
    """A bad cached library is never called: no cell lowers, so every
    cell takes the object model, and the reason is reported once."""

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


@needs_kernel
class TestRunCell:
    """``run_cell`` runs a lowerable cell as one width-1 kernel call,
    equal to the object model; under a checker it runs the object model
    with the oracle instead."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        original = lanes_mod.run_lanes_general

        def spy(*args, **kwargs):
            calls.append(len(kwargs["cells"]))
            return original(*args, **kwargs)

        monkeypatch.setattr("repro.cpu.batch.run_lanes_general", spy)
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        return calls

    @pytest.mark.parametrize("spec", [
        CellSpec(kind="general", benchmark="astar", scheme="random_fill",
                 window=(4, 3), n_refs=1500, seed=3),
        CellSpec(kind="general", benchmark="lbm", scheme="baseline",
                 window=(0, 0), n_refs=1500, seed=1, warm=False),
    ] + _crypto_specs(16 * 1024, 2, seed=4),
        ids=lambda spec: f"{spec.scheme}-{spec.benchmark or 'aes'}")
    def test_one_width_one_call(self, kernel_calls, spec):
        result = run_cell(spec)
        assert kernel_calls == [1]
        assert result == run_object_model(spec)
        assert kernel_calls == [1]

    def test_checked_cell_runs_the_object_model(self, kernel_calls,
                                                monkeypatch):
        from repro.check import check_totals

        spec = CellSpec(kind="general", benchmark="astar",
                        scheme="random_fill", window=(4, 3), n_refs=1500,
                        seed=3)
        before = check_totals()["checks_run"]
        monkeypatch.setenv("REPRO_CHECK", "256")
        checked = run_cell(spec)
        assert kernel_calls == []
        assert check_totals()["checks_run"] > before
        monkeypatch.delenv("REPRO_CHECK")
        assert run_cell(spec) == checked
        assert kernel_calls == [1]


class TestLaneKnobs:
    def test_empty_lane_list_is_empty(self):
        shared, _, _ = _group("astar", ((0, 0),), warm=False, seed=0)
        assert run_lane_cells(shared, []) == []
