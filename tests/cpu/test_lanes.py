"""Lane-kernel identity tests: lanes == scalar flat kernel, bit for bit.

The lane kernel (:mod:`repro.cpu.lanes`) advances every eligible cell
of a batch group over one shared decoded trace.  Its only permitted
observable difference from the scalar flat kernel is speed, so every
test here compares :func:`run_lane_cells` /
:func:`run_lanes_general` against per-cell
:func:`run_lowered_cell` (``run_flat_general``) across schemes,
windows, warm state, seeds and lane counts — on both the native C
backend and the pure-Python fallback.  Crypto cells (Figures 6 and 7)
compare against the per-cell object-model path (:func:`run_cell`):
their lanes carry the PLcache preload's state and lock bits and the
disable-cache bypass, which the flat kernel does not model.
"""

import os
import shutil
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import RandomFillWindow
from repro.cpu import lanes as lanes_mod
from repro.cpu.batch import (
    group_state_for,
    lower_cell,
    run_lane_cells,
    run_lowered_cell,
)
from repro.cpu.lanes import (
    artifact_path,
    native_available,
    run_lanes_general,
)
from repro.experiments.config import BASELINE_CONFIG
from repro.experiments.perf_crypto import FIGURE6_SCHEMES
from repro.runner.cells import CellSpec, run_cell

#: pow2 windows the kernels cover, plus demand fetch; the (2, 2)
#: window is non-power-of-two and must fail lowering (fallback path)
POW2_WINDOWS = ((0, 0), (0, 7), (4, 3), (16, 15), (8, 7))

BACKENDS = ["python"] + (["native"] if native_available() else [])

#: Figure 6 L1 geometries: {8, 16, 32} KB x {1, 2, 4} ways
FIG6_GEOMETRIES = [(size * 1024, assoc) for size in (8, 16, 32)
                   for assoc in (1, 2, 4)]

#: per-cell reference results, shared between backends and tests
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


def _crypto_lanes(specs, backend):
    shared = group_state_for(specs[0])
    lowered = [lower_cell(spec, shared) for spec in specs]
    assert all(lc is not None for lc in lowered)
    return _run_lanes(shared, lowered, backend)


def _group(benchmark, windows, warm, seed, n_refs=1200):
    """Build one batch group: shared state + lowered eligible cells."""
    specs = [CellSpec(kind="general", benchmark=benchmark,
                      scheme="random_fill", window=window, n_refs=n_refs,
                      seed=seed, warm=warm)
             for window in windows if window != (0, 0)]
    specs += [CellSpec(kind="general", benchmark=benchmark,
                       scheme="baseline", window=(0, 0), n_refs=n_refs,
                       seed=seed, warm=warm)]
    shared = group_state_for(specs[0])
    lowered = [lower_cell(spec, shared) for spec in specs]
    return shared, lowered


def _run_lanes(shared, lowered, backend):
    first = lowered[0]
    cells = [lc.lane_cell() for lc in lowered]
    return run_lanes_general(
        shared.lines, shared.steps, shared.instructions,
        l1_num_sets=first.l1_num_sets, l1_assoc=first.l1_assoc,
        l2_sets=shared.l2_sets_view(), l2_num_sets=shared.l2_num_sets,
        l2_assoc=shared.l2_assoc, l2_hit_latency=first.l2_hit_latency,
        mq_capacity=first.mq_capacity, fill_reserve=first.fill_reserve,
        fill_queue_capacity=first.fill_queue_capacity,
        hit_cost=first.hit_cost, mlp=first.mlp, credit=first.credit,
        cells=cells, dram=first.dram, backend=backend)


class TestLaneIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=6, deadline=None)
    @given(windows=st.lists(st.sampled_from(POW2_WINDOWS), min_size=1,
                            max_size=4, unique=True),
           warm=st.booleans(),
           seed=st.integers(min_value=0, max_value=3),
           benchmark=st.sampled_from(("astar", "lbm")))
    def test_matches_scalar_flat_kernel(self, backend, windows, warm,
                                        seed, benchmark):
        shared, lowered = _group(benchmark, windows, warm, seed)
        assert all(lc is not None for lc in lowered)
        scalar = [run_lowered_cell(shared, lc) for lc in lowered]
        laned = _run_lanes(shared, lowered, backend)
        assert laned == scalar
        assert lanes_mod.LAST_STATS["backend"] == backend
        assert lanes_mod.LAST_STATS["lanes"] == len(lowered)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_lanes", [1, 2, 3, 7])
    def test_lane_count_never_changes_results(self, backend, n_lanes):
        # The same cell replicated N times must produce N identical
        # results, each equal to its scalar run — lanes share read-only
        # columns but no mutable state.
        shared, lowered = _group("astar", ((4, 3),), warm=False, seed=1)
        scalar = run_lowered_cell(shared, lowered[0])
        laned = _run_lanes(shared, lowered[:1] * n_lanes, backend)
        assert laned == [scalar] * n_lanes

    @pytest.mark.skipif(len(BACKENDS) < 2, reason="no C compiler on host")
    def test_backends_agree(self):
        shared, lowered = _group("lbm", POW2_WINDOWS, warm=True, seed=2)
        assert _run_lanes(shared, lowered, "python") == \
            _run_lanes(shared, lowered, "native")

    def test_mixed_group_fallback_cells_stay_scalar(self):
        # A (2, 2) window is not a power of two: it must fail lowering
        # (scalar fallback inside the batch), while its pow2 siblings
        # lane — and both paths agree with the per-cell kernel.
        windows = ((4, 3), (2, 2), (0, 7))
        specs = [CellSpec(kind="general", benchmark="astar",
                          scheme="random_fill", window=window,
                          n_refs=1200, seed=0)
                 for window in windows]
        shared = group_state_for(specs[0])
        lowered = [lower_cell(spec, shared) for spec in specs]
        assert [lc is not None for lc in lowered] == [True, False, True]
        eligible = [lc for lc in lowered if lc is not None]
        laned = run_lane_cells(shared, eligible)
        assert laned == [run_lowered_cell(shared, lc) for lc in eligible]


class TestCryptoLaneIdentity:
    """Figure 6/7 crypto lanes == per-cell ``run_cell``, bit for bit."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size,assoc", FIG6_GEOMETRIES)
    def test_figure6_geometry_matches_per_cell(self, backend, size, assoc):
        specs = _crypto_specs(size, assoc, seed=0)
        assert _crypto_lanes(specs, backend) == [_per_cell(s) for s in specs]

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=4, deadline=None)
    @given(geometry=st.sampled_from(FIG6_GEOMETRIES),
           seed=st.integers(min_value=1, max_value=9),
           schemes=st.lists(st.sampled_from(FIGURE6_SCHEMES), min_size=1,
                            max_size=4, unique=True))
    def test_seeds_and_scheme_mixes(self, backend, geometry, seed, schemes):
        specs = _crypto_specs(*geometry, seed=seed, schemes=schemes)
        assert _crypto_lanes(specs, backend) == [_per_cell(s) for s in specs]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size,assoc", [(8 * 1024, 1), (32 * 1024, 4)])
    def test_figure7_windows_match_per_cell(self, backend, size, assoc):
        config = BASELINE_CONFIG.with_l1d(size, assoc)
        windows = [RandomFillWindow.bidirectional(w)
                   for w in (1, 2, 4, 8, 16, 32)]
        specs = [CellSpec(kind="crypto", scheme="random_fill",
                          window=(w.a, w.b), message_kb=1, seed=3,
                          config=config)
                 for w in windows]
        assert _crypto_lanes(specs, backend) == [_per_cell(s) for s in specs]

    @pytest.mark.parametrize("scheme", ("plcache_preload", "disable_cache"))
    def test_hooked_cell_runs_as_width_one_lane(self, scheme):
        (spec,) = _crypto_specs(8 * 1024, 2, seed=1, schemes=(scheme,))
        shared = group_state_for(spec)
        lowered = lower_cell(spec, shared)
        assert lowered.hooked
        assert run_lowered_cell(shared, lowered) == _per_cell(spec)
        assert lanes_mod.LAST_STATS["lanes"] == 1


def _fresh_cache(monkeypatch, directory):
    """Point the artifact cache at an empty directory and forget the
    loaded kernel.  A fresh path matters: a library the process has
    already mapped must never be overwritten in place."""
    monkeypatch.setenv("REPRO_LANES_CACHE", str(directory / "lanes"))
    monkeypatch.setattr(lanes_mod, "_native_fn", None)
    monkeypatch.setattr(lanes_mod, "_native_tried", False)
    monkeypatch.setattr(lanes_mod, "_native_error", None)


@pytest.mark.skipif(len(BACKENDS) < 2, reason="no C compiler on host")
class TestNativeArtifact:
    """A bad cached library changes the backend, never the results."""

    def _poisoned_run(self, monkeypatch, tmp_path, write):
        specs = _crypto_specs(8 * 1024, 1, seed=2)
        expected = _crypto_lanes(specs, "native")
        _fresh_cache(monkeypatch, tmp_path)
        path = artifact_path()
        os.makedirs(os.path.dirname(path))
        write(path)
        assert _crypto_lanes(specs, None) == expected
        assert lanes_mod.LAST_STATS["backend"] == "python"
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
    def test_explicit_native_raises_without_compiler(self, monkeypatch):
        monkeypatch.setattr(lanes_mod, "_native", lambda: None)
        shared, lowered = _group("astar", ((0, 0),), warm=False, seed=0)
        with pytest.raises(RuntimeError, match="native"):
            _run_lanes(shared, lowered, "native")

    def test_unknown_backend_rejected(self):
        shared, lowered = _group("astar", ((0, 0),), warm=False, seed=0)
        with pytest.raises(ValueError, match="backend"):
            _run_lanes(shared, lowered, "cuda")

    def test_empty_lane_list_is_empty(self):
        shared, _ = _group("astar", ((0, 0),), warm=False, seed=0)
        assert run_lane_cells(shared, []) == []

    def test_big_mshr_falls_back_to_python(self):
        # The native kernel bounds its drain scratch at 64 MSHR
        # entries; a larger capacity must transparently take the
        # Python lanes (backend=None auto-selection).
        shared, lowered = _group("astar", ((4, 3),), warm=False, seed=0)
        for lc in lowered:
            lc.mq_capacity = 128
        laned = _run_lanes(shared, lowered[:1] * 2, None)
        assert lanes_mod.LAST_STATS["backend"] == "python"
        assert laned[0] == laned[1]
        # Identity still holds at the bigger capacity: compare against
        # the scalar kernel run with the same parameters.
        assert laned[0] == run_lowered_cell(shared, lowered[0])
