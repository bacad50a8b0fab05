"""Registry-driven conformance suite: every scheme earns its listing.

Parametrized over the *registry*, not a hand-written name list — a
newly registered scheme is pulled into every check here automatically
(and into the scheme-zoo CI matrix, which selects by ``-k <name>``).

Per functional scheme: the store builds and honours the TagStore
contract, leakage cells are deterministic (in-process repeats and
``--jobs 1`` vs ``--jobs 2``), checked mode sweeps the store's
structural invariants without violations, and the occupancy channel
produces a finite mutual information.  Per timing scheme: one small
cell simulates end to end (a crypto cell for schemes that require
protected regions, since only the AES workload supplies them).
"""

import math

import pytest

from repro.check import checked
from repro.core.window import RandomFillWindow
from repro.leakage.adapters import build_functional_scheme
from repro.leakage.sweep import LeakageCellSpec
from repro.runner.cells import CellSpec, run_cell
from repro.runner.pool import run_cells
from repro.runner.result_cache import ResultCache
from repro.schemes import functional_scheme_names, get_scheme, timing_scheme_names
from repro.secure.region import ProtectedRegion

FUNCTIONAL = functional_scheme_names()
TIMING = timing_scheme_names()

#: (a, b) used whenever a scheme requires a random fill window
WINDOW = (4, 3)


def _leakage_window(name):
    return WINDOW if get_scheme(name, functional=True).uses_window else None


def _timing_window(name):
    spec = get_scheme(name, timing=True)
    # Only designs with an OS window layer accept one; the random fill
    # schemes are exactly those (their controllers return a RandomFillOS).
    return WINDOW if spec.uses_window else None


def _build(name, m_lines=8):
    region = ProtectedRegion(0x10000, m_lines * 64)
    window = _leakage_window(name)
    return build_functional_scheme(
        name,
        region,
        window=RandomFillWindow(*window) if window else None,
        seed=11,
    )


def _occupancy_spec(name, seed=5, trials=80):
    return LeakageCellSpec(
        channel="occupancy",
        scheme=name,
        window=_leakage_window(name),
        trials=trials,
        seed=seed,
        curve_repeats=10,
    )


@pytest.mark.parametrize("name", FUNCTIONAL)
class TestFunctionalConformance:
    def test_store_builds_and_roundtrips(self, name):
        scheme = _build(name)
        store = scheme.tag_store
        assert store.capacity_lines > 0
        region_lines = list(scheme.region.lines)
        for line in region_lines:
            scheme.victim_access(line)
        resident = set(store.resident_lines())
        assert len(resident) <= store.capacity_lines
        # Whatever the fill strategy installed, a resident line probes
        # true and invalidates cleanly.
        for line in list(resident):
            assert store.probe(line)
            store.invalidate(line)
            assert not store.probe(line)
        assert not set(store.resident_lines())

    def test_reset_victim_clears_region_state(self, name):
        scheme = _build(name)
        for line in scheme.region.lines:
            scheme.victim_access(line)
        scheme.reset_victim()
        resident = set(scheme.tag_store.resident_lines())
        if scheme.preloaded:
            # plcache_preload re-runs its preload routine on reset.
            assert set(scheme.region.lines) <= resident
        else:
            assert resident.isdisjoint(scheme.victim_lines)

    def test_leakage_cell_is_deterministic(self, name):
        spec = _occupancy_spec(name)
        assert spec.run() == spec.run()

    def test_jobs_invariance(self, name):
        specs = [_occupancy_spec(name, seed=s, trials=60) for s in (0, 1)]
        serial = run_cells(
            specs, jobs=1, result_cache=ResultCache(use_default_disk_dir=False)
        )
        parallel = run_cells(
            specs, jobs=2, result_cache=ResultCache(use_default_disk_dir=False)
        )
        assert serial == parallel

    def test_checked_mode_invariants_hold(self, name):
        unchecked = _occupancy_spec(name).run()
        with checked(rate=64) as checker:
            result = _occupancy_spec(name).run()
        assert checker.checks_run > 0
        assert checker.violations == 0
        assert result == unchecked

    def test_occupancy_channel_yields_finite_mi(self, name):
        result = _occupancy_spec(name).run()
        assert math.isfinite(result.mi_bits)
        assert result.mi_bits >= 0.0
        assert result.channel == "occupancy"


@pytest.mark.parametrize("name", TIMING)
class TestTimingConformance:
    def test_timing_cell_simulates(self, name):
        spec = get_scheme(name, timing=True)
        if spec.needs_protected:
            # Protected regions flow only through the crypto workload
            # (the AES layout's enc regions).
            cell = CellSpec(
                kind="crypto",
                scheme=name,
                window=_timing_window(name),
                message_kb=1,
                seed=3,
            )
        else:
            cell = CellSpec(
                kind="general",
                scheme=name,
                benchmark="astar",
                window=_timing_window(name),
                n_refs=3000,
                seed=3,
            )
        result = run_cell(cell)
        assert result.cycles > 0
        assert result.l1_accesses > 0
        assert run_cell(cell) == result
