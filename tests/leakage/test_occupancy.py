"""Occupancy-channel tests: who the aggregate channel defeats and who not.

The qualitative expectations follow Chakraborty et al. / Peters et al.:
mapping randomization does not degrade an address-free channel, random
fill adds collision noise, and preload+lock closes it entirely.
"""


import pytest

from repro.core.window import RandomFillWindow
from repro.leakage.adapters import build_functional_scheme, resident_array
from repro.leakage.occupancy import run_occupancy_trials
from repro.secure.region import ProtectedRegion

REGION = ProtectedRegion(0x10000, 1024)  # 16 lines


def measure(name, window=None, trials=600, seed=3):
    scheme = build_functional_scheme(name, REGION, window=window, seed=seed)
    return run_occupancy_trials(scheme, trials=trials, seed=seed)


class TestOccupancyChannel:
    def test_demand_fetch_leaks_fully(self):
        result = measure("demand_fetch")
        # The miss count equals the working-set size exactly: identity
        # channel over 16 secrets.
        assert result.mutual_information > 3.8
        assert result.guessing_entropy < 1.05

    def test_random_fill_degrades_the_channel(self):
        demand = measure("demand_fetch")
        filled = measure("random_fill", RandomFillWindow.bidirectional(8))
        assert filled.mutual_information < demand.mutual_information - 1.0
        assert filled.guessing_entropy > demand.guessing_entropy

    def test_mapping_randomization_does_not_stop_it(self):
        """Newcache and RPcache randomize *where* a line lands, but the
        occupancy attacker never asks where — only how many."""
        for name in ("newcache", "rpcache"):
            result = measure(name)
            assert result.mutual_information > 2.5, name

    def test_preload_and_lock_closes_it(self):
        result = measure("plcache_preload")
        assert result.mutual_information < 0.05
        # Blind guessing over 16 secrets: E[rank] ~ 8.5.
        assert result.guessing_entropy > 6.0

    def test_joint_records_every_trial(self):
        result = measure("demand_fetch", trials=200)
        assert result.trials == 200
        assert result.joint.total == 200
        assert result.secret_space <= REGION.num_lines

    def test_deterministic_for_seed(self):
        a = measure("random_fill", RandomFillWindow.bidirectional(4), seed=9)
        b = measure("random_fill", RandomFillWindow.bidirectional(4), seed=9)
        assert a.joint == b.joint
        assert a.mutual_information == b.mutual_information

    def test_validation(self):
        scheme = build_functional_scheme("demand_fetch", REGION)
        with pytest.raises(ValueError):
            run_occupancy_trials(scheme, trials=0)


class TestAdapters:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_functional_scheme("writeback", REGION)

    def test_random_fill_requires_window(self):
        with pytest.raises(ValueError):
            build_functional_scheme("random_fill", REGION)

    def test_demand_scheme_rejects_window(self):
        with pytest.raises(ValueError):
            build_functional_scheme("newcache", REGION,
                                    window=RandomFillWindow(2, 1))

    def test_preload_locks_the_region(self):
        scheme = build_functional_scheme("plcache_preload", REGION)
        assert set(REGION.lines) <= set(scheme.tag_store.resident_lines())
        assert set(scheme.tag_store.locked_lines()) == set(REGION.lines)

    def test_reset_restores_preload(self):
        scheme = build_functional_scheme("plcache_preload", REGION)
        for line in REGION.lines:
            scheme.tag_store.invalidate(line)
        scheme.reset_victim()
        assert set(scheme.tag_store.locked_lines()) == set(REGION.lines)

    def test_reset_clears_victim_fills(self):
        scheme = build_functional_scheme(
            "random_fill", REGION, window=RandomFillWindow.bidirectional(8))
        for line in list(REGION.lines)[:4]:
            scheme.victim_access(line)
        scheme.reset_victim()
        resident = set(scheme.tag_store.resident_lines())
        assert resident.isdisjoint(scheme.victim_lines)

    @pytest.mark.parametrize("name, window", [
        ("newcache", None),
        ("random_fill_newcache", RandomFillWindow.bidirectional(8)),
        ("rpcache", None),
        ("random_fill", RandomFillWindow.bidirectional(8)),
    ])
    def test_reset_from_a_snapshot_keeps_the_scan_order(self, name, window):
        # reset_victim(resident) must invalidate exactly the victim lines
        # of the snapshot, in resident_lines() order (what a per-line
        # scan of the store would do), so free lists and victim choices
        # downstream stay the same.
        scheme = build_functional_scheme(name, REGION, window=window, seed=4)
        run_occupancy_trials(scheme, trials=20, seed=4)
        for line in REGION.lines:
            scheme.victim_access(line)
        store = scheme.tag_store
        expected = [line for line in store.resident_lines() if line in scheme.victim_lines]
        assert len(expected) > 1
        invalidated = []
        invalidate = store.invalidate
        store.invalidate = lambda line: invalidated.append(line) or invalidate(line)
        scheme.reset_victim(resident_array(store))
        assert invalidated == expected

    def test_victim_lines_include_window_margins(self):
        window = RandomFillWindow.bidirectional(8)
        scheme = build_functional_scheme("random_fill", REGION, window=window)
        assert REGION.first_line - window.a in scheme.victim_lines
        assert REGION.first_line + REGION.num_lines - 1 + window.b \
            in scheme.victim_lines
