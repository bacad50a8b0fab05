"""Registry semantics: registration, lookup errors, capability flags.

The hypothesis permutation test pins the satellite requirement that
``SchemeSpec`` registration is order-independent: two registries
populated with the same specs in any order answer every query
identically (name sets per filter, ``get`` results, error text).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.cells import CellSpec
from repro.schemes import (
    REGISTRY,
    SchemeRegistry,
    SchemeSpec,
    functional_scheme_names,
    get_scheme,
    random_fill_scheme_names,
    scheme_names,
    timing_scheme_names,
)
from repro.cpu.batch import lane_eligible
from repro.cpu.lanes import native_available

BUILTIN_SPECS = tuple(REGISTRY)

FILTERS = [
    {},
    {"functional": True},
    {"functional": False},
    {"timing": True},
    {"timing": False},
    {"random_fill": True},
    {"functional": True, "random_fill": False},
]


def _dummy_store(geometry):
    raise AssertionError("never built")


class TestOrderIndependence:
    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(list(BUILTIN_SPECS)))
    def test_lookups_ignore_registration_order(self, order):
        fresh = SchemeRegistry()
        for spec in order:
            fresh.register(spec)
        for filters in FILTERS:
            assert set(fresh.names(**filters)) == set(REGISTRY.names(**filters))
        for spec in BUILTIN_SPECS:
            assert fresh.get(spec.name) is REGISTRY.get(spec.name)
        with pytest.raises(ValueError) as fresh_err:
            fresh.get("no_such_scheme")
        with pytest.raises(ValueError) as canon_err:
            REGISTRY.get("no_such_scheme")
        assert str(fresh_err.value) == str(canon_err.value)


class TestRegistration:
    def test_duplicate_name_rejected(self):
        registry = SchemeRegistry()
        spec = SchemeSpec(name="dup", store_factory=_dummy_store)
        registry.register(spec)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(SchemeSpec(name="dup", store_factory=_dummy_store))

    def test_name_must_be_identifier(self):
        with pytest.raises(ValueError, match="identifier"):
            SchemeSpec(name="not a name", store_factory=_dummy_store)
        with pytest.raises(ValueError, match="identifier"):
            SchemeSpec(name="", store_factory=_dummy_store)

    def test_unknown_fill_strategy_rejected(self):
        with pytest.raises(ValueError, match="fill strategy"):
            SchemeSpec(
                name="x", store_factory=_dummy_store, fill_strategy="psychic"
            )

    def test_factoryless_spec_rejected(self):
        with pytest.raises(ValueError, match="neither"):
            SchemeSpec(name="x")


class TestLookupErrors:
    def test_unknown_name_lists_registered_schemes(self):
        with pytest.raises(ValueError) as excinfo:
            get_scheme("l2")
        message = str(excinfo.value)
        assert "unknown scheme 'l2'" in message
        for name in scheme_names():
            assert name in message

    def test_functional_mismatch_lists_functional_schemes(self):
        # baseline is timing-only: asking for its leakage face must
        # name every scheme that does have one.
        with pytest.raises(ValueError) as excinfo:
            get_scheme("baseline", functional=True)
        message = str(excinfo.value)
        assert "functional" in message
        for name in functional_scheme_names():
            assert name in message

    def test_timing_mismatch_lists_timing_schemes(self):
        with pytest.raises(ValueError) as excinfo:
            get_scheme("rpcache", timing=True)
        message = str(excinfo.value)
        assert "timing" in message
        for name in timing_scheme_names():
            assert name in message


class TestBuiltinCatalogue:
    def test_functional_names(self):
        assert functional_scheme_names() == (
            "demand_fetch",
            "random_fill",
            "newcache",
            "random_fill_newcache",
            "rpcache",
            "plcache_preload",
            "skewed_random",
            "chameleon",
            "random_and_safe",
        )

    def test_timing_names(self):
        assert timing_scheme_names() == (
            "baseline",
            "random_fill",
            "newcache",
            "random_fill_newcache",
            "plcache_preload",
            "disable_cache",
            "tagged_prefetch",
            "skewed_random",
            "chameleon",
            "random_and_safe",
        )

    def test_random_fill_names(self):
        assert random_fill_scheme_names() == ("random_fill", "random_fill_newcache")

    def test_every_spec_has_a_summary(self):
        for spec in BUILTIN_SPECS:
            assert spec.summary, spec.name

    def test_custom_fill_implies_nofill_strategy(self):
        ras = get_scheme("random_and_safe")
        assert ras.has_custom_fill
        assert not ras.uses_window


class TestLaneFlags:
    """The declarative flags agree with the structural planner check."""

    def _cell(self, scheme, window, kind="general"):
        return CellSpec(kind=kind, scheme=scheme, benchmark="astar", window=window)

    @pytest.mark.skipif(not native_available(), reason="no compiled lane kernel")
    def test_flagged_schemes_lower(self):
        assert lane_eligible(self._cell("baseline", None))
        assert lane_eligible(self._cell("random_fill", (4, 3)))
        # Without protected regions a general PLcache cell is a plain
        # lock-free SA cache; crypto cells lower with the preload's
        # lock bits and the disable-cache bypass as kernel hooks.
        assert lane_eligible(self._cell("plcache_preload", None))
        for name in ("plcache_preload", "disable_cache"):
            assert lane_eligible(self._cell(name, None, kind="crypto")), name

    def test_pow2_window_only_gate(self):
        # (4, 2) is a 7-entry window: the lane kernel masks draws, so
        # the registry flag must keep the cell off the lane path.
        assert not lane_eligible(self._cell("random_fill", (4, 2)))

    def test_unflagged_schemes_do_not_lower(self):
        for name in ("newcache", "tagged_prefetch"):
            assert not lane_eligible(self._cell(name, None)), name
        assert not lane_eligible(self._cell("random_fill_newcache", (8, 7), kind="crypto"))

    def test_needs_protected_schemes_are_safely_ineligible(self, monkeypatch):
        # The registry early-out must answer False for general cells
        # without attempting a build (these schemes cannot build
        # without protected regions).
        import repro.experiments.schemes as schemes_mod

        def no_build(*args, **kwargs):
            raise AssertionError("lane_eligible attempted a build")

        monkeypatch.setattr(schemes_mod, "build_scheme", no_build)
        for name in ("disable_cache", "random_and_safe"):
            assert not lane_eligible(self._cell(name, None)), name
