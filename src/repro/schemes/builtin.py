"""Registrations for every built-in scheme (legacy six + the design zoo).

One :func:`repro.schemes.registry.register` call per design is the
whole integration surface: the timing sweeps, the leakage channels, the
occupancy attack, the batch planner, the service codec and the CLI all
read the registry.  Registration order is the canonical display order;
the legacy names come first so the computed ``LEAKAGE_SCHEMES`` /
``SCHEME_NAMES`` tuples keep their historical order.

Seed-derivation paths are part of each scheme's contract: the factories
below reproduce the pre-registry strings exactly (pinned by the golden
conformance tests), so migrating a scheme here never moves its
measured results.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.controller import DemandFetchPolicy
from repro.cache.hierarchy import Hierarchy, build_hierarchy
from repro.cache.replacement import RandomPolicy
from repro.cache.set_associative import SetAssociativeCache
from repro.core.engine import RandomFillEngine
from repro.core.policy import RandomFillPolicy
from repro.core.syscalls import RandomFillOS
from repro.prefetch.tagged import TaggedPrefetchPolicy
from repro.schemes.chameleon import ChameleonCache
from repro.schemes.ras import RandomAndSafeFill, RandomAndSafePolicy
from repro.schemes.registry import (
    DEMAND,
    NOFILL_RANDOM,
    RANDOM_FILL,
    SchemeSpec,
    StoreGeometry,
    register,
)
from repro.schemes.skewed import SkewedRandomCache
from repro.secure.newcache import Newcache
from repro.secure.nocache import DisableCachePolicy
from repro.secure.plcache import PLCache
from repro.secure.rpcache import RPCache
from repro.util.rng import HardwareRng, derive_seed


def _common(config) -> dict:
    """Hierarchy kwargs shared by every controller factory."""
    return dict(
        l1_size=config.l1d_size,
        l1_assoc=config.l1d_assoc,
        line_size=config.line_size,
        l1_hit_latency=config.l1_hit_latency,
        l2_size=config.l2_size,
        l2_assoc=config.l2_assoc,
        l2_hit_latency=config.l2_hit_latency,
        mshr_entries=config.mshr_entries,
        dram_config=config.dram,
    )


# -- functional store factories (leakage channels) ---------------------------


def _sa_store(geometry: StoreGeometry) -> SetAssociativeCache:
    return SetAssociativeCache(geometry.cache_bytes, geometry.associativity)


def _newcache_store(geometry: StoreGeometry) -> Newcache:
    return Newcache(geometry.cache_bytes, seed=geometry.seed)


def _rpcache_store(geometry: StoreGeometry) -> RPCache:
    return RPCache(geometry.cache_bytes, geometry.associativity, seed=geometry.seed)


def _plcache_store(geometry: StoreGeometry) -> PLCache:
    return PLCache(geometry.cache_bytes, geometry.associativity)


def _skewed_store(geometry: StoreGeometry) -> SkewedRandomCache:
    return SkewedRandomCache(
        geometry.cache_bytes, geometry.associativity, seed=geometry.seed
    )


def _chameleon_store(geometry: StoreGeometry) -> ChameleonCache:
    return ChameleonCache(
        geometry.cache_bytes, geometry.associativity, seed=geometry.seed
    )


def _ras_store(geometry: StoreGeometry) -> SetAssociativeCache:
    rng = HardwareRng(derive_seed(geometry.seed, "ras", "repl"))
    return SetAssociativeCache(
        geometry.cache_bytes, geometry.associativity, policy=RandomPolicy(rng)
    )


def _ras_victim_cache(store, window, rng, region, ctx) -> RandomAndSafeFill:
    return RandomAndSafeFill(store, region.lines, rng, ctx)


# -- timing controller factories ---------------------------------------------

ControllerResult = Tuple[Hierarchy, Optional[RandomFillOS]]


def _baseline_controller(config, seed, protected) -> ControllerResult:
    return build_hierarchy(policy=DemandFetchPolicy(), **_common(config)), None


def _random_fill_controller(config, seed, protected) -> ControllerResult:
    engine = RandomFillEngine(HardwareRng(derive_seed(seed, "random_fill", "rng")))
    hierarchy = build_hierarchy(policy=RandomFillPolicy(engine), **_common(config))
    return hierarchy, RandomFillOS(engine)


def _newcache_controller(config, seed, protected) -> ControllerResult:
    tag_store = Newcache(
        config.l1d_size,
        config.line_size,
        extra_index_bits=config.newcache_extra_index_bits,
        seed=derive_seed(seed, "newcache", "newcache"),
    )
    hierarchy = build_hierarchy(
        l1_tag_store=tag_store, policy=DemandFetchPolicy(), **_common(config)
    )
    return hierarchy, None


def _random_fill_newcache_controller(config, seed, protected) -> ControllerResult:
    name = "random_fill_newcache"
    engine = RandomFillEngine(HardwareRng(derive_seed(seed, name, "rng")))
    tag_store = Newcache(
        config.l1d_size,
        config.line_size,
        extra_index_bits=config.newcache_extra_index_bits,
        seed=derive_seed(seed, name, "newcache"),
    )
    hierarchy = build_hierarchy(
        l1_tag_store=tag_store, policy=RandomFillPolicy(engine), **_common(config)
    )
    return hierarchy, RandomFillOS(engine)


def _plcache_controller(config, seed, protected) -> ControllerResult:
    tag_store = PLCache(config.l1d_size, config.l1d_assoc, config.line_size)
    hierarchy = build_hierarchy(
        l1_tag_store=tag_store, policy=DemandFetchPolicy(), **_common(config)
    )
    return hierarchy, None


def _disable_cache_controller(config, seed, protected) -> ControllerResult:
    hierarchy = build_hierarchy(
        policy=DisableCachePolicy(protected), **_common(config)
    )
    return hierarchy, None


def _tagged_prefetch_controller(config, seed, protected) -> ControllerResult:
    policy = TaggedPrefetchPolicy()
    hierarchy = build_hierarchy(policy=policy, **_common(config))
    policy.attach(hierarchy.l1)
    return hierarchy, None


def _skewed_controller(config, seed, protected) -> ControllerResult:
    tag_store = SkewedRandomCache(
        config.l1d_size,
        config.l1d_assoc,
        config.line_size,
        seed=derive_seed(seed, "skewed_random", "store"),
    )
    hierarchy = build_hierarchy(
        l1_tag_store=tag_store, policy=DemandFetchPolicy(), **_common(config)
    )
    return hierarchy, None


def _chameleon_controller(config, seed, protected) -> ControllerResult:
    tag_store = ChameleonCache(
        config.l1d_size,
        config.l1d_assoc,
        config.line_size,
        seed=derive_seed(seed, "chameleon", "store"),
    )
    hierarchy = build_hierarchy(
        l1_tag_store=tag_store, policy=DemandFetchPolicy(), **_common(config)
    )
    return hierarchy, None


def _ras_controller(config, seed, protected) -> ControllerResult:
    store_rng = HardwareRng(derive_seed(seed, "random_and_safe", "repl"))
    tag_store = SetAssociativeCache(
        config.l1d_size,
        config.l1d_assoc,
        config.line_size,
        policy=RandomPolicy(store_rng),
    )
    policy = RandomAndSafePolicy(
        protected, HardwareRng(derive_seed(seed, "random_and_safe", "rng"))
    )
    hierarchy = build_hierarchy(
        l1_tag_store=tag_store, policy=policy, **_common(config)
    )
    return hierarchy, None


# -- registrations (canonical order: legacy names first) ---------------------

register(
    SchemeSpec(
        name="baseline",
        summary="demand-fetch set-associative L1 (Table IV)",
        controller_factory=_baseline_controller,
        lane_eligible=True,
    )
)
register(
    SchemeSpec(
        name="demand_fetch",
        summary="conventional SA cache, demand fetch (functional face of baseline)",
        store_factory=_sa_store,
    )
)
register(
    SchemeSpec(
        name="random_fill",
        summary="the paper's random fill window on an SA cache",
        fill_strategy=RANDOM_FILL,
        store_factory=_sa_store,
        controller_factory=_random_fill_controller,
        lane_eligible=True,
        pow2_window_only=True,
    )
)
register(
    SchemeSpec(
        name="newcache",
        summary="Newcache mapping randomization, demand fetch",
        store_factory=_newcache_store,
        controller_factory=_newcache_controller,
    )
)
register(
    SchemeSpec(
        name="random_fill_newcache",
        summary="random fill built on Newcache",
        fill_strategy=RANDOM_FILL,
        store_factory=_newcache_store,
        controller_factory=_random_fill_newcache_controller,
    )
)
register(
    SchemeSpec(
        name="rpcache",
        summary="RPcache permutation randomization, demand fetch",
        store_factory=_rpcache_store,
    )
)
register(
    SchemeSpec(
        name="plcache_preload",
        summary="PLcache with the protected region preloaded and locked",
        store_factory=_plcache_store,
        controller_factory=_plcache_controller,
        preload=True,
        lane_eligible=True,
    )
)
register(
    SchemeSpec(
        name="disable_cache",
        summary="L1 bypass for security-critical accesses",
        controller_factory=_disable_cache_controller,
        needs_protected=True,
        lane_eligible=True,
    )
)
register(
    SchemeSpec(
        name="tagged_prefetch",
        summary="demand fetch + tagged next-line prefetcher",
        controller_factory=_tagged_prefetch_controller,
    )
)
register(
    SchemeSpec(
        name="skewed_random",
        summary="CEASER/ScatterCache-style keyed skewed indexing with epoch rekeying",
        store_factory=_skewed_store,
        controller_factory=_skewed_controller,
    )
)
register(
    SchemeSpec(
        name="chameleon",
        summary="Chameleon Cache: random replacement + FA victim cache (arXiv 2209.14673)",
        store_factory=_chameleon_store,
        controller_factory=_chameleon_controller,
    )
)
register(
    SchemeSpec(
        name="random_and_safe",
        summary="Random-and-Safe: no demand fill + in-region decoy fills (arXiv 2309.16172)",
        fill_strategy=NOFILL_RANDOM,
        store_factory=_ras_store,
        victim_cache_factory=_ras_victim_cache,
        controller_factory=_ras_controller,
        needs_protected=True,
    )
)