"""The scheme-plugin registry: one declaration registers a design everywhere.

A :class:`SchemeSpec` bundles everything the rest of the codebase needs
to know about one secure-cache design:

* a **functional-store factory** — builds the hit/miss-only
  :class:`~repro.cache.tagstore.TagStore` the leakage channels
  (Flush-Reload, occupancy) run against;
* a **controller factory** — builds the timing hierarchy (L1 + L2 +
  DRAM plus, for random fill designs, the OS window layer) the figure
  sweeps simulate;
* the **fill strategy** (demand fetch, the paper's random fill window,
  or a custom no-fill randomization) and an optional **victim-cache
  factory** overriding how a functional victim issues its fills;
* **capability flags**: ``preload`` (PLcache-style setup routine),
  ``needs_protected`` (the timing build requires protected regions),
  ``lane_eligible`` / ``pow2_window_only`` (may the batch planner lower
  cells of this scheme onto the lane kernel, and under which window
  shapes).

Registering a spec (:func:`register`) makes the scheme available at
once to the timing simulation (:func:`repro.experiments.schemes.build_scheme`),
the functional leakage adapters
(:func:`repro.leakage.adapters.build_functional_scheme`), the leakage
and occupancy sweeps, the batch/lane planner's eligibility check, the
service codec (spec validation surfaces the registered names in its
400 body), and the CLI scheme choices.  The registry is *the* source of
truth: no scheme name appears in an if/elif ladder outside this
package.

Lookups are order-independent: two registries populated with the same
specs in any order answer every query identically (pinned by a
hypothesis test).  Listing order is registration order, so the
canonical :mod:`repro.schemes.builtin` order is what tables and docs
show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

#: fill strategies a scheme can declare
DEMAND = "demand"
RANDOM_FILL = "random_fill"
NOFILL_RANDOM = "nofill_random"
FILL_STRATEGIES = (DEMAND, RANDOM_FILL, NOFILL_RANDOM)


@dataclass(frozen=True)
class StoreGeometry:
    """Geometry + seed handed to a functional-store factory.

    ``seed`` is already derived for the store (the builder applies the
    scheme's seed-derivation path), so factories use it directly.
    """

    cache_bytes: int
    associativity: int
    seed: int
    line_size: int = 64

    @property
    def capacity_lines(self) -> int:
        return self.cache_bytes // self.line_size


#: builds the functional tag store for the leakage channels
StoreFactory = Callable[[StoreGeometry], Any]

#: ``(config, seed, protected) -> (hierarchy, os_layer)`` for timing runs
ControllerFactory = Callable[[Any, int, Any], Tuple[Any, Any]]

#: ``(store, window, rng, region, ctx) -> functional victim fill model``
VictimCacheFactory = Callable[[Any, Any, Any, Any, Any], Any]


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme, declared once.

    ``store_factory`` enables the functional (leakage) side;
    ``controller_factory`` enables the timing side; a spec may declare
    either or both, but not neither.
    """

    name: str
    summary: str = ""
    fill_strategy: str = DEMAND
    store_factory: Optional[StoreFactory] = None
    controller_factory: Optional[ControllerFactory] = None
    victim_cache_factory: Optional[VictimCacheFactory] = None
    #: default functional geometry (leakage channels)
    cache_bytes: int = 8 * 1024
    associativity: int = 4
    #: run the preload-and-lock setup routine (PLcache+preload)
    preload: bool = False
    #: the timing build requires protected regions
    needs_protected: bool = False
    #: cells of this scheme may lower onto the lane kernel
    lane_eligible: bool = False
    #: lane lowering additionally requires a power-of-two window size
    pow2_window_only: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ValueError(f"scheme name must be an identifier, got {self.name!r}")
        if self.fill_strategy not in FILL_STRATEGIES:
            raise ValueError(
                f"unknown fill strategy {self.fill_strategy!r}; "
                f"known: {', '.join(FILL_STRATEGIES)}"
            )
        if self.store_factory is None and self.controller_factory is None:
            raise ValueError(
                f"scheme {self.name!r} declares neither a store factory "
                f"nor a controller factory"
            )

    @property
    def functional(self) -> bool:
        """Can the leakage channels run this scheme?"""
        return self.store_factory is not None

    @property
    def timing(self) -> bool:
        """Can the figure sweeps simulate this scheme?"""
        return self.controller_factory is not None

    @property
    def uses_window(self) -> bool:
        """Does the victim take (and require) a random fill window?"""
        return self.fill_strategy == RANDOM_FILL

    @property
    def has_custom_fill(self) -> bool:
        """Does the scheme replace the default windowed fill model?"""
        return self.victim_cache_factory is not None


class SchemeRegistry:
    """Name -> :class:`SchemeSpec`, with capability-filtered queries."""

    def __init__(self) -> None:
        self._specs: Dict[str, SchemeSpec] = {}

    def register(self, spec: SchemeSpec) -> SchemeSpec:
        """Add one spec; duplicate names are a programming error."""
        if spec.name in self._specs:
            raise ValueError(f"scheme {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def names(
        self,
        functional: Optional[bool] = None,
        timing: Optional[bool] = None,
        random_fill: Optional[bool] = None,
    ) -> Tuple[str, ...]:
        """Registered names, optionally filtered by capability.

        Order is registration order (the canonical order of
        :mod:`repro.schemes.builtin`), which is the same for equal spec
        sets registered in any order only up to permutation — callers
        that need a canonical order should sort.
        """
        out = []
        for spec in self._specs.values():
            if functional is not None and spec.functional != functional:
                continue
            if timing is not None and spec.timing != timing:
                continue
            if random_fill is not None and spec.uses_window != random_fill:
                continue
            out.append(spec.name)
        return tuple(out)

    def get(
        self,
        name: str,
        functional: bool = False,
        timing: bool = False,
    ) -> SchemeSpec:
        """Look up a spec, checking the requested capability.

        Unknown names and capability mismatches raise :class:`ValueError`
        listing the registered names that *would* qualify — the list is
        dynamic, so error messages, CLI usage errors and the service's
        ``invalid_spec`` 400 bodies always name every available scheme.
        """
        spec = self._specs.get(name)
        if spec is None:
            known = ", ".join(sorted(self.names(functional=functional or None, timing=timing or None)))
            raise ValueError(f"unknown scheme {name!r}; registered: {known}")
        if functional and not spec.functional:
            known = ", ".join(sorted(self.names(functional=True)))
            raise ValueError(
                f"scheme {name!r} has no functional (leakage) adapter; "
                f"functional schemes: {known}"
            )
        if timing and not spec.timing:
            known = ", ".join(sorted(self.names(timing=True)))
            raise ValueError(
                f"scheme {name!r} has no timing controller; timing schemes: {known}"
            )
        return spec

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[SchemeSpec]:
        return iter(self._specs.values())


#: the process-wide registry, populated by :mod:`repro.schemes.builtin`
REGISTRY = SchemeRegistry()


def register(spec: SchemeSpec) -> SchemeSpec:
    """Register ``spec`` in the process-wide registry."""
    return REGISTRY.register(spec)


def get_scheme(name: str, functional: bool = False, timing: bool = False) -> SchemeSpec:
    """Look up ``name`` in the process-wide registry."""
    return REGISTRY.get(name, functional=functional, timing=timing)


def scheme_names(**filters: Optional[bool]) -> Tuple[str, ...]:
    """Registered names (see :meth:`SchemeRegistry.names` for filters)."""
    return REGISTRY.names(**filters)


def functional_scheme_names() -> Tuple[str, ...]:
    """Schemes the leakage channels can run."""
    return REGISTRY.names(functional=True)


def timing_scheme_names() -> Tuple[str, ...]:
    """Schemes the figure sweeps can simulate."""
    return REGISTRY.names(timing=True)


def random_fill_scheme_names() -> Tuple[str, ...]:
    """Functional schemes whose victim runs the random fill window."""
    return REGISTRY.names(functional=True, random_fill=True)
