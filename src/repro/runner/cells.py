"""Sweep cells: the unit of work the parallel runner distributes.

A :class:`CellSpec` is a frozen, picklable description of one
simulation point.  :func:`run_cell` is a *pure function* of the spec:
it builds a fresh scheme, derives every RNG stream deterministically
from ``spec.seed``, and obtains the workload trace through the
content-addressed trace cache — so the same spec produces bit-identical
results in-process, in a worker process, and across runs.

Experiment modules are imported lazily inside :func:`run_cell` so the
experiment modules themselves can import this package at top level
without a cycle.

The runner is open to other cell families: any picklable spec exposing
a zero-argument ``run()`` method (e.g.
:class:`repro.leakage.sweep.LeakageCellSpec`) goes through
:func:`run_cell` and the worker pool exactly like a :class:`CellSpec`.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.experiments.config import BASELINE_CONFIG, SimulatorConfig

#: cell kinds understood by :func:`run_cell`
CELL_KINDS = ("general", "crypto", "concurrent", "profile")

#: cell kinds whose batch groups lower onto the lane kernel
#: (:mod:`repro.cpu.batch`); the others only amortize dispatch
LANE_KINDS = ("general", "crypto")


@dataclass(frozen=True)
class CellSpec:
    """One (scheme, benchmark, window, seed) simulation point.

    ``window`` is the ``(a, b)`` bound pair (or ``None`` for schemes
    without one) rather than a :class:`RandomFillWindow`, keeping the
    spec a plain value that pickles cheaply to worker processes.
    """

    kind: str  # one of CELL_KINDS
    scheme: str = "random_fill"
    benchmark: str = ""  # general/concurrent/profile
    window: Optional[Tuple[int, int]] = None  # (a, b)
    n_refs: int = 100_000
    message_kb: int = 32  # crypto message size
    aes_kb: int = 4  # concurrent AES stress size
    seed: int = 0
    warm: bool = True  # general: warm the L2 first
    config: SimulatorConfig = field(default=BASELINE_CONFIG)

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            known = ", ".join(CELL_KINDS)
            raise ValueError(f"unknown cell kind {self.kind!r}; known: {known}")
        # Scheme names come from the plugin registry; rejecting unknown
        # names here (with the dynamic registered list) is what turns a
        # typo'd HTTP sweep into a structured 400 instead of a worker
        # crash.  Lazy import: the registry pulls in the cache stack.
        from repro.schemes import get_scheme

        get_scheme(self.scheme, timing=True)

    def result_cache_token(self) -> str:
        """Versions of everything this cell's result depends on.

        Together with ``repr(self)`` (every spec field, including the
        full simulator config) and the runner-wide ``SIM_CODE_VERSION``
        this keys the content-addressed result cache — bump any named
        version and old entries are orphaned instead of served stale.
        Imports are deferred: the experiment modules import this module
        at top level.
        """
        from repro.experiments.perf_crypto import AES_TRACE_VERSION
        from repro.workloads.spec import GENERATOR_VERSION
        return f"gen{GENERATOR_VERSION}|aes{AES_TRACE_VERSION}"

    def batch_group_key(self):
        """Grouping key for the batch planner, or ``None`` to opt out.

        General-perf cells sharing a trace (benchmark, length, seed)
        and geometry (config, warm split) can share one decode and one
        L2 warm replay, whatever their scheme or window; crypto cells
        sharing an AES-CBC trace (message size, seed) and geometry
        share one decode.  Scheme eligibility is decided per cell
        inside the batch.  The key is a pure function of spec fields:
        no trace is loaded at planning time, so a fully cached grid
        never touches the workload cache.
        """
        if self.kind == "general":
            return ("general", self.benchmark, self.n_refs, self.seed, self.warm, self.config)
        if self.kind == "crypto":
            return ("crypto", self.message_kb, self.seed, self.config)
        return None


def run_cell(spec):
    """Execute one cell; the result type depends on the spec.

    For a :class:`CellSpec`, ``spec.kind`` selects the experiment:

    * ``general`` -> :class:`SimResult` (one Figure 10 cell),
    * ``crypto`` -> :class:`SimResult` (one Figure 6/7 cell),
    * ``concurrent`` -> ``float`` IPC (one Figure 8 cell),
    * ``profile`` -> :class:`ProfileResult` (one Figure 9 benchmark).

    Any other spec must expose a zero-argument ``run()``, whose return
    value is the cell result (e.g. the leakage cells).

    A ``general`` or ``crypto`` cell that lowers onto the lane kernel
    (:func:`repro.cpu.batch.run_lowered`) runs as a width-1 kernel
    call; every other timing cell — one the kernel does not transcribe,
    every cell on a host without the compiled kernel, and every cell
    under a checker — runs on the object model.  Both give the same
    bits.

    Cyclic garbage collection is paused for the duration of the cell:
    the simulators allocate millions of short-lived acyclic objects per
    cell, so generation-0 scans cost ~10% of wall clock and can never
    free anything the refcounts don't.  Results are unaffected.

    When ``REPRO_CHECK`` requests checked mode
    (:mod:`repro.check`), the whole cell runs on the object model under
    an installed checker — including the chi-square finalize pass — and
    any :exc:`~repro.check.CheckViolation` is re-raised carrying the
    cell spec's repr so the failing point can be reproduced directly.
    """
    from repro.check import CheckViolation, checked_from_env

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with checked_from_env():
            try:
                return _dispatch_cell(spec)
            except CheckViolation as error:
                raise error.with_spec(repr(spec)) from None
    finally:
        if was_enabled:
            gc.enable()


def _dispatch_cell(spec):
    if not isinstance(spec, CellSpec):
        run = getattr(spec, "run", None)
        if run is None:
            raise TypeError(
                f"cell spec {type(spec).__name__} is neither a CellSpec "
                f"nor exposes a run() method"
            )
        return run()
    kind = spec.kind
    if kind in LANE_KINDS:
        from repro.cpu.batch import run_lowered
        result = run_lowered(spec)
        if result is not None:
            return result
    if kind == "general":
        from repro.experiments.perf_general import run_general_workload
        from repro.workloads.cache import cached_workload
        window = spec.window if spec.window is not None else (0, 0)
        trace = cached_workload(spec.benchmark, n_refs=spec.n_refs, seed=spec.seed)
        return run_general_workload(
            spec.benchmark,
            window,
            config=spec.config,
            n_refs=spec.n_refs,
            seed=spec.seed,
            scheme_name=spec.scheme,
            trace=trace,
            warm=spec.warm,
        )
    if kind == "crypto":
        from repro.core.window import RandomFillWindow
        from repro.experiments.perf_crypto import (
            cached_cbc_trace,
            run_crypto_workload,
        )
        window = RandomFillWindow(*spec.window) if spec.window is not None else None
        trace = cached_cbc_trace(message_kb=spec.message_kb, seed=spec.seed)
        return run_crypto_workload(
            spec.scheme,
            spec.config,
            window=window,
            message_kb=spec.message_kb,
            seed=spec.seed,
            trace=trace,
        )
    if kind == "concurrent":
        from repro.experiments.perf_concurrent import run_concurrent
        from repro.experiments.perf_crypto import cached_cbc_trace
        from repro.workloads.cache import cached_workload
        spec_trace = cached_workload(spec.benchmark, n_refs=spec.n_refs, seed=spec.seed)
        aes_trace = cached_cbc_trace(message_kb=spec.aes_kb, seed=spec.seed, decrypt_too=True)
        return run_concurrent(
            spec.scheme,
            spec.benchmark,
            spec.config,
            n_refs=spec.n_refs,
            aes_kb=spec.aes_kb,
            seed=spec.seed,
            spec_trace=spec_trace,
            aes_trace=aes_trace,
        )
    # kind == "profile" (guaranteed by __post_init__)
    from repro.analysis.profiling import profile_reference_ratio
    from repro.core.window import RandomFillWindow
    from repro.workloads.cache import cached_workload
    window = RandomFillWindow(*spec.window) if spec.window is not None else RandomFillWindow(16, 15)
    cfg = spec.config
    trace = cached_workload(spec.benchmark, n_refs=spec.n_refs, seed=spec.seed)
    return profile_reference_ratio(
        trace,
        window,
        l1_size=cfg.l1d_size,
        l1_assoc=cfg.l1d_assoc,
        line_size=cfg.line_size,
        seed=spec.seed,
    )
