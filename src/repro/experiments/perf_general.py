"""General-program performance: Figures 9, 10 and the Section VII
prefetcher comparison.

Figure 9 profiles Eff(d) — the fraction of randomly filled lines at
offset ``d`` referenced before eviction.  Figure 10 sweeps forward and
bidirectional windows over the SPEC-like benchmarks and reports L1 MPKI
and IPC (random fill enabled for *all* accesses, as the paper does by
setting the range registers at program start).  Section VII compares
the best random fill window against a tagged next-line prefetcher on
the streaming benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.profiling import ProfileResult
from repro.core.window import RandomFillWindow
from repro.cpu.timing import SimResult, TimingModel
from repro.cpu.trace import Trace
from repro.experiments.config import BASELINE_CONFIG, SimulatorConfig
from repro.experiments.schemes import build_scheme
from repro.runner.cells import CellSpec
from repro.runner.pool import run_cells
from repro.workloads.cache import cached_workload

#: Figure 10's window sweep: [0,0] is demand fetch; [0,b] forward;
#: [-a,b] bidirectional.
FIGURE10_WINDOWS: Tuple[Tuple[int, int], ...] = (
    (0, 0), (0, 1), (0, 3), (0, 7), (0, 15), (0, 31),
    (1, 0), (2, 1), (4, 3), (8, 7), (16, 15),
)

FIGURE10_ORDER = ("astar", "bzip2", "h264ref", "sjeng",
                  "milc", "hmmer", "lbm", "libquantum")


def window_label(a: int, b: int) -> str:
    return f"[{-a},{b}]"


def figure9(benchmarks: Sequence[str] = FIGURE10_ORDER,
            n_refs: int = 100_000,
            window: RandomFillWindow = RandomFillWindow(16, 15),
            config: SimulatorConfig = BASELINE_CONFIG,
            seed: int = 0,
            jobs: Optional[int] = None) -> Dict[str, ProfileResult]:
    """Eff(d) profiles per benchmark (Figure 9).

    One cell per benchmark, fanned over the parallel runner.
    """
    specs = [CellSpec(kind="profile", benchmark=benchmark,
                      window=(window.a, window.b), n_refs=n_refs,
                      seed=seed, config=config)
             for benchmark in benchmarks]
    results = run_cells(specs, jobs=jobs)
    return dict(zip(benchmarks, results))


@dataclass
class GeneralPerfPoint:
    benchmark: str
    window: Tuple[int, int]          # (a, b)
    result: SimResult
    normalized_ipc: float = 0.0

    @property
    def label(self) -> str:
        return window_label(*self.window)


def run_general_workload(benchmark: str, window: Tuple[int, int],
                         config: SimulatorConfig = BASELINE_CONFIG,
                         n_refs: int = 100_000, seed: int = 0,
                         scheme_name: str = "random_fill",
                         trace=None, warm: bool = True) -> SimResult:
    """One benchmark x window cell of Figure 10.

    "We insert the system call for setting the range registers ... at
    the beginning of the program, which essentially enables random fill
    for all the memory accesses."

    ``trace`` defaults to the cached workload; any other record
    iterable is converted to a :class:`Trace` once.  With ``warm`` the
    first half of the trace warms the L2 and the second half is
    measured.  The paper's SPEC runs cover two billion instructions, so
    its L2 is in steady state for virtually the whole measurement; our
    traces are shorter, so the warm-up prefix's line footprint is
    replayed functionally into the L2: reused working sets become
    resident (as they would be), while touch-once streams leave the
    yet-unvisited region cold (as it would be).
    """
    a, b = window
    scheme = build_scheme(scheme_name, config, seed=seed)
    if scheme.os is not None:
        scheme.os.set_rr(a, b)
    if trace is None:
        trace = cached_workload(benchmark, n_refs=n_refs, seed=seed)
    trace = Trace.from_records(trace)
    if warm:
        # The footprint and the measured half are memoized on the
        # trace, so every window cell of a sweep reuses one zero-copy
        # view and its decode; the trace may be shared through the
        # trace cache and must not be duplicated (or mutated) per cell.
        split = len(trace) // 2
        store = scheme.hierarchy.l2.tag_store
        line_shift = scheme.config.line_size.bit_length() - 1
        access = store.access
        fill = store.fill
        for line in trace.decoded(line_shift).warm_footprint(split):
            if not access(line):
                fill(line)
        trace = trace[split:]
    timing = TimingModel(scheme.l1, issue_width=config.issue_width,
                         overlap_credit=config.overlap_credit)
    return timing.run(trace)


def figure10_specs(benchmarks: Sequence[str] = FIGURE10_ORDER,
                   windows: Sequence[Tuple[int, int]] = FIGURE10_WINDOWS,
                   config: SimulatorConfig = BASELINE_CONFIG,
                   n_refs: int = 100_000,
                   seed: int = 0) -> List[CellSpec]:
    """The Figure 10 cell grid in sweep order (benchmark-major).

    Shared by :func:`figure10` and the CLI's batch-aware ``--profile``,
    which plans these specs into batches and profiles the first one.
    """
    return [CellSpec(kind="general", benchmark=benchmark, window=window,
                     n_refs=n_refs, seed=seed, config=config)
            for benchmark in benchmarks for window in windows]


def figure10(benchmarks: Sequence[str] = FIGURE10_ORDER,
             windows: Sequence[Tuple[int, int]] = FIGURE10_WINDOWS,
             config: SimulatorConfig = BASELINE_CONFIG,
             n_refs: int = 100_000,
             seed: int = 0,
             jobs: Optional[int] = None) -> List[GeneralPerfPoint]:
    """The Figure 10 sweep: L1 MPKI and IPC per benchmark per window.

    Each (benchmark, window) cell fans out over the parallel runner;
    results are regrouped in sweep order, so the output is identical to
    the sequential nested loop for any ``jobs``.
    """
    specs = figure10_specs(benchmarks, windows, config=config,
                           n_refs=n_refs, seed=seed)
    results = iter(run_cells(specs, jobs=jobs))
    points: List[GeneralPerfPoint] = []
    for benchmark in benchmarks:
        base_ipc: Optional[float] = None
        for window in windows:
            result = next(results)
            if base_ipc is None:
                base_ipc = result.ipc
            points.append(GeneralPerfPoint(
                benchmark=benchmark, window=window, result=result,
                normalized_ipc=result.ipc / base_ipc))
    return points


def prefetcher_comparison(benchmarks: Sequence[str] = ("lbm", "libquantum"),
                          best_windows: Dict[str, Tuple[int, int]] = None,
                          config: SimulatorConfig = BASELINE_CONFIG,
                          n_refs: int = 100_000,
                          seed: int = 0,
                          jobs: Optional[int] = None) -> List[Dict[str, float]]:
    """Section VII: tagged prefetcher vs random fill on streaming apps.

    The paper: tagged prefetcher improves IPC by 11% (lbm) / 26%
    (libquantum); random fill by 17% / 57% (libquantum's best window is
    [0, 15]).
    """
    if best_windows is None:
        best_windows = {"lbm": (0, 15), "libquantum": (0, 15)}
    specs: List[CellSpec] = []
    for benchmark in benchmarks:
        specs.append(CellSpec(kind="general", benchmark=benchmark,
                              window=(0, 0), n_refs=n_refs, seed=seed,
                              config=config))
        specs.append(CellSpec(kind="general", scheme="tagged_prefetch",
                              benchmark=benchmark, window=(0, 0),
                              n_refs=n_refs, seed=seed, config=config))
        specs.append(CellSpec(kind="general", benchmark=benchmark,
                              window=best_windows[benchmark], n_refs=n_refs,
                              seed=seed, config=config))
    results = iter(run_cells(specs, jobs=jobs))
    rows: List[Dict[str, float]] = []
    for benchmark in benchmarks:
        base = next(results)
        tagged = next(results)
        rf = next(results)
        rows.append({
            "benchmark": benchmark,
            "baseline_ipc": base.ipc,
            "tagged_speedup": tagged.ipc / base.ipc,
            "random_fill_speedup": rf.ipc / base.ipc,
            "baseline_l1_mpki": base.l1_mpki,
            "random_fill_l1_mpki": rf.l1_mpki,
            "baseline_l2_mpki": base.l2_mpki,
            "random_fill_l2_mpki": rf.l2_mpki,
        })
    return rows
