"""``python -m repro`` — scope demo, ``sweep`` and ``leakage`` subcommands.

Without arguments: lists the implemented systems and the table/figure
-> bench mapping, then runs a 5-second demonstration (the Flush-Reload
attack against demand fetch succeeds; against the random fill cache it
fails).

``python -m repro sweep <figure>`` runs one evaluation sweep through
the supervised parallel runner (``--jobs`` / ``REPRO_JOBS``; per-cell
retry and timeout via ``REPRO_CELL_RETRIES`` / ``REPRO_CELL_TIMEOUT``)
and appends its wall-clock and throughput to ``BENCH_runner.json``.
``--telemetry PATH`` streams a JSONL event log of the run; ``--resume``
re-runs an interrupted sweep, recomputing only the cells that had not
been checkpointed into the result cache.  Compatible cells are batched
by default so one trace decode serves a whole group
(``--batch/--no-batch`` / ``REPRO_BATCH``); results are bit-identical
either way.

``python -m repro leakage`` runs the unified leakage sweep — empirical
mutual information, guessing entropy and success-rate curves for the
Equation (7) reference channel, Flush-Reload and the cache-occupancy
channel, per scheme x window x seed — validates it against the
Section V-B closed forms, and writes ``BENCH_leakage.json``.

``python -m repro serve`` runs the asyncio sweep service
(:mod:`repro.service`): ``POST /sweeps`` accepts CellSpec /
LeakageCellSpec grids as versioned JSON, runs them through the same
supervised runner behind a bounded work queue with per-client rate
limits, shares one content-addressed result store across all sweeps,
and streams per-sweep JSONL telemetry from ``GET /sweeps/{id}/events``
(``--port/--jobs/--queue-depth/--max-cells-per-request/--rate``).
The service is crash-safe: accepted sweeps are journaled under the
spool directory (``--spool``), a restart replays the journal and
resumes interrupted work from the result-cache checkpoints, and
SIGTERM/SIGINT drain gracefully — the running sweep finishes, queued
sweeps survive to the next process (``--no-recover`` opts out;
``--port-file`` publishes the bound port for supervisors).

``--check[=RATE]`` on both sweeps turns on checked simulation mode
(:mod:`repro.check`): every cell runs under the invariant sanitizer
and the differential oracle, sampled every RATE accesses (default
1024).  The flag exports ``REPRO_CHECK`` so worker processes inherit
it; on ``leakage`` it additionally keeps its original meaning of
exiting non-zero when a validation check fails.
"""

import argparse
import os
import sys

from repro import __version__
from repro.attacks import run_flush_reload_trials
from repro.cache.set_associative import SetAssociativeCache
from repro.core.window import RandomFillWindow
from repro.secure.region import ProtectedRegion

EXPERIMENTS = (
    ("Table I", "attack classification", "test_table1_attack_classification"),
    ("Figure 2", "collision-attack timing characteristic", "test_fig2_timing_characteristic"),
    ("Table III", "P1-P2 vs window size", "test_table3_p1p2"),
    ("Figure 5", "storage channel capacity", "test_fig5_channel_capacity"),
    ("Figure 6", "AES performance under defences", "test_fig6_crypto_performance"),
    ("Figure 7", "window size vs AES performance", "test_fig7_window_size"),
    ("Figure 8", "SMT co-runner throughput", "test_fig8_concurrent"),
    ("Figure 9", "Eff(d) locality profiles", "test_fig9_profiling"),
    ("Figure 10", "MPKI/IPC vs window shape", "test_fig10_mpki_ipc"),
    ("Sec. VII", "tagged prefetcher comparison", "test_sec7_prefetcher_comparison"),
    ("(extra)", "fill-path ablations", "test_ablation_fill_path"),
)

#: ``sweep`` subcommand choices -> short description
SWEEPS = {
    "fig6": "AES-CBC performance under the defences",
    "fig7": "AES-CBC performance vs window size",
    "fig8": "SMT co-runner throughput",
    "fig9": "Eff(d) locality profiles",
    "fig10": "general-benchmark MPKI/IPC window sweep",
    "prefetch": "tagged prefetcher vs random fill",
}


def demo() -> None:
    print(f"repro {__version__} — Random Fill Cache Architecture "
          "(Liu & Lee, MICRO 2014)")
    print("\nReproduced experiments (pytest benchmarks/ --benchmark-only):")
    for figure, what, bench in EXPERIMENTS:
        print(f"  {figure:9s} {what:40s} benchmarks/{bench}.py")

    print("\nSmoke demo: Flush-Reload against a 1-KB table (16 lines)")
    region = ProtectedRegion(0x10000, 1024)
    for label, window in (("demand fetch", RandomFillWindow(0, 0)),
                          ("random fill [-16,+15]", RandomFillWindow(16, 15))):
        result = run_flush_reload_trials(
            SetAssociativeCache(32 * 1024, 4), region, window,
            trials=400, seed=1)
        print(f"  {label:22s} attacker accuracy {result.exact_accuracy:.2f}, "
              f"leakage {result.mutual_information:.2f} bits")
    print("\nSee README.md, DESIGN.md and EXPERIMENTS.md for the full story.")


def _sweep_profile_spec(args: argparse.Namespace):
    """A representative first cell of the chosen figure's grid."""
    from repro.runner.cells import CellSpec

    if args.figure in ("fig6", "fig7"):
        return CellSpec(kind="crypto", scheme="random_fill", window=(16, 15),
                        message_kb=args.message_kb, seed=args.seed)
    if args.figure == "fig8":
        return CellSpec(kind="concurrent", scheme="random_fill",
                        benchmark="sjeng", window=(16, 15),
                        n_refs=args.n_refs, seed=args.seed)
    if args.figure == "fig9":
        return CellSpec(kind="profile", benchmark="astar", window=(16, 15),
                        n_refs=args.n_refs, seed=args.seed)
    if args.figure == "prefetch":
        return CellSpec(kind="general", scheme="tagged_prefetch",
                        benchmark="lbm", window=(0, 0), n_refs=args.n_refs,
                        seed=args.seed)
    return CellSpec(kind="general", benchmark="astar", window=(4, 3),
                    n_refs=args.n_refs, seed=args.seed)


def _run_profile(spec) -> None:
    from repro.runner.profiler import profile_cell

    print(f"profiling one cell under cProfile: {spec}")
    _result, report = profile_cell(spec)
    print(report)


def _profile_grid_specs(args: argparse.Namespace):
    """The full cell grid for figures whose ``--profile`` should show
    the batched path (``None`` -> profile a single cell instead)."""
    if args.figure == "fig6":
        from repro.experiments.perf_crypto import figure6_specs

        return figure6_specs(message_kb=args.message_kb, seed=args.seed)
    if args.figure != "fig10":
        return None
    from repro.experiments.perf_general import figure10_specs

    return figure10_specs(n_refs=args.n_refs, seed=args.seed)


def _batch_label(batch) -> str:
    first = batch.cells[0]
    detail = getattr(first, "benchmark", None)
    if batch.kind == "crypto":
        config = first.config
        detail = f"{config.l1d_size // 1024}KB/{config.l1d_assoc}-way"
    if not detail:
        channel = getattr(first, "channel", "")
        scheme = getattr(first, "scheme", "")
        detail = f"{channel}/{scheme}" if channel else ""
    return f"{batch.kind}:{detail}" if detail else batch.kind


def _run_profile_batched(specs, batch) -> bool:
    """Profile the first planned batch of ``specs`` under cProfile.

    Prints the batch plan (groups, cells per group) first, so the
    profile is read in context of what the real sweep would dispatch.
    Returns ``False`` — caller falls back to single-cell profiling —
    when batching is off (flag, env, or checked mode) or when the grid
    plans no batch.
    """
    from repro.check import check_rate_from_env
    from repro.cpu.batch import lane_eligible
    from repro.runner.batch import (
        LANE_KINDS, BatchItem, plan_batches, resolve_batch, resolve_lanes,
    )
    from repro.runner.profiler import profile_batch

    try:
        batching = resolve_batch(batch)
        lane_width = resolve_lanes()
    except ValueError as error:
        sys.exit(f"error: {error}")
    if not batching or check_rate_from_env() is not None:
        return False
    items = plan_batches(specs, range(len(specs)))
    batches = [item for item in items if isinstance(item, BatchItem)]
    if not batches:
        return False
    batched_cells = sum(len(item.indices) for item in batches)
    print(f"batch plan: {len(batches)} batches covering {batched_cells} of "
          f"{len(specs)} cells (lane width {lane_width})")
    lane_batch = None
    for item in batches:
        eligible = 0
        if item.batch.kind in LANE_KINDS and lane_width >= 2:
            eligible = sum(lane_eligible(spec) for spec in item.batch.cells)
        fallback = len(item.indices) - eligible
        lanes_note = (f"{eligible:3d} lane / {fallback} fallback"
                      if eligible else "scalar")
        print(f"  {item.batch.batch_id:4s} {_batch_label(item.batch):28s} "
              f"{len(item.indices):3d} cells  {lanes_note}")
        if eligible >= 2 and lane_batch is None:
            lane_batch = item
    first = lane_batch or batches[0]
    kind = "lane batch" if first is lane_batch else "batch"
    print(f"\nprofiling {kind} {first.batch.batch_id} "
          f"({len(first.indices)} cells) under cProfile")
    _results, report = profile_batch(first.batch)
    print(report)
    return True


def _resolve_jobs_or_exit(jobs):
    """CLI-friendly job resolution: a bad ``--jobs`` / ``REPRO_JOBS``
    is a usage error, not a traceback."""
    from repro.runner.pool import resolve_jobs

    try:
        return resolve_jobs(jobs)
    except ValueError as error:
        sys.exit(f"error: {error}")


def _apply_check_mode(value) -> None:
    """Export a ``--check[=RATE]`` request as ``REPRO_CHECK``.

    Setting the environment variable (rather than threading a flag)
    means worker processes inherit checked mode for free.  A malformed
    value is a usage error, not a traceback — and never silently off.
    """
    if value is None:
        return
    from repro.check import DEFAULT_RATE, ENV_VAR, parse_check_value

    try:
        rate = parse_check_value(value)
    except ValueError as error:
        sys.exit(f"error: --check: {error}")
    if rate is None:
        return
    os.environ[ENV_VAR] = value
    suffix = "" if rate == DEFAULT_RATE else f" (every {rate} accesses)"
    print(f"checked mode on: invariant sanitizer + differential "
          f"oracle{suffix}")


def _validate_cache_env() -> None:
    """Fail fast on a malformed ``REPRO_CACHE_MAX_MB`` before any cell
    runs (the workers would each hit the same error mid-sweep)."""
    from repro.util.diskcache import max_cache_bytes

    try:
        max_cache_bytes()
    except ValueError as error:
        sys.exit(f"error: {error}")


def _check_resume(resume: bool) -> None:
    """``--resume`` relies on the result-cache checkpoints; refuse to
    pretend when the cache is disabled."""
    if not resume:
        return
    from repro.runner.result_cache import RESULT_CACHE
    if not RESULT_CACHE.enabled:
        sys.exit("--resume needs the result cache, but it is disabled "
                 "(REPRO_RESULT_CACHE); unset it and re-run")


def _print_run_stats(stats: dict, jobs: int, resume: bool = False) -> None:
    """Shared post-sweep summary: throughput plus supervision counters."""
    print(f"\n{stats['cells']:.0f} cells in {stats['seconds']:.2f}s "
          f"({stats['cells_per_sec']:.1f} cells/s, jobs={jobs}, "
          f"cell latency p50 {stats.get('latency_p50_s', 0):.3f}s / "
          f"p95 {stats.get('latency_p95_s', 0):.3f}s)")
    if resume:
        print(f"resumed: {stats.get('result_cache_hits', 0):.0f} cells "
              f"restored from checkpoints, "
              f"{stats.get('result_cache_misses', 0):.0f} recomputed")
    if stats.get("batches", 0):
        print(f"batched: {stats.get('batches', 0):.0f} batches covering "
              f"{stats.get('batched_cells', 0):.0f} cells, "
              f"{stats.get('decode_reuse_hits', 0):.0f} decode reuses")
    if stats.get("lane_width", 0):
        print(f"lanes: width {stats.get('lane_width', 0):.0f}, "
              f"{stats.get('vectorized_cells', 0):.0f} cells vectorized, "
              f"{stats.get('scalar_fallback_cells', 0):.0f} scalar "
              f"fallback")
    supervision = {name: stats.get(name, 0)
                   for name in ("retries", "timeouts", "pool_restarts",
                                "inline_fallback")}
    if any(supervision.values()):
        print("supervision: " + ", ".join(
            f"{name}={value:.0f}" for name, value in supervision.items()
            if value))
    if stats.get("checks_run", 0) or stats.get("violations", 0):
        print(f"checked mode: {stats.get('checks_run', 0):.0f} validations, "
              f"{stats.get('violations', 0):.0f} violations")


def _apply_lanes(lanes) -> None:
    """Export ``--lanes`` as ``REPRO_LANES`` so workers inherit it."""
    if lanes is None:
        return
    from repro.runner.batch import resolve_lanes

    try:
        resolve_lanes(lanes)
    except ValueError as error:
        sys.exit(f"error: --lanes: {error}")
    os.environ["REPRO_LANES"] = str(lanes)


def sweep(args: argparse.Namespace) -> None:
    from repro.experiments.perf_concurrent import figure8
    from repro.experiments.perf_crypto import figure6, figure7
    from repro.experiments.perf_general import (
        figure9,
        figure10,
        prefetcher_comparison,
    )
    from repro.runner.pool import last_run_stats, run_context
    from repro.runner.report import record_bench

    _apply_check_mode(args.check)
    _apply_lanes(args.lanes)
    _validate_cache_env()
    if args.profile:
        grid = _profile_grid_specs(args)
        if grid is None or not _run_profile_batched(grid, args.batch):
            _run_profile(_sweep_profile_spec(args))
        return
    _check_resume(args.resume)
    jobs = _resolve_jobs_or_exit(args.jobs)
    print(f"sweep {args.figure}: {SWEEPS[args.figure]} "
          f"(jobs={jobs}, seed={args.seed})")
    with run_context(telemetry=args.telemetry or None, batch=args.batch):
        if args.figure == "fig6":
            points = figure6(message_kb=args.message_kb, seed=args.seed,
                             jobs=jobs)
            for p in points:
                print(f"  {p.scheme:20s} {p.l1_size // 1024:2d}KB "
                      f"{p.l1_assoc}-way  normalized IPC "
                      f"{p.normalized_ipc:.3f}")
        elif args.figure == "fig7":
            series = figure7(message_kb=args.message_kb, seed=args.seed,
                             jobs=jobs)
            for label, pts in series.items():
                curve = ", ".join(f"W={w}: {v:.3f}" for w, v in pts)
                print(f"  {label:16s} {curve}")
        elif args.figure == "fig8":
            points = figure8(n_refs=args.n_refs, seed=args.seed, jobs=jobs)
            for p in points:
                print(f"  {p.benchmark:11s} {p.scheme:20s} "
                      f"{p.l1_size // 1024:2d}KB {p.l1_assoc}-way  "
                      f"normalized throughput {p.normalized_throughput:.3f}")
        elif args.figure == "fig9":
            profiles = figure9(n_refs=args.n_refs, seed=args.seed, jobs=jobs)
            for benchmark, profile in profiles.items():
                print(f"  {benchmark:11s} Eff(0)={profile.eff(0):.3f}")
        elif args.figure == "fig10":
            points = figure10(n_refs=args.n_refs, seed=args.seed, jobs=jobs)
            for p in points:
                print(f"  {p.benchmark:11s} {p.label:9s} "
                      f"L1 MPKI {p.result.l1_mpki:7.2f}  "
                      f"normalized IPC {p.normalized_ipc:.3f}")
        else:  # prefetch
            rows = prefetcher_comparison(n_refs=args.n_refs, seed=args.seed,
                                         jobs=jobs)
            for row in rows:
                print(f"  {row['benchmark']:11s} "
                      f"tagged x{row['tagged_speedup']:.3f}  "
                      f"random fill x{row['random_fill_speedup']:.3f}")
    stats = last_run_stats()
    _print_run_stats(stats, jobs, resume=args.resume)
    if args.report:
        entry = {"figure": args.figure, "seed": args.seed, "n_refs": args.n_refs,
                 "message_kb": args.message_kb, **stats}
        record_bench(f"sweep_{args.figure}", entry, path=args.report)
        print(f"recorded under 'sweep_{args.figure}' in {args.report}")


def leakage(args: argparse.Namespace) -> None:
    from repro.leakage.report import (
        format_leakage_table,
        validate_results,
        write_leakage_report,
    )
    from repro.leakage.sweep import leakage_grid, run_leakage_sweep
    from repro.runner.pool import last_run_stats, run_context

    _apply_check_mode(args.check)
    _validate_cache_env()
    _check_resume(args.resume)
    jobs = _resolve_jobs_or_exit(args.jobs)
    grid_kwargs = dict(
        m_lines=args.m_lines, trials=args.trials,
        seeds=tuple(args.seed + i for i in range(args.seeds)))
    if args.schemes:
        from repro.schemes import functional_scheme_names
        schemes = tuple(args.schemes.split(","))
        known = functional_scheme_names()
        unknown = [s for s in schemes if s not in known]
        if unknown:
            sys.exit(f"unknown scheme(s) {', '.join(unknown)}; "
                     f"registered: {', '.join(known)}")
        grid_kwargs["schemes"] = schemes
    if args.windows:
        grid_kwargs["window_sizes"] = tuple(
            int(w) for w in args.windows.split(","))
    if args.smoke:
        # CI-sized grid: one window, every registered scheme (so a
        # broken plugin fails the smoke), fewer Monte-Carlo repeats.
        # Explicit flags still win.
        grid_kwargs.setdefault("window_sizes", (8,))
        grid_kwargs["curve_repeats"] = 100
    specs = leakage_grid(**grid_kwargs)
    if args.profile:
        if not _run_profile_batched(specs, args.batch):
            _run_profile(specs[0])
        return
    print(f"leakage sweep: {len(specs)} cells "
          f"(jobs={jobs}, seed={args.seed}, seeds={args.seeds})")
    with run_context(telemetry=args.telemetry or None, batch=args.batch):
        results = run_leakage_sweep(specs, jobs=jobs)
    print(format_leakage_table(results))

    validation = validate_results(results)
    print(f"\nvalidation: {validation['passed']} passed, "
          f"{validation['failed']} failed")
    for check in validation["checks"]:
        if not check["ok"]:
            print(f"  FAIL {check['check']}: {check['detail']}")
    stats = last_run_stats()
    _print_run_stats(stats, jobs, resume=args.resume)
    if args.report:
        write_leakage_report(results, validation=validation,
                             stats={"seed": args.seed, **stats},
                             path=args.report)
        print(f"recorded under 'leakage' in {args.report}")
    if args.check and validation["failed"]:
        sys.exit(1)


def serve_cmd(args: argparse.Namespace) -> None:
    """``python -m repro serve``: the asyncio sweep service."""
    from repro.service.app import run_server
    from repro.service.sweeps import ServiceConfig

    _validate_cache_env()
    jobs = _resolve_jobs_or_exit(args.jobs) if args.jobs is not None else None
    try:
        config = ServiceConfig(
            host=args.host, port=args.port, jobs=jobs,
            queue_depth=args.queue_depth,
            max_cells_per_request=args.max_cells_per_request,
            rate=args.rate, burst=args.burst,
            spool_dir=args.spool or None,
            port_file=args.port_file or None,
            recover=not args.no_recover)
        run_server(config)
    except (ValueError, OSError) as error:
        sys.exit(f"error: {error}")


def cache_cmd(args: argparse.Namespace) -> None:
    """``python -m repro cache --stats/--clear``: inspect or empty the
    on-disk cache layers under ``~/.cache/repro``."""
    from repro.runner.result_cache import RESULT_CACHE, default_result_dir
    from repro.util.diskcache import clear_dir, dir_stats, max_cache_bytes
    from repro.workloads.cache import default_cache_dir

    _validate_cache_env()
    layers = (("traces", default_cache_dir()),
              ("results", default_result_dir()))
    if args.clear:
        for name, directory in layers:
            cleared = clear_dir(directory)
            where = directory if directory else "(disabled)"
            print(f"{name:8s} {where}: removed {cleared['files']} files, "
                  f"{cleared['bytes'] / 1e6:.1f} MB")
        return
    budget = max_cache_bytes()
    budget_text = (f"{budget / 1e6:.0f} MB per layer"
                   if budget is not None else "unbounded")
    print(f"on-disk cache layers (mtime-LRU bound: {budget_text}, "
          f"REPRO_CACHE_MAX_MB to change):")
    for name, directory in layers:
        stats = dir_stats(directory)
        where = directory if directory else "(disabled)"
        print(f"  {name:8s} {stats['files']:5d} files "
              f"{stats['bytes'] / 1e6:8.1f} MB  {where}")
    scan = RESULT_CACHE.verify()
    if scan["scanned"]:
        print(f"results integrity: {scan['scanned']} entries scanned, "
              f"{scan['quarantined']} corrupt quarantined")
    # The same thread-safe snapshot the service's /metrics endpoint
    # reports, so a live service and this CLI agree on the counters.
    counters = RESULT_CACHE.stats_snapshot()
    print(f"results counters (this process): hits={counters['hits']} "
          f"misses={counters['misses']} "
          f"corrupt_evicted={counters['corrupt_evicted']} "
          f"store_failures={counters['store_failures']}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Random Fill Cache Architecture reproduction")
    sub = parser.add_subparsers(dest="command")
    sp = sub.add_parser(
        "sweep", help="run one evaluation sweep via the parallel runner")
    sp.add_argument("figure", choices=sorted(SWEEPS),
                    help="which sweep to run")
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: REPRO_JOBS or all cores)")
    sp.add_argument("--n-refs", type=int, default=100_000,
                    help="trace length for general/concurrent sweeps")
    sp.add_argument("--message-kb", type=int, default=32,
                    help="AES-CBC message size for crypto sweeps")
    sp.add_argument("--seed", type=int, default=0,
                    help="master seed for traces and schemes")
    sp.add_argument("--report", default="BENCH_runner.json",
                    help="benchmark report file ('' to skip recording)")
    sp.add_argument("--telemetry", default="", metavar="PATH",
                    help="append a JSONL event log of the run (cell "
                    "start/finish/retry/timeout, pool restarts) to PATH")
    sp.add_argument("--resume", action="store_true",
                    help="resume an interrupted sweep: recompute only the "
                    "cells missing from the result-cache checkpoints and "
                    "report how many were restored")
    sp.add_argument("--check", nargs="?", const="1", default=None,
                    metavar="RATE",
                    help="checked simulation mode: run every cell under "
                    "the invariant sanitizer and differential oracle, "
                    "validating every RATE accesses (default 1024); "
                    "exports REPRO_CHECK to worker processes")
    sp.add_argument("--batch", action=argparse.BooleanOptionalAction,
                    default=None,
                    help="batch compatible cells so one trace decode "
                    "serves a whole group (default: on, or REPRO_BATCH); "
                    "results are bit-identical either way")
    sp.add_argument("--lanes", type=int, default=None, metavar="N",
                    help="lane width for the batched kernel: advance up "
                    "to N eligible cells of a group per kernel call "
                    "(default: REPRO_LANES or 64; 0/1 keeps the scalar "
                    "per-cell kernel); results are bit-identical for "
                    "any width")
    sp.add_argument("--profile", action="store_true",
                    help="run ONE representative cell (or, when the sweep "
                    "batches, its first batch) under cProfile and print "
                    "the top-20 cumulative hotspots instead of running "
                    "the sweep")
    lp = sub.add_parser(
        "leakage", help="run the unified leakage sweep (MI, guessing "
        "entropy, success-rate curves per scheme x window x seed)")
    lp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: REPRO_JOBS or all cores)")
    lp.add_argument("--seed", type=int, default=0,
                    help="master seed for every leakage cell")
    lp.add_argument("--seeds", type=int, default=1,
                    help="number of seed replicates (seed, seed+1, ...)")
    lp.add_argument("--trials", type=int, default=0,
                    help="trials per cell (0 = per-channel defaults)")
    lp.add_argument("--m-lines", type=int, default=16,
                    help="security-critical region size in lines (M)")
    lp.add_argument("--schemes", default="",
                    help="comma-separated scheme subset (default: all)")
    lp.add_argument("--windows", default="",
                    help="comma-separated window sizes (default: 2,4,8,16,32)")
    lp.add_argument("--smoke", action="store_true",
                    help="CI-sized grid: every registered scheme, "
                         "window 8 only, fewer curve repeats")
    lp.add_argument("--check", nargs="?", const="1", default=None,
                    metavar="RATE",
                    help="checked simulation mode (sanitizer + oracle, "
                    "every RATE accesses, default 1024; exports "
                    "REPRO_CHECK to workers) — and exit non-zero if any "
                    "validation check fails")
    lp.add_argument("--report", default="BENCH_leakage.json",
                    help="leakage report file ('' to skip recording)")
    lp.add_argument("--telemetry", default="", metavar="PATH",
                    help="append a JSONL event log of the run (cell "
                    "start/finish/retry/timeout, pool restarts) to PATH")
    lp.add_argument("--resume", action="store_true",
                    help="resume an interrupted sweep: recompute only the "
                    "cells missing from the result-cache checkpoints and "
                    "report how many were restored")
    lp.add_argument("--batch", action=argparse.BooleanOptionalAction,
                    default=None,
                    help="batch compatible cells into one work item per "
                    "group (default: on, or REPRO_BATCH); results are "
                    "bit-identical either way")
    lp.add_argument("--profile", action="store_true",
                    help="run ONE grid cell (or, when the sweep batches, "
                    "its first batch) under cProfile and print the "
                    "top-20 cumulative hotspots instead of the sweep")
    vp = sub.add_parser(
        "serve", help="run the asyncio sweep service (HTTP/JSON API over "
        "the supervised runner with a shared result store)")
    vp.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    vp.add_argument("--port", type=int, default=8322,
                    help="TCP port (0 picks an ephemeral port; default 8322)")
    vp.add_argument("--jobs", type=int, default=None,
                    help="worker processes per sweep (default: REPRO_JOBS "
                    "or all cores)")
    vp.add_argument("--queue-depth", type=int, default=16,
                    help="sweeps allowed to wait behind the running one "
                    "before POST /sweeps answers 429 (default 16)")
    vp.add_argument("--max-cells-per-request", type=int, default=4096,
                    help="per-submission cell ceiling; larger grids get a "
                    "structured 400 (default 4096)")
    vp.add_argument("--rate", type=float, default=10.0,
                    help="per-client submissions per second (default 10)")
    vp.add_argument("--burst", type=float, default=20.0,
                    help="per-client submission burst capacity (default 20)")
    vp.add_argument("--spool", default="",
                    help="directory for per-sweep telemetry JSONL files and "
                    "the durable sweep journal; reuse it across restarts to "
                    "recover interrupted sweeps (default: a fresh temp "
                    "directory)")
    vp.add_argument("--port-file", default="",
                    help="write the bound port to this file once listening "
                    "(atomic; handshake for supervisors and the chaos "
                    "harness)")
    vp.add_argument("--no-recover", action="store_true",
                    help="skip replaying the sweep journal on boot (fresh "
                    "start even over a dirty spool)")
    cp = sub.add_parser(
        "cache", help="inspect or clear the on-disk trace/result caches")
    group = cp.add_mutually_exclusive_group()
    group.add_argument("--stats", action="store_true",
                       help="print per-layer file counts and sizes (default)")
    group.add_argument("--clear", action="store_true",
                       help="delete every entry of both layers")
    return parser


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    if args.command == "sweep":
        sweep(args)
    elif args.command == "leakage":
        leakage(args)
    elif args.command == "serve":
        serve_cmd(args)
    elif args.command == "cache":
        cache_cmd(args)
    else:
        demo()


if __name__ == "__main__":
    main(sys.argv[1:])
