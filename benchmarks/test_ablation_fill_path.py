"""Ablation benches for the design choices DESIGN.md calls out.

Three micro-architectural decisions in the fill path were load-bearing
during calibration; each is ablated here on the libquantum stream:

* **MSHR reservation** — holding one MSHR back from fill requests keeps
  fill traffic from stalling the core;
* **NOFILL upgrade** — merging a random fill request into its line's
  own in-flight NOFILL entry (without it, a line whose only fill source
  is its own misses can never be installed);
* **MSHR count** — the paper's non-blocking story: random fill needs
  miss-level parallelism to be free.
"""

from _reporting import save_report

from repro.cache.mshr import RequestType
from repro.experiments.config import BASELINE_CONFIG, scaled
from repro.experiments.schemes import build_scheme
from repro.cpu.timing import TimingModel
from repro.util.tables import format_table
from repro.workloads.spec import make_workload


def run_stream(mshr_entries=4, fill_reserve=None, disable_upgrade=False,
               n_refs=60_000):
    from dataclasses import replace
    cfg = replace(BASELINE_CONFIG, mshr_entries=mshr_entries)
    scheme = build_scheme("random_fill", cfg, seed=3)
    scheme.os.set_rr(0, 15)
    l1 = scheme.l1
    if fill_reserve is not None:
        l1.fill_reserve = fill_reserve
    if disable_upgrade:
        # Revert to the naive drop-if-in-flight behaviour.
        original = l1._issue_random_fills

        def no_upgrade(now):
            kept = []
            while l1.fill_queue:
                line, ctx = l1.fill_queue.popleft()
                entry = l1.miss_queue.lookup(line)
                if entry is not None and \
                        entry.request_type is RequestType.NOFILL:
                    l1.stats.random_fill_dropped += 1
                    continue
                kept.append((line, ctx))
            l1.fill_queue.extend(kept)
            original(now)
        l1._issue_random_fills = no_upgrade
    trace = make_workload("libquantum", n_refs=n_refs, seed=1)
    return TimingModel(l1, issue_width=cfg.issue_width,
                       overlap_credit=cfg.overlap_credit).run(trace)


def run_all():
    n = scaled(60_000, minimum=10_000)
    return {
        "default": run_stream(n_refs=n),
        "no_reserve": run_stream(fill_reserve=0, n_refs=n),
        "no_upgrade": run_stream(disable_upgrade=True, n_refs=n),
        "mshr_1": run_stream(mshr_entries=1, n_refs=n),
        "mshr_8": run_stream(mshr_entries=8, n_refs=n),
    }


def test_ablation_fill_path(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # More MSHRs help the stream; one MSHR strangles it.
    assert results["mshr_8"].ipc >= results["mshr_1"].ipc
    # The default configuration is not dominated by either ablation.
    assert results["default"].ipc >= results["no_upgrade"].ipc * 0.95
    assert results["default"].ipc >= results["mshr_1"].ipc
    # Without the upgrade, a fill that meets its line's own NOFILL
    # entry is dropped: at least 5% fewer fills issue (3819 vs 4144).
    assert results["no_upgrade"].random_fill_issued \
        <= 0.95 * results["default"].random_fill_issued

    rows = [(name, f"{r.ipc:.3f}", f"{r.l1_mpki:.1f}",
             r.random_fill_issued) for name, r in results.items()]
    save_report("ablation_fill_path", format_table(
        ["configuration", "IPC", "L1 MPKI", "fills issued"], rows,
        title="Ablation: fill-path design choices on libquantum [0,15]"))
