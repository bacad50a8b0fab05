"""Regenerate ``golden_fig8.json`` (Figure 8's SMT co-run rows, pinned).

The file holds every row of a reduced Figure 8 sweep (``FIG8_ARGS``:
two benchmarks, both cache configurations, all five schemes, 20 rows):
the measured program's IPC and its throughput normalized to the
demand-fetch co-run.  Each cell co-runs its program trace with the AES
stress trace on the two-thread SMT model, reading both traces through
the trace cache.  The result cache is bypassed, so every row simulates.

``test_golden_fig8.py`` replays it bit for bit.  Generate the file from
the commit whose co-run results are to be pinned:

    PYTHONPATH=src python tests/experiments/_generate_golden_fig8.py
"""

import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_fig8.json")

#: keyword arguments of the pinned ``figure8`` sweep
FIG8_ARGS = {
    "benchmarks": ("sjeng", "lbm"),
    "n_refs": 2000,
    "aes_kb": 1,
    "seed": 5,
    "jobs": 1,
}


def figure8_rows():
    """The rows of the pinned sweep, every cell simulated."""
    from repro.experiments.perf_concurrent import figure8
    from repro.runner.result_cache import RESULT_CACHE

    with RESULT_CACHE.disabled():
        points = figure8(**FIG8_ARGS)
    return [
        {"scheme": p.scheme, "benchmark": p.benchmark, "l1_size": p.l1_size,
         "l1_assoc": p.l1_assoc, "ipc": p.ipc,
         "normalized_throughput": p.normalized_throughput}
        for p in points
    ]


def main():
    rows = figure8_rows()
    golden = {
        "comment": "Figure 8 SMT co-run rows; see _generate_golden_fig8.py",
        "args": {key: list(value) if isinstance(value, tuple) else value
                 for key, value in FIG8_ARGS.items()},
        "rows": rows,
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
