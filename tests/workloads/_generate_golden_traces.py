"""Regenerate ``golden_traces.json`` (the synthetic workload traces, pinned).

The file holds the sha256 of every column (``addr``, ``gap``, ``write``
as little-endian int64) of:

* all eight named benchmarks (``make_workload``, which bypasses the
  trace cache) at each ``(n_refs, seed)`` in ``BENCHMARK_POINTS``;
* each synthetic primitive at the edge parameter sets in
  ``PRIMITIVE_CASES``: one record, a wrapping array, ``refs_per_line``
  1-8, ``write_ratio``/``dense_prob`` at 0 and 1, ``p_hot +
  p_neighbor = 1``, a one-line working set, ``stride_lines_max=1``.

``test_golden_traces.py`` replays it bit for bit.  The hashes also key
the disk trace cache's contents through ``GENERATOR_VERSION``, so a
change that moves any of them must bump that version.  Generate the
file from the commit whose traces are to be pinned, before editing the
generators:

    PYTHONPATH=src python tests/workloads/_generate_golden_traces.py
"""

import hashlib
import json
import os

import numpy as np

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_traces.json")

#: (n_refs, seed) at which all eight benchmarks are pinned
BENCHMARK_POINTS = ((400_000, 0), (40_000, 1003), (3_001, 7))

_BASE = 0x100_0000

#: (primitive name, keyword arguments) of the pinned edge cases
PRIMITIVE_CASES = (
    ("locality_mixture", dict(n_refs=1, base=_BASE, working_set_lines=64,
                              hot_lines=8, p_hot=0.5, p_neighbor=0.2,
                              neighbor_span=2, refs_per_line=1,
                              write_ratio=0.0, gap=3, seed=11)),
    ("locality_mixture", dict(n_refs=1000, base=_BASE, working_set_lines=1,
                              hot_lines=1, p_hot=0.5, p_neighbor=0.3,
                              neighbor_span=1, refs_per_line=3,
                              write_ratio=0.5, gap=4, seed=12)),
    ("locality_mixture", dict(n_refs=4999, base=_BASE, working_set_lines=1000,
                              hot_lines=3, p_hot=0.4, p_neighbor=0.6,
                              neighbor_span=5, refs_per_line=8,
                              write_ratio=1.0, gap=5, seed=13)),
    ("locality_mixture", dict(n_refs=5000, base=0, working_set_lines=(1 << 20) + 3,
                              hot_lines=100, p_hot=0.1, p_neighbor=0.3,
                              neighbor_span=0, refs_per_line=7,
                              write_ratio=0.3, gap=1, seed=14)),
    ("locality_mixture", dict(n_refs=3001, base=_BASE, working_set_lines=4096,
                              hot_lines=0, p_hot=0.0, p_neighbor=0.0,
                              neighbor_span=1, refs_per_line=5,
                              write_ratio=0.2, gap=4, seed=15)),
    ("streaming", dict(n_refs=1, base=_BASE, array_lines=100, refs_per_line=1,
                       stride_lines_max=3, dense_prob=0.5, write_ratio=1.0,
                       gap=2, seed=21)),
    ("streaming", dict(n_refs=5000, base=_BASE, array_lines=1000,
                       refs_per_line=8, stride_lines_max=1, dense_prob=0.3,
                       write_ratio=0.4, gap=4, seed=22)),
    ("streaming", dict(n_refs=4000, base=_BASE, array_lines=10,
                       refs_per_line=5, stride_lines_max=3, dense_prob=0.5,
                       write_ratio=0.5, gap=4, seed=23)),
    ("streaming", dict(n_refs=3001, base=_BASE, array_lines=100000,
                       refs_per_line=1, stride_lines_max=5, dense_prob=0.0,
                       write_ratio=1.0, gap=6, seed=24)),
    ("streaming", dict(n_refs=2999, base=_BASE, array_lines=100000,
                       refs_per_line=3, stride_lines_max=4, dense_prob=1.0,
                       write_ratio=0.0, gap=4, seed=25)),
    ("strided", dict(n_refs=1, base=_BASE, array_lines=100, stride_lines=1,
                     refs_per_line=1, write_ratio=0.0, gap=6, seed=31)),
    ("strided", dict(n_refs=3001, base=_BASE, array_lines=7, stride_lines=3,
                     refs_per_line=8, write_ratio=1.0, gap=6, seed=32)),
    ("strided", dict(n_refs=5000, base=_BASE, array_lines=16384,
                     stride_lines=5, refs_per_line=3, write_ratio=0.5,
                     gap=2, seed=33)),
    ("pointer_chase", dict(n_refs=1, base=_BASE, working_set_lines=2, gap=5,
                           write_ratio=0.5, seed=41)),
    ("pointer_chase", dict(n_refs=5000, base=_BASE, working_set_lines=1000,
                           gap=5, write_ratio=0.5, seed=42)),
    ("pointer_chase", dict(n_refs=100, base=_BASE, working_set_lines=3,
                           gap=1, write_ratio=1.0, seed=43)),
    ("pointer_chase", dict(n_refs=3001, base=_BASE, working_set_lines=4096,
                           gap=5, write_ratio=0.0, seed=44)),
)


def column_digests(trace):
    """sha256 of each column as little-endian int64."""
    return {
        name: hashlib.sha256(
            np.ascontiguousarray(getattr(trace, name), dtype="<i8").tobytes()
        ).hexdigest()
        for name in ("addr", "gap", "write")
    }


def golden_entries():
    from repro.workloads import synthetic
    from repro.workloads.spec import SPEC_BENCHMARKS, make_workload

    benchmarks = [
        {"name": name, "n_refs": n_refs, "seed": seed,
         "sha256": column_digests(make_workload(name, n_refs, seed))}
        for n_refs, seed in BENCHMARK_POINTS
        for name in SPEC_BENCHMARKS
    ]
    primitives = [
        {"primitive": primitive, "kwargs": kwargs,
         "sha256": column_digests(getattr(synthetic, primitive)(**kwargs))}
        for primitive, kwargs in PRIMITIVE_CASES
    ]
    return benchmarks, primitives


def main():
    from repro.workloads.spec import GENERATOR_VERSION

    benchmarks, primitives = golden_entries()
    golden = {
        "comment": "sha256 of each int64 little-endian trace column; "
                   "see _generate_golden_traces.py",
        "generator_version": GENERATOR_VERSION,
        "benchmarks": benchmarks,
        "primitives": primitives,
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(benchmarks)} benchmark traces, "
          f"{len(primitives)} primitive cases)")


if __name__ == "__main__":
    main()
