"""Named SPEC-CPU2006-like benchmarks (the Figure 8/9/10 workloads).

Each entry composes the synthetic primitives with parameters chosen to
match the benchmark's published locality character, which Figure 9 of
the paper itself summarizes:

* ``sjeng``, ``hmmer``, ``h264ref``, ``bzip2``, ``astar``, ``milc`` —
  spatial locality spanning "about four neighborhood cache lines or
  less"; random fill with large windows should *hurt* them (Figure 10),
* ``lbm``, ``libquantum`` — "irregular streaming patterns ... wider
  spatial locality beyond a cache line, especially in the forward
  direction"; random fill with a forward window should *help*.

The traces are deterministic given (name, n_refs, seed).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.cpu.trace import Trace
from repro.workloads.synthetic import locality_mixture, streaming, strided

#: base address for workload data, clear of the AES layout regions
WORKLOAD_BASE = 0x100_0000

#: bump whenever any generator's output changes for the same
#: (name, n_refs, seed) — it keys the on-disk trace cache, so stale
#: cached traces are invalidated automatically.  (The move to columnar
#: traces did not bump it: record content is unchanged, and the disk
#: layer reads legacy record-list entries transparently.  Nor did bulk
#: synthesis, which replays the same MT19937 stream:
#: ``tests/workloads/golden_traces.json`` pins every column it makes.)
GENERATOR_VERSION = 1

_GeneratorFn = Callable[[int, int], Trace]


def _astar(n_refs: int, seed: int) -> Trace:
    # Path-search over a large graph: mostly irregular, mild neighbors.
    return locality_mixture(
        n_refs, WORKLOAD_BASE, working_set_lines=4096, hot_lines=128,
        p_hot=0.35, p_neighbor=0.25, neighbor_span=2, refs_per_line=2,
        write_ratio=0.25, gap=4, seed=seed)


def _bzip2(n_refs: int, seed: int) -> Trace:
    # Block-sorting compression: strong hot set + short spatial runs.
    return locality_mixture(
        n_refs, WORKLOAD_BASE, working_set_lines=4096, hot_lines=256,
        p_hot=0.55, p_neighbor=0.25, neighbor_span=3, refs_per_line=4,
        write_ratio=0.3, gap=4, seed=seed)


def _h264ref(n_refs: int, seed: int) -> Trace:
    # Video encoding: high reuse of reference frames, short runs.
    return locality_mixture(
        n_refs, WORKLOAD_BASE, working_set_lines=2048, hot_lines=384,
        p_hot=0.65, p_neighbor=0.25, neighbor_span=4, refs_per_line=4,
        write_ratio=0.2, gap=5, seed=seed)


def _sjeng(n_refs: int, seed: int) -> Trace:
    # Chess search: scattered hot tables, near-zero spatial locality.
    return locality_mixture(
        n_refs, WORKLOAD_BASE, working_set_lines=4096, hot_lines=192,
        p_hot=0.85, p_neighbor=0.03, neighbor_span=1, refs_per_line=1,
        write_ratio=0.15, gap=6, seed=seed)


def _milc(n_refs: int, seed: int) -> Trace:
    # Lattice QCD: large strided sweeps, little next-line locality.
    return strided(
        n_refs, WORKLOAD_BASE, array_lines=16384, stride_lines=4,
        refs_per_line=2, write_ratio=0.15, gap=6, seed=seed)


def _hmmer(n_refs: int, seed: int) -> Trace:
    # Profile HMM search: tight hot loop over scattered profile rows.
    return locality_mixture(
        n_refs, WORKLOAD_BASE, working_set_lines=2048, hot_lines=160,
        p_hot=0.9, p_neighbor=0.07, neighbor_span=2, refs_per_line=4,
        write_ratio=0.1, gap=4, seed=seed)


def _lbm(n_refs: int, seed: int) -> Trace:
    # Lattice Boltzmann: forward streaming with writes, slight stride
    # irregularity a next-line prefetcher cannot fully track.
    return streaming(
        n_refs, WORKLOAD_BASE, array_lines=262144, refs_per_line=6,
        stride_lines_max=2, write_ratio=0.4, gap=4, seed=seed)


def _libquantum(n_refs: int, seed: int) -> Trace:
    # Quantum simulation: long irregular read streams over a huge array.
    return streaming(
        n_refs, WORKLOAD_BASE, array_lines=524288, refs_per_line=8,
        stride_lines_max=3, write_ratio=0.05, gap=4, seed=seed)


SPEC_BENCHMARKS: Dict[str, _GeneratorFn] = {
    "astar": _astar,
    "bzip2": _bzip2,
    "h264ref": _h264ref,
    "sjeng": _sjeng,
    "milc": _milc,
    "hmmer": _hmmer,
    "lbm": _lbm,
    "libquantum": _libquantum,
}

#: order used by the paper's Figure 8 x-axis
FIGURE8_ORDER = ("sjeng", "lbm", "libquantum", "h264ref",
                 "astar", "milc", "bzip2", "hmmer")

#: the benchmarks with streaming patterns that random fill accelerates
STREAMING_BENCHMARKS = ("lbm", "libquantum")


def make_workload(name: str, n_refs: int = 100_000,
                  seed: int = 0) -> Trace:
    """Generate a named benchmark trace."""
    try:
        generator = SPEC_BENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(SPEC_BENCHMARKS))
        raise ValueError(f"unknown benchmark {name!r}; known: {known}") from None
    return generator(n_refs, seed)
