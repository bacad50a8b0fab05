"""Cryptographic-program performance: Figures 6 and 7.

Workload: "OpenSSL's AES encryption that takes a 32 KB random input and
does a cipher block chaining (CBC) mode of encryption", with the five
encryption tables protected and a random fill window of ``[-16, +15]``
(covers any 1-KB table from any lookup).  IPC is normalized to the
demand-fetch baseline with the same cache size and associativity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.window import RandomFillWindow
from repro.cpu.timing import SimResult, TimingModel
from repro.cpu.trace import Trace
from repro.crypto.traced_aes import AesMemoryLayout, TracedAES128
from repro.experiments.config import BASELINE_CONFIG, SimulatorConfig
from repro.experiments.schemes import build_scheme
from repro.runner.cells import CellSpec
from repro.runner.pool import run_cells
from repro.workloads.cache import TRACE_CACHE

#: Figure 6 x-axis: cache sizes and associativities
FIGURE6_SIZES = (8 * 1024, 16 * 1024, 32 * 1024)
FIGURE6_ASSOCS = (1, 2, 4)
FIGURE6_SCHEMES = ("baseline", "plcache_preload", "disable_cache",
                   "random_fill")
#: the paper's window for Figure 6: [i-16, i+15]
FIGURE6_WINDOW = RandomFillWindow(16, 15)


def make_cbc_trace(message_kb: int = 32, seed: int = 0,
                   layout: AesMemoryLayout = AesMemoryLayout(),
                   decrypt_too: bool = False):
    """The Figure 6 workload trace: AES-CBC over random input.

    With ``decrypt_too`` the trace alternates encryption and decryption
    (the Figure 8 stress workload, touching all ten tables).
    """
    rng = random.Random(seed)
    key = bytes(rng.randrange(256) for _ in range(16))
    iv = bytes(rng.randrange(256) for _ in range(16))
    data = bytes(rng.randrange(256) for _ in range(message_kb * 1024))
    aes = TracedAES128(key, layout=layout)
    ciphertext, trace = aes.encrypt_cbc_traced(data, iv)
    if not decrypt_too:
        return trace
    chunks = [trace]
    for i in range(0, len(ciphertext), 16):
        block = ciphertext[i:i + 16]
        _, block_trace = aes.decrypt_block_traced(
            block, message_offset=(i * 2) % 0x8000)
        chunks.append(block_trace)
    return Trace.concat(chunks)


#: bump whenever :func:`make_cbc_trace` changes output for the same
#: arguments — it keys the trace cache.
AES_TRACE_VERSION = 1


def cached_cbc_trace(message_kb: int = 32, seed: int = 0,
                     decrypt_too: bool = False):
    """`make_cbc_trace` (default layout) through the trace cache.

    Tracing AES-CBC software costs far more than the simulation that
    consumes the trace, so sweeps that revisit the same message reuse
    one generation — across schemes in-process and across worker
    processes via the disk layer.
    """
    key = ("cbc", message_kb, seed, decrypt_too, AES_TRACE_VERSION)
    return TRACE_CACHE.get_trace(
        key, lambda: make_cbc_trace(message_kb=message_kb, seed=seed,
                                    decrypt_too=decrypt_too))


@dataclass
class CryptoPerfPoint:
    """One (scheme, cache config) measurement."""

    scheme: str
    l1_size: int
    l1_assoc: int
    window_size: int
    result: SimResult
    normalized_ipc: float = 0.0


def prepare_crypto_scheme(scheme_name: str, config: SimulatorConfig,
                          window: Optional[RandomFillWindow] = None,
                          seed: int = 0):
    """Build a scheme with the AES encryption tables protected and run
    its setup routine (the PLcache preload); returns ``(scheme, start
    cycle)``.  Shared by the per-cell run below and the lane lowering
    (:func:`repro.cpu.batch.lower_cell`)."""
    scheme = build_scheme(scheme_name, config, seed=seed,
                          protected=AesMemoryLayout().enc_regions(),
                          window=window)
    return scheme, scheme.prepare()


def run_crypto_workload(scheme_name: str, config: SimulatorConfig,
                        window: Optional[RandomFillWindow] = None,
                        message_kb: int = 32, seed: int = 0,
                        trace=None) -> SimResult:
    """Run the AES-CBC workload on one scheme; returns the sim result."""
    scheme, start = prepare_crypto_scheme(scheme_name, config,
                                          window=window, seed=seed)
    if trace is None:
        trace = cached_cbc_trace(message_kb=message_kb, seed=seed)
    timing = TimingModel(scheme.l1, issue_width=config.issue_width,
                         overlap_credit=config.overlap_credit)
    result = timing.run(trace, start_cycle=start)
    if start:
        # Charge the preload to the program's runtime.
        result.cycles += start
    return result


def figure6_specs(sizes: Sequence[int] = FIGURE6_SIZES,
                  assocs: Sequence[int] = FIGURE6_ASSOCS,
                  schemes: Sequence[str] = FIGURE6_SCHEMES,
                  message_kb: int = 32,
                  seed: int = 0,
                  config: SimulatorConfig = BASELINE_CONFIG) -> List[CellSpec]:
    """The Figure 6 cell grid in sweep order (geometry-major).

    Each (size, assoc) group leads with a baseline cell, so the
    normalization denominator exists even when ``schemes`` omits it.
    Shared by :func:`figure6` and the CLI's batch-aware ``--profile``.
    """
    specs: List[CellSpec] = []
    for size in sizes:
        for assoc in assocs:
            cfg = config.with_l1d(size, assoc)
            specs.append(CellSpec(
                kind="crypto", scheme="baseline", message_kb=message_kb,
                seed=seed, config=cfg))
            for scheme_name in schemes:
                if scheme_name == "baseline":
                    continue
                window = (FIGURE6_WINDOW.a, FIGURE6_WINDOW.b) \
                    if scheme_name == "random_fill" else None
                specs.append(CellSpec(
                    kind="crypto", scheme=scheme_name, window=window,
                    message_kb=message_kb, seed=seed, config=cfg))
    return specs


def figure6(sizes: Sequence[int] = FIGURE6_SIZES,
            assocs: Sequence[int] = FIGURE6_ASSOCS,
            schemes: Sequence[str] = FIGURE6_SCHEMES,
            message_kb: int = 32,
            seed: int = 0,
            config: SimulatorConfig = BASELINE_CONFIG,
            jobs: Optional[int] = None) -> List[CryptoPerfPoint]:
    """The Figure 6 sweep: normalized IPC per scheme per cache config.

    Cells fan out over the parallel runner (``jobs``/``REPRO_JOBS``);
    each (size, assoc) group shares one batch, whose four schemes run
    as lanes of one lane-kernel call.
    """
    specs = figure6_specs(sizes, assocs, schemes, message_kb=message_kb,
                          seed=seed, config=config)
    results = iter(run_cells(specs, jobs=jobs))
    points: List[CryptoPerfPoint] = []
    for size in sizes:
        for assoc in assocs:
            base = next(results)
            by_scheme = {"baseline": base}
            for scheme_name in schemes:
                if scheme_name != "baseline":
                    by_scheme[scheme_name] = next(results)
            for scheme_name in schemes:
                result = by_scheme[scheme_name]
                points.append(CryptoPerfPoint(
                    scheme=scheme_name, l1_size=size, l1_assoc=assoc,
                    window_size=(FIGURE6_WINDOW.size
                                 if scheme_name == "random_fill" else 1),
                    result=result,
                    normalized_ipc=result.ipc / base.ipc))
    return points


#: Figure 7 cache configurations: (label, scheme base, size, assoc)
FIGURE7_CONFIGS = (
    ("8KB DM", "random_fill", 8 * 1024, 1),
    ("32KB 4-way SA", "random_fill", 32 * 1024, 4),
    ("8KB newcache", "random_fill_newcache", 8 * 1024, 1),
    ("32KB Newcache", "random_fill_newcache", 32 * 1024, 1),
)


def figure7(window_sizes: Sequence[int] = (1, 2, 4, 8, 16, 32),
            configs: Sequence[Tuple[str, str, int, int]] = FIGURE7_CONFIGS,
            message_kb: int = 32, seed: int = 0,
            config: SimulatorConfig = BASELINE_CONFIG,
            jobs: Optional[int] = None,
            ) -> Dict[str, List[Tuple[int, float]]]:
    """The Figure 7 sweep: normalized IPC vs bidirectional window size.

    Window size 1 is the demand-fetch reference each curve is
    normalized to (the zeroed range registers).  Cells fan out over the
    parallel runner (``jobs``/``REPRO_JOBS``).
    """
    specs: List[CellSpec] = []
    for label, scheme_name, size, assoc in configs:
        cfg = config.with_l1d(size, assoc)
        for w in window_sizes:
            window = RandomFillWindow.bidirectional(w)
            specs.append(CellSpec(
                kind="crypto", scheme=scheme_name,
                window=(window.a, window.b), message_kb=message_kb,
                seed=seed, config=cfg))
    results = iter(run_cells(specs, jobs=jobs))
    series: Dict[str, List[Tuple[int, float]]] = {}
    for label, scheme_name, size, assoc in configs:
        base_ipc = None
        points: List[Tuple[int, float]] = []
        for w in window_sizes:
            result = next(results)
            if base_ipc is None:
                base_ipc = result.ipc
            points.append((w, result.ipc / base_ipc))
        series[label] = points
    return series
