"""Lane-parallel kernel: one call advances a whole batch group.

The batched path amortizes trace decode and the warm-L2 replay across a
group; this module then runs every lowered cell of the group as an
independent *lane* over the shared columns in a single kernel call,
which replays the warm-up into the group's L2 before the lanes start.  It
is the only kernel lowered cells run on: a cell alone in its chunk, or
run on its own by :func:`repro.runner.cells.run_cell`, is a width-1
call, and cells that do not lower run on the object model
(:class:`repro.cpu.timing.TimingModel`).

There is one cache loop; scheme differences are small per-lane hooks
and carried-in state (:class:`LaneCell`), in the spirit of a
replacement-policy module plugged into one simulator loop:

* a start cycle and starting L1 / L2 / DRAM state — what a scheme's
  setup routine left behind (the PLcache preload's locked lines, its
  L2 fills, its open DRAM rows);
* lock-aware installs: a cache image may carry per-way lock bits, and
  a fill then evicts the least-recently-used *unlocked* way, or is
  refused when every way is locked (``SetAssociativeCache.fill``);
* an L1-bypass line predicate (the disable-cache scheme): after the
  due drain, a bypassed access costs one L2 access and one demand
  miss, charged like a fresh miss with no MSHR stall, and leaves the
  L1, MSHR and fill queue untouched (``L1Controller.access_line``).

The lanes read the decoded trace's int64 line and step columns in
place.  A random-fill lane carries its cell's own
:class:`~repro.util.rng.HardwareRng` and draws at each demand miss, the
one point the paper's datapath uses a random number: the fill offset is
``(draw & rf_mask) - rf_a`` (Figure 4, Table II bounds), computed there
and nowhere else, so no draw the run does not use is ever made.  The
kernel continues the RNG's MT19937 stream and refill buffer from
:meth:`~repro.util.rng.HardwareRng.word_state` and hands the advanced
state back only after a successful call, so the RNG ends exactly where
scalar ``draw()`` calls would leave it.  The per-record state machine
itself runs in a small C kernel (``lanes_kernel.c``), compiled once
with the host toolchain and loaded through :mod:`ctypes`; results are
**bit-identical** to the object model (``TimingModel.run`` plus
settle) because the C code is a branch-for-branch transcription of
``L1Controller.access_line`` and the object-model loop (drain order,
fill-queue drop/merge rules, MSHR-full stall, MLP charges and the
settle loop) and every quantity fits int64 with all divisions on
non-negative operands.

The MLP charges ride on the MSHR entries rather than in the object
model's ``charged`` dict: a demand miss puts its entry charged with
its own completion, a random fill one charged -1, and a merge pays
unless its entry's charge equals its completion.  The dict is only
read on a merge, for a line in the MSHR, and every entry left after a
drain completes after the current cycle, so a line that enters the
MSHR again completes strictly after its earlier entry retired: the
dict's older charge could never match either (the same argument makes
``CHARGED_PRUNE_THRESHOLD`` invisible to results).  The warm-up
replay runs through the kernel's own set helpers, once per call.

Why C and not numpy record-steps: this kernel went through three
measured all-Python designs first — the issue-sketched
``(lanes, sets, assoc)`` numpy struct-of-arrays with ``tags == line``
hit-scan reductions ran ~3x *slower* than a scalar per-cell Python
loop (small-array numpy op constants dominate at fig10 lane widths), a
lockstep presence-bitmask design (one dict lookup classifying all lanes
per record) reached only ~0.55x (per-lane indexing replaces the scalar
loop's bare locals on every event), and a fully tuned per-lane
rewrite (heap MSHR, O(1) ordered-dict sets, precomputed offsets,
steady-merge fast path) topped out at ~1.06x — fig10 traffic is
miss/merge-dominated, so per-event interpreter constants bound any
same-language kernel near 1x.

The compiled library is cached under a hash of its source and compile
flags (:func:`artifact_path`) and must export the ABI stamp
``run_lanes_abi`` equal to :data:`LANES_ABI`.  A library that fails to
load or lacks the stamp is never called, and a host without a C
compiler has none: :func:`native_available` then reports ``False``,
lowering (:mod:`repro.cpu.batch`) declines every cell, and those cells
run on the object model, in their batch or alone.  The runner reports
why once, as a ``lanes_fallback`` telemetry event
(:func:`take_native_fallback`).  A missing compiler or a bad artifact
can change how long a run takes, never its results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.timing import SimResult
from repro.util.rng import WORD_BITS, HardwareRng

#: the kernel rejects MSHR capacities above its drain scratch bound
#: (C returns -2); lowering declines such cells, which run per cell
_NATIVE_MQ_LIMIT = 64

#: the ABI stamp ``lanes_kernel.c`` must export as ``run_lanes_abi``;
#: a library without it (or with another value) is never called
LANES_ABI = 4

#: per-lane ``lane_info`` row length (``LANE_INFO`` in ``lanes_kernel.c``)
_LANE_INFO = 10

#: the kernel's RNG block: 624 MT words, their index, ``32 - width``,
#: ``buffer_size`` and the buffered count, then the buffer slots
#: (mirrors ``RNG_*`` in ``lanes_kernel.c``)
_MT_WORDS = 624
_RNG_INDEX, _RNG_COUNT, _RNG_HEADER = _MT_WORDS, _MT_WORDS + 3, _MT_WORDS + 4

_native_fn = None
_native_tried = False
#: cells the kernel has run, per thread (:func:`cells_run`)
_ran = threading.local()
#: why the compiled kernel is unavailable in this process, until the
#: runner reports it once (:func:`take_native_fallback`)
_native_error: Optional[str] = None


class LaneCell:
    """Per-lane kernel inputs: the policy split of one lowered cell.

    A random-fill lane (``policy_kind`` 2) carries its cell's own
    ``rng`` — advanced by one ``draw()`` per demand miss — and the
    window's lower bound ``rf_a`` and power-of-two mask ``rf_mask``;
    demand-fetch lanes (``policy_kind`` 1) leave them unset.

    The rest is carried-in state, all defaulting to a fresh hierarchy
    whose L2 is the group's: ``start`` is the first cycle; ``l1`` /
    ``l2`` are sparse cache images ``{set: [(line, locked), ...]}``
    (MRU first; ``l2`` replaces the group's L2 for this lane); ``dram``
    is ``(open_row, bank_free)``, two ``{bank: value}`` dicts; and
    ``bypass`` holds ``(lo, hi)`` line ranges that skip the L1.
    """

    __slots__ = ("policy_kind", "rng", "rf_a", "rf_mask", "start", "l1",
                 "l2", "dram", "bypass")

    def __init__(self, policy_kind: int,
                 rng: Optional[HardwareRng] = None, rf_a: int = 0,
                 rf_mask: int = 0, start: int = 0,
                 l1: Optional[Dict] = None, l2: Optional[Dict] = None,
                 dram: Optional[Tuple[Dict, Dict]] = None,
                 bypass: Tuple[Tuple[int, int], ...] = ()):
        self.policy_kind = policy_kind
        self.rng = rng
        self.rf_a = rf_a
        self.rf_mask = rf_mask
        self.start = start
        self.l1 = l1
        self.l2 = l2
        self.dram = dram
        self.bypass = bypass


def _check_rngs(cells: Sequence[LaneCell]) -> None:
    """Every random-fill lane needs an RNG of its own that a 32-bit
    word per draw serves (the kernel's contract)."""
    seen = set()
    for cell in cells:
        if cell.policy_kind != 2:
            continue
        rng = cell.rng
        if type(rng) is not HardwareRng or rng.width > WORD_BITS:
            raise ValueError("a random-fill lane needs a HardwareRng of "
                             f"width <= {WORD_BITS}")
        if id(rng) in seen:
            raise ValueError("random-fill lanes cannot share an RNG")
        seen.add(id(rng))


_SOURCE = Path(__file__).with_name("lanes_kernel.c")

#: compile recipe, part of the artifact name.  -O1 rather than -O2: the
#: kernel is branchy integer code, and on the 2-vCPU reference host -O2
#: ran Figure 10's lanes no faster (within 5%) while adding ~0.1 s to
#: the compile every fresh process with an empty artifact cache pays.
_CFLAGS = ("-O1", "-shared", "-fPIC")


def artifact_path() -> Optional[str]:
    """Where the compiled kernel for this source revision lives.

    Under ``$REPRO_LANES_CACHE`` (default: a ``repro-lanes`` directory
    in the system temp dir), named by a hash of the source and compile
    flags, so each kernel revision compiles once per machine; ``None``
    if the source is unreadable.
    """
    try:
        body = _SOURCE.read_bytes()
    except OSError:
        return None
    tag = hashlib.sha256(body + " ".join(_CFLAGS).encode()).hexdigest()[:12]
    cache_dir = os.environ.get("REPRO_LANES_CACHE") or os.path.join(
        tempfile.gettempdir(), "repro-lanes")
    return os.path.join(cache_dir, f"lanes_kernel_{tag}.so")


def _compile_native() -> Tuple[Optional[ctypes.CDLL], str]:
    """Build (or reuse) and load the shared library for the kernel.

    Returns ``(library, "")``, or ``(None, reason)`` when no C compiler
    is available, compilation fails, or the cached artifact does not
    load — lowering then declines every cell.  The compile writes
    a temp file and renames it into place, so a concurrent reader never
    sees a partial library.
    """
    so_path = artifact_path()
    if so_path is None:
        return None, "kernel source unreadable"
    if not os.path.exists(so_path):
        compiler = shutil.which("cc") or shutil.which("gcc")
        if compiler is None:
            return None, "no C compiler"
        tmp_path = f"{so_path}.{os.getpid()}.tmp"
        try:
            os.makedirs(os.path.dirname(so_path), exist_ok=True)
            proc = subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp_path, str(_SOURCE)],
                capture_output=True, timeout=120)
            if proc.returncode != 0:
                return None, "compile failed"
            os.replace(tmp_path, so_path)
        except (OSError, subprocess.SubprocessError) as error:
            return None, f"compile failed: {error}"
        finally:
            if os.path.exists(tmp_path):
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
    try:
        return ctypes.CDLL(so_path), ""
    except OSError as error:
        return None, f"load failed: {error}"


def _native():
    """The bound ``run_lanes`` entry point, or ``None`` (memoized).

    A library whose ``run_lanes_abi`` stamp is missing or differs from
    :data:`LANES_ABI` is treated like one that failed to load: its
    entry point is never bound, and the reason waits in
    :func:`take_native_fallback` for the runner's telemetry.
    """
    global _native_fn, _native_tried, _native_error
    if _native_tried:
        return _native_fn
    _native_tried = True
    lib, reason = _compile_native()
    if lib is not None:
        try:
            stamp = ctypes.c_int64.in_dll(lib, "run_lanes_abi").value
        except ValueError:
            stamp = None
        if stamp != LANES_ABI:
            lib, reason = None, f"ABI stamp {stamp}, expected {LANES_ABI}"
    if lib is None:
        _native_error = reason
        return None
    i64 = ctypes.c_int64
    ptr = ctypes.POINTER(ctypes.c_int64)
    fn = lib.run_lanes
    fn.restype = ctypes.c_int
    fn.argtypes = ([i64, ptr, ptr, i64, ptr, ptr, ptr, i64, ptr]
                   + [i64] * 17 + [ptr])
    _native_fn = fn
    return fn


def take_native_fallback() -> Optional[str]:
    """Why the compiled kernel is unavailable here — returned once.

    ``None`` while the compiled kernel loads (or was never needed) and
    after the reason has been taken, so the runner emits exactly one
    telemetry event per process.
    """
    global _native_error
    reason, _native_error = _native_error, None
    return reason


def native_available() -> bool:
    """Whether the compiled kernel is (or can be made) loadable."""
    return _native() is not None


def cells_run() -> int:
    """How many cells the kernel has run in this thread.  The runner
    counts a cell as vectorized when this moves while the cell runs
    (per thread, so a sweep in another thread cannot move it)."""
    return getattr(_ran, "cells", 0)


def _as_ptr(arr: np.ndarray):
    return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


def _pack_image(image: Dict, num_sets: int, assoc: int) -> np.ndarray:
    """A sparse cache image as the kernel's ways-then-lock-bits block."""
    n = num_sets * assoc
    block = np.zeros(2 * n, dtype=np.int64)
    block[:n] = -1
    for s, members in image.items():
        for way, (line, locked) in enumerate(members):
            block[s * assoc + way] = line
            block[n + s * assoc + way] = locked
    return block


def _pack_rng(rng: HardwareRng) -> np.ndarray:
    """A lane's RNG as the kernel's block (``RNG_*`` in the C source)."""
    words, index, buffer = rng.word_state()
    size = rng.buffer_size
    block = np.zeros(_RNG_HEADER + max(size, len(buffer)), dtype=np.int64)
    block[:_MT_WORDS] = words
    block[_RNG_INDEX:_RNG_HEADER] = (index, WORD_BITS - rng.width, size,
                                     len(buffer))
    block[_RNG_HEADER:_RNG_HEADER + len(buffer)] = buffer
    return block


def _unpack_rng(rng: HardwareRng, block: np.ndarray) -> None:
    """Hand the state a lane's draws left in its block back to ``rng``."""
    count = int(block[_RNG_COUNT])
    rng.set_word_state(block[:_MT_WORDS].tolist(), int(block[_RNG_INDEX]),
                       block[_RNG_HEADER:_RNG_HEADER + count].tolist())


def _pack_lanes(cells, l1_geometry, l2_geometry, dram_banks):
    """The C entry's ``lane_info`` rows and packed ``state`` buffer."""
    info: List[int] = []
    chunks: List[np.ndarray] = []
    used = 0

    def place(block: np.ndarray) -> int:
        nonlocal used
        chunks.append(block)
        used += len(block)
        return used - len(block)

    for cell in cells:
        row = [cell.policy_kind, cell.start, -1, cell.rf_a, cell.rf_mask,
               -1, -1, -1, -1, 0]
        if cell.policy_kind == 2:
            row[2] = place(_pack_rng(cell.rng))
        if cell.l1 is not None:
            row[5] = place(_pack_image(cell.l1, *l1_geometry))
        if cell.l2 is not None:
            row[6] = place(_pack_image(cell.l2, *l2_geometry))
        if cell.dram is not None:
            open_row, bank_free = cell.dram
            row[7] = place(np.array(
                [open_row.get(b, -1) for b in range(dram_banks)]
                + [bank_free.get(b, 0) for b in range(dram_banks)],
                dtype=np.int64))
        if cell.bypass:
            row[8] = place(np.array(cell.bypass, dtype=np.int64).ravel())
            row[9] = len(cell.bypass)
        info += row
    state = np.concatenate(chunks) if chunks else np.zeros(1, np.int64)
    return np.asarray(info, dtype=np.int64), state


def run_lanes_general(lines, steps, instructions,
                      l1_num_sets, l1_assoc,
                      warm_lines, l2_num_sets, l2_assoc,
                      l2_hit_latency, mq_capacity, fill_reserve,
                      fill_queue_capacity, hit_cost, mlp, credit,
                      cells: Sequence[LaneCell], dram) -> List[SimResult]:
    """Advance every lane of a batch group over the shared columns.

    ``lines`` / ``steps`` are the measured records' line addresses and
    issue-cycle steps as int64 arrays (the kernel reads them in place)
    and ``instructions`` their instruction count.  The shared scalars
    are the L1 / L2 geometry, the L2 hit latency, MSHR capacity and
    fill reserve, fill-queue capacity, L1 hit cost, MLP and overlap
    credit, and ``dram`` is the ``(lines_per_row, banks, hit_latency,
    miss_latency, hit_busy, miss_busy)`` timing tuple of the open-page
    model.  ``warm_lines`` is the group's warm-up prefix as an int64
    line column (empty for a cold group): the kernel replays it into
    an empty L2, as ``run_general_workload`` warms its L2, and every
    lane without an L2 image starts from a copy of the result.
    ``cells`` holds one :class:`LaneCell` per lane: its policy split,
    carried-in state and hooks.  Returns one :class:`SimResult` per
    lane, bit-identical to running the cell on the object model from
    the same starting state.

    Raises :class:`RuntimeError` when the compiled kernel is unavailable
    or refuses the call (an MSHR file above :data:`_NATIVE_MQ_LIMIT`);
    every lane's RNG is then untouched.
    """
    n_lanes = len(cells)
    if n_lanes == 0:
        return []
    _check_rngs(cells)
    fn = _native()
    if fn is None:
        raise RuntimeError("lane kernel unavailable")
    n_records = len(lines)
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    steps = np.ascontiguousarray(steps, dtype=np.int64)
    warm_lines = np.ascontiguousarray(warm_lines, dtype=np.int64)
    if len(steps) != n_records:
        raise ValueError("lines and steps columns differ in length")
    info, state = _pack_lanes(
        cells, (l1_num_sets, l1_assoc), (l2_num_sets, l2_assoc), dram[1])
    template = np.empty(l2_num_sets * l2_assoc, dtype=np.int64)
    out = np.zeros(n_lanes * 7, dtype=np.int64)
    rc = fn(n_records, _as_ptr(lines), _as_ptr(steps),
            n_lanes, _as_ptr(info), _as_ptr(template), _as_ptr(state),
            len(warm_lines), _as_ptr(warm_lines),
            l1_num_sets, l1_assoc, l2_num_sets, l2_assoc,
            l2_hit_latency, mq_capacity, fill_reserve,
            fill_queue_capacity, hit_cost, mlp, credit,
            dram[0], dram[1], dram[2], dram[3], dram[4], dram[5],
            _as_ptr(out))
    if rc != 0:
        # Nothing is handed back: every lane's RNG is where it started.
        raise RuntimeError(f"lane kernel refused the call (code {rc})")
    _ran.cells = cells_run() + n_lanes
    for l, cell in enumerate(cells):
        if cell.policy_kind == 2:
            _unpack_rng(cell.rng, state[info[l * _LANE_INFO + 2]:])
    return [
        SimResult(
            instructions=instructions,
            cycles=int(out[l * 7 + 0]),
            l1_accesses=n_records,
            l1_hits=int(out[l * 7 + 1]),
            l1_demand_misses=int(out[l * 7 + 2]),
            l2_accesses=int(out[l * 7 + 3]),
            l2_demand_misses=int(out[l * 7 + 4]),
            memory_lines=int(out[l * 7 + 5]),
            random_fill_issued=int(out[l * 7 + 6]),
        )
        for l in range(n_lanes)
    ]
