"""Lane-parallel kernel: one call advances a whole batch group.

The PR 6 batched path amortizes trace decode and RNG pregeneration
across a group, but still runs the flat state machine
(:func:`repro.cpu.timing.run_flat_general`) once per member cell — an
N-cell group costs N Python interpreter passes over the same columns.
This module runs all eligible cells of a group as independent *lanes*
over the shared columns in a single kernel call.

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

numpy prepares the shared column work — the decoded trace is reused
as-is, the per-record step column is shared, and each lane's
pregenerated random-fill draw row is masked to fill offsets in one
vectorized pass (``(draw & mask) - a``, Table II bounds; see
:func:`masked_offsets`).  The per-record state machine itself runs in
a small C kernel (``lanes_kernel.c``), compiled once with the host
toolchain and loaded through :mod:`ctypes`; results are
**bit-identical** to the flat kernel (and, for lanes with carried-in
state or hooks, to the object model the hooks transcribe) because the
C code is a branch-for-branch transcription (drain order, fill-queue
drop/merge rules, MSHR-full stall, MLP charge table with its prune
threshold, and the settle loop) and every quantity fits int64 with all
divisions on non-negative operands.

Why C and not numpy record-steps: this kernel went through three
measured all-Python designs first — the issue-sketched
``(lanes, sets, assoc)`` numpy struct-of-arrays with ``tags == line``
hit-scan reductions ran ~3x *slower* than the scalar kernel (small-
array numpy op constants dominate at fig10 lane widths), a lockstep
presence-bitmask design (one dict lookup classifying all lanes per
record) reached only ~0.55x (per-lane indexing replaces the flat
kernel's bare locals on every event), and a fully tuned per-lane
rewrite (heap MSHR, O(1) ordered-dict sets, precomputed offsets,
steady-merge fast path) topped out at ~1.06x — fig10 traffic is
miss/merge-dominated, so per-event interpreter constants bound any
same-language kernel near 1x.  That tuned per-lane kernel ships as
:func:`_run_lane_python`, the fallback when no C compiler is
available; the native kernel is the performance path.

The compiled library is cached under a hash of its source and compile
flags (:func:`artifact_path`) and must export the ABI stamp
``run_lanes_abi`` equal to :data:`LANES_ABI`.  A library that fails to
load or lacks the stamp is never called: the process falls back to the
Python kernel, and the runner reports why once, as a
``lanes_fallback`` telemetry event (:func:`take_native_fallback`).  A
bad artifact can change how long a run takes, never its results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.timing import (
    CHARGED_PRUNE_THRESHOLD,
    SimResult,
    prune_charged,
)

#: mirrors :data:`repro.cpu.timing._NEVER` (MissQueue.NEVER)
_NEVER = 1 << 62

#: flat-kernel request types (1 mirrors ``NOFILL``)
_RT_NORMAL, _RT_NOFILL, _RT_RANDOM_FILL = 0, 1, 2

#: diagnostics of the most recent kernel run, read by the profiler
#: display; overwritten per call
LAST_STATS: dict = {}

#: the native kernel rejects MSHR capacities above its drain scratch
#: bound (C returns -2); such configs take the Python fallback
_NATIVE_MQ_LIMIT = 64

#: the ABI stamp ``lanes_kernel.c`` must export as ``run_lanes_abi``;
#: a library without it (or with another value) is never called
LANES_ABI = 2

_native_fn = None
_native_tried = False
#: why the compiled kernel is unavailable in this process, until the
#: runner reports it once (:func:`take_native_fallback`)
_native_error: Optional[str] = None


class LaneCell:
    """Per-lane kernel inputs: the policy split of one lowered cell.

    ``offsets`` is the pregenerated random-fill offset row
    ``(draw & rf_mask) - rf_a`` as an int64 array (one entry per trace
    record, masked in one numpy pass from the cell's own derived RNG
    stream); ``None`` for demand-fetch lanes (``policy_kind`` 1).

    The rest is carried-in state, all defaulting to a fresh hierarchy
    whose L2 is the group's: ``start`` is the first cycle; ``l1`` /
    ``l2`` are sparse cache images ``{set: [(line, locked), ...]}``
    (MRU first; ``l2`` replaces the group's L2 for this lane); ``dram``
    is ``(open_row, bank_free)``, two ``{bank: value}`` dicts; and
    ``bypass`` holds ``(lo, hi)`` line ranges that skip the L1.
    """

    __slots__ = ("policy_kind", "offsets", "start", "l1", "l2", "dram",
                 "bypass")

    def __init__(self, policy_kind: int,
                 offsets: Optional[np.ndarray] = None, start: int = 0,
                 l1: Optional[Dict] = None, l2: Optional[Dict] = None,
                 dram: Optional[Tuple[Dict, Dict]] = None,
                 bypass: Tuple[Tuple[int, int], ...] = ()):
        self.policy_kind = policy_kind
        self.offsets = offsets
        self.start = start
        self.l1 = l1
        self.l2 = l2
        self.dram = dram
        self.bypass = bypass


def masked_offsets(draws: Sequence[int], rf_a: int,
                   rf_mask: int) -> np.ndarray:
    """One lane's fill-offset row: ``(draw & rf_mask) - rf_a`` vectorized.

    Bit-identical to the flat kernel's per-miss arithmetic: the raw
    draws are below ``2**width <= 2**32`` so int64 masking is exact.
    """
    return (np.asarray(draws, dtype=np.int64) & rf_mask) - rf_a


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
    load — callers fall back to the Python kernel.  The compile writes
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
    fn.argtypes = [i64, ptr, ptr, i64, ptr, ptr, ptr, ptr] + [i64] * 17 \
        + [ptr]
    _native_fn = fn
    return fn


def take_native_fallback() -> Optional[str]:
    """Why this process fell back to the Python kernel — returned once.

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


def _pack_lanes(cells, n_records, l1_geometry, l2_geometry, dram_banks):
    """The C entry's ``lane_info`` rows, fill-offset rows (random-fill
    lanes only) and packed ``state`` buffer."""
    info: List[int] = []
    rows: List[np.ndarray] = []
    chunks: List[np.ndarray] = []
    used = 0

    def place(block: np.ndarray) -> int:
        nonlocal used
        chunks.append(block)
        used += len(block)
        return used - len(block)

    for cell in cells:
        row = [cell.policy_kind, cell.start, -1, -1, -1, -1, -1, 0]
        if cell.policy_kind == 2:
            if cell.offsets is None or len(cell.offsets) > n_records:
                raise ValueError("a random-fill lane needs at most one "
                                 "fill offset per trace record")
            row[2] = len(rows)
            rows.append(cell.offsets)
        if cell.l1 is not None:
            row[3] = place(_pack_image(cell.l1, *l1_geometry))
        if cell.l2 is not None:
            row[4] = place(_pack_image(cell.l2, *l2_geometry))
        if cell.dram is not None:
            open_row, bank_free = cell.dram
            row[5] = place(np.array(
                [open_row.get(b, -1) for b in range(dram_banks)]
                + [bank_free.get(b, 0) for b in range(dram_banks)],
                dtype=np.int64))
        if cell.bypass:
            row[6] = place(np.array(cell.bypass, dtype=np.int64).ravel())
            row[7] = len(cell.bypass)
        info += row
    offsets = np.zeros((max(1, len(rows)), n_records), dtype=np.int64)
    for i, offset_row in enumerate(rows):
        offsets[i, :len(offset_row)] = offset_row
    state = np.concatenate(chunks) if chunks else np.zeros(1, np.int64)
    return np.asarray(info, dtype=np.int64), offsets, state


def _run_native(fn, lines_l, steps_l, instructions, l1_num_sets, l1_assoc,
                l2_sets, l2_num_sets, l2_assoc, l2_hit_latency,
                mq_capacity, fill_reserve, fill_queue_capacity, hit_cost,
                mlp, credit, cells, dram) -> Optional[List[SimResult]]:
    n_lanes = len(cells)
    n_records = len(lines_l)
    lines = np.ascontiguousarray(lines_l, dtype=np.int64)
    steps = np.ascontiguousarray(steps_l, dtype=np.int64)
    if len(steps) != n_records:
        raise ValueError("lines and steps columns differ in length")
    info, offsets, state = _pack_lanes(
        cells, n_records, (l1_num_sets, l1_assoc), (l2_num_sets, l2_assoc),
        dram[1])
    template = np.full(l2_num_sets * l2_assoc, -1, dtype=np.int64)
    for s, ways in enumerate(l2_sets):
        if ways:
            template[s * l2_assoc:s * l2_assoc + len(ways)] = ways
    out = np.zeros(n_lanes * 7, dtype=np.int64)
    rc = fn(n_records, _as_ptr(lines), _as_ptr(steps),
            n_lanes, _as_ptr(info), _as_ptr(offsets), _as_ptr(template),
            _as_ptr(state), l1_num_sets, l1_assoc, l2_num_sets, l2_assoc,
            l2_hit_latency, mq_capacity, fill_reserve,
            fill_queue_capacity, hit_cost, mlp, credit,
            dram[0], dram[1], dram[2], dram[3], dram[4], dram[5],
            _as_ptr(out))
    if rc != 0:
        return None
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


def _ordered_sets(num_sets: int, image: Optional[Dict]) -> List[OrderedDict]:
    """A sparse ``{set: [(line, locked), ...]}`` image as LRU-first sets."""
    sets = [OrderedDict() for _ in range(num_sets)]
    for s, members in (image or {}).items():
        sets[s] = OrderedDict(reversed(members))
    return sets


def _run_lane_python(lines_l, steps_plus, instructions, l1_num_sets,
                     l1_assoc, l2_sets, l2_num_sets, l2_assoc,
                     l2_hit_latency, mq_capacity, fill_reserve,
                     fill_queue_capacity, hit_cost, mlp, credit,
                     cell, offsets, dram) -> SimResult:
    """One lane's trace pass — the tuned Python fallback.

    A transcription of :func:`run_flat_general` with faster but
    order-identical machinery: cache sets are :class:`OrderedDict`
    mapping line to lock bit (O(1) membership, ``move_to_end`` refresh
    carrying the bit along, first unlocked key = LRU victim — the flat
    MRU-first lists reversed), the MSHR adds a completion-
    ordered heap whose ``(completion, seq)`` order reproduces the flat
    kernel's stable completion sort, the step column arrives fused with
    the per-record ``hit_cost`` (every flat branch adds exactly one),
    fill offsets are premasked, and a ``steady`` set marks lines whose
    charge already equals their in-flight completion so a repeat merge
    retires in one membership test (after the drain check, surviving
    entries complete strictly after ``now``, so such a merge adds
    exactly the already-fused ``hit_cost``).
    """
    from heapq import heappop, heappush

    (dram_lines_per_row, dram_banks, dram_hit_latency, dram_miss_latency,
     dram_hit_busy, dram_miss_busy) = dram
    policy_kind = cell.policy_kind
    l1_set_mask = l1_num_sets - 1
    l2_set_mask = l2_num_sets - 1
    l1_sets = _ordered_sets(l1_num_sets, cell.l1)
    if cell.l2 is not None:
        l2 = _ordered_sets(l2_num_sets, cell.l2)
    else:
        l2 = [OrderedDict((line, False) for line in reversed(ways))
              for ways in l2_sets]
    # Lock bits only ever come from the carried-in images (no access in
    # the run locks or unlocks), so lanes without any skip the scan.
    l1_locks = any(any(s.values()) for s in l1_sets)
    l2_locks = cell.l2 is not None and any(any(s.values()) for s in l2)
    bypass = frozenset(line for lo, hi in cell.bypass
                       for line in range(lo, hi))
    mq: dict = {}
    mq_get = mq.get
    heap: list = []
    seq = 0
    fill_queue: list = []
    open_row: dict = dict(cell.dram[0]) if cell.dram else {}
    bank_free: dict = dict(cell.dram[1]) if cell.dram else {}
    bank_free_get = bank_free.get
    open_row_get = open_row.get
    steady: set = set()
    steady_add = steady.add
    steady_discard = steady.discard

    prune_at = CHARGED_PRUNE_THRESHOLD
    fill_cap = mq_capacity - fill_reserve
    l2_accesses = 0
    l2_misses = 0
    memory_lines = 0
    rf_issued = 0
    hits = 0
    demand_misses = 0
    off_i = 0
    nc = _NEVER
    ncx = _NEVER                  # nc + hit_cost, in fused-clock terms
    fills_blocked = False

    def l2_access(line, at):
        nonlocal l2_accesses, l2_misses, memory_lines
        l2_accesses += 1
        cache_set = l2[line & l2_set_mask]
        if line in cache_set:
            cache_set.move_to_end(line)
            return at + l2_hit_latency
        l2_misses += 1
        row = line // dram_lines_per_row
        bank = row % dram_banks
        start = bank_free_get(bank, 0)
        at += l2_hit_latency
        if start < at:
            start = at
        if open_row_get(bank) == row:
            done = start + dram_hit_latency
            bank_free[bank] = start + dram_hit_busy
        else:
            open_row[bank] = row
            done = start + dram_miss_latency
            bank_free[bank] = start + dram_miss_busy
        memory_lines += 1
        if len(cache_set) >= l2_assoc:
            if not l2_locks:
                cache_set.popitem(last=False)
            elif not _evict_unlocked(cache_set):
                return done          # every way locked: fill refused
        cache_set[line] = False
        return done

    def drain(at):
        nonlocal nc, ncx
        if at < nc:
            return 0
        done = 0
        while heap and heap[0][0] <= at:
            dline = heappop(heap)[2]
            done += 1
            steady_discard(dline)
            if mq.pop(dline)[1] != _RT_NOFILL:
                cache_set = l1_sets[dline & l1_set_mask]
                if dline in cache_set:
                    continue
                if len(cache_set) >= l1_assoc:
                    if not l1_locks:
                        cache_set.popitem(last=False)
                    elif not _evict_unlocked(cache_set):
                        continue     # every way locked: fill refused
                cache_set[dline] = False
        nc = heap[0][0] if heap else _NEVER
        ncx = nc + hit_cost
        return done

    def issue_fills(at):
        nonlocal nc, ncx, fills_blocked, rf_issued, seq
        while fill_queue:
            head = fill_queue[0]
            if head in l1_sets[head & l1_set_mask]:
                del fill_queue[0]
                continue
            in_flight = mq_get(head)
            if in_flight is not None:
                del fill_queue[0]
                if in_flight[1] == _RT_NOFILL:
                    in_flight[1] = _RT_RANDOM_FILL
                    rf_issued += 1
                continue
            if len(mq) >= fill_cap:
                break
            del fill_queue[0]
            fill_at = l2_access(head, at)
            rf_issued += 1
            mq[head] = [fill_at, _RT_RANDOM_FILL]
            heappush(heap, (fill_at, seq, head))
            seq += 1
            if fill_at < nc:
                nc = fill_at
                ncx = nc + hit_cost
        fills_blocked = bool(fill_queue)

    now = cell.start
    charged: dict = {}
    charged_get = charged.get
    for line, sp in zip(lines_l, steps_plus):
        # ``sp`` fuses step + hit_cost: the flat-clock "now" at branch
        # entry is ``now - hit_cost``.
        now += sp
        if now >= ncx:
            drain(now - hit_cost)
            fills_blocked = False
        if bypass and line in bypass:
            # L1 bypass: one L2 access charged as a fresh demand miss
            # with no MSHR stall; L1, MSHR and fill queue untouched.
            complete_at = l2_access(line, now - hit_cost)
            demand_misses += 1
            charged[line] = complete_at
            remaining = complete_at - now - credit
            if remaining > 0:
                now += (remaining + mlp - 1) // mlp
            if len(charged) >= prune_at:
                charged = prune_charged(charged, now)
                charged_get = charged.get
                for k in tuple(steady):
                    if charged_get(k) != mq[k][0]:
                        steady_discard(k)
            continue
        cache_set = l1_sets[line & l1_set_mask]
        if line in cache_set:
            hits += 1
            cache_set.move_to_end(line)
            if fill_queue and not fills_blocked:
                issue_fills(now - hit_cost)
            continue
        if line in steady:
            # charged[line] == mq[line][0] > now: the flat merge path
            # adds exactly hit_cost, already fused into the step.
            continue
        nb = now - hit_cost
        in_flight = mq_get(line)
        if in_flight is None and fill_queue and not fills_blocked:
            # Queued random fills are older than this demand miss, so
            # they claim MSHRs first — possibly turning it into a merge.
            issue_fills(nb)
            in_flight = mq_get(line)
        if in_flight is not None:
            completion = in_flight[0]
            if completion < nb:
                completion = nb
            if charged_get(line) != completion:
                charged[line] = completion
                remaining = completion - now - credit
                if remaining > 0:
                    now += (remaining + mlp - 1) // mlp
                if completion == in_flight[0]:
                    steady_add(line)
                else:
                    steady_discard(line)
            if len(charged) >= prune_at:
                charged = prune_charged(charged, now)
                charged_get = charged.get
                for k in tuple(steady):
                    if charged_get(k) != mq[k][0]:
                        steady_discard(k)
            continue
        stall = 0
        access_now = nb
        if len(mq) >= mq_capacity:
            stall = nc - nb
            if stall < 0:
                stall = 0
            access_now = nb + stall
            drain(access_now)
            fills_blocked = False
            if line in cache_set:
                # The drained line was the one we wanted; charge only
                # the hit (stall unused), with the MRU refresh.
                hits += 1
                cache_set.move_to_end(line)
                continue
        demand_misses += 1
        if policy_kind == 2:
            complete_at = l2_access(line, access_now)
            mq[line] = [complete_at, _RT_NOFILL]
            heappush(heap, (complete_at, seq, line))
            seq += 1
            if complete_at < nc:
                nc = complete_at
                ncx = nc + hit_cost
            fills_blocked = False
            fill_line = line + offsets[off_i]
            off_i += 1
            if fill_queue:
                # Parked requests are older; preserve FIFO order.
                if fill_line >= 0 and len(fill_queue) < fill_queue_capacity:
                    fill_queue.append(fill_line)
                issue_fills(access_now)
            elif fill_line < 0:
                pass                 # window underflow: dropped
            elif fill_line in l1_sets[fill_line & l1_set_mask]:
                pass                 # already resident: dropped
            else:
                in_flight = mq_get(fill_line)
                if in_flight is not None:
                    if in_flight[1] == _RT_NOFILL:
                        in_flight[1] = _RT_RANDOM_FILL
                        rf_issued += 1
                elif len(mq) >= fill_cap:
                    fill_queue.append(fill_line)
                    fills_blocked = True
                else:
                    fill_at = l2_access(fill_line, access_now)
                    rf_issued += 1
                    mq[fill_line] = [fill_at, _RT_RANDOM_FILL]
                    heappush(heap, (fill_at, seq, fill_line))
                    seq += 1
                    if fill_at < nc:
                        nc = fill_at
                        ncx = nc + hit_cost
        else:
            complete_at = l2_access(line, access_now)
            mq[line] = [complete_at, _RT_NORMAL]
            heappush(heap, (complete_at, seq, line))
            seq += 1
            if complete_at < nc:
                nc = complete_at
                ncx = nc + hit_cost
            fills_blocked = False
            if fill_queue:
                issue_fills(access_now)
        charged[line] = complete_at
        # The fresh entry's charge matches its completion by
        # construction: repeat merges are steady until it drains.
        steady_add(line)
        now += stall
        remaining = complete_at - now - credit
        if remaining > 0:
            now += (remaining + mlp - 1) // mlp
        if len(charged) >= prune_at:
            charged = prune_charged(charged, now)
            charged_get = charged.get
            for k in tuple(steady):
                if charged_get(k) != mq[k][0]:
                    steady_discard(k)

    # End-of-run settle (flat kernel's loop, verbatim): issued fills
    # and their L2/DRAM traffic count toward this run's totals.
    while fill_queue or mq:
        progressed = False
        if mq:
            horizon = nc if nc > 0 else 0
            progressed = drain(horizon) > 0
        if fill_queue and len(mq) < mq_capacity:
            before = len(fill_queue)
            issue_fills(0)
            progressed = progressed or len(fill_queue) != before
        if not progressed:       # pragma: no cover - defensive backstop
            break

    return SimResult(
        instructions=instructions,
        cycles=now,
        l1_accesses=len(lines_l),
        l1_hits=hits,
        l1_demand_misses=demand_misses,
        l2_accesses=l2_accesses,
        l2_demand_misses=l2_misses,
        memory_lines=memory_lines,
        random_fill_issued=rf_issued,
    )


def _evict_unlocked(cache_set: OrderedDict) -> bool:
    """Evict the least-recently-used unlocked line; ``False`` (fill
    refused) when every way is locked."""
    for line, locked in cache_set.items():
        if not locked:
            del cache_set[line]
            return True
    return False


def run_lanes_general(lines_l, steps_l, instructions,
                      l1_num_sets, l1_assoc,
                      l2_sets, l2_num_sets, l2_assoc,
                      l2_hit_latency, mq_capacity, fill_reserve,
                      fill_queue_capacity, hit_cost, mlp, credit,
                      cells: Sequence[LaneCell], dram,
                      backend: Optional[str] = None) -> List[SimResult]:
    """Advance every lane of a batch group over the shared columns.

    Shared arguments mirror :func:`run_flat_general`, except that the
    ``lines_l`` / ``steps_l`` columns may also be int64 arrays (the
    native kernel reads those in place); ``l2_sets`` is
    the group's warmed L2 image (MRU-first int lists, *not* mutated —
    each lane works on its own copy) and ``cells`` holds one
    :class:`LaneCell` per lane: its policy split, carried-in state and
    hooks.  ``backend`` forces ``"native"`` or ``"python"``; the
    default picks the compiled kernel when available.  Returns one
    :class:`SimResult` per lane, bit-identical to running the cell
    through the flat kernel (lanes without carried-in state or hooks)
    or through the object model from the same starting state.
    """
    if backend not in (None, "native", "python"):
        raise ValueError(
            f"backend must be None, 'native' or 'python', got {backend!r}")
    n_lanes = len(cells)
    if n_lanes == 0:
        return []
    used = "python"
    results = None
    if backend != "python" and mq_capacity <= _NATIVE_MQ_LIMIT:
        fn = _native()
        if fn is None:
            if backend == "native":
                raise RuntimeError("native lane kernel unavailable")
        else:
            results = _run_native(
                fn, lines_l, steps_l, instructions, l1_num_sets,
                l1_assoc, l2_sets, l2_num_sets, l2_assoc, l2_hit_latency,
                mq_capacity, fill_reserve, fill_queue_capacity, hit_cost,
                mlp, credit, cells, dram)
            if results is not None:
                used = "native"
    elif backend == "native":
        raise RuntimeError(
            f"native lane kernel rejects mq_capacity {mq_capacity}")
    if results is None:
        if isinstance(lines_l, np.ndarray):
            lines_l = lines_l.tolist()
        steps_plus = (np.asarray(steps_l, dtype=np.int64)
                      + hit_cost).tolist()
        results = []
        for cell in cells:
            offsets = (cell.offsets.tolist()
                       if cell.offsets is not None else ())
            results.append(_run_lane_python(
                lines_l, steps_plus, instructions, l1_num_sets, l1_assoc,
                l2_sets, l2_num_sets, l2_assoc, l2_hit_latency,
                mq_capacity, fill_reserve, fill_queue_capacity, hit_cost,
                mlp, credit, cell, offsets, dram))
    LAST_STATS.clear()
    LAST_STATS.update(records=len(lines_l), lanes=n_lanes, backend=used)
    return results
