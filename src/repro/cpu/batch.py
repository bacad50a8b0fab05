"""Lowering cells onto the lane kernel, alone or as a batch group.

A Figure-10-style sweep runs many cells that differ only in window,
seed knob, or scheme while replaying the *same* trace through the same
cache geometry; a Figure 6 sweep runs four schemes per L1 geometry over
one AES-CBC trace.  This module computes the shared work once per
batch group and lowers each eligible cell onto the lane kernel
(:func:`repro.cpu.lanes.run_lanes_general`), which advances the cells
of a group as lanes of one call; a cell run on its own
(:func:`run_lowered`) is a group of one:

* :class:`GeneralGroupState` — the per-(trace, config, warm) inputs:
  decoded int64 line/step columns of the measured slice and of the
  warm-up prefix, which the lane kernel reads in place (it replays the
  prefix into the group's L2 itself; nothing is replayed in Python).
  ``"general"`` groups decode a workload trace (warm split optional);
  ``"crypto"`` groups decode the whole AES-CBC trace over an empty L2,
* :func:`lower_cell` — build the cell's scheme exactly as its
  object-model runner does (crypto cells with the AES tables protected,
  then the scheme's ``prepare()``, e.g. the PLcache preload), check
  that it is a configuration the kernel transcribes, and snapshot any
  state the setup left (start cycle, L1 image with lock bits, L2
  image, DRAM rows/banks) plus the random-fill engine's own RNG, which
  the kernel draws from at each demand miss; lowering never advances
  that RNG.  Ineligible cells lower to ``None`` and run on the object
  model (:class:`repro.cpu.timing.TimingModel`); so does every cell
  when the compiled kernel is unavailable (no C compiler, or a library
  that does not load), the cell's MSHR file exceeds the kernel's
  bound, or a checker is installed or requested (``REPRO_CHECK``),
* :func:`run_lane_cells` — a group of lowered cells through the lane
  kernel in one shared trace pass (the lanes must agree on
  :meth:`LoweredCell.shared_key`; a group of one is a width-1 call),
* :func:`run_lowered` — one cell as a width-1 call, or ``None`` when
  it does not lower (what :func:`repro.runner.cells.run_cell` runs),
* :func:`lane_eligible` — the same check from the spec alone (no trace
  load), for plan displays.

The kernel covers the stock set-associative/LRU L1 with demand fetch
or a power-of-two random-fill window, plus two policy hooks: PLcache
lock bits (a lock-aware victim choice) and the disable-cache scheme's
L1 bypass of the protected lines.  Results are bit-identical to the
object model: the kernel is an exact transcription of its loop plus
settle, its warm replay is the L2 warm-up of ``run_general_workload``,
the snapshot is the object model's own post-setup state, and every
lane draws from its cell's RNG at the same point the object model's
fill policy does, leaving it where the object-model run would.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.controller import DemandFetchPolicy
from repro.cache.l2 import L2Cache
from repro.cache.set_associative import SetAssociativeCache
from repro.core.policy import RandomFillPolicy
from repro.cpu.lanes import (
    _NATIVE_MQ_LIMIT,
    LaneCell,
    native_available,
    run_lanes_general,
)
from repro.cpu.timing import SimResult
from repro.cpu.trace import Trace
from repro.memory.dram import DramModel
from repro.secure.nocache import DisableCachePolicy
from repro.secure.plcache import PLCache
from repro.secure.region import RegionSet
from repro.util.rng import WORD_BITS, HardwareRng

#: thread whose window registers drive a batched run (the timing model's
#: default context)
_THREAD_ID = 0


#: the warm-up prefix of a cold group
_NO_LINES = np.empty(0, dtype=np.int64)


def _l2_num_sets(config) -> int:
    return (config.l2_size // config.line_size) // config.l2_assoc


class GeneralGroupState:
    """Shared inputs of one batch group: decode columns + warm-up prefix.

    Built once per (trace, config, warm) group; every cell of the group
    reads the same columns, never mutating them.  ``line_array`` /
    ``step_array`` are the int64 columns the lane kernel reads, and
    ``warm_lines`` the warm-up prefix's line column (empty for a cold
    group), which each kernel call replays into the group's L2;
    :attr:`lines` is the plain-list form of the line column, built on
    first use and memoized on the decode.
    """

    __slots__ = ("config", "line_array", "step_array", "warm_lines",
                 "instructions", "l2_num_sets", "l2_assoc", "_decode")

    def __init__(self, trace: Trace, config, warm: bool):
        self.config = config
        line_shift = config.line_size.bit_length() - 1
        lines = trace.decoded(line_shift).lines()
        if warm:
            # Warm on the first half, measure the second — the same
            # split (and the same memoized slice/decode objects) as
            # run_general_workload.  Both halves are views of the full
            # trace's line column.
            split = len(trace) // 2
            self.warm_lines = lines[:split]
            self.line_array = lines[split:]
            measured = trace[split:]
        else:
            self.warm_lines = _NO_LINES
            self.line_array = lines
            measured = trace
        decode = measured.decoded(line_shift)
        self._decode = decode
        self.step_array = decode.issue_step_array(config.issue_width)
        self.instructions: int = measured.instruction_count
        self.l2_num_sets = _l2_num_sets(config)
        self.l2_assoc = config.l2_assoc

    @property
    def lines(self) -> List[int]:
        """Line address per measured record, as plain ints."""
        return self._decode.lines_list()


def group_state_for(spec) -> GeneralGroupState:
    """Build the shared state for a batch group from one member spec.

    Crypto cells replay the whole AES-CBC trace from an empty L2 (the
    object-model path builds a fresh hierarchy and never warms it).
    """
    if spec.kind == "crypto":
        from repro.experiments.perf_crypto import cached_cbc_trace
        trace = cached_cbc_trace(message_kb=spec.message_kb, seed=spec.seed)
        return GeneralGroupState(trace, spec.config, warm=False)
    from repro.workloads.cache import cached_workload
    trace = cached_workload(spec.benchmark, n_refs=spec.n_refs,
                            seed=spec.seed)
    return GeneralGroupState(trace, spec.config, spec.warm)


class LoweredCell:
    """One eligible cell lowered to plain kernel parameters.

    The shared fields (geometry, capacities, latencies, DRAM timing)
    must agree between lanes run together — :meth:`shared_key` is the
    grouping key; ``policy_kind`` / ``rf_a`` / ``rf_mask`` / ``rng``
    (the random-fill engine's own RNG, advanced by each run) are the
    per-lane split, and ``start`` / ``l1_image`` /
    ``l2_image`` / ``dram_state`` / ``bypass`` the lane's carried-in
    state and hooks (see :class:`repro.cpu.lanes.LaneCell`).
    """

    __slots__ = ("l1_num_sets", "l1_assoc", "l2_hit_latency",
                 "mq_capacity", "fill_reserve", "fill_queue_capacity",
                 "hit_cost", "mlp", "credit", "dram",
                 "policy_kind", "rf_a", "rf_mask", "rng",
                 "start", "l1_image", "l2_image", "dram_state", "bypass")

    def shared_key(self):
        return (self.l1_num_sets, self.l1_assoc, self.l2_hit_latency,
                self.mq_capacity, self.fill_reserve,
                self.fill_queue_capacity, self.hit_cost, self.mlp,
                self.credit, self.dram)

    def lane_cell(self) -> LaneCell:
        """This cell's per-lane kernel inputs."""
        return LaneCell(self.policy_kind, self.rng, self.rf_a, self.rf_mask,
                        start=self.start, l1=self.l1_image, l2=self.l2_image,
                        dram=self.dram_state, bypass=self.bypass)


def _image(tag: SetAssociativeCache) -> Optional[Dict]:
    """Sparse ``{set: [(line, locked), ...]}`` snapshot, MRU first;
    ``None`` for an empty store (every cell without a setup routine)."""
    if not any(tag._sets):
        return None
    return {s: [(ls.line_addr, ls.locked) for ls in ways]
            for s, ways in enumerate(tag._sets) if ways}


def _build(spec, config):
    """Build and set up the cell's scheme exactly as its runner does.

    Returns ``(scheme, start)``: ``run_general_workload`` builds with no
    protected regions and programs the window with ``set_rr``;
    ``run_crypto_workload`` builds through :func:`prepare_crypto_scheme`.
    """
    if spec.kind == "crypto":
        from repro.core.window import RandomFillWindow
        from repro.experiments.perf_crypto import prepare_crypto_scheme

        window = RandomFillWindow(*spec.window) \
            if spec.window is not None else None
        return prepare_crypto_scheme(spec.scheme, config, window=window,
                                     seed=spec.seed)
    from repro.experiments.schemes import build_scheme

    scheme = build_scheme(spec.scheme, config, seed=spec.seed)
    window = spec.window if spec.window is not None else (0, 0)
    if scheme.os is not None:
        scheme.os.set_rr(*window)
    return scheme, 0


def _lower(spec) -> Optional[LoweredCell]:
    """Structural eligibility check + parameter extraction.

    The one place that decides whether the lane kernel runs a cell:
    ``None`` sends the cell to the object model — a cell the kernel
    does not transcribe, a host without the compiled kernel, and any
    run under a checker (installed, or requested by ``REPRO_CHECK``),
    which validates the object model.
    """
    from repro import check
    from repro.runner.cells import LANE_KINDS, CellSpec
    from repro.schemes import get_scheme

    if not isinstance(spec, CellSpec) or spec.kind not in LANE_KINDS:
        return None
    if check.active_checker() is not None \
            or check.check_rate_from_env() is not None:
        return None
    if not native_available():
        return None
    config = spec.config
    # Declarative early-out from the scheme registry: schemes not
    # flagged lane_eligible never lower, pow2_window_only schemes skip
    # the build for windows the mask path cannot draw, and schemes
    # that need protected regions only build for crypto cells (general
    # cells have none).  The structural checks below stay as the
    # authority for flagged schemes (a conformance test pins
    # flag/structure agreement).
    registered = get_scheme(spec.scheme, timing=True)
    if not registered.lane_eligible:
        return None
    if registered.pow2_window_only and spec.window is not None:
        size = spec.window[0] + spec.window[1] + 1
        if size > 1 and size & (size - 1):
            return None
    if registered.needs_protected and spec.kind != "crypto":
        return None
    scheme, start = _build(spec, config)

    l1 = scheme.l1
    tag = l1.tag_store
    policy = l1._policy
    if type(tag) not in (SetAssociativeCache, PLCache) \
            or not (tag._lru_hits and tag._mru_fills and tag._max_victims) \
            or l1._policy_on_hit is not None:
        return None
    bypass: Tuple[Tuple[int, int], ...] = ()
    if l1._policy_bypasses:
        if type(policy) is not DisableCachePolicy \
                or type(policy.protected) is not RegionSet:
            return None
        bypass = tuple((region.first_line,
                        region.first_line + region.num_lines)
                       for region in policy.protected)
    l2 = l1.next_level
    if type(l2) is not L2Cache:
        return None
    l2_tag = l2.tag_store
    if type(l2_tag) is not SetAssociativeCache \
            or not (l2_tag._lru_hits and l2_tag._mru_fills
                    and l2_tag._max_victims) \
            or l2_tag._set_mask + 1 != _l2_num_sets(config) \
            or l2_tag.associativity != config.l2_assoc:
        return None
    dram = l2.dram
    if type(dram) is not DramModel \
            or l1.miss_queue.capacity > _NATIVE_MQ_LIMIT:
        return None
    # Setup may leave requests in flight (the PLcache preload's last
    # line): retire what completes by the start cycle — the first
    # record's drain would retire it at the same point in order.  The
    # kernel carries cache and DRAM state in, but not in-flight state.
    l1._drain(start)
    if len(l1.miss_queue) or l1.fill_queue:
        return None

    policy_kind = 1
    rf_a = rf_mask = 0
    rng = None
    if type(policy) is RandomFillPolicy:
        engine = policy.engine
        rf_window = engine.window_for(_THREAD_ID)
        if not (rf_window.a == 0 and rf_window.b == 0):
            rf_a, rf_mask, _size = engine._params[_THREAD_ID]
            if rf_mask is None:
                return None          # non-power-of-two: draw_below path
            rng = engine._rng
            # The kernel continues this cell's own stream, one draw per
            # demand miss; a draw wider than one MT word runs per cell.
            if type(rng) is not HardwareRng or rng.width > WORD_BITS:
                return None
            policy_kind = 2
    elif type(policy) not in (DemandFetchPolicy, DisableCachePolicy):
        return None

    cfg = dram.config
    lowered = LoweredCell()
    lowered.l1_num_sets = tag._set_mask + 1
    lowered.l1_assoc = tag.associativity
    lowered.l2_hit_latency = l2.hit_latency
    lowered.mq_capacity = l1.miss_queue.capacity
    lowered.fill_reserve = l1.fill_reserve
    lowered.fill_queue_capacity = l1.fill_queue_capacity
    lowered.hit_cost = l1.hit_latency
    lowered.mlp = max(1, l1.miss_queue.capacity // 2)
    lowered.credit = config.overlap_credit
    lowered.dram = (
        cfg.row_size_bytes // cfg.line_size, cfg.num_banks,
        cfg.row_hit_latency, cfg.row_miss_latency,
        cfg.t_burst, cfg.t_rp + cfg.t_rcd + cfg.t_burst,
    )
    lowered.policy_kind = policy_kind
    lowered.rf_a = rf_a
    lowered.rf_mask = rf_mask
    lowered.rng = rng
    lowered.start = start
    lowered.l1_image = _image(tag)
    lowered.l2_image = _image(l2_tag)
    lowered.dram_state = None
    if dram._open_row or dram._bank_free_at:
        lowered.dram_state = (dict(dram._open_row), dict(dram._bank_free_at))
    lowered.bypass = bypass
    return lowered


def lower_cell(spec, config) -> Optional[LoweredCell]:
    """Lower one cell onto kernel parameters, or ``None`` if ineligible
    or if its configuration is not ``config``, its batch group's.

    The cell's scheme is built and set up exactly as
    ``run_general_workload`` / ``run_crypto_workload`` build it (same
    ``build_scheme`` seed derivation and window, same ``prepare()``),
    then checked: a set-associative/LRU L1 (PLcache lock bits allowed)
    and L2 with a demand-fetch, disable-cache or power-of-two
    random-fill policy qualify — the stock configurations, minus the
    non-power-of-two windows that draw via ``draw_below`` and MSHR
    files above the kernel's bound.  Nothing lowers when the compiled
    kernel is unavailable or under a checker.
    """
    if spec.config != config:
        return None
    return _lower(spec)


def lane_eligible(spec) -> bool:
    """Would this spec lower onto the lane kernel?  No trace is loaded.

    Used by plan displays (``--profile``): lowering needs only the spec
    (the scheme build is cheap), so this is :func:`lower_cell` without
    the group's configuration check — ``False`` for every spec when the
    compiled kernel is unavailable.
    """
    return _lower(spec) is not None


def run_lowered(spec) -> Optional[SimResult]:
    """Run one cell as a width-1 lane call over its own group state, or
    return ``None`` when it does not lower (it then runs on the object
    model).  Bit-identical to the cell's object-model run."""
    lowered = _lower(spec)
    if lowered is None:
        return None
    (result,) = run_lane_cells(group_state_for(spec), [lowered])
    return result


def run_lane_cells(group: GeneralGroupState,
                   lowered: Sequence[LoweredCell]) -> List[SimResult]:
    """Run a group of lowered cells as lanes of one shared trace pass.

    Every member must report the same :meth:`LoweredCell.shared_key`
    (the runner groups by it before calling).  Returns one result per
    cell, in order, bit-identical to each cell's object-model run.
    """
    if not lowered:
        return []
    first = lowered[0]
    cells = [lc.lane_cell() for lc in lowered]
    return run_lanes_general(
        group.line_array, group.step_array, group.instructions,
        l1_num_sets=first.l1_num_sets, l1_assoc=first.l1_assoc,
        warm_lines=group.warm_lines,
        l2_num_sets=group.l2_num_sets, l2_assoc=group.l2_assoc,
        l2_hit_latency=first.l2_hit_latency,
        mq_capacity=first.mq_capacity, fill_reserve=first.fill_reserve,
        fill_queue_capacity=first.fill_queue_capacity,
        hit_cost=first.hit_cost, mlp=first.mlp, credit=first.credit,
        cells=cells, dram=first.dram,
    )
