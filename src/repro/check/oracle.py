"""Differential-oracle run driver for checked simulation mode.

:func:`checked_run` replaces ``TimingModel.run`` while a checker is
installed.  It runs the loop an unchecked run takes — the fused kernel
or the object model, as ``TimingModel._plan`` chooses — in chunks of
``checker.rate`` accesses, carrying the charge dict across chunk
boundaries so the chunked execution is bit-identical to the monolithic
one.  After every chunk, and again after the final settle, it:

* advances the naive :class:`~repro.check.reference.ReferenceModel`
  over the same accesses and diffs the full machine state (cycle
  count, L1 sets / MSHR file / fill queue, L2 sets, DRAM bank state,
  every stat counter) against the simulator, whenever
  :meth:`~repro.check.reference.ReferenceModel.capture` models the
  configuration, and
* sweeps the :mod:`~repro.check.invariants` catalogue over the L1
  (:meth:`~repro.check.Checker.validate_l1`).

Configurations the reference does not interpret (Newcache, PLcache,
locked contexts, prefetchers, other policies) run on the object-model
loop exactly as unchecked and get the invariant sweep without the
state diff.

The returned :class:`~repro.cpu.timing.SimResult` is bit-identical to
an unchecked run of the same trace, so checked and unchecked results
share result-cache entries and every figure reproduced under
``REPRO_CHECK=1`` is the figure itself, revalidated.
"""

from __future__ import annotations

from typing import Optional

from repro.check import Checker, CheckViolation, _shorten
from repro.check.reference import ReferenceModel

_L1_FIELDS = ("accesses", "hits", "demand_misses", "mshr_merges", "fills",
              "evictions", "random_fill_issued", "random_fill_dropped",
              "next_level_requests")
_L2_FIELDS = ("accesses", "hits", "demand_misses", "fills", "evictions",
              "next_level_requests")


def _snapshot(l1, l2) -> dict:
    base = {"l1_" + f: getattr(l1.stats, f) for f in _L1_FIELDS}
    for field in _L2_FIELDS:
        base["l2_" + field] = getattr(l2.stats, field)
    dram = l2.dram
    base["dram_lines"] = dram.lines_transferred
    base["dram_row_hits"] = getattr(dram, "row_hits", 0)
    base["dram_row_misses"] = getattr(dram, "row_misses", 0)
    return base


def _diff_sets(kind: str, real_store, ref_sets, index: int) -> None:
    real_sets = real_store._sets
    if len(real_sets) != len(ref_sets):
        raise CheckViolation(
            "oracle-state", f"{kind}.tag_store",
            "set count diverged", index=index,
            expected=str(len(ref_sets)), actual=str(len(real_sets)))
    for set_index, (real_set, ref_set) in enumerate(zip(real_sets, ref_sets)):
        real_lines = [ls.line_addr for ls in real_set]
        if real_lines != ref_set:
            raise CheckViolation(
                "oracle-state", f"{kind}.tag_store",
                f"set {set_index} contents diverged from the reference "
                f"(MRU-first line order)", index=index,
                expected=_shorten(repr(ref_set)),
                actual=_shorten(repr(real_lines)))


def _diff_state(model, ref: ReferenceModel, now: int, base: dict,
                index: int) -> None:
    """Raise on the first component where fast path and reference differ."""
    l1 = model.l1
    l2 = l1.next_level
    if now != ref.now:
        raise CheckViolation(
            "oracle-timing", "cycle counter",
            "cycle count diverged from the reference", index=index,
            expected=str(ref.now), actual=str(now))
    _diff_sets("l1", l1.tag_store, ref.l1_sets, index)
    real_mshr = [(line, entry.complete_at, entry.request_type.name)
                 for line, entry in l1.miss_queue._entries.items()]
    ref_mshr = [(line, entry[0], entry[1].name)
                for line, entry in ref.mshr.items()]
    if real_mshr != ref_mshr:
        raise CheckViolation(
            "oracle-state", "l1.miss_queue",
            "MSHR entries diverged (line, complete_at, type, in "
            "allocation order)", index=index,
            expected=_shorten(repr(ref_mshr)),
            actual=_shorten(repr(real_mshr)))
    real_queue = [line for line, _ctx in l1.fill_queue]
    if real_queue != ref.fill_queue:
        raise CheckViolation(
            "oracle-state", "l1.fill_queue",
            "parked random-fill requests diverged", index=index,
            expected=_shorten(repr(ref.fill_queue)),
            actual=_shorten(repr(real_queue)))
    _diff_sets("l2", l2.tag_store, ref.l2_sets, index)
    dram = l2.dram
    if (dict(dram._open_row) != ref.open_row
            or dict(dram._bank_free_at) != ref.bank_free_at):
        raise CheckViolation(
            "oracle-state", "dram",
            "bank state (open rows / busy times) diverged", index=index,
            expected=_shorten(repr((ref.open_row, ref.bank_free_at))),
            actual=_shorten(repr((dict(dram._open_row),
                                  dict(dram._bank_free_at)))))
    actual_counters = _snapshot(l1, l2)
    for key, ref_value in ref.counters.items():
        real_value = actual_counters[key] - base[key]
        if real_value != ref_value:
            raise CheckViolation(
                "oracle-stats", key,
                "stat counter diverged from the reference", index=index,
                expected=str(ref_value), actual=str(real_value))


def checked_run(model, trace, ctx, start_cycle: int, checker: Checker):
    """Checked replacement for ``TimingModel.run`` (bit-identical)."""
    from repro.cpu.timing import result_since, stat_snapshot

    l1 = model.l1
    base = _snapshot(l1, l1.next_level)
    counters = stat_snapshot(l1)
    loop, lines, steps, writes = model._plan(trace, ctx)
    ref = ReferenceModel.capture(model, ctx)
    if ref is not None:
        ref.now = start_cycle
        ref.checker = checker
    now = start_cycle
    charged: dict = {}
    total = len(lines)
    for lo in range(0, total, checker.rate):
        hi = min(lo + checker.rate, total)
        chunk = lines[lo:hi], steps[lo:hi], writes[lo:hi]
        now, charged = loop(*chunk, ctx, now, charged)
        if ref is not None:
            ref.run_chunk(*chunk)
        _validate(model, ref, now, base, checker, index=hi)
    l1.settle()
    if ref is not None:
        ref.settle()
    _validate(model, ref, now, base, checker, index=total)
    return result_since(l1, counters, trace.instruction_count,
                        now - start_cycle)


def _validate(model, ref: Optional[ReferenceModel], now: int, base: dict,
              checker: Checker, index: int) -> None:
    """Diff against the reference when there is one, then sweep the
    L1 invariants; each counts as one check."""
    if ref is not None:
        checker.checks_run += 1
        try:
            _diff_state(model, ref, now, base, index)
        except CheckViolation:
            checker.violations += 1
            raise
    checker.validate_l1(model.l1, index=index)
