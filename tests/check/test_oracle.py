"""Differential-oracle tests: bit-identity when clean, detection when not.

The two halves of the tentpole contract:

* a checked run returns the *same* ``SimResult`` as an unchecked run of
  the same trace (so checked mode revalidates the actual figures), and
* a seeded fast-path mutation — the class of bug the oracle exists to
  catch — raises :exc:`CheckViolation` instead of silently corrupting
  results.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import CheckViolation, checked
from repro.cpu.timing import TimingModel
from repro.cpu.trace import Trace
from repro.experiments.config import BASELINE_CONFIG
from repro.experiments.schemes import build_scheme

#: (scheme, window) grid covering the fused pow2 kernel, the generic
#: non-pow2 draw, the disabled window and the non-SA/policy schemes.
CONFIGS = (
    ("baseline", None),
    ("random_fill", (4, 3)),       # pow2 window: fused kind-2 kernel
    ("random_fill", (5, 3)),       # non-pow2: generic modulo draw
    ("random_fill", (16, 15)),
    ("newcache", None),            # invariant sweep only (no oracle)
    ("tagged_prefetch", None),
)


def _records(n, seed, span_lines=1 << 14):
    rng = random.Random(seed)
    return [(rng.randrange(span_lines) * 64, rng.randrange(1, 6),
             rng.random() < 0.3) for _ in range(n)]


def _simulate(scheme_name, window, trace, seed, mutate=None):
    scheme = build_scheme(scheme_name, BASELINE_CONFIG, seed=seed)
    if scheme.os is not None and window is not None:
        scheme.os.set_rr(*window)
    if mutate is not None:
        mutate(scheme)
    timing = TimingModel(scheme.l1, issue_width=BASELINE_CONFIG.issue_width,
                         overlap_credit=BASELINE_CONFIG.overlap_credit)
    return timing.run(trace)


class TestCleanEquivalence:
    @pytest.mark.parametrize("scheme_name,window", CONFIGS)
    def test_checked_run_is_bit_identical(self, scheme_name, window):
        trace = Trace.from_records(_records(3000, seed=11))
        unchecked = _simulate(scheme_name, window, trace, seed=5)
        with checked(rate=512) as checker:
            result = _simulate(scheme_name, window, trace, seed=5)
        assert result == unchecked, scheme_name
        assert checker.checks_run > 0
        assert checker.violations == 0

    def test_rate_does_not_change_results(self):
        """Chunk boundaries are invisible: any rate, same SimResult."""
        trace = Trace.from_records(_records(2500, seed=2))
        baseline = _simulate("random_fill", (4, 3), trace, seed=9)
        for rate in (64, 700, 10_000):
            with checked(rate=rate):
                result = _simulate("random_fill", (4, 3), trace, seed=9)
            assert result == baseline, f"rate={rate}"

    def test_tuple_list_trace_checked(self):
        """A record list becomes a Trace as it enters ``run`` and is
        checked like one: the fused kernel with the oracle in lockstep."""
        records = _records(1500, seed=4)
        unchecked = _simulate("random_fill", (4, 3),
                              Trace.from_records(records), seed=3)
        with checked(rate=256) as checker:
            result = _simulate("random_fill", (4, 3), records, seed=3)
        assert result == unchecked
        assert checker.checks_run > 0


class TestMutationDetection:
    """Seeded fast-path bugs must raise, not corrupt results silently."""

    def test_off_by_one_window_constant(self):
        """Fused kernel draws with a+1: timing/state diverge from the
        reference, which derives its constants from the window spec."""
        trace = Trace.from_records(_records(3000, seed=11))

        def mutate(scheme):
            engine = scheme.os.engine
            a, mask, size = engine._params[0]
            engine._params[0] = (a + 1, mask, size)

        with checked(rate=512):
            with pytest.raises(CheckViolation) as excinfo:
                _simulate("random_fill", (4, 3), trace, seed=5,
                          mutate=mutate)
        assert excinfo.value.kind.startswith("oracle")
        assert excinfo.value.index is not None

    def test_corrupted_set_mask(self):
        """A drifted set-index mask misplaces lines; the reference
        recomputes its mask from the geometry, so state diverges (and
        the set-mapping invariant has the same bug covered)."""
        trace = Trace.from_records(_records(3000, seed=11))

        def mutate(scheme):
            store = scheme.l1.tag_store
            store._set_mask >>= 1

        with checked(rate=512):
            with pytest.raises(CheckViolation) as excinfo:
                _simulate("random_fill", (4, 3), trace, seed=5,
                          mutate=mutate)
        assert excinfo.value.kind.startswith("oracle") \
            or excinfo.value.kind == "set-mapping"

    def test_oversized_draw_bound(self):
        """Non-pow2 path drawing from too wide a range violates the
        Table II window-bounds invariant on the draw itself."""
        trace = Trace.from_records(_records(3000, seed=11))

        def mutate(scheme):
            engine = scheme.os.engine
            a, mask, size = engine._params[0]
            assert mask is None          # (5, 3) is not a pow2 window
            engine._params[0] = (a, mask, size + 4)

        with checked(rate=512):
            with pytest.raises(CheckViolation) as excinfo:
                _simulate("random_fill", (5, 3), trace, seed=5,
                          mutate=mutate)
        assert excinfo.value.kind in ("window-bounds", "oracle-timing",
                                      "oracle-state", "oracle-stats")

    def test_violation_counted(self):
        trace = Trace.from_records(_records(2000, seed=1))

        def mutate(scheme):
            engine = scheme.os.engine
            a, mask, size = engine._params[0]
            engine._params[0] = (a + 1, mask, size)

        with pytest.raises(CheckViolation):
            with checked(rate=256) as checker:
                _simulate("random_fill", (4, 3), trace, seed=5,
                          mutate=mutate)
        assert checker.violations >= 1


# Shared strategy: addresses span more lines than L1 capacity so traces
# exercise misses, MSHR merges and out-of-window fills; writes and
# gaps > 1 exercise the issue front-end.
RECORDS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1 << 22),
              st.integers(min_value=1, max_value=9),
              st.integers(min_value=0, max_value=1)),
    min_size=0, max_size=250)


class TestPropertyCheckedEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(records=RECORDS, seed=st.integers(min_value=0, max_value=2**31))
    def test_random_streams_all_schemes(self, records, seed):
        """Hypothesis-random streams through every scheme under checked
        mode: same results as unchecked, zero violations."""
        trace = Trace.from_records(records)
        for scheme_name, window in (("baseline", None),
                                    ("random_fill", (4, 3)),
                                    ("random_fill", (5, 3)),
                                    ("newcache", None)):
            unchecked = _simulate(scheme_name, window, trace, seed=seed)
            with checked(rate=64) as checker:
                result = _simulate(scheme_name, window, trace, seed=seed)
            assert result == unchecked, (scheme_name, window)
            assert checker.violations == 0
