"""Property tests: the lane kernel matches the object-model loop, and a
record list runs exactly like the ``Trace`` it converts to.

``TimingModel.run`` converts any record iterable to a columnar
:class:`Trace` as it enters, decodes it once, and drives it through the
object-model loop.  The first test runs the lane kernel's stock
configurations — demand fetch and random fill with power-of-two
windows (the Figure 4 masked draw) — as width-1 kernel calls over
hypothesis-random traces and requires the object model's result.  The
other two pin that a record list and its ``Trace`` (whole, or the
measured-half slice) give one run, for a policy-bearing scheme too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.batch import GeneralGroupState, lower_cell, run_lane_cells
from repro.cpu.lanes import native_available
from repro.cpu.timing import TimingModel
from repro.cpu.trace import Trace
from repro.experiments.config import BASELINE_CONFIG
from repro.experiments.schemes import build_scheme
from repro.runner.cells import CellSpec

# Addresses span more lines than L1 capacity so traces exercise misses,
# merges and (for random fill) out-of-window fills; gaps > 1 exercise
# the issue front-end backlog arithmetic.
RECORDS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1 << 22),
              st.integers(min_value=1, max_value=9),
              st.integers(min_value=0, max_value=1)),
    min_size=0, max_size=300)

#: stock configurations the lane kernel runs
KERNEL_CONFIGS = (
    ("baseline", (0, 0)),
    ("random_fill", (4, 3)),
    ("random_fill", (0, 7)),
)


def timing_model(scheme_name, seed, window=(4, 3)):
    scheme = build_scheme(scheme_name, BASELINE_CONFIG, seed=seed)
    if scheme.os is not None:
        scheme.os.set_rr(*window)
    return TimingModel(scheme.l1,
                       issue_width=BASELINE_CONFIG.issue_width,
                       overlap_credit=BASELINE_CONFIG.overlap_credit)


def simulate(scheme_name, trace, seed, window=(4, 3)):
    return timing_model(scheme_name, seed, window).run(trace)


@pytest.mark.skipif(not native_available(),
                    reason="no compiled lane kernel")
@settings(max_examples=30, deadline=None)
@given(records=RECORDS, seed=st.integers(min_value=0, max_value=2**31))
def test_lane_kernel_matches_object_model(records, seed):
    trace = Trace.from_records(records)
    group = GeneralGroupState(trace, BASELINE_CONFIG, warm=False)
    for scheme_name, window in KERNEL_CONFIGS:
        # Lowering builds the scheme exactly as timing_model does.
        spec = CellSpec(kind="general", scheme=scheme_name,
                        benchmark="astar", window=window, seed=seed,
                        warm=False)
        lowered = lower_cell(spec, BASELINE_CONFIG)
        assert lowered is not None
        (laned,) = run_lane_cells(group, [lowered])
        assert laned == simulate(scheme_name, trace, seed, window), \
            (scheme_name, window)


@settings(max_examples=30, deadline=None)
@given(records=RECORDS, seed=st.integers(min_value=0, max_value=2**31))
def test_columnar_matches_tuple_list(records, seed):
    """A record list is converted at the door: same run as its Trace."""
    columnar = Trace.from_records(records)
    for scheme_name in ("baseline", "random_fill", "tagged_prefetch"):
        from_list = simulate(scheme_name, records, seed)
        assert simulate(scheme_name, columnar, seed) == from_list, scheme_name


@settings(max_examples=10, deadline=None)
@given(records=RECORDS, seed=st.integers(min_value=0, max_value=2**31))
def test_columnar_slice_matches_list_tail(records, seed):
    """Measured-half slicing (warm runs) must also be representation-
    independent: a zero-copy columnar view equals the list tail."""
    split = len(records) // 2
    columnar = Trace.from_records(records)
    for scheme_name in ("baseline", "random_fill"):
        reference = simulate(scheme_name, records[split:], seed)
        fast = simulate(scheme_name, columnar[split:], seed)
        assert fast == reference, scheme_name
