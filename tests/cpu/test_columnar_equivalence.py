"""Property tests: the fused kernel matches the object-model loop, and a
record list runs exactly like the ``Trace`` it converts to.

``TimingModel.run`` converts any record iterable to a columnar
:class:`Trace` as it enters, decodes it once, and drives the fused
kernel for the stock configuration or the object-model loop for every
other one.  The first test forces the object-model loop onto the fused
kernel's own configurations — demand fetch, random fill with a
power-of-two window (the inlined Figure 4 draw) and with a
non-power-of-two window (the generic enqueue path) — and requires the
same result on hypothesis-random traces.  The other two pin that a
record list and its ``Trace`` (whole, or the measured-half slice) give
one run, for a policy-bearing scheme too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.context import DEFAULT_CONTEXT
from repro.cpu.timing import TimingModel
from repro.cpu.trace import Trace
from repro.experiments.config import BASELINE_CONFIG
from repro.experiments.schemes import build_scheme

# Addresses span more lines than L1 capacity so traces exercise misses,
# merges and (for random fill) out-of-window fills; gaps > 1 exercise
# the issue front-end backlog arithmetic.
RECORDS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1 << 22),
              st.integers(min_value=1, max_value=9),
              st.integers(min_value=0, max_value=1)),
    min_size=0, max_size=300)

#: configurations the fused kernel runs, by the path they take in it
FUSED_CONFIGS = (
    ("baseline", None),
    ("random_fill", (4, 3)),       # pow2 window: inlined masked draw
    ("random_fill", (5, 3)),       # non-pow2: generic enqueue-then-drain
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


@settings(max_examples=30, deadline=None)
@given(records=RECORDS, seed=st.integers(min_value=0, max_value=2**31))
def test_fused_kernel_matches_object_model(records, seed):
    trace = Trace.from_records(records)
    for scheme_name, window in FUSED_CONFIGS:
        fused_model = timing_model(scheme_name, seed, window)
        assert fused_model._fast_path_eligible(DEFAULT_CONTEXT)
        fused = fused_model.run(trace)
        object_model = timing_model(scheme_name, seed, window)
        object_model._fast_path_eligible = lambda ctx: False
        assert object_model.run(trace) == fused, (scheme_name, window)


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
