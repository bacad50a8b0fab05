"""The bulk primitives equal the per-record reference loops, bit for bit.

``reference_synthetic.py`` keeps the record-at-a-time loops the bulk
primitives replaced.  The property tests run both over edge parameters
(one record, ``refs_per_line`` 1-8, ``write_ratio`` and ``dense_prob``
at 0 and 1, ``p_hot + p_neighbor = 1``, a one-line working set,
``stride_lines_max <= 1``, working sets wide enough that one
``randrange`` takes two MT19937 words).  The replay tests pin the
facts bulk synthesis rests on: numpy's MT19937, loaded with a
``random.Random`` state taken in mid-stream, yields the same words as
successive ``getrandbits(32)`` calls; a write flag reproduces every bit
of ``random()``, so it holds with ``write_ratio`` at a drawn value;
each layout walk counts exactly the words it drew; and no replay
request is longer than the trace it flags.
"""

import math
import random
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads import synthetic
from repro.workloads.spec import SPEC_BENCHMARKS, make_workload
from tests.workloads import reference_synthetic as reference

N_REFS = st.integers(1, 5000)
REFS_PER_LINE = st.integers(1, 8)
SEEDS = st.integers(0, 2**32 - 1)
BASES = st.integers(0, 2**40)
GAPS = st.integers(0, 10)
#: probabilities with both ends drawn often
PROBS = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
#: working sets, including ones whose randrange draws two MT words
WORKING_SETS = st.one_of(st.just(1), st.integers(1, 5000), st.just(2**33 + 5))

SETTINGS = settings(max_examples=60, deadline=None)


def _same(kind, kwargs):
    bulk = getattr(synthetic, kind)(**kwargs)
    loop = getattr(reference, kind)(**kwargs)
    assert len(bulk) == kwargs["n_refs"]
    for column in ("addr", "gap", "write"):
        assert getattr(bulk, column).dtype == np.int64
        assert np.array_equal(getattr(bulk, column), getattr(loop, column)), column


@st.composite
def mixture_kwargs(draw):
    working_set_lines = draw(WORKING_SETS)
    p_hot = draw(PROBS)
    p_neighbor = draw(st.one_of(st.just(1.0 - p_hot), st.just(0.0), st.floats(0.0, 1.0 - p_hot)))
    return dict(
        n_refs=draw(N_REFS),
        base=draw(BASES),
        working_set_lines=working_set_lines,
        hot_lines=draw(st.integers(1, min(working_set_lines, 300))),
        p_hot=p_hot,
        p_neighbor=p_neighbor,
        neighbor_span=draw(st.integers(0, 9)),
        refs_per_line=draw(REFS_PER_LINE),
        write_ratio=draw(PROBS),
        gap=draw(GAPS),
        seed=draw(SEEDS),
    )


@st.composite
def streaming_kwargs(draw):
    stride_lines_max = draw(st.integers(0, 6))
    return dict(
        n_refs=draw(N_REFS),
        base=draw(BASES),
        array_lines=draw(st.integers(max(1, stride_lines_max + 1), 5000)),
        refs_per_line=draw(REFS_PER_LINE),
        stride_lines_max=stride_lines_max,
        dense_prob=draw(PROBS),
        write_ratio=draw(PROBS),
        gap=draw(GAPS),
        seed=draw(SEEDS),
    )


@st.composite
def strided_kwargs(draw):
    return dict(
        n_refs=draw(N_REFS),
        base=draw(BASES),
        array_lines=draw(st.integers(1, 5000)),
        stride_lines=draw(st.integers(1, 9)),
        refs_per_line=draw(REFS_PER_LINE),
        write_ratio=draw(PROBS),
        gap=draw(GAPS),
        seed=draw(SEEDS),
    )


@st.composite
def chase_kwargs(draw):
    return dict(
        n_refs=draw(N_REFS),
        base=draw(BASES),
        working_set_lines=draw(st.integers(2, 5000)),
        gap=draw(GAPS),
        write_ratio=draw(PROBS),
        seed=draw(SEEDS),
    )


class TestMatchesReference:
    @SETTINGS
    @given(mixture_kwargs())
    @example(dict(n_refs=3000, base=0, working_set_lines=1, hot_lines=1, p_hot=0.5,
                  p_neighbor=0.5, neighbor_span=2, refs_per_line=3, write_ratio=1.0,
                  gap=4, seed=1))
    def test_locality_mixture(self, kwargs):
        _same("locality_mixture", kwargs)

    @SETTINGS
    @given(streaming_kwargs())
    @example(dict(n_refs=1, base=0, array_lines=2, refs_per_line=1, stride_lines_max=1,
                  dense_prob=0.0, write_ratio=0.0, gap=4, seed=0))
    def test_streaming(self, kwargs):
        _same("streaming", kwargs)

    @SETTINGS
    @given(strided_kwargs())
    def test_strided(self, kwargs):
        _same("strided", kwargs)

    @SETTINGS
    @given(chase_kwargs())
    def test_pointer_chase(self, kwargs):
        _same("pointer_chase", kwargs)

    @SETTINGS
    @given(st.one_of(mixture_kwargs().map(lambda kw: ("locality_mixture", kw)),
                     chase_kwargs().map(lambda kw: ("pointer_chase", kw))),
           st.integers(2, 9))
    def test_short_replay_blocks(self, case, block):
        # Blocks of a few words put many records across a block edge,
        # where the carried word is the record's first.
        with mock.patch.object(synthetic, "_REPLAY_BLOCK", block):
            _same(*case)


def _mid_stream(seed, skip):
    """A ``random.Random`` that has drawn ``skip`` words since seeding."""
    rng = random.Random(seed)
    for _ in range(skip):
        rng.getrandbits(32)
    assert rng.getstate()[1][-1] not in (0, 624)
    return rng


def _advanced(state, n_words):
    """The state after ``n_words`` ``getrandbits(32)`` calls from ``state``."""
    twin = random.Random()
    twin.setstate(state)
    for _ in range(n_words):
        twin.getrandbits(32)
    return twin.getstate()


class TestReplay:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, skip=st.integers(1, 623), n_words=st.integers(1, 2000))
    def test_numpy_replay_equals_getrandbits(self, seed, skip, n_words):
        rng = _mid_stream(seed, skip)
        words = synthetic._mt19937(rng.getstate()).random_raw(n_words)
        assert words.tolist() == [rng.getrandbits(32) for _ in range(n_words)]

    @SETTINGS
    @given(seed=SEEDS, n_refs=st.integers(1, 2000), data=st.data())
    def test_write_flags_exact_at_the_threshold(self, seed, n_refs, data):
        # strided draws one random() per record and nothing else; with
        # write_ratio at a drawn value (or just above it) a flag flips
        # unless every bit of that value is reproduced.
        rng = random.Random(seed)
        values = [rng.random() for _ in range(n_refs)]
        value = values[data.draw(st.integers(0, n_refs - 1))]
        for write_ratio in (value, math.nextafter(value, 1.0)):
            trace = synthetic.strided(n_refs, 0, 100, 1, refs_per_line=1,
                                      write_ratio=write_ratio, seed=seed)
            assert trace.write.tolist() == [int(v < write_ratio) for v in values]

    @SETTINGS
    @given(seed=SEEDS, skip=st.integers(1, 623), working_set_lines=WORKING_SETS,
           p_hot=PROBS, span=st.integers(0, 9), refs_per_line=REFS_PER_LINE,
           steps=st.integers(1, 400))
    def test_mixture_walk_counts_its_words(self, seed, skip, working_set_lines, p_hot,
                                           span, refs_per_line, steps):
        rng = _mid_stream(seed, skip)
        hot_set = random.Random(seed).sample(range(working_set_lines),
                                             min(working_set_lines, 7))
        state = rng.getstate()
        _, starts, drawn = synthetic._mixture_walk(
            rng, steps, 2 * refs_per_line, hot_set, working_set_lines, p_hot,
            (1.0 - p_hot) / 2, span)
        assert starts[-1] + 2 * refs_per_line == drawn
        assert _advanced(state, drawn) == rng.getstate()

    @SETTINGS
    @given(seed=SEEDS, skip=st.integers(1, 623), stride_lines_max=st.integers(2, 40),
           dense_prob=PROBS, refs_per_line=REFS_PER_LINE, steps=st.integers(1, 400))
    def test_stream_walk_counts_its_words(self, seed, skip, stride_lines_max, dense_prob,
                                          refs_per_line, steps):
        rng = _mid_stream(seed, skip)
        state = rng.getstate()
        _, _, drawn = synthetic._stream_walk(rng, steps, 2 * refs_per_line,
                                             stride_lines_max, dense_prob)
        assert _advanced(state, drawn) == rng.getstate()

    @SETTINGS
    @given(seed=SEEDS, skip=st.integers(1, 623), n_refs=st.integers(1, 400))
    def test_chase_walk_counts_its_words(self, seed, skip, n_refs):
        rng = _mid_stream(seed, skip)
        state = rng.getstate()
        _, firsts, drawn = synthetic._chase_walk(rng, n_refs)
        assert firsts[0] == 0 and firsts[-1] + 3 <= drawn
        assert _advanced(state, drawn) == rng.getstate()


class _SpyGenerator:
    """Wraps a replay generator and records each ``random_raw`` size."""

    def __init__(self, generator, sizes):
        self.generator = generator
        self.sizes = sizes

    def random_raw(self, size):
        self.sizes.append(size)
        return self.generator.random_raw(size)


def test_replay_requests_never_outgrow_the_trace(monkeypatch):
    # A trace draws 3.5-5.5 words per record: replaying them in one
    # request would make the largest array of synthesis, whose release
    # leaves later column-sized arrays on the heap.
    sizes = []
    mt19937 = synthetic._mt19937
    monkeypatch.setattr(synthetic, "_mt19937",
                        lambda state: _SpyGenerator(mt19937(state), sizes))
    n_refs = 3000
    for name in SPEC_BENCHMARKS:
        sizes.clear()
        make_workload(name, n_refs=n_refs, seed=1)
        assert sizes and max(sizes) <= n_refs, (name, sizes)
