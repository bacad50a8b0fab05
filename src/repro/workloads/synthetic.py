"""Primitive synthetic address-stream generators.

SPEC CPU2006 binaries and reference inputs are proprietary, so the
concurrent-program and general-performance experiments (Figures 8-10)
run on synthetic traces whose *spatial/temporal locality profile*
matches each benchmark's published character — which is precisely the
property Figure 9 shows determines random-fill behaviour.  The
primitives here are composed into named benchmarks by
:mod:`repro.workloads.spec`.

All generators emit columnar :class:`~repro.cpu.trace.Trace` objects
of ``(byte_addr, gap, write)`` records (see :mod:`repro.cpu.trace`)
and are deterministic given their seed.  Each trace is *defined* by a
record-at-a-time loop over one ``random.Random(seed)`` stream: per
visited line a choice draw, then one ``random() < write_ratio`` draw
per record.  It is *computed* in bulk from that same stream:

1. the set-up draws (the hot set's ``sample``, the chase's ``shuffle``)
   run as written, and the generator's state is saved;
2. a scalar walk over the *steps* (one per visited line) draws only
   what fixes the layout — the choice roll and the rejection loop that
   ``randrange``/``randint`` run (``getrandbits(k)`` with
   ``k = n.bit_length()``, rejecting ``r >= n``) — skips the step's
   write draws with one wide ``getrandbits``, and counts MT19937 words
   to record where each step's write draws sit in the stream
   (``strided`` has no choice draws, so it needs no walk);
3. numpy replays the stream from the saved state
   (:func:`_write_flags`), takes each write flag as ``random()``'s
   exact value from its two words, and broadcasts the addresses from
   the walked lines.

The columns are bit-identical to the record loop's:
``tests/workloads/golden_traces.json`` pins them and
``tests/workloads/reference_synthetic.py`` keeps the loops as the
test oracle.
"""

from __future__ import annotations

import random
from array import array
from typing import List, Sequence, Tuple

import numpy as np

from repro.cpu.trace import Trace

LINE = 64

#: MT19937 words one ``random()`` consumes: 53 bits from two outputs,
#: ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``
_RANDOM_WORDS = 2

#: most MT19937 words one write-flag replay request draws (512 KiB as
#: uint64).  Synthesizing the eight 400k-ref fig10 traces in a fresh
#: process (shared 2-vCPU host) peaked at 115.7 MB RSS with this cap,
#: 125.3 MB with blocks as long as the trace (and about twice the page
#: faults) and 136.0 MB replaying in one request
_REPLAY_BLOCK = 1 << 16


def _zeros(n: int) -> array:
    """``n`` zeroed int64 slots: a walk fills them one at a time, and
    numpy views them without a copy (no int object outlives its step)."""
    return array("q", bytes(8 * n))


def _draw_words(bits: int) -> int:
    """MT19937 words one ``getrandbits(bits)`` call consumes."""
    return (bits + 31) // 32


def _mt19937(state: tuple):
    """A numpy ``MT19937`` at the stream position a ``random.Random``
    was in when ``getstate()`` returned ``state``.

    CPython's ``random`` and numpy's ``MT19937`` run the same generator
    and tempering, so copying the 624-word key and the position makes
    ``random_raw`` yield the words successive ``getrandbits(32)`` calls
    would.
    """
    from numpy.random import MT19937  # only synthesis needs numpy.random

    internal = state[1]
    generator = MT19937(0)
    generator.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(internal[:-1], dtype=np.uint32),
                  "pos": internal[-1]},
    }
    return generator


def _write_flags(state: tuple, firsts: np.ndarray,
                 write_ratio: float) -> np.ndarray:
    """Each record's ``random() < write_ratio`` flag as int64;
    ``firsts`` holds the stream position of each record's first word.

    The stream is replayed in blocks of at most ``len(firsts)`` and
    :data:`_REPLAY_BLOCK` words (a trace draws 3.5-5.5 words per
    record), so no array here outgrows a trace column: freeing one
    larger would raise glibc's mmap threshold and leave later
    column-sized arrays on the heap.  Each block after the first starts
    with the previous block's last word, which may be a record's first.
    """
    n = len(firsts)
    flags = np.empty(n, dtype=np.int64)
    size = max(min(n, _REPLAY_BLOCK), _RANDOM_WORDS)
    total = int(firsts[-1]) + _RANDOM_WORDS
    generator = _mt19937(state)
    words = generator.random_raw(min(size, total))
    base = done = 0          # words[0]'s stream position; records flagged
    while True:
        end = base + len(words)
        # the records whose two words both lie in this block
        stop = int(np.searchsorted(firsts, end - 1))
        at = firsts[done:stop] - base
        high = words[at] >> 5
        low = words[at + 1] >> 6
        value = (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)
        flags[done:stop] = value < write_ratio
        done = stop
        if done == n:
            return flags
        carry = words[-1]
        words = np.empty(min(size, total - end + 1), dtype=np.uint64)
        words[0] = carry
        words[1:] = generator.random_raw(len(words) - 1)
        base = end - 1


def _line_records(state: tuple, lines: Sequence[int], starts: Sequence[int],
                  n_refs: int, refs_per_line: int, base: int,
                  element_stride: int, write_ratio: float,
                  gap: int) -> Trace:
    """The trace of a walk: step ``i`` visits ``lines[i]`` with
    ``refs_per_line`` element accesses, whose write draws start at
    stream position ``starts[i]``; cut to ``n_refs`` records."""
    element = np.arange(refs_per_line, dtype=np.int64)
    lines = np.asarray(lines, dtype=np.int64)
    addr = (base + LINE * lines[:, None]
            + element_stride * element).ravel()[:n_refs]
    starts = np.asarray(starts, dtype=np.int64)
    firsts = (starts[:, None] + _RANDOM_WORDS * element).ravel()[:n_refs]
    return Trace.from_columns(addr, np.full(n_refs, gap, dtype=np.int64),
                              _write_flags(state, firsts, write_ratio))


def _steps(n_refs: int, refs_per_line: int) -> int:
    return -(-n_refs // refs_per_line)


def _check_shape(n_refs: int, refs_per_line: int) -> None:
    if n_refs <= 0:
        raise ValueError(f"n_refs must be positive, got {n_refs}")
    if refs_per_line < 1:
        raise ValueError(f"refs_per_line must be >= 1, got {refs_per_line}")


def streaming(n_refs: int, base: int, array_lines: int,
              refs_per_line: int = 8, stride_lines_max: int = 1,
              dense_prob: float = 0.7,
              write_ratio: float = 0.0, gap: int = 4,
              seed: int = 0) -> Trace:
    """Irregular forward streaming (the libquantum/lbm pattern).

    Walks forward over a large array, touching each visited line with
    ``refs_per_line`` element accesses, then advancing by one line
    (probability ``dense_prob``) or jumping 2..``stride_lines_max``
    lines ahead — "irregular streaming access patterns ... wider
    spatial locality beyond a cache line, especially in the forward
    direction" (Section VII).  The irregular jumps are what break a
    next-sequential-line prefetcher while a forward random fill window
    still covers the skipped-to lines.  Wraps around the array if the
    trace is longer than one pass.  With ``stride_lines_max <= 1``
    every step advances one line, with no choice draw.
    """
    _check_shape(n_refs, refs_per_line)
    if array_lines < 1 or array_lines <= stride_lines_max:
        raise ValueError("array too small for the requested stride")
    if not 0.0 <= dense_prob <= 1.0:
        raise ValueError(f"dense_prob must be in [0, 1], got {dense_prob}")
    rng = random.Random(seed)
    state = rng.getstate()
    steps = _steps(n_refs, refs_per_line)
    block_words = _RANDOM_WORDS * refs_per_line
    if stride_lines_max <= 1:
        lines = np.arange(steps, dtype=np.int64)
        starts = lines * block_words
    else:
        lines, starts, _ = _stream_walk(rng, steps, block_words,
                                        stride_lines_max, dense_prob)
    return _line_records(state, np.asarray(lines) % array_lines, starts,
                         n_refs, refs_per_line, base,
                         LINE // refs_per_line, write_ratio, gap)


def _stream_walk(rng: random.Random, steps: int, block_words: int,
                 stride_lines_max: int,
                 dense_prob: float) -> Tuple[array, array, int]:
    """``streaming``'s layout: each step's unwrapped line, the stream
    position of its write draws, and the words the walk drew."""
    rand = rng.random
    getrandbits = rng.getrandbits
    skip_bits = 32 * block_words
    jump_n = stride_lines_max - 1          # randint(2, max) = 2 + below(n)
    jump_k = jump_n.bit_length()
    jump_w = _draw_words(jump_k)
    lines = _zeros(steps)
    starts = _zeros(steps)
    line = word = 0
    for i in range(steps):
        lines[i] = line
        starts[i] = word
        getrandbits(skip_bits)
        word += block_words + _RANDOM_WORDS
        if rand() < dense_prob:
            line += 1
            continue
        r = getrandbits(jump_k)
        word += jump_w
        while r >= jump_n:
            r = getrandbits(jump_k)
            word += jump_w
        line += 2 + r
    return lines, starts, word


def locality_mixture(n_refs: int, base: int, working_set_lines: int,
                     hot_lines: int, p_hot: float,
                     p_neighbor: float, neighbor_span: int,
                     refs_per_line: int = 2, write_ratio: float = 0.2,
                     gap: int = 4, seed: int = 0) -> Trace:
    """General-purpose locality mixture (astar/bzip2/sjeng/... pattern).

    Each step picks the next *line* as one of:

    * a hot line (probability ``p_hot``) — temporal locality against a
      small hot set *scattered* across the working set (hot objects in
      real programs are not contiguous, which is what keeps the
      Figure 9 reference ratio low at far offsets),
    * a neighbor of the previous line within ``±neighbor_span`` lines
      (probability ``p_neighbor``) — bounded spatial locality,
    * a uniformly random line in the working set — capacity pressure.

    Each chosen line receives ``refs_per_line`` element accesses.
    """
    _check_shape(n_refs, refs_per_line)
    if not 0 <= p_hot + p_neighbor <= 1:
        raise ValueError("p_hot + p_neighbor must be within [0, 1]")
    if hot_lines > working_set_lines:
        raise ValueError("hot set larger than working set")
    if working_set_lines < 1:
        raise ValueError("working set must hold at least one line")
    if p_hot > 0 and hot_lines < 1:
        raise ValueError("p_hot > 0 needs at least one hot line")
    if p_neighbor > 0 and neighbor_span < 0:
        raise ValueError(f"neighbor_span must be >= 0, got {neighbor_span}")
    rng = random.Random(seed)
    hot_set = rng.sample(range(working_set_lines), hot_lines)
    state = rng.getstate()
    lines, starts, _ = _mixture_walk(
        rng, _steps(n_refs, refs_per_line), _RANDOM_WORDS * refs_per_line,
        hot_set, working_set_lines, p_hot, p_neighbor, neighbor_span)
    return _line_records(state, lines, starts, n_refs, refs_per_line, base,
                         max(1, LINE // refs_per_line), write_ratio, gap)


def _mixture_walk(rng: random.Random, steps: int, block_words: int,
                  hot_set: List[int], working_set_lines: int,
                  p_hot: float, p_neighbor: float,
                  neighbor_span: int) -> Tuple[array, array, int]:
    """``locality_mixture``'s layout: each step's line, the stream
    position of its write draws, and the words the walk drew."""
    rand = rng.random
    getrandbits = rng.getrandbits
    skip_bits = 32 * block_words
    p_mix = p_hot + p_neighbor
    hot_n = len(hot_set)
    span_n = 2 * neighbor_span + 1       # randint(-s, s) = -s + below(n)
    ws_n = working_set_lines
    hot_k, span_k, ws_k = (hot_n.bit_length(), span_n.bit_length(),
                           ws_n.bit_length())
    hot_w, span_w, ws_w = (_draw_words(hot_k), _draw_words(span_k),
                           _draw_words(ws_k))
    lines = _zeros(steps)
    starts = _zeros(steps)
    line = word = 0
    for i in range(steps):
        roll = rand()
        if roll < p_hot:
            r = getrandbits(hot_k)
            word += _RANDOM_WORDS + hot_w
            while r >= hot_n:
                r = getrandbits(hot_k)
                word += hot_w
            line = hot_set[r]
        elif roll < p_mix:
            r = getrandbits(span_k)
            word += _RANDOM_WORDS + span_w
            while r >= span_n:
                r = getrandbits(span_k)
                word += span_w
            line = (line + r - neighbor_span) % ws_n
        else:
            r = getrandbits(ws_k)
            word += _RANDOM_WORDS + ws_w
            while r >= ws_n:
                r = getrandbits(ws_k)
                word += ws_w
            line = r
        lines[i] = line
        starts[i] = word
        getrandbits(skip_bits)
        word += block_words
    return lines, starts, word


def strided(n_refs: int, base: int, array_lines: int, stride_lines: int,
            refs_per_line: int = 2, write_ratio: float = 0.1,
            gap: int = 6, seed: int = 0) -> Trace:
    """Regular strided sweep (the milc-like pattern): repeated passes
    with a fixed multi-line stride, so demand fetch sees no next-line
    spatial locality and neither does a next-line prefetcher."""
    _check_shape(n_refs, refs_per_line)
    if stride_lines < 1:
        raise ValueError(f"stride_lines must be >= 1, got {stride_lines}")
    if array_lines < 1:
        raise ValueError(f"array_lines must be >= 1, got {array_lines}")
    state = random.Random(seed).getstate()
    steps = np.arange(_steps(n_refs, refs_per_line), dtype=np.int64)
    return _line_records(state, steps * stride_lines % array_lines,
                         steps * (_RANDOM_WORDS * refs_per_line),
                         n_refs, refs_per_line, base,
                         max(1, LINE // refs_per_line), write_ratio, gap)


def pointer_chase(n_refs: int, base: int, working_set_lines: int,
                  gap: int = 5, write_ratio: float = 0.05,
                  seed: int = 0) -> Trace:
    """Pointer chasing over a shuffled cycle: no spatial locality at all,
    temporal locality only through working-set size (the astar/sjeng
    irregular-control pattern).  Each record reads one of the line's
    eight words at random."""
    if n_refs <= 0:
        raise ValueError(f"n_refs must be positive, got {n_refs}")
    if working_set_lines < 2:
        raise ValueError("pointer chase needs >= 2 lines")
    rng = random.Random(seed)
    order = list(range(working_set_lines))
    rng.shuffle(order)
    state = rng.getstate()
    # the cycle visits order[0], order[1], ... and wraps
    lines = np.asarray(order, dtype=np.int64)[
        np.arange(n_refs) % working_set_lines]
    offsets, firsts, _ = _chase_walk(rng, n_refs)
    addr = base + LINE * lines + 8 * np.asarray(offsets, dtype=np.int64)
    return Trace.from_columns(
        addr, np.full(n_refs, gap, dtype=np.int64),
        _write_flags(state, np.asarray(firsts, dtype=np.int64), write_ratio))


def _chase_walk(rng: random.Random,
                n_refs: int) -> Tuple[array, array, int]:
    """``pointer_chase``'s layout: each record's word offset in its
    line (``randrange(8)``: ``getrandbits(4)``, rejecting 8-15), the
    stream position of its write draw, which precedes it, and the words
    the walk drew."""
    getrandbits = rng.getrandbits
    offsets = _zeros(n_refs)
    firsts = _zeros(n_refs)
    word = 0
    for i in range(n_refs):
        firsts[i] = word
        getrandbits(32 * _RANDOM_WORDS)
        r = getrandbits(4)
        word += _RANDOM_WORDS + 1
        while r >= 8:
            r = getrandbits(4)
            word += 1
        offsets[i] = r
    return offsets, firsts, word
