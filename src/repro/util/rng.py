"""Deterministic model of the hardware random number generator.

The paper's random fill engine draws from "a free running random number
generator (RNG) ... a pseudo random number generator with a truly random
seed" (Section IV-B.2).  For a reproducible simulator we model the RNG as
a seeded PRNG; the security analysis only requires that the masked output
is uniform over ``[0, 2**width)``, which holds for any good PRNG.

``HardwareRng`` also models the paper's buffering remark ("the random
number can be generated ahead of time and buffered"): numbers are produced
in batches so a draw is a constant-time pop, mirroring the fact that RNG
latency is off the processor's critical path.

The stream is CPython's MT19937 (``random.Random``).  The lane kernel
(:mod:`repro.cpu.lanes`) draws from it at each demand miss without a
Python call: it takes :meth:`HardwareRng.word_state`, runs the same
generator and refill/pop order in C, and hands the advanced state back
through :meth:`HardwareRng.set_word_state`, so later ``draw()`` calls
continue exactly where scalar draws would have left the stream.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

#: widest draw one 32-bit Mersenne Twister word supplies; a wider
#: ``getrandbits`` call spends several words per value, and such RNGs
#: are not continued outside Python
WORD_BITS = 32


def derive_seed(base_seed: int, *components: object) -> int:
    """Derive a child seed from ``base_seed`` and a label path.

    Experiments use one master seed; every stochastic component (random
    fill engine, workload generator, attacker plaintext source, ...) gets
    its own stream via ``derive_seed(master, "component", index)``.  The
    derivation is stable across runs and Python versions.
    """
    h = 0x9E3779B97F4A7C15 ^ (base_seed & 0xFFFFFFFFFFFFFFFF)
    for component in components:
        for byte in repr(component).encode():
            h ^= byte
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class HardwareRng:
    """Buffered pseudo-random source standing in for the hardware RNG.

    Parameters
    ----------
    seed:
        PRNG seed (models the "truly random seed" of the hardware RNG).
    width:
        Output width in bits; the paper's range registers and RNG are
        8 bits wide (Figure 4).
    buffer_size:
        How many numbers are pre-generated per refill, modelling the
        ahead-of-time generation buffer.
    """

    def __init__(self, seed: int, width: int = 8, buffer_size: int = 256):
        if width <= 0:
            raise ValueError(f"RNG width must be positive, got {width}")
        if buffer_size <= 0:
            raise ValueError(f"buffer_size must be positive, got {buffer_size}")
        self.width = width
        self._max = (1 << width) - 1
        self._rng = random.Random(seed)
        self._buffer_size = buffer_size
        self._buffer: List[int] = []

    @property
    def buffer_size(self) -> int:
        """Values generated per refill of the ahead-of-time buffer."""
        return self._buffer_size

    def _refill(self) -> None:
        rand = self._rng.getrandbits
        width = self.width
        # In-place extend: the buffer list's identity is stable across
        # refills.  Only ever called when the buffer is empty, so the
        # draw sequence is unchanged.
        self._buffer += [rand(width) for _ in range(self._buffer_size)]

    def draw(self) -> int:
        """Return the next raw random number in ``[0, 2**width)``."""
        if not self._buffer:
            self._refill()
        return self._buffer.pop()

    def word_state(self) -> Tuple[Tuple[int, ...], int, List[int]]:
        """``(words, index, buffer)``: where the :meth:`draw` stream stands.

        ``words`` and ``index`` are the Mersenne Twister's 624 state
        words and position exactly as ``random.Random.getstate`` holds
        them; ``buffer`` copies the unconsumed values in list order
        (:meth:`draw` pops from the end).  For widths up to 32 each
        refilled value is one 32-bit word ``genrand_uint32() >> (32 -
        width)`` — what ``getrandbits(width)`` returns on CPython — so
        this is all a kernel needs to continue the stream natively.
        """
        _version, internal, _gauss_next = self._rng.getstate()
        return internal[:-1], internal[-1], list(self._buffer)

    def set_word_state(self, words: Sequence[int], index: int,
                       buffer: Sequence[int]) -> None:
        """Resume the stream from a :meth:`word_state` a kernel advanced.

        The buffer is replaced in place: hot loops may hold a reference
        to the list (see :meth:`_refill`).
        """
        version, _internal, gauss_next = self._rng.getstate()
        self._rng.setstate((version, tuple(words) + (index,), gauss_next))
        self._buffer[:] = buffer

    def draw_masked(self, mask: int) -> int:
        """Return ``draw() & mask`` — the bounded value R' of Figure 4."""
        return self.draw() & mask

    def draw_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` (used by replacement policies).

        Unlike :meth:`draw_masked` this is exact for non-power-of-two
        bounds; it is used by components (e.g. Newcache's random
        replacement) that are not constrained by the Figure 4 datapath.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self._rng.randrange(bound)

    def fork(self, *components: object) -> "HardwareRng":
        """Create an independent child stream (for per-subsystem RNGs)."""
        child_seed = derive_seed(self._rng.getrandbits(64), *components)
        return HardwareRng(child_seed, width=self.width, buffer_size=self._buffer_size)
