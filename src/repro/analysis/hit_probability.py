"""Monte Carlo estimation of P1 - P2 (Section V-A, Table III).

P1 and P2 are the conditional cache-hit probabilities of the later
access ``x_j`` of a pair of security-critical accesses:

    P1 = P(x_j hit | <x_i> = <x_j>)      (cache collision)
    P2 = P(x_j hit | <x_i> != <x_j>)     (no collision)

The attacker's signal is ``(P1 - P2)(t_miss - t_hit)`` (Equation 4);
random fill drives P1 - P2 to zero as the window grows.

Following the paper, the Monte Carlo runs full AES block encryptions of
random plaintext from a clean cache and averages over all pairs of the
16 final-round lookups into T4 (Te4).  The cache model here is
*functional* (hit/miss only): fills happen instantly, which matches the
paper's warm-up analysis and is what P1/P2 are defined over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.cache.context import DEFAULT_CONTEXT, AccessContext
from repro.cache.set_associative import SetAssociativeCache
from repro.cache.tagstore import TagStore
from repro.core.window import RandomFillWindow
from repro.secure.newcache import Newcache
from repro.util.rng import HardwareRng, derive_seed

import random

if TYPE_CHECKING:  # pragma: no cover - the AES tables load on first use
    from repro.crypto.traced_aes import AesMemoryLayout


class FunctionalRandomFillCache:
    """Hit/miss-only cache with the random cache fill strategy.

    On a miss the demand line is *not* installed; a uniformly random
    line within the window is installed instead (if absent).  A
    disabled window degrades to demand fetch.  This is the minimal
    model that Section V-A's probability derivation describes.
    """

    def __init__(self, tag_store: TagStore, window: RandomFillWindow,
                 rng: HardwareRng, ctx: AccessContext = DEFAULT_CONTEXT):
        self.tag_store = tag_store
        self.window = window
        self.rng = rng
        self.ctx = ctx

    def _draw_offset(self) -> int:
        """One windowed draw (Figure 4 mask path for power-of-two sizes).

        Factored out so checked mode (:mod:`repro.check`) can wrap it
        and validate every offset against the Table II window bounds.
        """
        window = self.window
        if window.is_power_of_two:
            return self.rng.draw_masked(window.size - 1) - window.a
        return self.rng.draw_below(window.size) - window.a

    def access_line(self, line_addr: int) -> bool:
        """Perform one access; returns hit/miss and applies the fill."""
        if self.tag_store.access(line_addr, self.ctx):
            return True
        window = self.window
        if window.disabled:
            self.tag_store.fill(line_addr, self.ctx)
            return False
        fill_line = line_addr + self._draw_offset()
        if fill_line >= 0 and not self.tag_store.probe(fill_line, self.ctx):
            self.tag_store.fill(fill_line, self.ctx)
        return False


@dataclass
class P1P2Result:
    """Monte Carlo output for one (cache, window) configuration."""

    p1: float
    p2: float
    collision_samples: int
    no_collision_samples: int
    trials: int

    @property
    def p1_minus_p2(self) -> float:
        return self.p1 - self.p2


TagStoreFactory = Callable[[], TagStore]


def sa_tag_store_factory(size_bytes: int = 32 * 1024,
                         associativity: int = 4) -> TagStoreFactory:
    """Factory for the paper's '4-way SA' Table III configuration."""
    return lambda: SetAssociativeCache(size_bytes, associativity)


def newcache_tag_store_factory(size_bytes: int = 32 * 1024,
                               seed: int = 1234) -> TagStoreFactory:
    """Factory for the 'Newcache' Table III configuration."""
    counter = [0]

    def make() -> TagStore:
        counter[0] += 1
        return Newcache(size_bytes, seed=derive_seed(seed, counter[0]))
    return make


def monte_carlo_p1_p2(tag_store_factory: TagStoreFactory,
                      window: RandomFillWindow,
                      trials: int = 20_000,
                      seed: int = 0,
                      key: Optional[bytes] = None,
                      layout: Optional[AesMemoryLayout] = None) -> P1P2Result:
    """Estimate P1 - P2 over the final-round T4 lookup pairs.

    Each trial encrypts one random-plaintext block starting from a clean
    cache; for every ordered pair (u, w), u < w, of the 16 final-round
    lookups, the hit/miss of lookup ``w`` lands in the collision or
    no-collision bucket according to line equality with lookup ``u``.
    """
    # Imported here: building the AES tables costs ~40 ms, which every
    # importer of the functional caches would otherwise pay.
    from repro.crypto.traced_aes import AesMemoryLayout, TracedAES128

    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if layout is None:
        layout = AesMemoryLayout()
    master = random.Random(seed)
    key = key if key is not None else bytes(master.randrange(256)
                                            for _ in range(16))
    aes = TracedAES128(key, layout=layout)
    line_bits = 6  # 64-byte lines
    hit_sum = [0, 0]      # [no-collision, collision]
    samples = [0, 0]

    for trial in range(trials):
        plaintext = bytes(master.randrange(256) for _ in range(16))
        lookups: List[Tuple[int, int]] = []
        aes.encrypt_block_traced(
            plaintext,
            lookup_sink=lambda tbl, idx: lookups.append((tbl, idx)))
        cache = FunctionalRandomFillCache(
            tag_store_factory(), window,
            HardwareRng(derive_seed(seed, "fill", trial)))
        final_lines: List[int] = []
        final_hits: List[bool] = []
        for tbl, idx in lookups:
            line = layout.enc_table_addr(tbl, idx) >> line_bits
            hit = cache.access_line(line)
            if tbl == 4:
                final_lines.append(line)
                final_hits.append(hit)
        n = len(final_lines)
        for w in range(1, n):
            line_w = final_lines[w]
            hit_w = 1 if final_hits[w] else 0
            for u in range(w):
                bucket = 1 if final_lines[u] == line_w else 0
                hit_sum[bucket] += hit_w
                samples[bucket] += 1

    p1 = hit_sum[1] / samples[1] if samples[1] else 0.0
    p2 = hit_sum[0] / samples[0] if samples[0] else 0.0
    return P1P2Result(p1=p1, p2=p2,
                      collision_samples=samples[1],
                      no_collision_samples=samples[0],
                      trials=trials)
