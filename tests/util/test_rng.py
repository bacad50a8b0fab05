"""Tests for the hardware RNG model."""

import random

import pytest

from repro.util.rng import HardwareRng, derive_seed


class TestHardwareRng:
    def test_draw_within_width(self):
        rng = HardwareRng(seed=1, width=8)
        assert all(0 <= rng.draw() < 256 for _ in range(1000))

    def test_draw_masked_applies_mask(self):
        rng = HardwareRng(seed=2, width=8)
        assert all(rng.draw_masked(0x0F) < 16 for _ in range(500))

    def test_draw_below_bound(self):
        rng = HardwareRng(seed=3)
        assert all(rng.draw_below(7) < 7 for _ in range(500))

    def test_draw_below_rejects_nonpositive(self):
        rng = HardwareRng(seed=3)
        with pytest.raises(ValueError):
            rng.draw_below(0)

    def test_deterministic_given_seed(self):
        a = [HardwareRng(seed=42).draw() for _ in range(50)]
        b = [HardwareRng(seed=42).draw() for _ in range(50)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [HardwareRng(seed=1).draw() for _ in range(50)]
        b = [HardwareRng(seed=2).draw() for _ in range(50)]
        assert a != b

    def test_width_validation(self):
        with pytest.raises(ValueError):
            HardwareRng(seed=0, width=0)

    def test_buffer_size_validation(self):
        with pytest.raises(ValueError):
            HardwareRng(seed=0, buffer_size=0)

    def test_fork_is_independent_stream(self):
        parent = HardwareRng(seed=9)
        child = parent.fork("component")
        a = [child.draw() for _ in range(20)]
        b = [parent.draw() for _ in range(20)]
        assert a != b

    def test_roughly_uniform(self):
        rng = HardwareRng(seed=11, width=4)
        counts = [0] * 16
        for _ in range(16000):
            counts[rng.draw()] += 1
        assert min(counts) > 700 and max(counts) < 1300


class TestWordState:
    """``word_state`` / ``set_word_state`` carry the draw stream across
    a kernel that continues it outside Python."""

    def test_round_trip_continues_the_stream(self):
        for drawn in (0, 1, 37, 256, 300):
            rng = HardwareRng(seed=5)
            scalar = HardwareRng(seed=5)
            for _ in range(drawn):
                assert rng.draw() == scalar.draw()
            moved = HardwareRng(seed=99)
            moved.set_word_state(*rng.word_state())
            assert [moved.draw() for _ in range(700)] == \
                [scalar.draw() for _ in range(700)]

    def test_words_are_one_getrandbits_word_per_value(self):
        # What the native kernel relies on: a refill of width <= 32 is
        # one MT word per value, shifted down to the width.
        rng = HardwareRng(seed=7, width=5, buffer_size=4)
        words, index, buffer = rng.word_state()
        assert (len(words), index, buffer) == (624, 624, [])
        twin = random.Random()
        twin.setstate((3, tuple(words) + (index,), None))
        expected = [twin.getrandbits(32) >> 27 for _ in range(4)][::-1]
        assert [rng.draw() for _ in range(4)] == expected

    def test_buffer_is_replaced_in_place(self):
        rng = HardwareRng(seed=3)
        held = rng._buffer
        rng.draw()
        words, index, buffer = rng.word_state()
        rng.set_word_state(words, index, buffer[:10])
        assert rng._buffer is held and held == buffer[:10]


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_sensitive_to_components(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit_range(self):
        s = derive_seed(123456789, "x", "y", 3)
        assert 0 <= s < 2 ** 64
