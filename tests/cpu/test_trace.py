"""Tests for the trace record format."""

import pytest

from repro.cpu.trace import MemRef, Trace, validate_trace


class TestMemRef:
    def test_is_a_tuple(self):
        ref = MemRef(100, 2, 1)
        assert ref == (100, 2, 1)
        addr, gap, write = ref
        assert (addr, gap, write) == (100, 2, 1)

    def test_defaults(self):
        assert MemRef(5) == (5, 1, 0)


class TestValidate:
    def test_accepts_good_trace(self):
        trace = [(0, 1, 0), MemRef(64, 3, 1)]
        assert list(validate_trace(trace)) == trace

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            list(validate_trace([(-1, 1, 0)]))

    def test_rejects_zero_gap(self):
        with pytest.raises(ValueError):
            list(validate_trace([(0, 0, 0)]))

    def test_rejects_bad_write_flag(self):
        with pytest.raises(ValueError):
            list(validate_trace([(0, 1, 2)]))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            list(validate_trace([(0, 1)]))


class TestHelpers:
    """Record lists become a columnar ``Trace`` with
    :meth:`Trace.from_records`; the trace answers for them."""

    def test_instruction_count(self):
        assert Trace.from_records([(0, 3, 0), (64, 5, 1)]).instruction_count == 8

    def test_materialize(self):
        gen = ((i, 1, 0) for i in range(3))
        assert Trace.from_records(gen) == [(0, 1, 0), (1, 1, 0), (2, 1, 0)]
