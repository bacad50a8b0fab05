"""Trace-driven CPU model: trace format, single-thread timing, SMT."""

from repro.cpu.decode import TraceDecode
from repro.cpu.smt import SmtThread, run_smt
from repro.cpu.timing import SimResult, TimingModel
from repro.cpu.trace import (
    MemRef,
    Trace,
    TraceRecord,
    validate_trace,
)

__all__ = [
    "MemRef",
    "SimResult",
    "SmtThread",
    "TimingModel",
    "Trace",
    "TraceDecode",
    "TraceRecord",
    "run_smt",
    "validate_trace",
]
