"""Checked mode runs the loop that made the numbers.

``TimingModel.run`` drives a trace through one of two loops: the fused
kernel for the stock configuration, the object model for every other
scheme.  A spy on both loops records which one an unchecked run calls
and which one the checked run of the same trace calls: for every
registered timing scheme they must be the same loop, and the two
results must be equal.  The checked run validates the L1
after every chunk, so ``checks_run`` counts at least one check per
chunk.
"""

import pytest

from repro.check import checked
from repro.core.window import RandomFillWindow
from repro.cpu.timing import TimingModel
from repro.experiments.config import BASELINE_CONFIG
from repro.experiments.perf_crypto import make_cbc_trace, prepare_crypto_scheme
from repro.schemes import get_scheme, timing_scheme_names

FUSED = "_run_columnar_fused"
OBJECT_MODEL = "_run_object_model"

#: every timing scheme (window schemes at the non-pow2 window (5, 3),
#: which the fused kernel serves through its generic draw path), plus
#: random fill at a pow2 window for the inlined draw
CASES = [
    (name, (5, 3) if get_scheme(name, timing=True).uses_window else None)
    for name in timing_scheme_names()
] + [("random_fill", (4, 3))]

#: the loop each of these runs on, checked or not
EXPECTED = {
    ("baseline", None): FUSED,
    ("random_fill", (5, 3)): FUSED,
    ("random_fill", (4, 3)): FUSED,
    ("newcache", None): OBJECT_MODEL,
    ("tagged_prefetch", None): OBJECT_MODEL,
    ("plcache_preload", None): OBJECT_MODEL,
    ("disable_cache", None): OBJECT_MODEL,
}

RATE = 256


@pytest.fixture(scope="module")
def trace():
    # AES-CBC touches the protected tables, so the PLcache lock bits
    # and the disable-cache bypass take part.
    return make_cbc_trace(message_kb=1, seed=2)[:3000]


@pytest.fixture
def loop_calls(monkeypatch):
    calls = []
    for name in (FUSED, OBJECT_MODEL):
        original = getattr(TimingModel, name)

        def spy(self, lines, *args, _name=name, _original=original):
            calls.append((_name, len(lines)))
            return _original(self, lines, *args)

        monkeypatch.setattr(TimingModel, name, spy)
    return calls


def _run(name, window, trace):
    scheme, start = prepare_crypto_scheme(
        name, BASELINE_CONFIG,
        window=RandomFillWindow(*window) if window else None, seed=5)
    timing = TimingModel(scheme.l1, issue_width=BASELINE_CONFIG.issue_width,
                         overlap_credit=BASELINE_CONFIG.overlap_credit)
    return timing.run(trace, start_cycle=start)


@pytest.mark.parametrize(
    "name,window", CASES,
    ids=[name + ("" if window is None else "-%d,%d" % window)
         for name, window in CASES])
def test_checked_run_calls_the_unchecked_loop(name, window, trace,
                                              loop_calls):
    unchecked = _run(name, window, trace)
    (plain_loop, plain_refs), = loop_calls
    assert plain_refs == len(trace)
    assert plain_loop == EXPECTED.get((name, window), plain_loop)
    loop_calls.clear()

    with checked(rate=RATE) as checker:
        result = _run(name, window, trace)
    assert result == unchecked
    assert {loop for loop, _refs in loop_calls} == {plain_loop}
    assert sum(refs for _loop, refs in loop_calls) == len(trace)
    assert len(loop_calls) == -(-len(trace) // RATE)
    assert checker.checks_run > len(loop_calls)
    assert checker.violations == 0
