"""Checked mode runs the loop that made the numbers.

``TimingModel.run`` drives every trace through one loop, the object
model.  A spy on it records the calls an unchecked run makes and the
calls the checked run of the same trace makes: for every registered
timing scheme the unchecked run is one call over the whole trace, the
checked run covers the same records in chunks of the checker's rate,
and the two results must be equal.  The checked run validates the L1
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

#: every timing scheme (window schemes at the non-pow2 window (5, 3),
#: the generic draw path), plus random fill at a pow2 window for the
#: masked draw
CASES = [
    (name, (5, 3) if get_scheme(name, timing=True).uses_window else None)
    for name in timing_scheme_names()
] + [("random_fill", (4, 3))]

RATE = 256


@pytest.fixture(scope="module")
def trace():
    # AES-CBC touches the protected tables, so the PLcache lock bits
    # and the disable-cache bypass take part.
    return make_cbc_trace(message_kb=1, seed=2)[:3000]


@pytest.fixture
def loop_calls(monkeypatch):
    """Records per object-model loop call, in call order."""
    calls = []
    original = TimingModel._run_object_model

    def spy(self, lines, *args):
        calls.append(len(lines))
        return original(self, lines, *args)

    monkeypatch.setattr(TimingModel, "_run_object_model", spy)
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
    assert loop_calls == [len(trace)]
    loop_calls.clear()

    with checked(rate=RATE) as checker:
        result = _run(name, window, trace)
    assert result == unchecked
    assert sum(loop_calls) == len(trace)
    assert len(loop_calls) == -(-len(trace) // RATE)
    assert checker.checks_run > len(loop_calls)
    assert checker.violations == 0
