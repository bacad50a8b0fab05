"""Tests for the job-handle layer (submit / poll / cancel) the sweep
service is built on."""

import threading
import time

import pytest

from repro.leakage.sweep import LeakageCellSpec
from repro.runner.jobs import FINISHED_STATES, JobQueueFull, JobRunner
from repro.runner.result_cache import ResultCache


class IsolatedRunner(JobRunner):
    """JobRunner whose submits never touch the shared on-disk result
    cache — the timing assertions below rely on slow specs actually
    simulating, which a warm ``~/.cache/repro`` would defeat."""

    def submit(self, specs, **kwargs):
        kwargs.setdefault(
            "result_cache",
            ResultCache(disk_dir=None, use_default_disk_dir=False),
        )
        return super().submit(specs, **kwargs)


def quick_spec(seed=0):
    return LeakageCellSpec(channel="eq7", scheme="random_fill", window=(1, 0),
                           trials=40, seed=seed, curve_points=(1, 2),
                           curve_repeats=5)


def slow_spec(seed=0):
    # ~1.5s of eq7 sampling: long enough to observe "running" and to
    # keep the queue occupied, short enough for CI.
    return LeakageCellSpec(channel="eq7", scheme="random_fill", window=(1, 0),
                           trials=1_500_000, seed=seed, curve_points=(1,),
                           curve_repeats=1)


@pytest.fixture
def runner():
    runner = IsolatedRunner(queue_depth=4)
    yield runner
    runner.shutdown(wait=True, cancel_queued=True)


class TestLifecycle:
    def test_submit_poll_result(self, runner):
        specs = [quick_spec(seed) for seed in range(3)]
        handle = runner.submit(specs, jobs=1, progress=False)
        results = handle.result(timeout=120)
        assert len(results) == 3
        snapshot = handle.poll()
        assert snapshot["state"] == "done"
        assert snapshot["cells"] == 3
        assert snapshot["queue_wait_s"] >= 0.0
        assert snapshot["run_seconds"] > 0.0
        assert snapshot["error"] is None
        assert snapshot["stats"].get("cells") == 3

    def test_results_match_direct_run(self, runner):
        specs = [quick_spec(seed) for seed in range(2)]
        handle = runner.submit(specs, jobs=1, progress=False)
        direct = [spec.run() for spec in specs]
        assert handle.result(timeout=120) == direct

    def test_jobs_run_in_submission_order(self, runner):
        order = []
        lock = threading.Lock()

        def observer(tag):
            def on_transition(handle, state):
                if state == "running":
                    with lock:
                        order.append(tag)
            return on_transition

        handles = [
            runner.submit([quick_spec(seed)], on_transition=observer(seed),
                          jobs=1, progress=False)
            for seed in range(3)
        ]
        for handle in handles:
            handle.result(timeout=120)
        assert order == [0, 1, 2]

    def test_failed_job_state_and_error(self, runner):
        handle = runner.submit([object()], jobs=1, progress=False)
        with pytest.raises(RuntimeError, match="failed"):
            handle.result(timeout=120)
        assert handle.wait_settled(60) is True
        snapshot = handle.poll()
        assert snapshot["state"] == "failed"
        assert snapshot["error"]

    def test_result_timeout(self, runner):
        handle = runner.submit([slow_spec()], jobs=1, progress=False)
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.05)
        assert handle.result(timeout=120)  # still completes afterwards

    def test_wait_settled_wakes_when_the_job_settles(self, runner):
        handle = runner.submit([slow_spec(2)], jobs=1, progress=False)
        assert handle.wait_settled(0.05) is False
        started = time.monotonic()
        assert handle.wait_settled(60) is True
        assert time.monotonic() - started < 30  # woken, not timed out
        assert handle.state == "done"


class TestQueueBound:
    def test_queue_full_raises(self):
        runner = IsolatedRunner(queue_depth=1)
        try:
            first = runner.submit([slow_spec(0)], jobs=1, progress=False)
            # Wait until the first job occupies the executor, so the
            # next submit is the single queued slot.
            deadline = time.monotonic() + 30
            while first.state == "queued" and time.monotonic() < deadline:
                time.sleep(0.005)
            assert first.state in {"running"} | FINISHED_STATES
            queued = runner.submit([slow_spec(1)], jobs=1, progress=False)
            with pytest.raises(JobQueueFull):
                runner.submit([slow_spec(2)], jobs=1, progress=False)
            queued.cancel()
        finally:
            runner.shutdown(wait=True, cancel_queued=True)

    def test_queue_depth_validated(self):
        with pytest.raises(ValueError):
            JobRunner(queue_depth=0)

    def test_submit_after_shutdown_refused(self):
        runner = IsolatedRunner(queue_depth=2)
        runner.shutdown(wait=True, cancel_queued=True)
        with pytest.raises(RuntimeError, match="shut down"):
            runner.submit([quick_spec()], jobs=1, progress=False)


class TestCancel:
    def test_cancel_queued_job_never_runs(self, runner):
        transitions = []
        blocker = runner.submit([slow_spec(0)], jobs=1, progress=False)
        deadline = time.monotonic() + 30
        while blocker.state == "queued" and time.monotonic() < deadline:
            time.sleep(0.005)
        victim = runner.submit(
            [quick_spec(9)],
            on_transition=lambda h, s: transitions.append(s),
            jobs=1, progress=False,
        )
        assert victim.cancel() is True
        assert victim.state == "cancelled"
        assert victim.wait_settled(0) is False  # still in the queue
        blocker.result(timeout=120)
        # The executor pops the job, declines to run it and settles it.
        assert victim.wait_settled(60) is True
        assert "running" not in transitions
        with pytest.raises(RuntimeError, match="cancelled"):
            victim.result(timeout=1)

    def test_runner_cancel_settles_a_queued_job_at_once(self, runner):
        transitions = []
        blocker = runner.submit([slow_spec(1)], jobs=1, progress=False)
        deadline = time.monotonic() + 30
        while blocker.state == "queued" and time.monotonic() < deadline:
            time.sleep(0.005)
        victim = runner.submit(
            [quick_spec(8)],
            on_transition=lambda h, s: transitions.append(s),
            jobs=1, progress=False,
        )
        assert victim.published_state() == "queued"
        assert runner.cancel(victim) is True
        # Settled before cancel() returned: observers ran exactly once,
        # and the terminal state is published while the blocker runs.
        assert victim.settled
        assert victim.wait_settled(0) is True
        assert victim.published_state() == "cancelled"
        assert transitions == ["cancelled"]
        assert runner.queued() == 0
        blocker.result(timeout=120)
        assert transitions == ["cancelled"]

    def test_finished_but_unsettled_reads_as_running(self, runner):
        release = threading.Event()
        seen = []

        def slow_observer(handle, state):
            if state == "done":
                seen.append(handle.published_state())
                release.wait(30)

        handle = runner.submit([quick_spec(4)], on_transition=slow_observer,
                               jobs=1, progress=False)
        handle.result(timeout=120)
        assert handle.state == "done"
        assert handle.published_state() == "running"
        assert handle.wait_settled(0.05) is False
        release.set()
        assert handle.wait_settled(30) is True
        assert seen == ["running"]
        assert handle.published_state() == "done"

    def test_cancel_running_job_discards_results(self, runner):
        handle = runner.submit([slow_spec(3)], jobs=1, progress=False)
        deadline = time.monotonic() + 30
        while handle.state == "queued" and time.monotonic() < deadline:
            time.sleep(0.005)
        assert handle.state == "running"
        assert handle.cancel() is False  # cannot preempt mid-run
        assert handle.state == "cancelling"
        with pytest.raises(RuntimeError, match="cancelled"):
            handle.result(timeout=120)
        assert handle.poll()["state"] == "cancelled"


class TestObservers:
    def test_transition_callbacks_fire(self, runner):
        transitions = []
        handle = runner.submit(
            [quick_spec(5)],
            on_transition=lambda h, s: transitions.append((h.job_id, s)),
            jobs=1, progress=False,
        )
        handle.result(timeout=120)
        assert transitions == [(handle.job_id, "running"),
                               (handle.job_id, "done")]

    def test_observer_exceptions_are_swallowed(self, runner):
        def bomb(handle, state):
            raise RuntimeError("observer bug")

        handle = runner.submit([quick_spec(6)], on_transition=bomb,
                               jobs=1, progress=False)
        assert handle.result(timeout=120)

    def test_shutdown_cancels_queued_and_notifies(self):
        runner = IsolatedRunner(queue_depth=4)
        transitions = []
        blocker = runner.submit([slow_spec(0)], jobs=1, progress=False)
        deadline = time.monotonic() + 30
        while blocker.state == "queued" and time.monotonic() < deadline:
            time.sleep(0.005)
        queued = runner.submit(
            [quick_spec(7)],
            on_transition=lambda h, s: transitions.append(s),
            jobs=1, progress=False,
        )
        runner.shutdown(wait=True, cancel_queued=True)
        assert queued.state == "cancelled"
        assert queued.wait_settled(0) is True
        assert transitions == ["cancelled"]
