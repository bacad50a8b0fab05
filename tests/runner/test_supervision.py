"""Fault-injection tests for the supervised runner.

The specs below simulate the three worker failure modes the supervisor
must survive — an attempt that raises, an attempt that hangs past the
timeout, and an attempt that kills its worker process outright
(``os._exit``).  Cross-process attempt counting goes through marker
files in a per-test state directory (``open(..., "x")`` is atomic), so
the same spec misbehaves a configurable number of times and then
succeeds, whether the attempts land in one worker, several, or inline.
"""

import os
import time

import pytest

import repro.runner.pool as pool_mod
from repro.runner.pool import (
    CellTimeoutError,
    last_run_stats,
    resolve_cell_retries,
    resolve_cell_timeout,
    run_cells,
)
from repro.runner.result_cache import ResultCache
from repro.runner.telemetry import Telemetry, read_events


class SquareSpec:
    """Well-behaved pure cell."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"SquareSpec({self.value})"

    def run(self):
        return self.value * self.value


class CacheableSquareSpec(SquareSpec):
    """Pure cell that opts into the result cache and counts its runs
    through marker files (so checkpoint tests can prove a completed
    cell was never recomputed)."""

    def __init__(self, value, state_dir):
        super().__init__(value)
        self.state_dir = state_dir

    def __repr__(self):
        return f"CacheableSquareSpec({self.value})"

    def result_cache_token(self):
        return "supervision-test"

    def run(self):
        _count_attempt(self.state_dir, f"square-{self.value}")
        return self.value * self.value


def _count_attempt(state_dir, tag):
    """Record one attempt of ``tag``; returns how many came before."""
    n = 0
    while True:
        try:
            open(os.path.join(state_dir, f"{tag}.{n}"), "x").close()
            return n
        except FileExistsError:
            n += 1


def _attempts(state_dir, tag):
    return len([name for name in os.listdir(state_dir)
                if name.startswith(f"{tag}.")])


class FaultySpec:
    """Misbehaves for the first ``times`` attempts, then succeeds.

    ``mode`` is ``"raise"``, ``"hang"`` (sleep for a minute) or
    ``"kill"`` (``os._exit``, taking the whole worker process down).
    """

    def __init__(self, tag, state_dir, mode, times):
        self.tag = tag
        self.state_dir = state_dir
        self.mode = mode
        self.times = times

    def __repr__(self):
        return (f"FaultySpec({self.tag!r}, mode={self.mode!r}, "
                f"times={self.times})")

    def run(self):
        if _count_attempt(self.state_dir, self.tag) < self.times:
            if self.mode == "raise":
                raise RuntimeError(f"injected failure in {self.tag}")
            if self.mode == "hang":
                time.sleep(60)
            if self.mode == "kill":
                os._exit(139)
        return ("ok", self.tag)


class GatedSquareSpec(CacheableSquareSpec):
    """Cacheable square whose first attempt records itself and then
    blocks, so it is still running when another cell kills the pool."""

    def run(self):
        if _count_attempt(self.state_dir, f"square-{self.value}") == 0:
            time.sleep(60)  # the pool is killed long before this returns
        return self.value * self.value


class KillWhenStartedSpec:
    """Kills its worker (first attempt only) once ``tag`` has started."""

    def __init__(self, state_dir, tag):
        self.state_dir = state_dir
        self.tag = tag

    def __repr__(self):
        return f"KillWhenStartedSpec({self.tag!r})"

    def run(self):
        if _count_attempt(self.state_dir, "killer") == 0:
            deadline = time.monotonic() + 30
            while (_attempts(self.state_dir, self.tag) == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            os._exit(139)
        return ("ok", "killer")


@pytest.fixture
def nocache():
    return ResultCache(disk_dir=None, use_default_disk_dir=False)


@pytest.fixture
def state_dir(tmp_path):
    d = tmp_path / "state"
    d.mkdir()
    return str(d)


class TestKnobResolution:
    def test_timeout_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
        assert resolve_cell_timeout() == 2.5

    def test_timeout_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
        assert resolve_cell_timeout(7.0) == 7.0

    def test_timeout_unset_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_CELL_TIMEOUT", raising=False)
        assert resolve_cell_timeout() is None

    def test_timeout_nonpositive_disables(self):
        assert resolve_cell_timeout(0) is None
        assert resolve_cell_timeout(-3) is None

    def test_timeout_rejects_garbage_naming_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT"):
            resolve_cell_timeout()

    def test_retries_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_RETRIES", "5")
        assert resolve_cell_retries() == 5

    def test_retries_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CELL_RETRIES", raising=False)
        assert resolve_cell_retries() == pool_mod._DEFAULT_RETRIES

    def test_retries_rejects_garbage_naming_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_RETRIES", "lots")
        with pytest.raises(ValueError, match="REPRO_CELL_RETRIES"):
            resolve_cell_retries()

    def test_retries_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_cell_retries(-1)


class TestRetry:
    def test_pool_recovers_raising_cell(self, nocache, state_dir, tmp_path):
        specs = [SquareSpec(1),
                 FaultySpec("flaky", state_dir, "raise", times=1),
                 SquareSpec(2)]
        log = str(tmp_path / "telemetry.jsonl")
        results = run_cells(specs, jobs=2, retries=2, result_cache=nocache,
                            telemetry=log)
        assert results == [1, ("ok", "flaky"), 4]
        stats = last_run_stats()
        assert stats["retries"] == 1
        assert stats["timeouts"] == 0
        events = read_events(log)
        retry = [e for e in events if e["event"] == "cell_retry"]
        assert len(retry) == 1
        assert retry[0]["index"] == 1
        assert "injected failure" in retry[0]["error"]

    def test_inline_recovers_raising_cell(self, nocache, state_dir):
        specs = [FaultySpec("flaky", state_dir, "raise", times=2),
                 SquareSpec(3)]
        results = run_cells(specs, jobs=1, retries=2, result_cache=nocache)
        assert results == [("ok", "flaky"), 9]
        assert last_run_stats()["retries"] == 2

    def test_retries_exhausted_raises(self, nocache, state_dir):
        specs = [FaultySpec("doomed", state_dir, "raise", times=99)]
        with pytest.raises(RuntimeError, match="injected failure"):
            run_cells(specs, jobs=1, retries=1, result_cache=nocache)
        assert _attempts(state_dir, "doomed") == 2    # initial + 1 retry

    def test_results_bit_identical_across_jobs(self, nocache, tmp_path):
        # Same grid, fresh fault state per run: the fault path must not
        # change what comes back, only how it gets computed.
        def grid(state_dir):
            os.makedirs(state_dir)
            return [SquareSpec(7),
                    FaultySpec("f", state_dir, "raise", times=1),
                    SquareSpec(8), SquareSpec(9)]
        inline = run_cells(grid(str(tmp_path / "a")), jobs=1, retries=2,
                           result_cache=nocache)
        pooled = run_cells(grid(str(tmp_path / "b")), jobs=2, retries=2,
                           result_cache=nocache)
        assert inline == pooled == [49, ("ok", "f"), 64, 81]


class TestTimeout:
    def test_hanging_cell_is_killed_and_retried(self, nocache, state_dir,
                                                tmp_path):
        specs = [SquareSpec(1),
                 FaultySpec("sleeper", state_dir, "hang", times=1),
                 SquareSpec(2)]
        log = str(tmp_path / "telemetry.jsonl")
        results = run_cells(specs, jobs=2, timeout=1.0, retries=2,
                            result_cache=nocache, telemetry=log)
        assert results == [1, ("ok", "sleeper"), 4]
        stats = last_run_stats()
        assert stats["timeouts"] == 1
        assert stats["pool_restarts"] >= 1
        events = read_events(log)
        assert any(e["event"] == "cell_timeout" and e["index"] == 1
                   for e in events)
        assert any(e["event"] == "pool_restart" and e["reason"] == "timeout"
                   for e in events)

    def test_always_hanging_cell_raises(self, nocache, state_dir):
        specs = [FaultySpec("stuck", state_dir, "hang", times=99)]
        started = time.monotonic()
        with pytest.raises(CellTimeoutError, match="REPRO_CELL_TIMEOUT"):
            run_cells(specs, jobs=2, timeout=0.4, retries=1,
                      result_cache=nocache)
        # Two attempts at 0.4s each plus pool churn — nowhere near the
        # 60s the cell would sleep if the timeout were not enforced.
        assert time.monotonic() - started < 20


class TestWorkerDeath:
    def test_killed_worker_recovers_full_results(self, nocache, state_dir,
                                                 tmp_path):
        specs = [SquareSpec(i) for i in range(6)]
        specs.insert(3, FaultySpec("killer", state_dir, "kill", times=1))
        log = str(tmp_path / "telemetry.jsonl")
        results = run_cells(specs, jobs=2, retries=2, result_cache=nocache,
                            telemetry=log)
        assert results == [0, 1, 4, ("ok", "killer"), 9, 16, 25]
        stats = last_run_stats()
        assert stats["pool_restarts"] >= 1
        assert any(e["event"] == "pool_restart"
                   and e["reason"] == "broken_pool"
                   for e in read_events(log))

    def test_matches_inline_run(self, nocache, tmp_path):
        def grid(state_dir, kill_times):
            os.makedirs(state_dir)
            return [SquareSpec(4),
                    FaultySpec("k", state_dir, "kill", times=kill_times),
                    SquareSpec(5)]
        # kill_times=0 keeps the inline run from killing the parent.
        inline = run_cells(grid(str(tmp_path / "a"), 0), jobs=1,
                           result_cache=nocache)
        pooled = run_cells(grid(str(tmp_path / "b"), 1), jobs=2, retries=2,
                           result_cache=nocache)
        assert inline == pooled == [16, ("ok", "k"), 25]

    def test_inline_fallback_after_restart_budget(self, nocache, state_dir,
                                                  tmp_path, monkeypatch):
        monkeypatch.setattr(pool_mod, "_MAX_POOL_RESTARTS", 0)
        specs = [SquareSpec(3),
                 FaultySpec("k", state_dir, "kill", times=1)]
        log = str(tmp_path / "telemetry.jsonl")
        results = run_cells(specs, jobs=2, retries=2, result_cache=nocache,
                            telemetry=log)
        assert results == [9, ("ok", "k")]
        stats = last_run_stats()
        assert stats["inline_fallback"] == 1
        assert any(e["event"] == "inline_fallback"
                   for e in read_events(log))


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_where_it_stopped(self, tmp_path,
                                                        state_dir):
        cache = ResultCache(disk_dir=str(tmp_path / "results"))
        specs = [CacheableSquareSpec(1, state_dir),
                 CacheableSquareSpec(2, state_dir),
                 FaultySpec("fatal", state_dir, "raise", times=1)]
        # First run dies on the last cell — but the two finished cells
        # were checkpointed as they landed.
        with pytest.raises(RuntimeError, match="injected failure"):
            run_cells(specs, jobs=1, retries=0, result_cache=cache)
        assert _attempts(state_dir, "square-1") == 1
        assert _attempts(state_dir, "square-2") == 1

        # The re-run recomputes only the cell that had not finished.
        results = run_cells(specs, jobs=1, retries=0, result_cache=cache)
        assert results == [1, 4, ("ok", "fatal")]
        assert _attempts(state_dir, "square-1") == 1   # served from disk
        assert _attempts(state_dir, "square-2") == 1
        stats = last_run_stats()
        assert stats["result_cache_hits"] == 2
        # FaultySpec has no result_cache_token: visible as uncacheable.
        assert stats["result_cache_uncacheable"] == 1

    def test_kill_mid_sweep_then_resume(self, tmp_path, state_dir):
        cache = ResultCache(disk_dir=str(tmp_path / "results"))
        grid = [CacheableSquareSpec(i, state_dir) for i in range(5)]
        grid.append(FaultySpec("killer", state_dir, "kill", times=1))
        first = run_cells(grid, jobs=2, retries=2, result_cache=cache)
        assert first == [0, 1, 4, 9, 16, ("ok", "killer")]
        # A square still in flight on the healthy worker when the killer
        # breaks the pool is unfinished and runs again on the fresh pool
        # (pinned below), so the first run may attempt it twice.
        ran = [_attempts(state_dir, f"square-{i}") for i in range(5)]
        assert all(n >= 1 for n in ran)

        # A fresh process re-running the same grid only recomputes the
        # uncacheable cell; every checkpointed square is restored.
        second = run_cells(grid, jobs=2, retries=2, result_cache=cache)
        assert second == first
        assert [_attempts(state_dir, f"square-{i}") for i in range(5)] == ran
        assert last_run_stats()["result_cache_hits"] == 5

    def test_square_in_flight_when_the_pool_breaks_runs_again(self, tmp_path,
                                                               state_dir):
        # The deterministic form of the case above: the killer exits
        # only once square 3's first attempt is running, so square 3 is
        # certainly in flight when the pool breaks.  The contract is to
        # re-run every unfinished cell on a fresh pool (the executor
        # cannot tell a finished-but-undelivered attempt from a lost
        # one), so square 3 is attempted twice, then checkpointed.
        cache = ResultCache(disk_dir=str(tmp_path / "results"))
        grid = [GatedSquareSpec(3, state_dir),
                KillWhenStartedSpec(state_dir, "square-3")]
        first = run_cells(grid, jobs=2, retries=2, result_cache=cache)
        assert first == [9, ("ok", "killer")]
        assert _attempts(state_dir, "square-3") == 2
        assert last_run_stats()["pool_restarts"] == 1

        second = run_cells(grid, jobs=2, retries=2, result_cache=cache)
        assert second == first
        assert _attempts(state_dir, "square-3") == 2
        assert last_run_stats()["result_cache_hits"] == 1
