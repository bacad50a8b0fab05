"""Restart recovery and graceful drain, driven in-process.

These tests build journals by hand (or crash-shaped ones) and boot a
fresh :class:`SweepService` over the same spool, asserting the replay
semantics the chaos smoke exercises end-to-end over subprocess kills:
queued sweeps come back in order, an interrupted running sweep resumes
from its result-cache checkpoints, torn tails are tolerated and
reported, and a drain hands the queue to the next process intact.
"""

import os
import time

import pytest

from repro.leakage.sweep import LeakageCellSpec
from repro.runner.pool import run_cells
from repro.runner.result_cache import ResultCache
from repro.runner.telemetry import read_events
from repro.service.codec import encode_result, encode_sweep
from repro.service.journal import SweepJournal, journal_path
from repro.service.store import DiskResultStore
from repro.service.sweeps import ServiceConfig, ServiceError, SweepService


def eq7_grid(n=3, trials=40, seed0=0):
    return [
        LeakageCellSpec(channel="eq7", scheme="random_fill", window=(1, 0),
                        trials=trials, seed=seed0 + i, curve_points=(1, 2),
                        curve_repeats=5)
        for i in range(n)
    ]


def slow_grid(seed=0):
    # ~1.5s of eq7 sampling — long enough to catch the sweep running.
    return [LeakageCellSpec(channel="eq7", scheme="random_fill",
                            window=(1, 0), trials=1_500_000, seed=seed,
                            curve_points=(1,), curve_repeats=1)]


def build_service(tmp, **overrides):
    settings = dict(jobs=1, queue_depth=8, rate=1000.0, burst=1000.0,
                    spool_dir=str(tmp / "spool"))
    settings.update(overrides)
    store = DiskResultStore(ResultCache(disk_dir=str(tmp / "results")))
    return SweepService(ServiceConfig(**settings), store=store)


def journal_of(tmp) -> SweepJournal:
    return SweepJournal(journal_path(str(tmp / "spool")))


def reference(specs):
    results = run_cells(specs, jobs=1,
                        result_cache=ResultCache(disk_dir=None,
                                                 use_default_disk_dir=False))
    return [encode_result(r) for r in results]


class TestRecovery:
    def test_queued_sweeps_readmitted_in_order(self, tmp_path):
        journal = journal_of(tmp_path)
        grids = {f"swp{i}": eq7_grid(n=2, seed0=10 * i) for i in range(3)}
        for sweep_id, specs in grids.items():
            journal.append("submitted", sweep_id, client="origin", cells=len(specs),
                           payload=encode_sweep(specs))
        service = build_service(tmp_path)
        try:
            with service._lock:
                order = list(service._order)
            assert order == list(grids)
            for sweep_id, specs in grids.items():
                sweep = service.get(sweep_id)
                assert sweep.recovered and sweep.client == "origin"
                results = sweep.handle.result(timeout=120)
                assert [encode_result(r) for r in results] == reference(specs)
            recovery = service.metrics()["recovery"]
            assert recovery["recovered_sweeps"] == 3
            assert recovery["resubmitted_cells"] == 6
        finally:
            service.shutdown()

    def test_interrupted_running_sweep_resumes_warm(self, tmp_path):
        specs = eq7_grid(n=4, seed0=40)
        # Two cells were checkpointed before the "crash".
        warm_cache = ResultCache(disk_dir=str(tmp_path / "results"))
        run_cells(specs[:2], jobs=1, result_cache=warm_cache)
        journal = journal_of(tmp_path)
        journal.append("submitted", "crashed", client="c", cells=len(specs),
                       payload=encode_sweep(specs))
        journal.append("started", "crashed")
        service = build_service(tmp_path)
        try:
            sweep = service.get("crashed")
            results = sweep.handle.result(timeout=120)
            assert [encode_result(r) for r in results] == reference(specs)
            # Only the lost tail re-simulated.
            assert sweep.handle.stats["result_cache_hits"] == 2
            assert sweep.handle.stats["result_cache_misses"] == 2
            recovery = service.metrics()["recovery"]
            assert recovery["recovered_sweeps"] == 1
            assert recovery["warm_cells"] == 2
            assert recovery["resubmitted_cells"] == 2
            events = [e["event"] for e in read_events(sweep.events_path)]
            assert "sweep_resumed" in events
            resumed = [e for e in read_events(sweep.events_path)
                       if e["event"] == "sweep_resumed"][0]
            assert resumed["prior_state"] == "running"
            assert resumed["warm_cells"] == 2
        finally:
            service.shutdown()

    def test_warm_count_probe_is_stat_free(self, tmp_path):
        specs = eq7_grid(n=2, seed0=60)
        cache = ResultCache(disk_dir=str(tmp_path / "results"))
        run_cells(specs, jobs=1, result_cache=cache)
        store = DiskResultStore(ResultCache(disk_dir=str(tmp_path / "results")))
        before = store.stats_snapshot()
        assert store.warm_count(specs) == 2
        assert store.warm_count(eq7_grid(n=2, seed0=999)) == 0
        after = store.stats_snapshot()
        assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])

    def test_finished_sweeps_stay_finished(self, tmp_path):
        journal = journal_of(tmp_path)
        journal.append("submitted", "done1", client="c", cells=1,
                       payload=encode_sweep(eq7_grid(n=1)))
        journal.append("started", "done1")
        journal.append("finished", "done1", state="done")
        service = build_service(tmp_path)
        try:
            assert service.metrics()["recovery"]["recovered_sweeps"] == 0
            with pytest.raises(ServiceError) as excinfo:
                service.get("done1")
            assert excinfo.value.status == 404
        finally:
            service.shutdown()

    def test_corrupt_tail_reported_and_tolerated(self, tmp_path):
        journal = journal_of(tmp_path)
        specs = eq7_grid(n=1, seed0=70)
        journal.append("submitted", "good", client="c", cells=1,
                       payload=encode_sweep(specs))
        with open(journal.path, "ab") as fh:
            fh.write(b'{"v": 1, "record": "submitted", "sw')  # torn append
        service = build_service(tmp_path)
        try:
            sweep = service.get("good")
            sweep.handle.result(timeout=120)
            assert service.metrics()["recovery"]["journal_corrupt_tail"] == 1
            service_events = [e["event"] for e in
                              read_events(os.path.join(service.spool_dir, "service.jsonl"))]
            assert "journal_corrupt_tail" in service_events
        finally:
            service.shutdown()

    def test_undecodable_payload_skipped(self, tmp_path):
        journal = journal_of(tmp_path)
        journal.append("submitted", "alien", client="c", cells=1,
                       payload={"version": 999, "cells": [{"family": "??"}]})
        service = build_service(tmp_path)
        try:
            assert service.metrics()["recovery"]["recovered_sweeps"] == 0
            with pytest.raises(ServiceError):
                service.get("alien")
            # The compensating record keeps it from reappearing forever.
            assert journal_of(tmp_path).replay().live == []
        finally:
            service.shutdown()

    def test_recovery_checkpoint_compacts_the_journal(self, tmp_path):
        journal = journal_of(tmp_path)
        for i in range(10):
            journal.append("submitted", f"old{i}", client="c", cells=1,
                           payload=encode_sweep(eq7_grid(n=1)))
            journal.append("finished", f"old{i}", state="done")
        before = os.path.getsize(journal.path)
        service = build_service(tmp_path)
        try:
            assert os.path.getsize(journal.path) < before
        finally:
            service.shutdown()


class TestJournalFirstSubmission:
    def test_accepted_sweep_is_journaled_before_running(self, tmp_path):
        service = build_service(tmp_path)
        try:
            specs = eq7_grid(n=1, seed0=80)
            accepted = service.submit(encode_sweep(specs), client="c")
            live = [s.sweep_id for s in service.journal.replay().live]
            # Either still live in the journal or already finished —
            # but the submitted record must exist either way.
            records = service.journal.replay()
            assert accepted["id"] in live or records.finished >= 1
            service.get(accepted["id"]).handle.result(timeout=120)
        finally:
            service.shutdown()

    def test_submitted_row_leads_when_the_job_finishes_first(self, tmp_path):
        service = build_service(tmp_path)
        submit = service.runner.submit

        def settle_before_returning(*args, **kwargs):
            # The job runner may start, and even finish, a small sweep
            # before submit() returns; force that order every time.
            job = submit(*args, **kwargs)
            deadline = time.monotonic() + 120
            while not job.settled:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            return job

        service.runner.submit = settle_before_returning
        try:
            accepted = service.submit(encode_sweep(eq7_grid(n=1, seed0=85)), client="c")
            events = read_events(service.get(accepted["id"]).events_path)
            names = [event["event"] for event in events]
            assert names[0] == "sweep_submitted"
            assert names[-1] == "sweep_finish"
        finally:
            service.shutdown()

    def test_queue_full_leaves_compensating_cancel(self, tmp_path):
        service = build_service(tmp_path, queue_depth=1)
        try:
            running = service.submit(encode_sweep(slow_grid(seed=300)), client="c")
            deadline = 120
            import time as _time
            start = _time.monotonic()
            while service.get(running["id"]).handle.state != "running":
                assert _time.monotonic() - start < deadline
                _time.sleep(0.01)
            queued = service.submit(encode_sweep(eq7_grid(n=1, seed0=90)), client="c")
            with pytest.raises(ServiceError) as excinfo:
                service.submit(encode_sweep(eq7_grid(n=1, seed0=91)), client="c")
            assert excinfo.value.code == "queue_full"
            live = {s.sweep_id for s in service.journal.replay().live}
            assert queued["id"] in live
            assert len(live) == 2  # running + queued; the refused one is terminal
            # ... and the refused sweep leaves no event log behind.
            logs = [name for name in os.listdir(service.spool_dir)
                    if name.startswith("sweep-")]
            assert sorted(logs) == sorted(f"sweep-{sweep_id}.jsonl"
                                          for sweep_id in (running["id"], queued["id"]))
        finally:
            service.shutdown()

    def test_cancelled_queued_sweep_not_recovered(self, tmp_path):
        service = build_service(tmp_path, queue_depth=4)
        try:
            service.submit(encode_sweep(slow_grid(seed=310)), client="c")
            queued = service.submit(encode_sweep(eq7_grid(n=1, seed0=95)), client="c")
            service.cancel(queued["id"])
            live = {s.sweep_id for s in service.journal.replay().live}
            assert queued["id"] not in live
        finally:
            service.shutdown()


class TestDrain:
    def test_drain_hands_queue_to_next_process(self, tmp_path):
        service = build_service(tmp_path)
        import time as _time
        queued_specs = eq7_grid(n=2, seed0=100)
        try:
            running = service.submit(encode_sweep(slow_grid(seed=320)), client="c")
            start = _time.monotonic()
            while service.get(running["id"]).handle.state != "running":
                assert _time.monotonic() - start < 120
                _time.sleep(0.01)
            queued = service.submit(encode_sweep(queued_specs), client="c")

            service.begin_drain()
            assert service.healthz()["draining"] is True
            with pytest.raises(ServiceError) as excinfo:
                service.submit(encode_sweep(eq7_grid(n=1, seed0=110)), client="late")
            assert excinfo.value.status == 503 and excinfo.value.code == "draining"

            service.finish_drain(timeout=120)
            # The running sweep finished; the queued one was NOT
            # cancelled — it stays queued for the next process.
            assert service.get(running["id"]).handle.state == "done"
            assert service.get(queued["id"]).handle.state == "queued"
            service.shutdown()
            assert service.get(queued["id"]).handle.state == "queued"
            live = [s.sweep_id for s in service.journal.replay().live]
            assert live == [queued["id"]]
            service_events = [e["event"] for e in
                              read_events(os.path.join(service.spool_dir, "service.jsonl"))]
            assert "service_draining" in service_events
            assert "service_drained" in service_events
        finally:
            service.shutdown()

        # The "next process": same spool, fresh service.
        heir = build_service(tmp_path)
        try:
            sweep = heir.get(queued["id"])
            assert sweep.recovered
            results = sweep.handle.result(timeout=120)
            assert [encode_result(r) for r in results] == reference(queued_specs)
        finally:
            heir.shutdown()

    def test_drain_is_idempotent_and_immediate_when_idle(self, tmp_path):
        service = build_service(tmp_path)
        try:
            service.begin_drain()
            service.begin_drain()
            service.finish_drain(timeout=30)
            assert service.healthz()["draining"] is True
            assert service.metrics()["recovery"]["draining"] is True
        finally:
            service.shutdown()
