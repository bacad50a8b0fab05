"""End-to-end tests of the sweep service over real HTTP sockets.

A module-scoped server (ephemeral port, isolated result store and
spool) backs the happy-path tests; the rate-limit and queue-full tests
boot their own dedicated servers so their knobs don't perturb the
shared one.
"""

import asyncio
import http.client
import json
import time

import pytest

import repro.service.app as app_mod
from repro.leakage.sweep import LeakageCellSpec
from repro.runner.pool import run_cells
from repro.runner.result_cache import ResultCache
from repro.service.app import ServiceApp, serve_in_thread
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.codec import CODEC_VERSION, encode_result, encode_sweep
from repro.service.store import DiskResultStore
from repro.service.sweeps import ServiceConfig, SweepService


def eq7_grid(n=4, trials=40):
    return [
        LeakageCellSpec(channel="eq7", scheme="random_fill", window=(1, 0),
                        trials=trials, seed=seed, curve_points=(1, 2),
                        curve_repeats=5)
        for seed in range(n)
    ]


def slow_grid(seed=0):
    # ~1.5s of eq7 sampling — long enough to catch the sweep running.
    return [LeakageCellSpec(channel="eq7", scheme="random_fill",
                            window=(1, 0), trials=1_500_000, seed=seed,
                            curve_points=(1,), curve_repeats=1)]


def boot(tmp, **overrides):
    settings = dict(
        host="127.0.0.1", port=0, jobs=1, queue_depth=4,
        max_cells_per_request=32, rate=1000.0, burst=1000.0,
        spool_dir=str(tmp / "spool"),
    )
    settings.update(overrides)
    config = ServiceConfig(**settings)
    store = DiskResultStore(ResultCache(disk_dir=str(tmp / "results")))
    service = SweepService(config, store=store)
    return serve_in_thread(config, service=service)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    handle = boot(tmp_path_factory.mktemp("service"))
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    return ServiceClient(server.host, server.port, client_id="pytest")


class TestHappyPath:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["ok"] is True
        assert health["uptime_s"] >= 0

    def test_submit_wait_results_bit_identical(self, client):
        specs = eq7_grid(n=4)
        accepted = client.submit(specs)
        assert accepted["cells"] == len(specs)
        assert accepted["links"]["status"] == f"/sweeps/{accepted['id']}"

        status = client.wait(accepted["id"], timeout=120)
        assert status["state"] == "done"
        assert status["last_run_stats"]["cells"] == len(specs)
        assert status["queue_wait_s"] >= 0

        direct = run_cells(
            specs, jobs=1, progress=False,
            result_cache=ResultCache(disk_dir=None,
                                     use_default_disk_dir=False),
        )
        over_http = client.results(accepted["id"], page_size=3)
        assert over_http == [encode_result(result) for result in direct]

    def test_pagination(self, client):
        specs = eq7_grid(n=5)
        sweep_id = client.submit(specs)["id"]
        client.wait(sweep_id, timeout=120)
        page = client.results_page(sweep_id, offset=0, limit=2)
        assert page["total"] == 5
        assert page["count"] == 2
        assert page["next_offset"] == 2
        last = client.results_page(sweep_id, offset=4, limit=2)
        assert last["count"] == 1
        assert last["next_offset"] is None
        stitched = client.results(sweep_id, page_size=2)
        assert len(stitched) == 5

    def test_event_stream(self, client):
        specs = eq7_grid(n=2)
        sweep_id = client.submit(specs)["id"]
        events = [event["event"] for event in client.stream_events(sweep_id)]
        assert "sweep_submitted" in events
        assert "sweep_start" in events
        assert "run_finish" in events
        assert events[-1] == "sweep_finish"
        client.wait(sweep_id, timeout=120)

    def test_sweep_start_carries_queue_wait(self, client):
        sweep_id = client.submit(eq7_grid(n=1))["id"]
        starts = [event for event in client.stream_events(sweep_id)
                  if event["event"] == "sweep_start"]
        assert starts and starts[0]["queue_wait_s"] >= 0

    def test_warm_resubmission_zero_pool_work(self, client):
        # The acceptance demo: an identical grid resubmitted later is
        # served entirely from the shared result store.
        specs = eq7_grid(n=4, trials=60)
        cold_id = client.submit(specs)["id"]
        cold = client.wait(cold_id, timeout=120)
        assert cold["last_run_stats"]["result_cache_misses"] == len(specs)

        warm_id = client.submit(specs)["id"]
        warm = client.wait(warm_id, timeout=120)
        stats = warm["last_run_stats"]
        assert stats["result_cache_hits"] == len(specs)
        assert stats["result_cache_misses"] == 0
        warm_events = [event["event"]
                       for event in client.stream_events(warm_id)]
        assert "cell_start" not in warm_events
        assert "batch_start" not in warm_events

        metrics = client.metrics()
        assert metrics["result_store"]["hits"] >= len(specs)
        assert metrics["result_store"]["hit_rate"] > 0

        assert client.results(warm_id) == client.results(cold_id)

    def test_metrics_shape(self, client):
        client.wait(client.submit(eq7_grid(n=1))["id"], timeout=120)
        metrics = client.metrics()
        assert metrics["queue"]["capacity"] == 4
        assert metrics["sweeps"]["submitted"] >= 1
        assert metrics["sweeps"]["completed"] >= 1
        assert metrics["sweep_latency"]["count"] >= 1
        assert metrics["sweep_latency"]["p50_s"] <= metrics["sweep_latency"]["p99_s"]
        assert metrics["result_store"]["backend"] == "disk"
        assert metrics["limits"]["max_cells_per_request"] == 32
        assert "pytest" in metrics["clients"]
        assert metrics["http_latency"]["count"] >= 1


class TestStreamEndsWhenSettled:
    """A follow stream ends as soon as its sweep settles, not at the
    next poll: with the poll stretched to 30 s, every stream below
    still ends within seconds, on its ``sweep_finish`` row, and the
    sweep reads terminal right after."""

    #: far below the stretched poll, far above a tiny sweep's run time
    BOUND_S = 10.0

    @pytest.fixture(autouse=True)
    def slow_poll(self, monkeypatch):
        monkeypatch.setattr(app_mod, "_EVENT_POLL_S", 30.0)

    @pytest.fixture
    def client(self, server):
        return ServiceClient(server.host, server.port, client_id="pytest",
                             timeout=120, retries=0)

    def test_cold_and_warm_streams(self, client):
        specs = eq7_grid(n=3, trials=70)
        for expect_misses in (len(specs), 0):
            sweep_id = client.submit(specs)["id"]
            started = time.monotonic()
            events = list(client.stream_events(sweep_id))
            assert time.monotonic() - started < self.BOUND_S
            assert events[-1]["event"] == "sweep_finish"
            assert events[-1]["state"] == "done"
            status = client.sweep(sweep_id)
            assert status["state"] == "done"
            stats = status["last_run_stats"]
            assert stats["result_cache_misses"] == expect_misses

    def test_queued_sweep_cancelled_under_an_open_stream(self, client):
        blocker = client.submit(slow_grid(seed=102))["id"]
        queued = client.submit(eq7_grid(n=1, trials=71))["id"]
        stream = client.stream_events(queued)
        assert next(stream)["event"] == "sweep_submitted"
        assert client.sweep(queued)["state"] == "queued"
        started = time.monotonic()
        assert client.cancel(queued)["state"] == "cancelled"
        rest = list(stream)
        assert time.monotonic() - started < self.BOUND_S
        assert rest[-1]["event"] == "sweep_finish"
        assert rest[-1]["state"] == "cancelled"
        assert client.sweep(queued)["state"] == "cancelled"
        client.cancel(blocker)
        client.wait(blocker, timeout=120)


class _ClosingWriter:
    """A stream writer whose ``wait_closed`` is cancelled (server shutdown)."""

    def get_extra_info(self, name):
        return ("127.0.0.1", 1)

    def close(self):
        pass

    async def wait_closed(self):
        raise asyncio.CancelledError


class TestConnectionShutdown:
    def test_cancelled_close_does_not_cancel_the_task(self):
        # A task that ends cancelled makes asyncio log the
        # CancelledError from its stream protocol's callback at shutdown.
        async def connection():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            app = ServiceApp(service=None)
            task = asyncio.ensure_future(
                app.handle_connection(reader, _ClosingWriter()))
            await asyncio.wait([task])
            return task

        task = asyncio.run(connection())
        assert not task.cancelled()
        assert task.exception() is None


class TestLifecycleErrors:
    def test_results_before_done_is_409(self, client):
        sweep_id = client.submit(slow_grid(seed=100))["id"]
        with pytest.raises(ServiceClientError) as excinfo:
            client.results_page(sweep_id)
        assert excinfo.value.status == 409
        assert excinfo.value.code == "not_finished"
        client.wait(sweep_id, timeout=120)

    def test_cancel_running_sweep(self, client):
        sweep_id = client.submit(slow_grid(seed=101))["id"]
        cancelled = client.cancel(sweep_id)
        assert cancelled["state"] in {"cancelling", "cancelled"}
        final = client.wait(sweep_id, timeout=120)
        assert final["state"] == "cancelled"
        with pytest.raises(ServiceClientError) as excinfo:
            client.results_page(sweep_id)
        assert excinfo.value.status == 409

    def test_bad_page_params(self, client):
        sweep_id = client.submit(eq7_grid(n=1))["id"]
        client.wait(sweep_id, timeout=120)
        with pytest.raises(ServiceClientError) as excinfo:
            client.results_page(sweep_id, offset=-1)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_page"


class TestRequestErrors:
    def test_invalid_spec_is_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit_payload(
                {"version": CODEC_VERSION,
                 "cells": [{"family": "cell", "kind": "nonsense"}]})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_spec"

    def test_unknown_codec_version_is_400(self, client):
        payload = encode_sweep(eq7_grid(n=1))
        payload["version"] = 999
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit_payload(payload)
        assert excinfo.value.status == 400
        assert "999" in excinfo.value.payload["error"]["message"]

    def test_too_many_cells_is_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(eq7_grid(n=33))
        assert excinfo.value.status == 400
        assert excinfo.value.code == "too_many_cells"

    def test_malformed_json_is_400(self, server):
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=30)
        connection.request("POST", "/sweeps", body=b"{nope",
                           headers={"content-type": "application/json",
                                    "x-repro-client": "pytest"})
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "bad_json"

    def test_unknown_sweep_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.sweep("feedfacecafe")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_sweep"

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("DELETE", "/healthz")
        assert excinfo.value.status == 405
        assert excinfo.value.code == "method_not_allowed"


class TestBackpressure:
    def test_rate_limited_is_429_with_retry_after(self, tmp_path):
        handle = boot(tmp_path, rate=0.5, burst=2.0)
        try:
            # retries=0: the point is to observe the 429, not ride
            # through it on the default retry policy.
            client = ServiceClient(handle.host, handle.port,
                                   client_id="bursty", retries=0)
            ids = [client.submit(eq7_grid(n=1))["id"] for _ in range(2)]
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(eq7_grid(n=1))
            assert excinfo.value.status == 429
            assert excinfo.value.code == "rate_limited"
            assert excinfo.value.payload["error"]["retry_after_s"] > 0
            # Another client still has its own bucket.
            other = ServiceClient(handle.host, handle.port,
                                  client_id="polite")
            ids.append(other.submit(eq7_grid(n=1))["id"])
            for sweep_id in ids:
                client.wait(sweep_id, timeout=120)
            rejected = client.metrics()["sweeps"]["rejected"]
            assert rejected >= 1
        finally:
            handle.stop()

    def test_queue_full_is_429(self, tmp_path):
        handle = boot(tmp_path, queue_depth=1)
        try:
            client = ServiceClient(handle.host, handle.port,
                                   client_id="flood", retries=0)
            running = client.submit(slow_grid(seed=200))["id"]
            # Wait for it to leave the queue and occupy the executor.
            deadline = 120
            import time
            start = time.monotonic()
            while (client.sweep(running)["state"] == "queued"
                   and time.monotonic() - start < deadline):
                time.sleep(0.01)
            queued = client.submit(slow_grid(seed=201))["id"]
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(slow_grid(seed=202))
            assert excinfo.value.status == 429
            assert excinfo.value.code == "queue_full"
            client.cancel(queued)
            client.wait(running, timeout=120)
        finally:
            handle.stop()
