"""The client's retry policy: backoff, jitter, retry_after_s, opt-out,
and the byte-offset stream resume.

The unit tests script ``_request_once`` and record the injected
``sleep`` calls, so every delay the policy computes is asserted
exactly (the rng stub pins the jitter factor at 1.0).  The stream
tests run a real in-thread server under ``REPRO_CHAOS=
drop_stream_after`` and assert the resumed stream delivers every event
exactly once.
"""

import time

import pytest

from repro.leakage.sweep import LeakageCellSpec
from repro.runner.result_cache import ResultCache
from repro.service.app import serve_in_thread
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.store import DiskResultStore
from repro.service.sweeps import ServiceConfig, SweepService


class FixedRandom:
    """random() pinned to 0.5: jitter factor (0.5 + 0.5) == 1.0."""

    def random(self):
        return 0.5


class ScriptedClient(ServiceClient):
    """A client whose wire layer plays back a scripted sequence."""

    def __init__(self, script, **kwargs):
        self.sleeps = []
        kwargs.setdefault("rng", FixedRandom())
        kwargs.setdefault("sleep", self.sleeps.append)
        super().__init__("127.0.0.1", 1, **kwargs)
        self.script = list(script)
        self.calls = 0

    def _request_once(self, method, path, body=None):
        self.calls += 1
        action = self.script.pop(0)
        if isinstance(action, BaseException):
            raise action
        return action


def refusal(status, code, **extra):
    return ServiceClientError(status, {"error": {"code": code, **extra}})


class TestRetryPolicy:
    def test_429_retried_with_server_hint(self):
        client = ScriptedClient([refusal(429, "rate_limited", retry_after_s=0.25),
                                 {"ok": True}])
        assert client.submit_payload({"x": 1}) == {"ok": True}
        assert client.calls == 2
        assert client.sleeps == [0.25]  # the hint, not the computed backoff

    def test_503_draining_retried_for_posts(self):
        client = ScriptedClient([refusal(503, "draining", retry_after_s=0.5),
                                 {"id": "abc"}])
        assert client.submit_payload({"x": 1}) == {"id": "abc"}
        assert client.sleeps == [0.5]

    def test_connection_error_retried_for_gets_with_backoff(self):
        client = ScriptedClient([ConnectionResetError(), ConnectionResetError(),
                                 {"ok": True}],
                                retries=2, backoff_s=0.1)
        assert client.healthz() == {"ok": True}
        assert client.calls == 3
        assert client.sleeps == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_backoff_is_capped(self):
        client = ScriptedClient([ConnectionResetError()] * 3 + [{"ok": True}],
                                retries=3, backoff_s=1.0, backoff_cap_s=1.5)
        assert client.healthz() == {"ok": True}
        assert client.sleeps == [pytest.approx(1.0), pytest.approx(1.5),
                                 pytest.approx(1.5)]

    def test_connection_error_not_retried_for_posts(self):
        client = ScriptedClient([ConnectionResetError(), {"never": "reached"}])
        with pytest.raises(ConnectionResetError):
            client.submit_payload({"x": 1})
        assert client.calls == 1 and client.sleeps == []

    def test_non_retryable_status_raises_immediately(self):
        client = ScriptedClient([refusal(400, "invalid_spec"), {"never": "reached"}])
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit_payload({"x": 1})
        assert excinfo.value.status == 400
        assert client.calls == 1 and client.sleeps == []

    def test_retries_zero_opts_out(self):
        client = ScriptedClient([refusal(429, "rate_limited", retry_after_s=9.0)],
                                retries=0)
        with pytest.raises(ServiceClientError):
            client.healthz()
        assert client.calls == 1 and client.sleeps == []

    def test_budget_exhaustion_raises_the_last_error(self):
        client = ScriptedClient([refusal(429, "rate_limited"),
                                 refusal(429, "rate_limited")],
                                retries=1, backoff_s=0.05)
        with pytest.raises(ServiceClientError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 429
        assert client.calls == 2 and len(client.sleeps) == 1

    def test_jitter_uses_injected_rng(self):
        class LowRandom:
            def random(self):
                return 0.0  # factor 0.5

        client = ScriptedClient([ConnectionResetError(), {"ok": True}],
                                retries=1, backoff_s=0.2, rng=LowRandom())
        client.healthz()
        assert client.sleeps == [pytest.approx(0.1)]

    def test_malformed_retry_after_falls_back_to_backoff(self):
        client = ScriptedClient([refusal(429, "rate_limited", retry_after_s="soon"),
                                 {"ok": True}], backoff_s=0.1)
        assert client.healthz() == {"ok": True}
        assert client.sleeps == [pytest.approx(0.1)]


# -- stream resume over a real server ----------------------------------------


def quick_grid(n=2, seed0=700):
    return [
        LeakageCellSpec(channel="eq7", scheme="random_fill", window=(1, 0),
                        trials=40, seed=seed0 + i, curve_points=(1, 2),
                        curve_repeats=5)
        for i in range(n)
    ]


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(host="127.0.0.1", port=0, jobs=1, queue_depth=4,
                           rate=1000.0, burst=1000.0,
                           spool_dir=str(tmp_path / "spool"))
    store = DiskResultStore(ResultCache(disk_dir=str(tmp_path / "results")))
    service = SweepService(config, store=store)
    handle = serve_in_thread(config, service=service)
    yield handle
    handle.stop()


class TestTerminalStatusSealsEventLog:
    """A terminal status means the sweep's event log is complete."""

    def test_events_read_right_after_wait_end_with_the_terminal_row(self, tmp_path):
        config = ServiceConfig(host="127.0.0.1", port=0, jobs=1, queue_depth=4,
                               rate=1000.0, burst=1000.0,
                               spool_dir=str(tmp_path / "spool"))
        store = DiskResultStore(ResultCache(disk_dir=str(tmp_path / "results")))
        service = SweepService(config, store=store)
        emit = service._emit

        def late_terminal_row(path, event, **fields):
            # Widen the window between the job finishing and the
            # observer writing sweep_finish far past any polling
            # interval: a status that turned terminal before the row
            # landed would be caught every time.
            if event == "sweep_finish":
                time.sleep(0.5)
            emit(path, event, **fields)

        service._emit = late_terminal_row
        handle = serve_in_thread(config, service=service)
        try:
            client = ServiceClient(handle.host, handle.port, client_id="seal")
            sweep_id = client.submit(quick_grid())["id"]
            assert client.wait(sweep_id, timeout=120)["state"] == "done"
            events = list(client.stream_events(sweep_id, follow=False))
            assert events[-1]["event"] == "sweep_finish"
            assert events[-1]["state"] == "done"
        finally:
            handle.stop()


class TestStreamResume:
    def finished_sweep(self, server):
        client = ServiceClient(server.host, server.port, client_id="stream")
        accepted = client.submit(quick_grid())
        client.wait(accepted["id"], timeout=120)
        return client, accepted["id"]

    def test_resume_delivers_every_event_exactly_once(self, server, monkeypatch):
        client, sweep_id = self.finished_sweep(server)
        baseline = list(client.stream_events(sweep_id, follow=False))
        assert len(baseline) > 2
        monkeypatch.setenv("REPRO_CHAOS", "drop_stream_after=2")
        sleeps = []
        client.sleep = sleeps.append
        streamed = list(client.stream_events(sweep_id, follow=False))
        assert streamed == baseline  # nothing lost, nothing duplicated
        assert sleeps  # at least one drop actually happened

    def test_stream_without_retries_surfaces_the_drop(self, server, monkeypatch):
        client, sweep_id = self.finished_sweep(server)
        monkeypatch.setenv("REPRO_CHAOS", "drop_stream_after=2")
        fragile = ServiceClient(server.host, server.port, client_id="fragile",
                                retries=0)
        with pytest.raises(Exception):
            list(fragile.stream_events(sweep_id, follow=False))
