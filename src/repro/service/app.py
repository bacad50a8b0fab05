"""The sweep service application: endpoints, server, lifecycle.

Endpoints (all JSON; errors are ``{"error": {"code", "message", ...}}``):

==============================  ==============================================
``POST /sweeps``                submit a spec grid (codec JSON); 202 with id
``GET /sweeps/{id}``            lifecycle state + ``last_run_stats``
``GET /sweeps/{id}/results``    paginated encoded cell results
                                (``?offset=&limit=``; 409 until done)
``GET /sweeps/{id}/events``     the sweep's JSONL telemetry, streamed with
                                chunked encoding; follows the live file
                                until the sweep finishes (``?follow=0`` for
                                a plain snapshot, ``?from=`` byte offset)
``DELETE /sweeps/{id}``         cancel (cooperative; queued sweeps cancel
                                outright)
``GET /healthz``                liveness + queue depth
``GET /metrics``                queue, result-store counters + hit rate,
                                sweep latency percentiles, per-client quotas
==============================  ==============================================

The asyncio event loop only ever does cheap work: submissions validate
and enqueue (the simulation itself runs on the
:class:`~repro.runner.jobs.JobRunner` executor thread and its process
pool), reads are dict snapshots, and the event stream reads the sweep's
JSONL file with the partial-line-tolerant incremental reader.  Between
reads it waits on the sweep's job handle on an executor thread, so a
follow stream ends as soon as the sweep settles; the poll interval only
paces a running sweep's progress rows.

``run_server`` blocks (the ``python -m repro serve`` path);
``serve_in_thread`` boots the same server on a background thread and
returns a handle with the bound port — the tests and the CI smoke
client drive a real server through real sockets that way.

Shutdown is a graceful drain: SIGTERM or the first SIGINT flips the
service into draining mode (submissions get 503 ``draining``, reads
and ``/healthz`` keep answering), the running sweep finishes, the
sweep journal is checkpointed with the still-queued sweeps preserved
for the next process, and only then does the loop exit.  A second
signal hard-exits immediately.  ``ServerHandle.drain()`` triggers the
same path programmatically for tests.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.runner.telemetry import ENV_CHAOS, read_events_incremental
from repro.service.http import (
    ChunkWriter,
    HttpError,
    Request,
    Router,
    json_response,
    read_request,
)
from repro.service.sweeps import ServiceConfig, ServiceError, SweepService
from repro.util.stats import percentile

#: how often a follow stream re-reads a running sweep's JSONL file for
#: progress rows (a settled sweep wakes the stream at once)
_EVENT_POLL_S = 0.05

#: hard ceiling on one follow-mode stream (a wedged sweep must not pin
#: a connection forever)
_EVENT_FOLLOW_TIMEOUT_S = 3600.0


def json_line(event: dict) -> bytes:
    return (json.dumps(event, sort_keys=True, default=repr) + "\n").encode("utf-8")


class ServiceApp:
    """Routes bound to one :class:`SweepService`."""

    def __init__(self, service: SweepService):
        self.service = service
        self.router = Router()
        self.router.add("POST", "/sweeps", self.submit)
        self.router.add("GET", "/sweeps/{id}", self.status)
        self.router.add("GET", "/sweeps/{id}/results", self.results)
        self.router.add("GET", "/sweeps/{id}/events", self.events)
        self.router.add("DELETE", "/sweeps/{id}", self.cancel)
        self.router.add("GET", "/healthz", self.healthz)
        self.router.add("GET", "/metrics", self.metrics)
        self._latencies: Deque[float] = deque(maxlen=1024)

    # -- handlers ------------------------------------------------------------

    async def submit(self, request: Request, writer) -> bytes:
        payload = request.json()
        accepted = self.service.submit(payload, client=request.client_id())
        return json_response(202, accepted)

    async def status(self, request: Request, writer) -> bytes:
        sweep = self.service.get(request.params["id"])
        return json_response(200, sweep.status())

    async def results(self, request: Request, writer) -> bytes:
        page = self.service.results_page(
            request.params["id"],
            offset=request.int_query("offset", 0),
            limit=request.int_query("limit", 256),
        )
        return json_response(200, page)

    async def cancel(self, request: Request, writer) -> bytes:
        return json_response(200, self.service.cancel(request.params["id"]))

    async def healthz(self, request: Request, writer) -> bytes:
        return json_response(200, self.service.healthz())

    async def metrics(self, request: Request, writer) -> bytes:
        payload = self.service.metrics()
        latencies = sorted(self._latencies)
        http = {"count": len(latencies)}
        for name, q in (("p50_s", 0.50), ("p95_s", 0.95), ("p99_s", 0.99)):
            http[name] = round(percentile(latencies, q), 6)
        payload["http_latency"] = http
        return json_response(200, payload)

    async def events(self, request: Request, writer) -> None:
        """Stream the sweep's JSONL telemetry with chunked encoding."""
        sweep = self.service.get(request.params["id"])
        follow = request.int_query("follow", 1) != 0
        offset = request.int_query("from", 0)
        chunks = ChunkWriter(writer)
        await chunks.start()
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + _EVENT_FOLLOW_TIMEOUT_S
        sent = 0
        while True:
            # Read the settled flag BEFORE reading the file: once the
            # job has settled, its terminal sweep_finish row is on
            # disk, so this read necessarily sees the final events and
            # breaking afterwards loses nothing.  (``finished`` is not
            # enough — it flips before the observer writes the row.)
            finished = sweep.handle.settled
            events, offset = read_events_incremental(sweep.events_path, offset)
            if events:
                await chunks.send(b"".join(json_line(e) for e in events))
                sent += len(events)
                if ENV_CHAOS in os.environ:
                    from repro.service.chaos import chaos_stream_should_drop

                    if chaos_stream_should_drop(sent):
                        # Close without the terminating chunk: the
                        # client sees the delivered events followed by
                        # a dead connection (IncompleteRead), exactly
                        # like a mid-stream network drop.  (A FIN, not
                        # an RST — an abort could discard bytes the
                        # client has not read yet, making the drop
                        # nondeterministic.)
                        writer.close()
                        return
                continue
            if not follow or finished or time.monotonic() > deadline:
                break
            # Wake the moment the job settles (its sweep_finish row is
            # then on disk); a running sweep's progress rows are picked
            # up once per _EVENT_POLL_S.
            await loop.run_in_executor(None, sweep.handle.wait_settled, _EVENT_POLL_S)
        await chunks.finish()

    # -- connection handling -------------------------------------------------

    async def handle_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else "unknown"
        started = time.monotonic()
        try:
            try:
                request = await read_request(reader, client)
                if request is None:
                    return
                handler = self.router.match(request)
                response = await handler(request, writer)
            except HttpError as error:
                response = json_response(error.status, error.payload())
            except ServiceError as error:
                response = json_response(error.status, error.payload())
            except Exception as error:  # never a traceback on the wire
                response = json_response(
                    500,
                    {"error": {"code": "internal", "message": repr(error)}},
                )
            if response is not None:
                writer.write(response)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._latencies.append(time.monotonic() - started)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# -- server lifecycle ---------------------------------------------------------


def _write_port_file(path: str, port: int) -> None:
    """Atomically publish the bound port (the chaos harness handshake)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"{port}\n")
    os.replace(tmp, path)


async def _serve(
    config: ServiceConfig,
    service: SweepService,
    bound: Optional["threading.Event"] = None,
    handle: Optional["ServerHandle"] = None,
    announce: bool = False,
) -> None:
    app = ServiceApp(service)
    server = await asyncio.start_server(app.handle_connection, host=config.host, port=config.port)
    port = server.sockets[0].getsockname()[1]
    if config.port_file:
        _write_port_file(config.port_file, port)
    if handle is not None:
        handle.host = config.host
        handle.port = port

    loop = asyncio.get_running_loop()
    drain_requested = asyncio.Event()
    signals_seen = 0

    def request_drain() -> None:
        nonlocal signals_seen
        signals_seen += 1
        if signals_seen > 1:
            os._exit(130)  # second signal: the operator means NOW
        drain_requested.set()

    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, request_drain)
            installed.append(signum)
        except (NotImplementedError, ValueError, RuntimeError):
            pass  # non-main thread or platform without loop signals
    if handle is not None:
        handle._drain_event = drain_requested
    if announce:
        print(f"repro.service listening on http://{config.host}:{port}")
        print(
            f"  jobs={config.jobs or 'auto'} "
            f"queue-depth={config.queue_depth} "
            f"max-cells-per-request={config.max_cells_per_request} "
            f"rate={config.rate:g}/s burst={config.burst:g}"
        )
        print(f"  spool: {service.spool_dir}")
        print(
            "  POST /sweeps | GET /sweeps/{id}[/results|/events] | "
            "GET /healthz | GET /metrics",
            flush=True,
        )
    if bound is not None:
        bound.set()
    try:
        async with server:
            await drain_requested.wait()
            # Drain: refuse new submissions (503) but keep answering
            # reads and /healthz while the running sweep finishes, then
            # checkpoint the journal and let the server close.
            if announce:
                print("\ndraining: finishing the running sweep, journaling the queue", flush=True)
            service.begin_drain()
            await loop.run_in_executor(None, service.finish_drain)
            if announce:
                print("drained: queued sweeps preserved in the journal", flush=True)
    finally:
        for signum in installed:
            try:
                loop.remove_signal_handler(signum)
            except (NotImplementedError, ValueError, RuntimeError):
                pass


def run_server(config: ServiceConfig, service: Optional[SweepService] = None) -> None:
    """Run the service in the foreground; SIGTERM/SIGINT drain it."""
    service = service if service is not None else SweepService(config)
    try:
        asyncio.run(_serve(config, service, announce=True))
    except KeyboardInterrupt:
        # Loop-signal handlers unavailable (e.g. Windows): degrade to
        # the old hard stop.
        print("\nshutting down (waiting for the running sweep)")
    finally:
        service.shutdown(wait=False)


@dataclass
class ServerHandle:
    """A service running on a background thread (tests, smoke client)."""

    service: SweepService
    host: str = ""
    port: int = 0
    _thread: Optional[threading.Thread] = None
    _loop: Optional[asyncio.AbstractEventLoop] = None
    _drain_event: Optional[asyncio.Event] = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def drain(self, timeout: float = 60.0) -> None:
        """Trigger the graceful-drain path (what SIGTERM does in the
        foreground server) and wait for the server thread to exit."""
        if self._loop is not None and self._drain_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._drain_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def stop(self) -> None:
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.service.shutdown(wait=False)


def serve_in_thread(config: ServiceConfig, service: Optional[SweepService] = None) -> ServerHandle:
    """Boot the server on a daemon thread; returns once it is bound.

    ``config.port`` 0 picks an ephemeral port; the handle carries the
    real one.
    """
    service = service if service is not None else SweepService(config)
    handle = ServerHandle(service=service)
    bound = threading.Event()

    def runner() -> None:
        loop = asyncio.new_event_loop()
        handle._loop = loop
        asyncio.set_event_loop(loop)
        task = loop.create_task(_serve(config, service, bound=bound, handle=handle))
        # When _serve returns (a drain completed), park the loop so the
        # thread exits and ServerHandle.drain()'s join comes back.
        task.add_done_callback(lambda _t: loop.stop())
        try:
            loop.run_forever()
        finally:
            for task in asyncio.all_tasks(loop):
                task.cancel()
            try:
                loop.run_until_complete(asyncio.sleep(0))
            except (RuntimeError, asyncio.CancelledError):
                pass
            loop.close()

    thread = threading.Thread(target=runner, name="repro-service", daemon=True)
    handle._thread = thread
    thread.start()
    if not bound.wait(timeout=10):
        raise RuntimeError("service failed to bind within 10s")
    return handle
