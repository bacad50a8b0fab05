"""End-to-end HTTP smoke harness: ``python -m repro.service.smoke``.

Boots a real service (ephemeral port, isolated result store and spool
directory), then drives it over real sockets exactly like an external
client would:

1. submit a small Figure-10 grid (``POST /sweeps``),
2. stream its telemetry while it runs (``GET /sweeps/{id}/events``),
3. fetch the paginated results and pin them **bit-identical** against
   a direct in-process ``run_cells`` of the same specs,
4. re-submit the identical grid, follow its event stream to the end
   and assert that the stream's end alone means the sweep is over (the
   last row is ``sweep_finish`` and the status reads ``done``), that
   the warm run is served entirely from the shared result store —
   zero cells simulated, no pool work — and that ``/metrics`` shows
   the cache hits,
5. exercise the structured failure paths: malformed spec -> 400,
   unknown codec version -> 400.

Exits non-zero on the first broken assertion.  ``--artifact PATH``
copies the per-sweep telemetry JSONL next to the working directory so
CI can upload it.

``--chaos`` runs the end-to-end crash-recovery scenario instead, with
the service as real ``python -m repro serve`` subprocesses:

1. **kill -9 mid-sweep**: a service under
   ``REPRO_CHAOS=kill_after_cells=2`` is SIGKILLed the moment its
   second cell checkpoints; the harness asserts the process died by
   signal with the sweep unfinished;
2. **restart recovery**: a fresh process over the same spool replays
   the journal, resumes the sweep under its original id, serves the
   two checkpointed cells warm (``result_cache_hits == 2``, no pool
   work) and re-simulates only the lost tail; results are pinned
   bit-identical to an uninterrupted in-process ``run_cells``;
   the recovered sweep's events are streamed through
   ``drop_stream_after`` connection drops, exercising the client's
   byte-offset resume (every event delivered exactly once);
3. **graceful drain**: with one sweep running and one queued, SIGTERM
   flips ``/healthz`` to draining, new submissions get 503
   ``draining``, the running sweep finishes (``sweep_finish`` state
   ``done`` on disk), the process exits 0 — and a third process
   recovers the queued sweep from the journal and completes it:
   zero accepted sweeps lost.

``--artifact-dir DIR`` copies the journal + telemetry files there for
CI upload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from repro.leakage.sweep import LeakageCellSpec
from repro.runner.cells import CellSpec
from repro.runner.pool import run_cells
from repro.runner.result_cache import ResultCache
from repro.service.app import serve_in_thread
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.codec import CODEC_VERSION, encode_result, encode_spec
from repro.service.store import DiskResultStore
from repro.service.sweeps import ServiceConfig, SweepService


def smoke_grid(n_refs: int) -> List[CellSpec]:
    """A miniature Figure-10 slice: 2 benchmarks x 2 window shapes."""
    return [
        CellSpec(kind="general", benchmark=benchmark, window=window, n_refs=n_refs, seed=3)
        for benchmark in ("astar", "bzip2")
        for window in ((0, 0), (4, 3))
    ]


def slow_grid(trials: int = 3_000_000, seed: int = 77) -> List[LeakageCellSpec]:
    """One eq7 cell long enough (~3s) to be mid-run when signals land."""
    return [
        LeakageCellSpec(
            channel="eq7",
            scheme="random_fill",
            window=(1, 0),
            trials=trials,
            seed=seed,
            curve_points=(1,),
            curve_repeats=1,
        )
    ]


def quick_grid(n: int = 2, trials: int = 40, seed0: int = 500) -> List[LeakageCellSpec]:
    """A grid of fast eq7 cells (the queued sweep in the drain phase)."""
    return [
        LeakageCellSpec(
            channel="eq7",
            scheme="random_fill",
            window=(1, 0),
            trials=trials,
            seed=seed0 + i,
            curve_points=(1, 2),
            curve_repeats=5,
        )
        for i in range(n)
    ]


def check(ok: bool, what: str) -> None:
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {what}", flush=True)
    if not ok:
        sys.exit(f"service smoke failed: {what}")


def reference_results(specs) -> List[Any]:
    """The encoded results of an uninterrupted, cache-free direct run."""
    direct = run_cells(
        specs, jobs=1, result_cache=ResultCache(disk_dir=None, use_default_disk_dir=False)
    )
    return [encode_result(result) for result in direct]


# -- normal mode --------------------------------------------------------------


def run_normal(args) -> None:
    workdir = tempfile.mkdtemp(prefix="repro-smoke-")
    store = DiskResultStore(ResultCache(disk_dir=f"{workdir}/results"))
    config = ServiceConfig(
        host="127.0.0.1",
        port=0,
        jobs=2,
        queue_depth=4,
        max_cells_per_request=64,
        rate=50.0,
        burst=50.0,
        spool_dir=f"{workdir}/spool",
    )
    service = SweepService(config, store=store)
    handle = serve_in_thread(config, service=service)
    client = ServiceClient(handle.host, handle.port, client_id="ci-smoke")
    print(f"service smoke against {handle.base_url}")
    try:
        health = client.healthz()
        check(health["ok"] and health["draining"] is False, "GET /healthz (not draining)")

        specs = smoke_grid(args.n_refs)
        accepted = client.submit(specs)
        sweep_id = accepted["id"]
        check(
            accepted["cells"] == len(specs),
            f"POST /sweeps accepted {len(specs)} cells (id {sweep_id})",
        )

        seen = [event["event"] for event in client.stream_events(sweep_id)]
        check(
            "sweep_submitted" in seen and "run_finish" in seen and "sweep_finish" in seen,
            f"GET /sweeps/{{id}}/events streamed {len(seen)} events "
            f"(incl. sweep_submitted/run_finish/sweep_finish)",
        )
        check(
            any(event == "sweep_start" for event in seen),
            "sweep_start (queue_wait_s) present in the stream",
        )

        status = client.wait(sweep_id, timeout=600)
        check(
            status["state"] == "done",
            f"sweep finished: {status['state']} in {status['run_seconds']:.2f}s",
        )

        over_http = client.results(sweep_id, page_size=3)
        expected = reference_results(specs)
        check(over_http == expected, "HTTP results bit-identical to direct run_cells")

        warm = client.submit(specs)
        # Follow the stream before any wait: the stream's end alone
        # must mean the sweep is over.
        warm_events = [event["event"] for event in client.stream_events(warm["id"])]
        warm_status = client.sweep(warm["id"])
        check(
            warm_status["state"] == "done" and warm_events[-1:] == ["sweep_finish"],
            f"warm event stream ended on sweep_finish, sweep {warm_status['state']}",
        )
        stats = warm_status["last_run_stats"]
        check(
            stats["result_cache_hits"] == len(specs) and stats["result_cache_misses"] == 0,
            f"warm re-submission served {len(specs)}/{len(specs)} cells from the shared store",
        )
        check(
            "cell_start" not in warm_events and "batch_start" not in warm_events,
            "warm re-submission scheduled zero pool work",
        )
        metrics = client.metrics()
        check(
            metrics["result_store"]["hits"] >= len(specs),
            f"/metrics reports the store hits ({metrics['result_store']['hits']})",
        )
        recovery = metrics["recovery"]
        check(
            recovery["recovered_sweeps"] == 0
            and recovery["resubmitted_cells"] == 0
            and recovery["draining"] is False,
            "/metrics recovery counters present and zero on a fresh boot",
        )
        check(
            metrics["journal"]["appends"] >= 4,
            f"/metrics journal counters ({metrics['journal']['appends']} appends)",
        )

        try:
            client.submit_payload(
                {"version": CODEC_VERSION, "cells": [{"family": "cell", "kind": "nonsense"}]}
            )
            check(False, "malformed spec rejected")
        except ServiceClientError as error:
            check(
                error.status == 400 and error.code == "invalid_spec",
                f"malformed spec -> structured 400 ({error.code})",
            )
        try:
            client.submit_payload({"version": 999, "cells": [encode_spec(specs[0])]})
            check(False, "unknown codec version rejected")
        except ServiceClientError as error:
            check(error.status == 400, "unknown codec version -> 400")

        if args.artifact:
            source = service.get(sweep_id).events_path
            shutil.copyfile(source, args.artifact)
            print(f"  telemetry artifact: {args.artifact}")
        print("service smoke ok")
    finally:
        handle.stop()
        shutil.rmtree(workdir, ignore_errors=True)


# -- chaos mode ---------------------------------------------------------------


class ServerProcess:
    """One ``python -m repro serve`` child with a port-file handshake."""

    def __init__(self, workdir: str, name: str, chaos: Optional[str] = None):
        self.name = name
        self.port_file = os.path.join(workdir, f"{name}.port")
        self.log_path = os.path.join(workdir, f"{name}.log")
        env = dict(os.environ)
        env["REPRO_RESULT_CACHE"] = os.path.join(workdir, "results")
        env["REPRO_LANES"] = "0"  # per-cell checkpoints: deterministic kill tail
        env.pop("REPRO_CHAOS", None)
        if chaos is not None:
            env["REPRO_CHAOS"] = chaos
        self.log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--jobs",
                "1",
                "--rate",
                "1000",
                "--burst",
                "1000",
                "--spool",
                os.path.join(workdir, "spool"),
                "--port-file",
                self.port_file,
            ],
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.port = self._await_port()

    def _await_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if os.path.exists(self.port_file):
                with open(self.port_file, "r", encoding="utf-8") as fh:
                    return int(fh.read().strip())
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server {self.name} exited rc={self.proc.returncode} before binding "
                    f"(log: {self.log_path})"
                )
            time.sleep(0.05)
        raise RuntimeError(f"server {self.name} did not publish a port within {timeout}s")

    def client(self, client_id: str = "chaos-smoke", **kwargs) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, client_id=client_id, **kwargs)

    def wait(self, timeout: float = 180.0) -> int:
        rc = self.proc.wait(timeout=timeout)
        self.log.close()
        return rc

    def kill_if_alive(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if not self.log.closed:
            self.log.close()


def read_spool_events(workdir: str, filename: str) -> List[Dict[str, Any]]:
    path = os.path.join(workdir, "spool", filename)
    events: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    try:
                        events.append(json.loads(line))
                    except ValueError:
                        continue
    except OSError:
        pass
    return events


def run_chaos(args) -> None:
    workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    print(f"chaos smoke in {workdir}")
    servers: List[ServerProcess] = []
    try:
        # -- phase 1: SIGKILL mid-sweep ---------------------------------------
        victim = ServerProcess(workdir, "victim", chaos="kill_after_cells=2")
        servers.append(victim)
        client = victim.client()
        check(client.healthz()["ok"], f"victim serving on :{victim.port}")

        specs = smoke_grid(args.n_refs)
        sweep_id = client.submit(specs)["id"]
        check(bool(sweep_id), f"submitted {len(specs)} cells (id {sweep_id})")

        # A streaming follower rides the sweep into the crash: it must
        # see real events, then survive the hard connection drop.
        streamed_before: List[Dict[str, Any]] = []

        def follow() -> None:
            try:
                for event in victim.client(client_id="follower").stream_events(sweep_id):
                    streamed_before.append(event)
            except Exception:
                pass  # the process died under us — that is the test

        follower = threading.Thread(target=follow, daemon=True)
        follower.start()

        rc = victim.wait(timeout=180)
        follower.join(timeout=60)
        check(rc == -signal.SIGKILL, f"victim died by SIGKILL (rc={rc})")
        check(
            any(event.get("event") == "sweep_submitted" for event in streamed_before),
            f"follower streamed {len(streamed_before)} events before the drop",
        )
        warm_files = [
            name
            for name in os.listdir(os.path.join(workdir, "results"))
            if name.endswith(".result")
        ]
        check(
            len(warm_files) == 2,
            f"exactly 2 cells checkpointed before the kill ({len(warm_files)} found)",
        )

        # -- phase 2: restart, recover, stream through drops ------------------
        survivor = ServerProcess(workdir, "survivor", chaos="drop_stream_after=3")
        servers.append(survivor)
        client = survivor.client()
        status = client.sweep(sweep_id)
        check(
            status["recovered"] is True,
            f"restart re-admitted sweep {sweep_id} from the journal",
        )
        status = client.wait(sweep_id, timeout=600)
        check(status["state"] == "done", f"recovered sweep finished: {status['state']}")
        stats = status["last_run_stats"]
        check(
            stats["result_cache_hits"] == 2 and stats["result_cache_misses"] == len(specs) - 2,
            f"only the lost tail re-simulated (hits={stats['result_cache_hits']}, "
            f"misses={stats['result_cache_misses']})",
        )
        over_http = client.results(sweep_id, page_size=3)
        check(
            over_http == reference_results(specs),
            "recovered results bit-identical to an uninterrupted run",
        )
        metrics = client.metrics()
        recovery = metrics["recovery"]
        check(
            recovery["recovered_sweeps"] == 1
            and recovery["warm_cells"] == 2
            and recovery["resubmitted_cells"] == len(specs) - 2,
            f"/metrics recovery counters: {recovery}",
        )
        streamed = list(client.stream_events(sweep_id, follow=False))
        keys = [(event.get("event"), event.get("t")) for event in streamed]
        check(len(keys) == len(set(keys)), "stream resume delivered every event exactly once")
        spooled = read_spool_events(workdir, f"sweep-{sweep_id}.jsonl")
        check(
            len(streamed) == len(spooled),
            f"stream resume delivered the complete log ({len(streamed)}/{len(spooled)})",
        )
        names = [event.get("event") for event in streamed]
        check(
            "sweep_resumed" in names and "sweep_finish" in names,
            "recovered sweep's log carries sweep_resumed through to sweep_finish",
        )

        # -- phase 3: graceful drain ------------------------------------------
        running_id = client.submit(slow_grid())["id"]
        deadline = time.monotonic() + 120
        while client.sweep(running_id)["state"] != "running":
            check(time.monotonic() < deadline, "slow sweep reached running before SIGTERM")
            time.sleep(0.05)
        queued_specs = quick_grid()
        queued_id = client.submit(queued_specs)["id"]
        survivor.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 60
        while not client.healthz()["draining"]:
            check(time.monotonic() < deadline, "healthz flipped to draining after SIGTERM")
            time.sleep(0.05)
        check(True, "SIGTERM -> /healthz reports draining")
        try:
            survivor.client(client_id="late", retries=0).submit(quick_grid(seed0=900))
            check(False, "draining service refused the late submission")
        except ServiceClientError as error:
            check(
                error.status == 503 and error.code == "draining",
                f"late submission -> structured 503 draining ({error.code})",
            )
        rc = survivor.wait(timeout=300)
        check(rc == 0, f"drained server exited cleanly (rc={rc})")
        finish = [
            event
            for event in read_spool_events(workdir, f"sweep-{running_id}.jsonl")
            if event.get("event") == "sweep_finish"
        ]
        check(
            bool(finish) and finish[-1].get("state") == "done",
            "running sweep finished during the drain (sweep_finish state=done)",
        )

        # -- phase 4: the queued sweep survives to the next process -----------
        heir = ServerProcess(workdir, "heir")
        servers.append(heir)
        client = heir.client()
        status = client.sweep(queued_id)
        check(
            status["recovered"] is True,
            f"queued sweep {queued_id} inherited by the next process",
        )
        status = client.wait(queued_id, timeout=300)
        check(status["state"] == "done", "inherited sweep completed: zero accepted sweeps lost")
        check(
            client.results(queued_id) == reference_results(queued_specs),
            "inherited sweep's results bit-identical to a direct run",
        )
        heir.proc.send_signal(signal.SIGTERM)
        check(heir.wait(timeout=120) == 0, "final drain exits 0")
        print("chaos smoke ok")
    finally:
        for server in servers:
            server.kill_if_alive()
        if args.artifact_dir:
            os.makedirs(args.artifact_dir, exist_ok=True)
            spool = os.path.join(workdir, "spool")
            if os.path.isdir(spool):
                for name in sorted(os.listdir(spool)):
                    shutil.copyfile(
                        os.path.join(spool, name), os.path.join(args.artifact_dir, name)
                    )
            for server in servers:
                if os.path.exists(server.log_path):
                    shutil.copyfile(
                        server.log_path,
                        os.path.join(args.artifact_dir, os.path.basename(server.log_path)),
                    )
            print(f"  chaos artifacts: {args.artifact_dir}")
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m repro.service.smoke")
    parser.add_argument(
        "--n-refs", type=int, default=8000, help="trace length per cell (default 8000)"
    )
    parser.add_argument("--artifact", default="", help="copy the per-sweep telemetry JSONL here")
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the crash-recovery scenario (kill -9, restart, drain) "
        "against real server subprocesses",
    )
    parser.add_argument(
        "--artifact-dir",
        default="",
        help="(--chaos) copy the journal + telemetry + server logs here",
    )
    args = parser.parse_args(argv)
    if args.chaos:
        run_chaos(args)
    else:
        run_normal(args)


if __name__ == "__main__":
    main()
