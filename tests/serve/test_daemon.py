"""Tests for the scheduler daemon: endpoints, budgets, event streams,
and the graceful-shutdown contract (telemetry flushed, store lock
released)."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import ExperimentConfig
from repro.errors import ServeError
import repro.serve.daemon as daemon_mod
from repro.serve import ServeClient, ServeDaemon
from repro.serve.http import MAX_HEADERS
from repro.session import Session
from repro.store.locking import HAVE_FILE_LOCKS, store_lock

ROSTER = ("G-CC", "fotonik3d", "swaptions")


def make_session(store=None) -> Session:
    return Session(
        ExperimentConfig(workloads=ROSTER, threads=4, jitter=0.0), store=store
    )


class StubEvaluator:
    """Alone = 1.0, each co-resident adds 0.2 — everything admits."""

    def slowdowns(self, spec, placements):
        if len(placements) <= 1:
            return (1.0,) * len(placements)
        return tuple(1.0 + 0.2 * (len(placements) - 1) for _ in placements)

    def slowdowns_many(self, items):
        return [self.slowdowns(spec, placements) for spec, placements in items]


def with_daemon(test, *, session=None, evaluator=StubEvaluator(), **kw):
    """Run ``await test(daemon, client)`` against a started daemon on an
    ephemeral port, shutting down afterwards."""

    async def runner():
        daemon = ServeDaemon(session or make_session(), port=0, **kw)
        if evaluator is not None:
            daemon.evaluator = evaluator
            daemon.scheduler.evaluator = evaluator
        await daemon.start()
        client = ServeClient(daemon.host, daemon.port, timeout=30.0)
        try:
            return await test(daemon, client)
        finally:
            await daemon.shutdown()

    return asyncio.run(runner())


def submit(client, tid, *, workload="G-CC", threads=2, time_s=0.0, **kw):
    return client.arrival(
        tenant=tid, workload=workload, threads=threads,
        solo_s=5.0, time_s=time_s, **kw,
    )


class TestEndpoints:
    def test_healthz_info_cluster_state(self):
        async def test(daemon, client):
            assert await client.healthz() == {"ok": True}
            info = await client.info()
            assert info["policy"] == "interference"
            assert info["machines"] == ["m0", "m1"]
            assert info["replan"] is True
            assert info["total_slots"] == 16
            await submit(client, "a")
            cluster = await client.cluster()
            assert cluster["used_slots"] == 2
            tenants = {
                t["tenant"]
                for m in cluster["cluster"]["machines"]
                for t in m["tenants"]
            }
            assert tenants == {"a"}
            state = await client.state()
            assert state["rates"] == {"a": 1.0}
            assert state["homes"] == {"a": "m0"}
            assert state["used_slots"] == 2

        with_daemon(test)

    def test_unknown_endpoint_404_wrong_method_405(self):
        async def test(daemon, client):
            with pytest.raises(ServeError, match="no such endpoint"):
                await client._request("GET", "/nope")
            with pytest.raises(ServeError, match="not allowed"):
                await client._request("POST", "/healthz")

        with_daemon(test)

    def test_bad_bodies_are_400_not_fatal(self):
        async def test(daemon, client):
            with pytest.raises(ServeError, match="JSON"):
                await client._request("POST", "/arrivals", "not-an-object")
            with pytest.raises(ServeError, match="tenant"):
                await client._request("POST", "/arrivals", {"workload": "G-CC"})
            with pytest.raises(ServeError, match="unknown tenant"):
                await client.departure("ghost")
            # The daemon survived all three.
            assert await client.healthz() == {"ok": True}

        with_daemon(test)

    def test_malformed_content_length_is_400_not_a_dropped_connection(self):
        async def test(daemon, client):
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            writer.write(
                b"POST /arrivals HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n{}"
            )
            await writer.drain()
            response = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n"), response
            assert b"content-length" in response
            assert await client.healthz() == {"ok": True}

        with_daemon(test)

    def test_too_many_header_lines_is_400_and_daemon_keeps_serving(self):
        async def test(daemon, client):
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            headers = b"".join(b"X-Pad-%d: v\r\n" % i for i in range(101))
            writer.write(b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
            await writer.drain()
            response = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n"), response
            assert b"header lines" in response
            assert await client.healthz() == {"ok": True}

        with_daemon(test)

    def test_stalled_request_head_is_closed_at_the_read_deadline(self, monkeypatch):
        # A client that sends half a head must not hold its handler
        # forever: it sees EOF once the deadline passes, and shutdown
        # (which on Python >= 3.12.1 waits for live handlers) returns.
        monkeypatch.setattr(daemon_mod, "READ_DEADLINE_S", 0.2)

        async def test():
            daemon = ServeDaemon(make_session(), port=0)
            await daemon.start()
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")  # no blank line
            await writer.drain()
            await asyncio.sleep(0.05)  # the handler is parked in read_request
            await asyncio.wait_for(daemon.shutdown(), 5)
            assert await asyncio.wait_for(reader.read(), 5) == b""
            writer.close()
            await writer.wait_closed()

        asyncio.run(test())

    def test_exactly_max_header_lines_is_served(self):
        async def test(daemon, client):
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            headers = b"".join(b"X-Pad-%d: v\r\n" % i for i in range(MAX_HEADERS))
            writer.write(b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
            await writer.drain()
            response = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert response.startswith(b"HTTP/1.1 200 OK\r\n"), response

        with_daemon(test)

    def test_trickled_request_head_is_closed_at_the_read_deadline(self, monkeypatch):
        # The deadline bounds the whole request, not each read: a client
        # that sends a header line more often than the deadline but
        # never finishes its head is still cut off.
        monkeypatch.setattr(daemon_mod, "READ_DEADLINE_S", 0.3)

        async def test(daemon, client):
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            writer.write(b"GET /healthz HTTP/1.1\r\n")
            start = time.monotonic()
            for drip in range(40):
                try:
                    writer.write(b"X-Drip-%d: v\r\n" % drip)
                    await writer.drain()
                    answer = await asyncio.wait_for(reader.read(65536), 0.1)
                except asyncio.TimeoutError:
                    continue  # still open: keep dripping
                except ConnectionError:
                    answer = b""  # reset while a drip was in flight
                break
            else:
                pytest.fail("a trickling client outlived the read deadline")
            assert answer == b""  # closed without a response
            assert time.monotonic() - start < 3.0
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
            assert await client.healthz() == {"ok": True}

        with_daemon(test)

    def test_stalled_request_body_is_closed_at_the_read_deadline(self, monkeypatch):
        monkeypatch.setattr(daemon_mod, "READ_DEADLINE_S", 0.2)

        async def test(daemon, client):
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            writer.write(
                b"POST /arrivals HTTP/1.1\r\nHost: x\r\nContent-Length: 64\r\n\r\n"
                b'{"tenant": "a"'
            )
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), 5) == b""
            writer.close()
            await writer.wait_closed()
            # Nothing was admitted, and the daemon still serves.
            assert (await client.decisions())["decisions"] == []
            assert await client.healthz() == {"ok": True}

        with_daemon(test)

    def test_event_stream_is_not_under_the_read_deadline(self, monkeypatch):
        monkeypatch.setattr(daemon_mod, "READ_DEADLINE_S", 0.2)

        async def test(daemon, client):
            events = []

            async def watch():
                async for ev in client.events():
                    events.append(ev)
                    if len(events) >= 2:  # hello + first decision
                        return

            watcher = asyncio.create_task(watch())
            await asyncio.sleep(0.6)  # three deadlines pass on the open stream
            await submit(client, "a")
            await asyncio.wait_for(watcher, 10)
            assert [ev["event"] for ev in events] == ["hello", "decision"]
            assert events[1]["data"]["tenant"] == "a"

        with_daemon(test)

    def test_arrival_departure_and_decision_log(self):
        async def test(daemon, client):
            first = await submit(client, "a")
            assert first["decision"]["admitted"] is True
            assert first["decision"]["tenant"] == "a"
            assert first["latency_s"] > 0.0
            assert first["within_budget"] is None  # no budget configured
            await submit(client, "b", workload="fotonik3d", time_s=1.0)
            gone = await client.departure("a", time_s=2.0)
            assert gone["ok"] is True and gone["replans"] == []
            log = await client.decisions()
            assert [d["tenant"] for d in log["decisions"]] == ["a", "b"]
            metrics = await client.metrics()
            counters = metrics["serve"]["counters"]
            assert counters["serve.arrivals"] == 2
            assert counters["serve.admitted"] == 2
            assert counters["serve.departures"] == 1
            assert metrics["admission_latency"]["count"] == 2
            assert metrics["tracer"] is None
            assert "scenario_misses" in metrics["cache"]

        with_daemon(test)

    def test_budget_is_observability_only(self):
        async def test(daemon, client):
            # An impossible budget: flagged, counted, never rejected.
            tight = await submit(client, "a", budget_s=1e-12)
            assert tight["within_budget"] is False
            assert tight["decision"]["admitted"] is True
            roomy = await submit(client, "b", budget_s=60.0)
            assert roomy["within_budget"] is True
            default = await submit(client, "c")
            assert default["budget_s"] == 5.0  # daemon-level default
            metrics = await client.metrics()
            assert metrics["serve"]["counters"]["serve.budget_misses"] == 1
            assert metrics["admission_latency"]["over_budget"] == 1
            assert metrics["admission_latency"]["budget_s"] == 5.0

        with_daemon(test, budget_s=5.0)

    def test_events_stream_carries_decisions(self):
        async def test(daemon, client):
            events = []

            async def watch():
                async for ev in client.events():
                    events.append(ev)
                    if len(events) >= 2:  # hello + first decision
                        return

            watcher = asyncio.create_task(watch())
            await asyncio.sleep(0.05)  # let the stream attach
            await submit(client, "a")
            await asyncio.wait_for(watcher, 10)
            assert events[0]["event"] == "hello"
            assert events[0]["data"]["policy"] == "interference"
            assert events[1]["event"] == "decision"
            assert events[1]["data"]["tenant"] == "a"
            assert events[1]["data"]["admitted"] is True

        with_daemon(test)

    def test_shutdown_with_connected_event_stream(self):
        # The sentinel must reach watchers *before* the daemon waits on
        # the server: on Python >= 3.12 ``Server.wait_closed()`` blocks
        # until the /events handler returns, and the handler only
        # returns after the sentinel — the old order deadlocked.
        async def test():
            daemon = ServeDaemon(make_session(), port=0)
            daemon.evaluator = daemon.scheduler.evaluator = StubEvaluator()
            ports: list[int] = []
            task = asyncio.create_task(
                daemon.run(ready=lambda d: ports.append(d.port))
            )
            while not ports:
                await asyncio.sleep(0.01)
            client = ServeClient(daemon.host, ports[0])
            events = []

            async def watch():
                async for ev in client.events():
                    events.append(ev)

            watcher = asyncio.create_task(watch())
            while not events:  # hello arrived: the stream is attached
                await asyncio.sleep(0.01)
            assert (await client.shutdown())["ok"] is True
            await asyncio.wait_for(task, 10)  # daemon must not hang...
            await asyncio.wait_for(watcher, 10)  # ...and the stream ends
            assert not daemon._watchers

        asyncio.run(test())

    def test_shutdown_sentinel_lands_on_full_watcher_queue(self):
        # A backed-up watcher queue must still receive the end-of-stream
        # sentinel (shedding old events), or its handler would hang
        # shutdown on Python >= 3.12.
        async def test():
            daemon = ServeDaemon(make_session(), port=0)
            await daemon.start()
            stuffed: asyncio.Queue = asyncio.Queue(maxsize=2)
            stuffed.put_nowait({"event": "decision", "payload": {}})
            stuffed.put_nowait({"event": "decision", "payload": {}})
            daemon._watchers.add(stuffed)
            await asyncio.wait_for(daemon.shutdown(), 10)
            drained = []
            while not stuffed.empty():
                drained.append(stuffed.get_nowait())
            assert drained[-1] is None

        asyncio.run(test())

    def test_disconnected_watcher_is_reaped_without_a_publish(self):
        # A client that hangs up is noticed via EOF on its socket, not
        # only at the next publish — an idle daemon must not accumulate
        # dead watcher handlers.
        async def test(daemon, client):
            reader, writer = await asyncio.open_connection(
                daemon.host, daemon.port
            )
            writer.write(b"GET /events HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            await reader.readuntil(b"event: hello")  # stream is live
            assert len(daemon._watchers) == 1
            writer.close()
            await writer.wait_closed()
            for _ in range(200):
                if not daemon._watchers:
                    break
                await asyncio.sleep(0.01)
            assert not daemon._watchers

        with_daemon(test)

    def test_admission_latency_samples_are_bounded(self):
        async def test(daemon, client):
            assert daemon.latencies.maxlen is not None
            await submit(client, "a")
            metrics = await client.metrics()
            lat = metrics["admission_latency"]
            assert lat["count"] == 1
            assert lat["window"] == daemon.latencies.maxlen

        with_daemon(test)

    def test_shutdown_endpoint_stops_run_loop(self):
        async def test():
            daemon = ServeDaemon(make_session(), port=0)
            daemon.evaluator = daemon.scheduler.evaluator = StubEvaluator()
            ports: list[int] = []
            task = asyncio.create_task(
                daemon.run(ready=lambda d: ports.append(d.port))
            )
            while not ports:
                await asyncio.sleep(0.01)
            client = ServeClient(daemon.host, ports[0])
            assert (await client.shutdown())["ok"] is True
            await asyncio.wait_for(task, 10)

        asyncio.run(test())

    def test_bad_budget_rejected_at_construction(self):
        with pytest.raises(ServeError, match="budget_s"):
            ServeDaemon(make_session(), budget_s=0.0)


@pytest.mark.skipif(not HAVE_FILE_LOCKS, reason="no advisory file locks")
class TestGracefulShutdown:
    """The satellite contract: SIGTERM ends a live daemon cleanly —
    exit 0, telemetry segments flushed, store lock released."""

    def _spawn(self, store: Path, *extra: str) -> subprocess.Popen:
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(root / "src")
        return subprocess.Popen(
            [
                sys.executable, "-c",
                "from repro.cli import main; raise SystemExit(main())",
                "serve", "start", "--store", str(store), "--port", "0",
                "--workloads", ",".join(ROSTER), *extra,
            ],
            env=env,
            cwd=root,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def _wait_listening(self, proc: subprocess.Popen) -> int:
        line = proc.stdout.readline()
        assert "serve: listening on" in line, (line, proc.stderr.read())
        return int(line.split()[3].rsplit(":", 1)[1])

    def test_sigterm_flushes_telemetry_and_releases_lock(self, tmp_path):
        store = tmp_path / "store"
        proc = self._spawn(store, "--telemetry")
        try:
            self._wait_listening(proc)
            # While the daemon lives it holds the store lock shared:
            # an exclusive acquire (what `store gc` takes) must fail.
            lock = store_lock(store, exclusive=True)
            assert lock.acquire(blocking=False) is False
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, (out, err)
            assert "serve: stopped" in out
            # Lock released...
            assert lock.acquire(blocking=False) is True
            lock.release()
            # ...and the telemetry segment flushed on the way out.
            segments = list((store / "telemetry").glob("*.jsonl"))
            assert segments
            lines = [
                json.loads(line)
                for seg in segments
                for line in seg.read_text().splitlines()
            ]
            assert any(line.get("kind") == "metrics" for line in lines)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_sigterm_mid_requests_exits_zero(self, tmp_path):
        store = tmp_path / "store"
        proc = self._spawn(store)
        try:
            port = self._wait_listening(proc)

            async def poke():
                client = ServeClient("127.0.0.1", port)
                await client.wait_ready()
                return await client.healthz()

            assert asyncio.run(poke()) == {"ok": True}
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, (out, err)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
