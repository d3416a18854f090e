"""Tests for the scheduler daemon: endpoints, budgets, event streams,
and the graceful-shutdown contract (telemetry flushed, store lock
released)."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import ExperimentConfig
from repro.errors import ServeError
import repro.serve.daemon as daemon_mod
from repro.serve import ServeClient, ServeDaemon
from repro.serve.http import MAX_HEADERS, json_response, read_request, read_response
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
        async with ServeClient(daemon.host, daemon.port, timeout=30.0) as client:
            try:
                return await test(daemon, client)
            finally:  # with the client's keep-alive connection still open
                await daemon.shutdown()

    return asyncio.run(runner())


def submit(client, tid, *, workload="G-CC", threads=2, time_s=0.0, **kw):
    return client.arrival(
        tenant=tid, workload=workload, threads=threads,
        solo_s=5.0, time_s=time_s, **kw,
    )


def get(path: str, *, keep: bool = True) -> bytes:
    """A raw GET, asking for keep-alive unless ``keep`` is false."""
    connection = "Connection: keep-alive\r\n" if keep else ""
    return f"GET {path} HTTP/1.1\r\nHost: x\r\n{connection}\r\n".encode()


async def exchange(reader, writer, raw: bytes):
    """Send one raw request; ``(status, headers, body)`` of its response."""
    writer.write(raw)
    await writer.drain()
    return await asyncio.wait_for(read_response(reader), 5)


def counters(daemon) -> dict:
    return daemon.metrics.snapshot()["counters"]


@contextmanager
def daemon_thread():
    """A started daemon on its own thread and event loop."""
    daemon = ServeDaemon(make_session(), port=0)
    daemon.evaluator = daemon.scheduler.evaluator = StubEvaluator()
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.run(ready=lambda d: ready.set()))
    )
    thread.start()
    try:
        assert ready.wait(30)
        yield daemon
    finally:
        asyncio.run(ServeClient(daemon.host, daemon.port).shutdown())
        thread.join(30)
        assert not thread.is_alive()


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

    def test_non_finite_numbers_are_400_and_the_log_stays_json(self):
        async def test(daemon, client):
            await submit(client, "a")
            bad = ("nan", "inf", "-Infinity", float("nan"), float("inf"))
            for i, value in enumerate(bad):
                # Strings and bare NaN/Infinity tokens both parse to floats.
                with pytest.raises(ServeError, match="finite"):
                    await client._request(
                        "POST", "/departures", {"tenant": "a", "time_s": value}
                    )
                for field in ("time_s", "solo_s", "budget_s"):
                    body = {"tenant": f"b{i}{field}", "workload": "G-CC",
                            "threads": 2, field: value}
                    with pytest.raises(ServeError, match="finite"):
                        await client._request("POST", "/arrivals", body)
            # An integer field cannot hold infinity either.
            with pytest.raises(ServeError, match="threads"):
                await client._request("POST", "/arrivals", {
                    "tenant": "c", "workload": "G-CC", "threads": float("inf"),
                })
            log = await client.decisions()
            assert [d["tenant"] for d in log["decisions"]] == ["a"]
            json.dumps(log, allow_nan=False)  # strict JSON: no NaN token
            assert (await client.state())["homes"] == {"a": "m0"}

        with_daemon(test)

    def test_finite_numeric_strings_still_admitted(self):
        async def test(daemon, client):
            reply = await client._request("POST", "/arrivals", {
                "tenant": "a", "workload": "G-CC", "threads": "2",
                "solo_s": "5.0", "time_s": "1e-3",
            })
            assert reply["decision"]["admitted"] is True
            assert (await client.state())["homes"] == {"a": "m0"}
            await client._request(
                "POST", "/departures", {"tenant": "a", "time_s": "2.5"}
            )
            assert (await client.state())["homes"] == {}

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

    def test_nonpositive_request_budget_is_400_before_deciding(self):
        async def test(daemon, client):
            for budget in (0, -1):
                with pytest.raises(ServeError, match="budget_s must be positive"):
                    await submit(client, "a", budget_s=budget)
            assert (await client.decisions())["decisions"] == []
            assert "serve.budget_misses" not in counters(daemon)
            assert counters(daemon)["serve.errors"] == 2

        with_daemon(test)

    def test_body_that_is_not_utf8_is_400_and_counted(self):
        async def test(daemon, client):
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            status, _, body = await exchange(reader, writer, (
                b"POST /arrivals HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n"
                b"\r\n\x80abc"
            ))
            writer.close()
            await writer.wait_closed()
            assert status == 400 and b"not valid JSON" in body, body
            assert counters(daemon)["serve.errors"] == 1
            assert await client.healthz() == {"ok": True}

        with_daemon(test)


class TestKeepAlive:
    """One connection carries requests while the client asks for it."""

    def test_two_requests_on_one_connection(self):
        async def test(daemon, client):
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            for _ in range(2):
                status, headers, body = await exchange(reader, writer, get("/healthz"))
                assert status == 200 and json.loads(body) == {"ok": True}
                assert headers["connection"] == "keep-alive"
            writer.close()
            await writer.wait_closed()
            assert counters(daemon)["serve.connections"] == 1
            assert counters(daemon)["serve.requests"] == 2

        with_daemon(test)

    def test_request_without_keep_alive_is_answered_and_closed(self):
        async def test(daemon, client):
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            status, headers, _ = await exchange(reader, writer, get("/healthz", keep=False))
            assert status == 200 and headers["connection"] == "close"
            assert await asyncio.wait_for(reader.read(), 5) == b""
            writer.close()
            await writer.wait_closed()

        with_daemon(test)

    def test_malformed_second_request_gets_400_then_eof(self):
        async def test(daemon, client):
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            status, headers, _ = await exchange(reader, writer, get("/healthz"))
            assert status == 200 and headers["connection"] == "keep-alive"
            status, headers, body = await exchange(reader, writer, b"NONSENSE\r\n\r\n")
            assert status == 400 and b"request line" in body
            assert headers["connection"] == "close"
            assert await asyncio.wait_for(reader.read(), 5) == b""
            writer.close()
            await writer.wait_closed()

        with_daemon(test)

    def test_dispatch_error_keeps_the_connection(self):
        async def test(daemon, client):
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            status, headers, _ = await exchange(reader, writer, get("/nope"))
            assert status == 404 and headers["connection"] == "keep-alive"
            status, _, _ = await exchange(reader, writer, (
                b"POST /departures HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
                b"Connection: keep-alive\r\n\r\n{}"
            ))
            assert status == 400
            status, _, _ = await exchange(reader, writer, get("/healthz"))
            assert status == 200
            writer.close()
            await writer.wait_closed()
            assert counters(daemon)["serve.connections"] == 1

        with_daemon(test)

    def test_idle_connection_is_closed_at_the_read_deadline(self, monkeypatch):
        monkeypatch.setattr(daemon_mod, "READ_DEADLINE_S", 0.2)

        async def test(daemon, client):
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            await exchange(reader, writer, get("/healthz"))
            start = time.monotonic()
            assert await asyncio.wait_for(reader.read(), 5) == b""
            assert time.monotonic() - start < 3.0
            writer.close()
            await writer.wait_closed()

        with_daemon(test)

    def test_shutdown_closes_an_idle_connection(self):
        # On Python >= 3.12 ``Server.wait_closed()`` waits for every
        # live handler, so an idle keep-alive connection left open
        # would hold shutdown for a whole read deadline.
        async def test():
            daemon = ServeDaemon(make_session(), port=0)
            await daemon.start()
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            _, headers, _ = await exchange(reader, writer, get("/healthz"))
            assert headers["connection"] == "keep-alive"
            start = time.monotonic()
            await asyncio.wait_for(daemon.shutdown(), daemon_mod.READ_DEADLINE_S / 2)
            assert await asyncio.wait_for(reader.read(), daemon_mod.READ_DEADLINE_S / 2) == b""
            assert time.monotonic() - start < daemon_mod.READ_DEADLINE_S / 4
            writer.close()
            await writer.wait_closed()

        asyncio.run(test())

    def test_client_sends_many_calls_over_one_connection(self):
        async def test(daemon, client):
            for i in range(20):
                if i % 4:
                    await client.healthz()
                else:
                    await submit(client, f"t{i}")
            metrics = await client.metrics()
            assert metrics["serve"]["counters"]["serve.connections"] == 1
            assert metrics["serve"]["counters"]["serve.requests"] == 21

        with_daemon(test)

    def test_closing_the_client_closes_its_connection(self):
        async def test(daemon, client):
            async with ServeClient(daemon.host, daemon.port) as own:
                await own.healthz()
                assert len(daemon._waiting) == 1
            for _ in range(500):  # the daemon reads EOF; the handler returns
                if not daemon._waiting:
                    break
                await asyncio.sleep(0.01)
            assert not daemon._waiting

        with_daemon(test)

    def test_client_recovers_after_the_daemon_closes_the_idle_connection(
        self, monkeypatch
    ):
        monkeypatch.setattr(daemon_mod, "READ_DEADLINE_S", 0.2)

        async def test(daemon, client):
            await client.healthz()
            await asyncio.sleep(0.6)  # the daemon closes the idle connection
            reply = await submit(client, "a")
            assert reply["decision"]["admitted"] is True
            assert len((await client.decisions())["decisions"]) == 1
            assert counters(daemon)["serve.arrivals"] == 1
            assert counters(daemon)["serve.connections"] >= 2

        with_daemon(test)

    def test_concurrent_calls_never_share_a_connection(self):
        async def test(daemon, client):
            replies = await asyncio.gather(*(client.healthz() for _ in range(4)))
            assert replies == [{"ok": True}] * 4
            assert counters(daemon)["serve.connections"] == 4
            # One connection went back to idle; the client closed the rest.
            for _ in range(500):
                if len(daemon._waiting) == 1:
                    break
                await asyncio.sleep(0.01)
            assert len(daemon._waiting) == 1
            await client.healthz()
            assert counters(daemon)["serve.connections"] == 4

        with_daemon(test)

    def test_connection_from_a_finished_loop_is_not_reused(self, caplog):
        with daemon_thread() as daemon:
            client = ServeClient(daemon.host, daemon.port)
            assert asyncio.run(client.healthz()) == {"ok": True}
            assert asyncio.run(client.healthz()) == {"ok": True}
            metrics = asyncio.run(client.metrics())
            assert metrics["serve"]["counters"]["serve.connections"] == 3
        # Shutdown let the handler of the connection still open return,
        # rather than leave it to be cancelled as the daemon's loop ended.
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestClientConnections:
    """The client against stub listeners that misbehave on purpose."""

    @staticmethod
    async def stub(plan: "list[int]"):
        """A listener whose ``i``-th connection answers ``plan[i]``
        requests (keep-alive) and then hangs up on the next one."""
        accepted: list[int] = []

        async def handle(reader, writer):
            answers = plan[len(accepted)]
            accepted.append(answers)
            try:
                for _ in range(answers):
                    if await read_request(reader) is None:
                        return
                    writer.write(json_response(200, {"ok": True}, keep_alive=True))
                    await writer.drain()
                await read_request(reader)  # read, never answered
            finally:
                writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        return server, server.sockets[0].getsockname()[1], accepted

    def test_reused_connection_closed_unanswered_is_retried_once(self):
        async def go():
            server, port, accepted = await self.stub([1, 1, 0])
            client = ServeClient("127.0.0.1", port, timeout=10.0)
            try:
                assert await client.healthz() == {"ok": True}
                # Reused, hung up before a status line: retried on a
                # fresh connection.
                assert await client.healthz() == {"ok": True}
                assert len(accepted) == 2
                # The retry's fresh connection hangs up too: no second retry.
                with pytest.raises(ServeError, match="before any response"):
                    await client.healthz()
                assert len(accepted) == 3
            finally:
                server.close()

        asyncio.run(go())

    def test_wait_ready_gives_up_on_a_listener_that_never_answers(self):
        async def go():
            async def silent(reader, writer):
                await reader.read()  # accept, never answer
                writer.close()

            server = await asyncio.start_server(silent, "127.0.0.1", 0)
            client = ServeClient("127.0.0.1", server.sockets[0].getsockname()[1])
            start = time.monotonic()
            try:
                with pytest.raises(ServeError, match="not ready"):
                    await asyncio.wait_for(client.wait_ready(timeout=0.5), 5)
            finally:
                server.close()
            return time.monotonic() - start

        assert asyncio.run(go()) < 4.0


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
                async with ServeClient("127.0.0.1", port) as client:
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
