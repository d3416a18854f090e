"""The scheduler daemon: one live Scheduler behind a JSON HTTP API.

``repro serve start`` wraps the PR 6 :class:`~repro.sched.scheduler.Scheduler`
(and its warm :class:`~repro.store.store.ResultStore`) in an asyncio
service so admission control becomes a *request*, not a replay:

* ``POST /arrivals`` — admit or reject one tenant; the response carries
  the full serialized :class:`~repro.sched.policy.Decision` plus the
  observed admission latency and its relation to the configured budget;
* ``POST /departures`` — evict a tenant; with re-planning on (the
  default here, unlike offline replay) the vacated machine is
  incrementally re-planned and any migrations / re-partitions come back
  in the response;
* ``GET /cluster`` / ``/state`` / ``/info`` / ``/decisions`` — the live
  placements (masks and pins included), per-tenant slowdowns under the
  current layouts, static scheduler facts, and the full decision log;
* ``GET /metrics`` — the daemon's metrics registry plus admission
  latency percentiles (and the process tracer's snapshot when
  ``--telemetry`` is on);
* ``GET /events`` — a Server-Sent-Events stream of scheduler decisions
  and, when tracing is enabled, telemetry span lines as they are
  written (via :meth:`~repro.telemetry.tracer.Tracer.subscribe`).

Concurrency model: candidate evaluation can cost real engine time on a
cold store, so every scheduler call runs on a single-thread executor
behind one asyncio lock — the event loop never blocks (health checks,
metrics and event streams stay live mid-evaluation) and scheduler state
is never touched concurrently, which keeps the decision log exactly as
deterministic as the in-process replay.  The admission-latency budget
is **observability only**: it colors responses and metrics, never
decisions, so a drain against a cold store and one against a warm store
produce byte-identical decision logs at very different latencies.

Lifecycle: the daemon holds the store's *shared* lock for its lifetime
(cache writes stay concurrent; ``store gc`` and manifest freezes are
excluded while the service is up).  SIGTERM/SIGINT — or
``POST /shutdown`` — stop the loop cleanly: the server closes, idle
keep-alive connections and event streams end, telemetry segments flush,
and the lock is released.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import math
import signal
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any

from repro.core.classify import VICTIM_THRESHOLD
from repro.errors import ReproError, ServeError
from repro.sched.cluster import Cluster, Tenant
from repro.sched.policy import get_policy
from repro.sched.scheduler import Scheduler, percentile
from repro.sched.score import PlacementEvaluator
from repro.serve.http import (
    json_response,
    read_request,
    sse_event,
    sse_preamble,
    wants_keep_alive,
)
from repro.store.locking import store_lock
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.session import Session

logger = logging.getLogger(__name__)

__all__ = ["ServeDaemon"]

#: Per-watcher event-queue depth; a consumer this far behind loses
#: events rather than back-pressuring the scheduler.
_WATCHER_DEPTH = 256

#: Admission-latency samples retained for /metrics percentiles; older
#: samples age out so daemon memory stays flat over its lifetime.
_LATENCY_WINDOW = 4096

#: Seconds a client gets to deliver one whole request (head and body),
#: counted from when the connection starts waiting for it, so an idle
#: keep-alive connection is closed after this long too.  A client that
#: stalls past it is disconnected without a response, so it can neither
#: hold a handler forever nor block shutdown.
READ_DEADLINE_S = 10.0


def _positive_budget(budget_s: "float | None") -> "float | None":
    if budget_s is not None and budget_s <= 0:
        raise ServeError(f"budget_s must be positive, got {budget_s}")
    return budget_s


class ServeDaemon:
    """One scheduler, one cluster, one HTTP endpoint; see module docs."""

    def __init__(
        self,
        session: "Session",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cluster: "Cluster | None" = None,
        machines: int = 2,
        policy: str = "interference",
        slo: float = VICTIM_THRESHOLD,
        replan: bool = True,
        budget_s: "float | None" = None,
    ) -> None:
        self.session = session
        self.host = host
        self.port = port
        self.budget_s = _positive_budget(budget_s)
        if cluster is None:
            cluster = Cluster.homogeneous(machines, session.spec)
        self.evaluator = PlacementEvaluator(session)
        self.scheduler = Scheduler(
            cluster, get_policy(policy), self.evaluator, slo=slo, replan=replan
        )
        self.metrics = MetricsRegistry()
        #: Recent admission latencies (seconds) — the streaming Histogram
        #: cannot answer percentile queries, so raw samples are kept, but
        #: only the last :data:`_LATENCY_WINDOW` of them: a long-running
        #: daemon must not grow per-arrival state without bound.
        self.latencies: "deque[float]" = deque(maxlen=_LATENCY_WINDOW)
        self._lock = asyncio.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-sched"
        )
        self._watchers: "set[asyncio.Queue]" = set()
        #: Handlers parked waiting for their connection's next request,
        #: by writer; shutdown closes these connections (no response is
        #: owed on them) and waits for the handlers to return.
        self._waiting: "dict[asyncio.StreamWriter, asyncio.Task]" = {}
        self._stop = asyncio.Event()
        self._closing = False
        self._server: "asyncio.base_events.Server | None" = None
        self._store_lock = None
        self._tracer_cb = None
        self._loop: "asyncio.AbstractEventLoop | None" = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "ServeDaemon":
        """Bind and begin serving; resolves :attr:`port` when 0."""
        self._loop = asyncio.get_running_loop()
        if self.session.store is not None:
            self._store_lock = store_lock(
                self.session.store.root, exclusive=False
            )
            self._store_lock.acquire()
        tracer = get_tracer()
        if tracer.enabled:
            loop = self._loop

            def _on_telemetry(payload: dict) -> None:
                # Called from whichever thread wrote the span; hop onto
                # the loop (and go quiet once it is gone at shutdown).
                try:
                    loop.call_soon_threadsafe(
                        self._publish, "telemetry", payload
                    )
                except RuntimeError:
                    pass

            self._tracer_cb = tracer.subscribe(_on_telemetry)
        try:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port
            )
        except OSError as exc:
            await self.shutdown()
            raise ServeError(
                f"cannot bind {self.host}:{self.port}: {exc}"
            ) from None
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("serve daemon listening on %s:%d", self.host, self.port)
        return self

    def request_stop(self) -> None:
        """Ask the :meth:`run` loop to exit (signal-handler safe)."""
        self._stop.set()

    async def run(self, *, ready=None) -> None:
        """Start, serve until SIGTERM/SIGINT or ``POST /shutdown``, then
        shut down in order: server, event streams, telemetry, store lock.
        ``ready(daemon)`` is called once bound and signal-ready — the CLI
        announces the resolved port through it."""
        await self.start()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_stop)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread / platform without loop signals
        # Announce only once the handlers are in: a client that signals
        # as soon as it reads the port gets the orderly shutdown, not the
        # default SIGTERM disposition.
        if ready is not None:
            ready(self)
        try:
            await self._stop.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.shutdown()

    async def shutdown(self) -> None:
        """Orderly teardown; idempotent."""
        self._closing = True  # new /events streams exit immediately
        # Wake the /events handlers *before* waiting on the server: since
        # 3.12.1 ``Server.wait_closed()`` blocks until every live handler
        # returns, and a stream handler only returns once it has seen the
        # end-of-stream sentinel.  The sentinel must land even on a
        # backed-up queue — shed its oldest items until it fits.
        for queue in tuple(self._watchers):
            while True:
                try:
                    queue.put_nowait(None)  # end-of-stream sentinel
                    break
                except asyncio.QueueFull:
                    try:
                        queue.get_nowait()
                    except asyncio.QueueEmpty:  # pragma: no cover - race
                        pass
        if self._server is not None:
            self._server.close()
            # Idle keep-alive connections would hold ``wait_closed()``
            # (3.12+) until their read deadline; close them and let their
            # handlers see EOF and return, rather than be cancelled when
            # the loop ends.  Busy handlers answer with
            # ``Connection: close`` and return on their own.
            idle = tuple(self._waiting.items())
            for writer, _ in idle:
                writer.close()
            if idle:
                await asyncio.wait([handler for _, handler in idle])
            await self._server.wait_closed()
            self._server = None
        tracer = get_tracer()
        if self._tracer_cb is not None:
            tracer.unsubscribe(self._tracer_cb)
            self._tracer_cb = None
        self._pool.shutdown(wait=True)
        if tracer.enabled:
            tracer.flush()
        if self._store_lock is not None:
            self._store_lock.release()
            self._store_lock = None
        logger.info("serve daemon stopped")

    # -- event fan-out -------------------------------------------------------

    def _publish(self, event: str, payload: Any) -> None:
        item = {"event": event, "payload": payload}
        for queue in tuple(self._watchers):
            try:
                queue.put_nowait(item)
            except asyncio.QueueFull:
                pass  # slow watcher: drop, never stall the scheduler

    async def _stream_events(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closing:
            return
        queue: "asyncio.Queue" = asyncio.Queue(maxsize=_WATCHER_DEPTH)
        self._watchers.add(queue)
        # An SSE client never sends again after the request, so any read
        # completing (normally EOF) means it hung up.  Without this a
        # disconnected watcher parked in ``queue.get()`` is only noticed
        # at the next publish — never, on an idle daemon — and dead
        # handlers pile up in ``self._watchers``.
        hangup = asyncio.ensure_future(reader.read(1))
        getter: "asyncio.Future | None" = None
        try:
            writer.write(sse_preamble())
            writer.write(
                sse_event(await self._info_payload(), event="hello")
            )
            await writer.drain()
            while True:
                getter = asyncio.ensure_future(queue.get())
                done, _ = await asyncio.wait(
                    (getter, hangup), return_when=asyncio.FIRST_COMPLETED
                )
                if hangup in done:
                    break
                item = getter.result()
                getter = None
                if item is None:
                    break
                writer.write(sse_event(item["payload"], event=item["event"]))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._watchers.discard(queue)
            for task in (getter, hangup):
                if task is not None and not task.done():
                    task.cancel()
                    with contextlib.suppress(
                        asyncio.CancelledError, ConnectionError
                    ):
                        await task

    # -- request handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: requests in turn, for as long as the
        client asks for keep-alive and the daemon is not closing."""
        self.metrics.counter("serve.connections").inc()
        try:
            while not self._closing:
                self._waiting[writer] = asyncio.current_task()
                try:
                    request = await asyncio.wait_for(
                        read_request(reader), READ_DEADLINE_S
                    )
                except ServeError as exc:
                    writer.write(json_response(400, {"error": str(exc)}))
                    await writer.drain()
                    return
                except asyncio.TimeoutError:
                    return
                finally:
                    self._waiting.pop(writer, None)
                if request is None:
                    return
                self.metrics.counter("serve.requests").inc()
                if request.method == "GET" and request.path == "/events":
                    await self._stream_events(reader, writer)
                    return
                if request.method == "POST" and request.path == "/shutdown":
                    writer.write(json_response(200, {"ok": True}))
                    await writer.drain()
                    self._stop.set()
                    return
                try:
                    status, payload = await self._dispatch(request)
                except ReproError as exc:
                    self.metrics.counter("serve.errors").inc()
                    status, payload = 400, {"error": str(exc)}
                keep = wants_keep_alive(request.headers) and not self._closing
                writer.write(json_response(status, payload, keep_alive=keep))
                await writer.drain()
                if not keep:
                    return
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request) -> tuple[int, Any]:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return 200, {"ok": True}
        if route == ("GET", "/info"):
            return 200, await self._info_payload()
        if route == ("GET", "/state"):
            return 200, await self._state_payload()
        if route == ("GET", "/decisions"):
            # Like /state: arrivals/departures mutate scheduler state on
            # the worker thread, so live reads must serialize behind the
            # same lock or risk iterating mid-mutation.
            async with self._lock:
                decisions = await self._offload(self._decisions_locked)
            return 200, {"decisions": decisions}
        if route == ("GET", "/cluster"):
            async with self._lock:
                payload = await self._offload(self._cluster_locked)
            return 200, payload
        if route == ("GET", "/metrics"):
            return 200, self._metrics_payload()
        if route == ("POST", "/arrivals"):
            return 200, await self._admit(request.json())
        if route == ("POST", "/departures"):
            return 200, await self._depart(request.json())
        if request.path in (
            "/healthz", "/info", "/state", "/decisions", "/cluster",
            "/metrics", "/arrivals", "/departures", "/shutdown", "/events",
        ):
            return 405, {"error": f"{request.method} not allowed on {request.path}"}
        return 404, {"error": f"no such endpoint {request.path}"}

    # -- endpoint bodies -----------------------------------------------------

    async def _offload(self, fn, *args):
        """Run one scheduler call on the single worker thread — the
        event loop stays responsive through engine-priced evaluations."""
        assert self._loop is not None
        return await self._loop.run_in_executor(self._pool, fn, *args)

    async def _info_payload(self) -> dict[str, Any]:
        sched = self.scheduler
        return {
            "policy": sched.policy.name,
            "slo": sched.slo,
            "machines": [m.name for m in sched.cluster],
            "total_slots": sched.cluster.total_slots,
            "replan": sched.replan,
            "budget_s": self.budget_s,
            "store": (
                str(self.session.store.root)
                if self.session.store is not None
                else None
            ),
        }

    async def _state_payload(self) -> dict[str, Any]:
        async with self._lock:
            rates, homes, used = await self._offload(self._state_locked)
        return {"rates": rates, "homes": homes, "used_slots": used}

    def _decisions_locked(self):
        return [d.payload() for d in self.scheduler.decisions]

    def _cluster_locked(self):
        cluster = self.scheduler.cluster
        return {
            "cluster": cluster.payload(),
            "total_slots": cluster.total_slots,
            "used_slots": cluster.used_slots,
        }

    def _state_locked(self):
        rates: dict[str, float] = {}
        homes: dict[str, str] = {}
        occupied = [m for m in self.scheduler.cluster if m.tenants]
        all_slowdowns = self.evaluator.slowdowns_many(
            [(m.spec, m.placements()) for m in occupied]
        )
        for machine, slowdowns in zip(occupied, all_slowdowns):
            for tid, s in zip(tuple(machine.tenants), slowdowns):
                rates[tid] = s
                homes[tid] = machine.name
        return rates, homes, self.scheduler.cluster.used_slots

    def _metrics_payload(self) -> dict[str, Any]:
        lats = self.latencies
        tracer = get_tracer()
        return {
            "serve": self.metrics.snapshot(),
            "tracer": tracer.metrics.snapshot() if tracer.enabled else None,
            # The session's cache counters: a warm daemon shows zero
            # *_misses here, proving admissions never touched the engine.
            "cache": self.session.stats.snapshot(),
            # Percentiles cover the retained window (the last
            # _LATENCY_WINDOW admissions); serve.arrivals has the
            # lifetime total.
            "admission_latency": {
                "count": len(lats),
                "window": _LATENCY_WINDOW,
                "p50_s": percentile(lats, 0.50),
                "p95_s": percentile(lats, 0.95),
                "max_s": max(lats) if lats else 0.0,
                "budget_s": self.budget_s,
                "over_budget": self.metrics.counter(
                    "serve.budget_misses"
                ).value,
            },
        }

    @staticmethod
    def _field(body: dict, key: str, kind, *, default=None):
        if key not in body:
            if default is not None:
                return default
            raise ServeError(f"arrival/departure body needs {key!r}")
        try:
            value = kind(body[key])
        except (TypeError, ValueError, OverflowError):  # int(inf) overflows
            raise ServeError(
                f"bad value for {key!r}: {body[key]!r}"
            ) from None
        if kind is float and not math.isfinite(value):
            raise ServeError(f"{key!r} must be finite, got {body[key]!r}")
        return value

    async def _admit(self, body: Any) -> dict[str, Any]:
        if not isinstance(body, dict):
            raise ServeError("POST /arrivals needs a JSON object body")
        tenant = Tenant(
            tenant=self._field(body, "tenant", str),
            workload=self._field(body, "workload", str),
            threads=self._field(body, "threads", int),
            solo_s=self._field(body, "solo_s", float, default=1.0),
            arrival_s=self._field(body, "time_s", float, default=0.0),
        )
        time_s = self._field(body, "time_s", float, default=0.0)
        budget = (
            _positive_budget(self._field(body, "budget_s", float))
            if "budget_s" in body
            else self.budget_s
        )
        async with self._lock:
            t0 = time.perf_counter()
            decision = await self._offload(
                lambda: self.scheduler.arrival(tenant, time_s=time_s)
            )
            latency = time.perf_counter() - t0
        self.latencies.append(latency)
        self.metrics.histogram("serve.admission_latency_s").observe(latency)
        self.metrics.counter("serve.arrivals").inc()
        self.metrics.counter(
            "serve.admitted" if decision.admitted else "serve.rejected"
        ).inc()
        within = None
        if budget is not None:
            within = latency <= budget
            if not within:
                self.metrics.counter("serve.budget_misses").inc()
        payload = decision.payload()
        self._publish("decision", payload)
        return {
            "decision": payload,
            "latency_s": latency,
            "budget_s": budget,
            "within_budget": within,
        }

    async def _depart(self, body: Any) -> dict[str, Any]:
        if not isinstance(body, dict):
            raise ServeError("POST /departures needs a JSON object body")
        tenant_id = self._field(body, "tenant", str)
        time_s = self._field(body, "time_s", float, default=0.0)
        async with self._lock:
            mark = len(self.scheduler.decisions)
            await self._offload(
                lambda: self.scheduler.departure(tenant_id, time_s=time_s)
            )
            replans = [
                d.payload() for d in self.scheduler.decisions[mark:]
            ]
        self.metrics.counter("serve.departures").inc()
        self.metrics.counter("serve.replans").inc(len(replans))
        for payload in replans:
            self._publish("replan", payload)
        return {"ok": True, "tenant": tenant_id, "replans": replans}
