"""Async client for the scheduler daemon's JSON API.

One :class:`ServeClient` method per endpoint.  Calls ask for
``Connection: keep-alive``, and a client keeps at most one idle
connection per running event loop, so the drain's sequential replay
loop sends every request over one connection instead of setting one up
per request; :meth:`ServeClient.aclose` (or leaving ``async with``)
closes it.  The daemon closes an idle connection at its read deadline
and at shutdown; a call that finds its reused connection closed before
any response retries once on a fresh one (the daemon never read the
request).  Concurrent calls each get their own connection, and only one
goes back to idle.  Responses come back as parsed JSON; non-2xx
statuses raise :class:`~repro.errors.ServeError` carrying the daemon's
``error`` message.  :meth:`events` holds its own connection open and
yields Server-Sent Events as the daemon publishes them.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, AsyncIterator

from repro.errors import ServeError
from repro.serve.http import (
    _read_head,
    read_response,
    request_bytes,
    wants_keep_alive,
)

__all__ = ["ServeClient"]

#: One connection to the daemon.
_Conn = tuple[asyncio.StreamReader, asyncio.StreamWriter]


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _exchange(
    conn: _Conn, request: bytes
) -> "tuple[int, dict[str, str], bytes] | None":
    """One request and its response on ``conn``; ``None`` (and ``conn``
    closed) when the peer closed or reset the connection before a status
    line.  Any failure closes ``conn``."""
    reader, writer = conn
    try:
        try:
            writer.write(request)
            await writer.drain()
        except ConnectionError:
            response = None
        else:
            response = await read_response(reader)
    except BaseException:
        writer.close()
        raise
    if response is None:
        writer.close()
    return response


class ServeClient:
    """Talk to one ``repro serve start`` daemon."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7453, *, timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Event loop -> its one idle keep-alive connection.  Single
        #: ``pop``/``setdefault`` calls take and return connections, so
        #: concurrent calls never share one.
        self._idle: "dict[asyncio.AbstractEventLoop, _Conn]" = {}

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def aclose(self) -> None:
        """Close the idle connection kept for the running event loop."""
        conn = self._idle.pop(asyncio.get_running_loop(), None)
        if conn is not None:
            await _close(conn[1])

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # -- plumbing ------------------------------------------------------------

    async def _request(
        self, method: str, path: str, payload: Any = None
    ) -> Any:
        try:
            return await asyncio.wait_for(
                self._request_once(method, path, payload), self.timeout
            )
        except asyncio.TimeoutError:
            raise ServeError(
                f"{method} {path} timed out after {self.timeout}s "
                f"against {self.url}"
            ) from None
        except (ConnectionError, OSError) as exc:
            raise ServeError(
                f"cannot reach daemon at {self.url}: {exc}"
            ) from None

    def _take_idle(self, loop: asyncio.AbstractEventLoop) -> "_Conn | None":
        """This loop's idle connection, unless the daemon already closed
        it.  Connections left by loops that have finished are dropped;
        their sockets close when they are collected."""
        for other in list(self._idle):
            if other.is_closed():
                self._idle.pop(other, None)
        conn = self._idle.pop(loop, None)
        if conn is not None and conn[0].at_eof():
            conn[1].close()
            return None
        return conn

    async def _request_once(
        self, method: str, path: str, payload: Any
    ) -> Any:
        request = request_bytes(
            method, path, payload, host=f"{self.host}:{self.port}"
        )
        loop = asyncio.get_running_loop()
        conn = self._take_idle(loop)
        # A reused connection the daemon closed while it sat idle never
        # delivered the request, so sending it again on a fresh one is safe.
        response = None if conn is None else await _exchange(conn, request)
        if response is None:
            conn = await asyncio.open_connection(self.host, self.port)
            response = await _exchange(conn, request)
            if response is None:
                raise ServeError("connection closed before any response")
        status, headers, body = response
        # Park the connection for this loop's next call, unless the
        # daemon is closing it or a concurrent call parked one first.
        parked = wants_keep_alive(headers) and self._idle.setdefault(loop, conn) is conn
        if not parked:
            await _close(conn[1])
        data = json.loads(body) if body else None
        if status >= 400:
            message = (
                data.get("error") if isinstance(data, dict) else None
            ) or f"HTTP {status}"
            raise ServeError(f"{method} {path}: {message}")
        return data

    # -- endpoints -----------------------------------------------------------

    async def healthz(self) -> dict:
        return await self._request("GET", "/healthz")

    async def info(self) -> dict:
        return await self._request("GET", "/info")

    async def state(self) -> dict:
        return await self._request("GET", "/state")

    async def decisions(self) -> dict:
        return await self._request("GET", "/decisions")

    async def cluster(self) -> dict:
        return await self._request("GET", "/cluster")

    async def metrics(self) -> dict:
        return await self._request("GET", "/metrics")

    async def arrival(
        self,
        *,
        tenant: str,
        workload: str,
        threads: int,
        solo_s: float = 1.0,
        time_s: float = 0.0,
        budget_s: "float | None" = None,
    ) -> dict:
        """Submit one arrival; the response carries the serialized
        decision, the observed admission latency, and — when a budget
        applies — whether the latency stayed within it."""
        body: dict[str, Any] = {
            "tenant": tenant,
            "workload": workload,
            "threads": threads,
            "solo_s": solo_s,
            "time_s": time_s,
        }
        if budget_s is not None:
            body["budget_s"] = budget_s
        return await self._request("POST", "/arrivals", body)

    async def departure(self, tenant: str, time_s: float = 0.0) -> dict:
        """Evict one tenant; the response lists any re-plan actions the
        departure triggered."""
        return await self._request(
            "POST", "/departures", {"tenant": tenant, "time_s": time_s}
        )

    async def shutdown(self) -> dict:
        return await self._request("POST", "/shutdown")

    async def wait_ready(self, timeout: float = 15.0) -> dict:
        """Poll ``/healthz`` until the daemon answers (e.g. right after
        spawning it as a subprocess)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                # Bounded by the time left: a listener that accepts and
                # never answers must not hold the caller past ``timeout``.
                return await asyncio.wait_for(
                    self._request_once("GET", "/healthz", None),
                    max(deadline - time.monotonic(), 0.0),
                )
            except (OSError, asyncio.TimeoutError, ServeError):
                if time.monotonic() >= deadline:
                    raise ServeError(
                        f"daemon at {self.url} not ready after {timeout}s"
                    ) from None
                await asyncio.sleep(0.05)

    # -- streaming -----------------------------------------------------------

    async def events(self) -> AsyncIterator[dict]:
        """Yield ``{"event": name, "data": payload}`` from ``GET /events``
        until the daemon closes the stream (its shutdown) or the caller
        breaks out of the loop (which hangs up)."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(
                request_bytes(
                    "GET", "/events", host=f"{self.host}:{self.port}"
                )
            )
            await writer.drain()
            head = await _read_head(reader)
            if head is None or " 200 " not in head[0] + " ":
                raise ServeError(
                    f"event stream refused: {head[0] if head else 'closed'}"
                )
            event_name = None
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith("event:"):
                    event_name = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    yield {
                        "event": event_name,
                        "data": json.loads(line[len("data:"):].strip()),
                    }
                elif not line:
                    event_name = None
        finally:
            await _close(writer)
