"""A deliberately small HTTP/1.1 layer over asyncio streams.

The service tier speaks JSON over HTTP, but the container bakes in
nothing beyond the standard library — so instead of gating the daemon
on aiohttp, this module implements the ~5% of HTTP the daemon and its
client actually exchange:

* requests and responses carry ``Content-Length`` bodies (or none);
* a connection carries one request at a time, and stays open for the
  next one only while both ends say ``Connection: keep-alive``: the
  client always asks for it, and every response states ``keep-alive``
  or ``close`` explicitly (see :func:`wants_keep_alive`);
* the single streaming endpoint (``GET /events``) is Server-Sent
  Events: a ``text/event-stream`` response whose body is an unbounded
  sequence of ``event:``/``data:`` frames, terminated by the peer
  closing the connection.

Nothing here knows about schedulers; :mod:`repro.serve.daemon` routes,
:mod:`repro.serve.client` consumes.  Malformed traffic raises
:class:`~repro.errors.ServeError` rather than tearing the loop down.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ServeError

__all__ = [
    "Request",
    "json_response",
    "read_request",
    "read_response",
    "request_bytes",
    "response_bytes",
    "sse_event",
    "sse_preamble",
    "wants_keep_alive",
]

#: Reason phrases for the handful of statuses the daemon emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}

#: Hard cap on request/response bodies (the biggest legitimate payload,
#: a long replay's decision log, is well under 1 MiB).
MAX_BODY = 16 * 1024 * 1024

#: Hard cap on header lines in one head (the daemon's own client sends
#: three); a peer that keeps sending headers gets a 400, not a buffer.
MAX_HEADERS = 100


def wants_keep_alive(headers: dict[str, str]) -> bool:
    """Whether a head asks to keep its connection open: its
    ``Connection`` header lists ``keep-alive``.  Anything else, a
    missing header included, means the connection closes after this
    exchange."""
    tokens = headers.get("connection", "").lower().split(",")
    return "keep-alive" in (t.strip() for t in tokens)


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body decoded as JSON (``None`` for an empty body)."""
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ServeError(f"request body is not valid JSON: {exc}") from None


async def _read_head(reader: asyncio.StreamReader) -> "list[str] | None":
    """Start-line + header lines, or ``None`` when the peer closed or
    reset the connection before sending a start line."""
    lines: list[str] = []
    while True:
        try:
            raw = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise ServeError("oversized header line") from None
        except ConnectionError:
            if lines:
                raise
            return None
        if not raw:
            if lines:
                raise ServeError("connection closed mid-headers")
            return None
        line = raw.decode("latin-1").rstrip("\r\n")
        if not line:
            return lines
        if len(lines) > MAX_HEADERS:  # the start line plus MAX_HEADERS
            raise ServeError(f"more than {MAX_HEADERS} header lines")
        lines.append(line)


def _parse_headers(lines: "list[str]") -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise ServeError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


async def _read_body(
    reader: asyncio.StreamReader, headers: dict[str, str]
) -> bytes:
    raw = headers.get("content-length", "0") or "0"
    if not (raw.isascii() and raw.isdigit()):
        raise ServeError(f"malformed content-length {raw!r}")
    length = int(raw)
    if length > MAX_BODY:
        raise ServeError(f"unreasonable content-length {length}")
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ServeError("connection closed mid-body") from None


async def read_request(reader: asyncio.StreamReader) -> "Request | None":
    """Parse one request; ``None`` when the peer closed (or reset) the
    connection before sending one."""
    head = await _read_head(reader)
    if head is None:
        return None
    parts = head[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ServeError(f"malformed request line {head[0]!r}")
    method, target, _ = parts
    split = urlsplit(target)
    headers = _parse_headers(head[1:])
    body = await _read_body(reader, headers)
    return Request(
        method=method.upper(),
        path=split.path or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    keep_alive: bool = False,
) -> bytes:
    """One complete response; its ``Connection`` header says whether
    the daemon keeps the connection open for another request."""
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def json_response(status: int, payload: Any, *, keep_alive: bool = False) -> bytes:
    """A canonical-JSON response: ``sort_keys`` so responses for equal
    payloads are byte-identical (the drain's determinism contract rides
    on JSON's exact float round-trip)."""
    return response_bytes(
        status,
        json.dumps(payload, sort_keys=True).encode("utf-8"),
        keep_alive=keep_alive,
    )


def request_bytes(
    method: str, path: str, payload: Any = None, *, host: str = "daemon"
) -> bytes:
    """One complete client request (JSON body when ``payload`` given)
    that asks to keep the connection open."""
    body = (
        json.dumps(payload, sort_keys=True).encode("utf-8")
        if payload is not None
        else b""
    )
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def read_response(
    reader: asyncio.StreamReader,
) -> "tuple[int, dict[str, str], bytes] | None":
    """Parse one response: ``(status, headers, body)``, or ``None`` when
    the peer closed (or reset) the connection before a status line."""
    head = await _read_head(reader)
    if head is None:
        return None
    parts = head[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ServeError(f"malformed status line {head[0]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise ServeError(f"malformed status line {head[0]!r}") from None
    headers = _parse_headers(head[1:])
    body = await _read_body(reader, headers)
    return status, headers, body


# -- server-sent events ------------------------------------------------------


def sse_preamble() -> bytes:
    """Response head opening an event stream (no Content-Length — the
    body ends when the connection does)."""
    return (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Cache-Control: no-store\r\n"
        b"Connection: close\r\n\r\n"
    )


def sse_event(payload: Any, *, event: "str | None" = None) -> bytes:
    """One SSE frame: optional ``event:`` name plus a JSON ``data:`` line."""
    data = json.dumps(payload, sort_keys=True)
    frame = f"event: {event}\n" if event else ""
    return (frame + f"data: {data}\n\n").encode("utf-8")
