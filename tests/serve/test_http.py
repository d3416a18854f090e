"""Tests for the stdlib HTTP/1.1 + SSE layer the service tier rides."""

import asyncio
import json

import pytest

from repro.errors import ServeError
from repro.serve.http import (
    MAX_HEADERS,
    Request,
    json_response,
    read_request,
    read_response,
    request_bytes,
    response_bytes,
    sse_event,
    sse_preamble,
    wants_keep_alive,
)


async def _feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    if data:
        reader.feed_data(data)
    reader.feed_eof()
    return reader


def parse_request(data: bytes):
    async def go():
        return await read_request(await _feed(data))

    return asyncio.run(go())


def parse_response(data: bytes):
    async def go():
        return await read_response(await _feed(data))

    return asyncio.run(go())


class TestReadRequest:
    def test_full_request(self):
        body = json.dumps({"tenant": "t0"}).encode()
        raw = (
            b"POST /arrivals?x=1&y=two HTTP/1.1\r\n"
            b"Host: h\r\nContent-Length: " + str(len(body)).encode() + b"\r\n"
            b"Connection: close\r\n\r\n" + body
        )
        req = parse_request(raw)
        assert req.method == "POST"
        assert req.path == "/arrivals"
        assert req.query == {"x": "1", "y": "two"}
        assert req.headers["host"] == "h"
        assert req.json() == {"tenant": "t0"}

    def test_closed_before_sending_is_none(self):
        assert parse_request(b"") is None

    def test_get_without_body(self):
        req = parse_request(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert req.method == "GET"
        assert req.body == b""
        assert req.json() is None

    def test_malformed_request_line(self):
        with pytest.raises(ServeError, match="request line"):
            parse_request(b"NONSENSE\r\n\r\n")

    def test_malformed_header(self):
        with pytest.raises(ServeError, match="header"):
            parse_request(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")

    def test_truncated_body(self):
        with pytest.raises(ServeError, match="mid-body"):
            parse_request(
                b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"
            )

    def test_malformed_content_length(self):
        for value in (b"abc", b"-1", b"1.5", b"0x10", b"\xd9\xa3"):
            with pytest.raises(ServeError, match="content-length"):
                parse_request(
                    b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n{}"
                )
        with pytest.raises(ServeError, match="content-length"):
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}")

    def test_header_line_cap(self):
        def head(n):
            return b"GET / HTTP/1.1\r\n" + b"X: v\r\n" * n + b"\r\n"

        assert len(parse_request(head(MAX_HEADERS)).headers) == 1  # one name
        with pytest.raises(ServeError, match="header lines"):
            parse_request(head(MAX_HEADERS + 1))

    def test_oversized_content_length(self):
        with pytest.raises(ServeError, match="unreasonable"):
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n")

    def test_bad_json_body_raises_on_decode(self):
        for body in (b"nope", b"\x80abc"):  # not JSON; not even UTF-8
            req = parse_request(
                b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n" + body
            )
            with pytest.raises(ServeError, match="JSON"):
                req.json()

    def test_reset_before_a_start_line_reads_as_closed(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.set_exception(ConnectionResetError())
            return await read_request(reader), await read_response(reader)

        assert asyncio.run(go()) == (None, None)


class TestRoundTrips:
    def test_request_bytes_parse_back(self):
        raw = request_bytes("POST", "/departures", {"tenant": "a", "time_s": 1.5})
        req = parse_request(raw)
        assert req.method == "POST"
        assert req.path == "/departures"
        assert req.json() == {"tenant": "a", "time_s": 1.5}

    def test_json_response_parse_back_canonical(self):
        status, headers, body = parse_response(
            json_response(200, {"b": 2, "a": 1})
        )
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert body == b'{"a": 1, "b": 2}'

    def test_float_exactness_through_the_wire(self):
        # The determinism contract: every float a decision carries must
        # survive serialize/parse bit for bit.
        values = [1.2801456789012345, 0.1 + 0.2, 1e-9, 123456.789012345]
        _, _, body = parse_response(json_response(200, values))
        assert json.loads(body) == values

    def test_error_statuses_carry_reason(self):
        raw = response_bytes(404, b"{}")
        assert raw.startswith(b"HTTP/1.1 404 Not Found\r\n")
        status, _, _ = parse_response(raw)
        assert status == 404

    def test_malformed_status_line(self):
        with pytest.raises(ServeError, match="status line"):
            parse_response(b"GARBAGE\r\n\r\n")

    def test_closed_before_a_status_line_is_none(self):
        assert parse_response(b"") is None


class TestConnectionHeader:
    def test_keep_alive_only_when_asked(self):
        assert wants_keep_alive({"connection": "keep-alive"})
        assert wants_keep_alive({"connection": "Upgrade, Keep-Alive"})
        assert not wants_keep_alive({"connection": "close"})
        assert not wants_keep_alive({})

    def test_every_response_states_it(self):
        for keep, word in ((True, "keep-alive"), (False, "close")):
            _, headers, _ = parse_response(json_response(200, {}, keep_alive=keep))
            assert headers["connection"] == word
        assert b"Connection: close\r\n" in response_bytes(400)

    def test_client_requests_ask_for_keep_alive(self):
        request = parse_request(request_bytes("GET", "/healthz"))
        assert wants_keep_alive(request.headers)


class TestSse:
    def test_preamble_is_event_stream_without_length(self):
        head = sse_preamble()
        assert b"text/event-stream" in head
        assert b"Content-Length" not in head

    def test_event_frame(self):
        frame = sse_event({"a": 1}, event="decision")
        assert frame == b'event: decision\ndata: {"a": 1}\n\n'
        assert sse_event([1, 2]) == b"data: [1, 2]\n\n"


class TestRequestDataclass:
    def test_defaults(self):
        req = Request(method="GET", path="/x")
        assert req.query == {} and req.headers == {} and req.body == b""
