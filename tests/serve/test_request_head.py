"""The daemon's request-head parse, with the stdlib's as the oracle.

``_RequestHandler.parse_request`` reads the request head without
``http.client``'s email parser.  Each raw head below goes through it
and through ``BaseHTTPRequestHandler.parse_request`` (at HTTP/1.1), and
both must agree on accept/reject, every byte of any reply but its
``Date`` header, ``close_connection``, the command, path and version,
and ``.get()`` of every header the daemon reads and of a few it does
not.  The corpus holds only heads that the stdlibs of Python 3.10.13,
3.11.2, 3.11.7, 3.12 and 3.13 all answer alike (3.10's error page has
another HTML template, which both parsers send).  The cases where the
daemon is stricter are pinned separately, and one live daemon answers
400 and 431 to bad heads and keeps serving new connections.  Each
error reply is counted and access-logged like every other answer.
"""

from __future__ import annotations

import io
import re
import socket
import sys
import time
import types
from http.server import BaseHTTPRequestHandler

import pytest

from repro.perf.registry import get_registry
from repro.serve.server import _RequestHandler
from tests.serve.conftest import daemon

#: The headers the daemon reads, as a client might spell them, then
#: some it does not read.
NAMES = ("traceparent", "X-Request-Id", "X-Deadline-Ms", "Connection",
         "Expect", "Host", "Accept-Encoding", "X-Empty", "User-Agent")

_TRACEPARENT = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"


class _Stdlib(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = _RequestHandler.server_version

    def log_message(self, format, *args):
        pass


def _parse(cls, raw: bytes) -> dict:
    """Run *raw* through ``cls.parse_request``; what a client can see
    (the reply but its ``Date`` header, the parsed request, and the
    bytes left unread)."""
    handler = cls.__new__(cls)
    handler.server = types.SimpleNamespace(access_log=None)
    handler.rfile = io.BytesIO(raw)
    handler.wfile = io.BytesIO()
    handler.raw_requestline = handler.rfile.readline(65537)
    ok = handler.parse_request()
    seen = {
        "ok": ok,
        "reply": re.sub(rb"Date: [^\r]*\r\n", b"", handler.wfile.getvalue()),
        "close": handler.close_connection,
        "command": handler.command,
        "rest": handler.rfile.read(),
    }
    if ok:
        seen["path"] = handler.path
        seen["version"] = handler.request_version
        for name in NAMES:
            for spelling in (name, name.lower(), name.upper()):
                seen[spelling] = handler.headers.get(spelling)
    return seen


def _head(*lines: str, end: str = "\r\n") -> bytes:
    return "".join(line + end for line in lines).encode("latin-1")


CORPUS = {
    "keep-alive GET": _head("GET /vertex/1 HTTP/1.1", "Host: x", ""),
    "daemon headers": _head(
        "GET /edge/2 HTTP/1.1", "Host: x", f"traceparent: {_TRACEPARENT}",
        "X-Request-Id: req-7", "X-Deadline-Ms: 250", ""),
    "HTTP/1.0": _head("GET /snapshot HTTP/1.0", ""),
    "HTTP/1.0 keep-alive": _head(
        "GET /snapshot HTTP/1.0", "Connection: keep-alive", ""),
    "close": _head("GET / HTTP/1.1", "Connection: close", ""),
    "CLOSE upper case": _head("GET / HTTP/1.1", "CONNECTION: CLOSE", ""),
    "Keep-Alive mixed case": _head(
        "GET / HTTP/1.1", "connection: Keep-Alive", ""),
    "HTTP/1.0 close": _head("GET / HTTP/1.0", "Connection: close", ""),
    "duplicates first wins": _head(
        "GET / HTTP/1.1", "x-request-id: first", "X-REQUEST-ID: second",
        "Connection: close", "connection: keep-alive", ""),
    "leading value whitespace": _head(
        "GET / HTTP/1.1", "X-Request-Id: \t  spaced", "X-Deadline-Ms:9", ""),
    "other headers": _head(
        "GET / HTTP/1.1", "Accept-Encoding: identity", "X-Empty:",
        "User-Agent: a b c", ""),
    "HTTP/1.x": _head("GET / HTTP/1.x", ""),
    "HTTP/1.1.1": _head("GET / HTTP/1.1.1", ""),
    "not HTTP": _head("GET / FTP/1.1", ""),
    "superscript digit": _head("GET / HTTP/1.\xb2", ""),
    "leading zeros": _head("GET / HTTP/001.001", ""),
    "HTTP/1.10": _head("GET / HTTP/1.10", ""),
    "HTTP/2.0": _head("GET / HTTP/2.0", ""),
    "HTTP/0.9 GET": _head("GET /", ""),
    "HTTP/0.9 POST": _head("POST /", ""),
    "one word": _head("GET", ""),
    "four words": _head("GET / x HTTP/1.1", ""),
    "blank request line": _head(""),
    "double slash": _head("GET //vertex/1 HTTP/1.1", ""),
    "many slashes": _head("GET ////edge/0?x=1 HTTP/1.1", ""),
    "99 header lines": _head(
        "GET / HTTP/1.1", *[f"X-H{i}: v" for i in range(99)], ""),
    "100 header lines": _head(
        "GET / HTTP/1.1", *[f"X-H{i}: v" for i in range(100)], ""),
    "101 header lines": _head(
        "GET / HTTP/1.1", *[f"X-H{i}: v" for i in range(101)], ""),
    "65,536-byte line": _head(
        "GET / HTTP/1.1", "X-Pad: " + "a" * (65536 - 9), ""),
    "65,537-byte line": _head(
        "GET / HTTP/1.1", "X-Pad: " + "a" * (65537 - 9), ""),
    "LF-only line ends": _head(
        "GET /vertex/0 HTTP/1.1", "Host: x", "X-Request-Id: lf",
        "Connection: close", "", end="\n"),
    "EOF inside the head": _head(
        "GET /vertex/0 HTTP/1.1", "X-Request-Id: cut"),
    "EOF right after the request line": _head("GET /vertex/0 HTTP/1.1"),
    "expect 100-continue": _head(
        "GET / HTTP/1.1", "Expect: 100-Continue", ""),
    "expect on HTTP/1.0": _head("GET / HTTP/1.0", "Expect: 100-continue", ""),
    "latin-1 value": _head("GET / HTTP/1.1", "X-Request-Id: caf\xe9", ""),
}


@pytest.mark.parametrize("raw", CORPUS.values(), ids=CORPUS.keys())
def test_matches_the_stdlib(raw):
    assert _parse(_RequestHandler, raw) == _parse(_Stdlib, raw)


def test_corpus_covers_accept_and_every_reject():
    seen = [_parse(_Stdlib, raw) for raw in CORPUS.values()]
    assert any(s["ok"] and not s["close"] for s in seen)
    assert any(s["ok"] and s["close"] for s in seen)
    replies = b"".join(s["reply"] for s in seen)
    for mark in (b"HTTP/1.1 100 Continue", b"Error code: 400",
                 b"Error code: 431", b"Error code: 505"):
        assert mark in replies, mark


@pytest.mark.parametrize("line", [
    "not a header",
    "X-Request-Id : spaced name",
    "X Request Id: space in name",
    "X-Request-Id: bare\rCR",
])
def test_a_line_that_is_not_one_field_is_400(line):
    """The stdlib drops this line and the rest of the head (a bare CR
    ends a line for it); the daemon answers 400 rather than act on a
    head it read only in part.  It answers once the head is read to
    its blank line, so the next request is all that is left unread."""
    following = b"GET /vertex/0 HTTP/1.1\r\n\r\n"
    raw = _head("GET / HTTP/1.1", line, "X-Request-Id: after", "")
    ours = _parse(_RequestHandler, raw + following)
    assert not ours["ok"]
    assert ours["reply"].startswith(b"HTTP/1.1 400 Bad header line")
    assert ours["close"]
    assert ours["rest"] == following
    stdlib = _parse(_Stdlib, raw)
    assert stdlib["ok"] and stdlib["X-Request-Id"] != "after"


@pytest.mark.parametrize("version", [
    "HTTP/1.00000000001", "HTTP/+1.1", "HTTP/1.-1", "HTTP/1_1.1",
])
def test_a_version_number_that_is_not_ascii_digits_is_400(version):
    """The stdlib of Python 3.11.7 and later answers 400 too; that of
    3.10.13 and 3.11.2 reads these as 1.1, 1.1, 1.-1 and 11.1 (a 505)."""
    ours = _parse(_RequestHandler, _head(f"GET / {version}", ""))
    assert not ours["ok"] and ours["close"]
    # As from the stdlib, an error before the version is read gets the
    # HTTP/0.9 form: the body alone, no status line.
    assert b"Error code: 400" in ours["reply"]
    assert b"Bad request version" in ours["reply"]


def test_a_field_with_no_name_is_400():
    raw = _head("GET / HTTP/1.1", ": no name", "")
    ours = _parse(_RequestHandler, raw)
    assert ours["reply"].startswith(b"HTTP/1.1 400 Bad header line")
    assert _parse(_Stdlib, raw)["ok"]  # an empty-named header to it


def test_obs_fold_continuation_is_400():
    raw = _head("GET / HTTP/1.1", "X-Request-Id: first", "\tpart", "")
    ours = _parse(_RequestHandler, raw)
    assert not ours["ok"]
    assert ours["reply"].startswith(b"HTTP/1.1 400 Bad header line")
    stdlib = _parse(_Stdlib, raw)
    assert stdlib["ok"] and stdlib["X-Request-Id"] == "first\r\n\tpart"


def test_whitespace_around_a_value_is_stripped():
    raw = _head("GET / HTTP/1.1", "X-Request-Id:  r1 \t",
                "Connection: close ", "")
    ours = _parse(_RequestHandler, raw)
    assert ours["X-Request-Id"] == "r1" and ours["Connection"] == "close"
    assert ours["close"]
    stdlib = _parse(_Stdlib, raw)
    assert stdlib["X-Request-Id"] == "r1 \t"
    assert stdlib["Connection"] == "close " and not stdlib["close"]


#: Linux's ``tcpi_state`` for a socket whose peer closed with FIN.
_TCP_CLOSE_WAIT = 8


def _exchange(port: int, raw: bytes) -> bytes:
    """Send *raw* on a new connection; everything read until EOF.

    On Linux, also require that the daemon closed with FIN alone.  A
    close with bytes of *raw* unread makes its kernel send RST, which
    can reach a client before the answer does; here it would move this
    socket from CLOSE_WAIT to CLOSE.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
        if sys.platform == "linux":
            time.sleep(0.1)  # an RST follows the FIN closely
            state = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_INFO, 1)
            assert state[0] == _TCP_CLOSE_WAIT, "closed with RST"
    return b"".join(chunks)


def test_live_daemon_answers_400_after_reading_the_head():
    # Past the bad line the head runs on for 40 KB, more than the
    # handler's read buffer holds, so answering before the blank line
    # would close with bytes unread (see _exchange).
    raw = _head(
        "GET /vertex/0 HTTP/1.1", "not a header",
        *[f"X-Pad{i}: " + "a" * 1000 for i in range(40)], "")
    with daemon(target_states=8, grow_step=8) as d:
        d.wait_ready()
        for _ in range(3):
            reply = _exchange(d.port, raw)
            assert reply.startswith(b"HTTP/1.1 400 Bad header line"), \
                reply[:80]
            assert b"\r\nConnection: close\r\n" in reply
            assert d.request("/vertex/0")[0] == 200
    assert d.exit_code == 0


def test_live_daemon_answers_431_and_keeps_serving():
    # Neither head has its blank line: the daemon has read every byte
    # sent when it answers, so it closes with FIN, not RST (the stdlib,
    # at the same bounds, would leave a blank line unread).
    heads = {
        "101 header lines": _head(
            "GET /vertex/0 HTTP/1.1",
            *[f"X-H{i}: v" for i in range(101)]),
        "65,537-byte line": _head(
            "GET /vertex/0 HTTP/1.1", "X-Pad: " + "a" * (65537 - 9)),
    }
    with daemon(target_states=8, grow_step=8) as d:
        d.wait_ready()
        for name, raw in heads.items():
            reply = _exchange(d.port, raw)
            assert reply.startswith(b"HTTP/1.1 431 "), (name, reply[:80])
            assert b"\r\nConnection: close\r\n" in reply, name
            assert d.request("/vertex/0")[0] == 200, name
    assert d.exit_code == 0


#: One head per error status the daemon sends while reading a request,
#: each read to its last byte (see ``_exchange``), and the path its
#: access-log line names.
HEAD_ERRORS = {
    400: (b"GET /vertex/0 HTTP/x.1\r\n", ""),
    414: (b"GET /" + b"a" * (65537 - 5), ""),
    431: (_head("GET /vertex/0 HTTP/1.1",
                *[f"X-H{i}: v" for i in range(101)]), "/vertex/0"),
    505: (b"GET /vertex/0 HTTP/2.0\r\n", ""),
}


@pytest.mark.parametrize("status", HEAD_ERRORS)
def test_live_daemon_counts_and_logs_head_errors(tmp_path, status):
    import json

    raw, path = HEAD_ERRORS[status]
    log = tmp_path / "access.jsonl"
    with daemon(target_states=8, grow_step=8, access_log=log) as d:
        d.wait_ready()
        # A request line the daemon cannot read gets the error page
        # alone (HTTP/0.9), as from the stdlib.
        reply = _exchange(d.port, raw)
        assert b"<p>Error code: %d</p>" % status in reply, reply[-200:]
        assert d.request("/vertex/0")[0] == 200
        counters = get_registry().counters()
        assert counters[f"serve.http_{status}_total"] == 1
        assert counters["serve.http_200_total"] >= 1
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    access = [e for e in lines if e["kind"] == "serve_access"]
    errors = [e for e in access if e["status"] == status]
    assert len(errors) == 1
    (error,) = errors
    assert error["outcome"] == "bad_head"
    assert error["path"] == path
    assert error["request_id"] == "" and error["trace_id"] == ""
    # The query after it logs as a query: the error path left no trace.
    assert [e["outcome"] for e in access if e is not error] == ["ok"]
