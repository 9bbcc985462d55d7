"""The HTTP/1.1 subset both ends speak: the server's reading of request heads
(pinned by a table and by random bytes), the client's reading of reply
shapes from a socket stub, and an import tree free of the stdlib's HTTP."""

import contextlib
import json
import logging
import os
import random
import re
import socket
import subprocess
import sys
import threading
import urllib.parse
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from restcipher import ResourceClient, parse_xml, serve
from restcipher.errors import Transport
from restcipher.keyxchg import Connection, http_get, http_post

from conftest import XML1

SERVER_BOUNDS = {"symbol_type": (63, 63)}

#: sent after each table case on the same connection: answered only if the
#: case's request leaves the connection open
FOLLOW_UP = b"GET /nobody HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
#: the reply to ``FOLLOW_UP``, and to any GET or POST of the unknown peer
NO_SESSION = ("HTTP/1.1 409 Conflict", "no session key")

IMF_FIXDATE = re.compile(r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
                         r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
                         r"\d\d:\d\d:\d\d GMT")


def _fields(count: int) -> bytes:
    return b"".join(b"X-%d: %d\r\n" % (n, n) for n in range(count))


def _bad(detail: str) -> tuple:
    return ("HTTP/1.1 400 Bad Request", f"error: BadRequest: {detail}")


def _send(url: str, request: bytes) -> bytes:
    """Everything the server sends after ``request`` on a new connection
    whose write side is then shut, up to its closing the connection (a
    reset after a refusal that left the rest of the request unread ends it
    too)."""
    parts = urllib.parse.urlsplit(url)
    reply = b""
    with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass
    return reply


def _replies(raw: bytes) -> list:
    """(status line, header lines, body) of each reply in ``raw``; an
    interim 1xx reply has no header lines and no body."""
    replies = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        status, *headers = head.decode("ascii").split("\r\n")
        assert re.fullmatch(r"HTTP/1\.1 \d\d\d [A-Za-z ]*", status), status
        if status.startswith("HTTP/1.1 1"):
            assert headers == []
            replies.append((status, headers, ""))
            continue
        assert "Content-Type: text/plain" in headers
        length = int(next(h.split(":")[1] for h in headers if h.startswith("Content-Length:")))
        body, raw = raw[:length], raw[length:]
        replies.append((status, headers, body.decode("ascii")))
    return replies


# Each case's replies were recorded at the stdlib's server (http.server), but
# for the cases marked "RFC 9112", where that server answered the request
# and a 400 is now given: a field line with whitespace before its colon
# (§5.1), an obs-fold (§5.2), a line that is no field line (§5), two
# Content-Length lines (§6.3), an HTTP/1.1 request with no Host line or two
# (§3.2), and a request line with no HTTP version, which that server
# answered as HTTP/0.9 with a body and no status line.  One blank line
# before a request line is now skipped (§2.2), where that server closed the
# connection with no reply.
# That server also answered a Content-Length too large to allocate with a
# 500 MemoryError; a body cut short by end of file now gets no reply.
HEADS = {
    "http-1.1": (b"GET /nobody HTTP/1.1\r\nHost: x\r\n\r\n", [NO_SESSION, NO_SESSION]),
    "http-1.0": (b"GET /nobody HTTP/1.0\r\nHost: x\r\n\r\n", [NO_SESSION]),
    "http-1.0-keep-alive": (b"GET /nobody HTTP/1.0\r\nHost: x\r\nConnection: keep-alive\r\n\r\n",
                            [NO_SESSION, NO_SESSION]),
    "connection-close": (b"GET /nobody HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
                         [NO_SESSION]),
    "bare-lf": (b"GET /nobody HTTP/1.1\nHost: x\n\n", [NO_SESSION, NO_SESSION]),
    "99-header-lines": (b"GET /nobody HTTP/1.1\r\nHost: x\r\n" + _fields(98) + b"\r\n",
                        [NO_SESSION, NO_SESSION]),
    "100-header-lines": (b"GET /nobody HTTP/1.1\r\nHost: x\r\n" + _fields(99) + b"\r\n",
                         [_bad("Too many headers")]),
    "101-header-lines": (b"GET /nobody HTTP/1.1\r\nHost: x\r\n" + _fields(100) + b"\r\n",
                         [_bad("Too many headers")]),
    "70kB-header-line": (b"GET /nobody HTTP/1.1\r\nHost: x\r\nX-Long: " + b"a" * 70_000
                         + b"\r\n\r\n", [_bad("Line too long")]),
    "expect-100-continue": (b"POST /nobody HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                            b"Content-Length: 2\r\n\r\nab",
                            [("HTTP/1.1 100 Continue", ""), NO_SESSION, NO_SESSION]),
    "transfer-encoding": (b"POST /nobody HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n"
                          b"\r\n0\r\n\r\n",
                          [_bad("a request body must come with a Content-Length")]),
    "http-0.9-post": (b"POST /nobody\r\n\r\n", [_bad("Bad HTTP/0.9 request type ('POST')")]),
    "http-2.0": (b"GET /nobody HTTP/2.0\r\nHost: x\r\n\r\n", [_bad("Invalid HTTP version (2.0)")]),
    # RFC 9112
    "no-colon": (b"GET /nobody HTTP/1.1\r\nHost: x\r\nNoColon\r\n\r\n",
                 [_bad("bad header line 'NoColon'")]),
    "space-before-colon": (b"GET /nobody HTTP/1.1\r\nHost : x\r\n\r\n",
                           [_bad("bad header line 'Host : x'")]),
    "obs-fold": (b"GET /nobody HTTP/1.1\r\nHost: x\r\nX-Fold: a\r\n b\r\n\r\n",
                 [_bad("bad header line ' b'")]),
    "two-content-lengths": (b"POST /nobody HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
                            b"Content-Length: 3\r\n\r\nabc", [_bad("bad Content-Length '2, 3'")]),
    "http-0.9-get": (b"GET /nobody\r\n\r\n", [_bad("Bad request syntax ('GET /nobody')")]),
    "no-host": (b"GET /nobody HTTP/1.1\r\n\r\n", [_bad("an HTTP/1.1 request needs a Host line")]),
    "two-hosts": (b"GET /nobody HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
                  [_bad("more than one Host line ('a, b')")]),
    "http-1.0-no-host": (b"GET /nobody HTTP/1.0\r\n\r\n", [NO_SESSION]),
    "empty-line": (b"\r\n", [NO_SESSION]),
    "bare-lf-empty-line": (b"\n", [NO_SESSION]),
    "two-empty-lines": (b"\r\n\r\n", []),
    "empty-line-between-requests": (b"GET /nobody HTTP/1.1\r\nHost: x\r\n\r\n\r\n",
                                    [NO_SESSION, NO_SESSION]),
    "huge-content-length": (b"POST /nobody HTTP/1.1\r\nHost: x\r\n"
                            b"Content-Length: 99999999999999\r\n\r\nab", []),
}


@pytest.fixture(scope="module")
def server():
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    yield server
    server.close()


@pytest.mark.parametrize("request_bytes,expected", HEADS.values(), ids=HEADS.keys())
def test_each_request_head_gets_its_recorded_replies(server, request_bytes, expected):
    replies = _replies(_send(server.url, request_bytes + FOLLOW_UP))
    assert [(status, body) for status, _, body in replies] == expected
    for status, headers, _ in replies:
        if not status.startswith("HTTP/1.1 1"):
            date, = (h.removeprefix("Date: ") for h in headers if h.startswith("Date: "))
            assert IMF_FIXDATE.fullmatch(date)
    # a reply after which the server closes the connection says so
    assert all(("Connection: close" in headers) == (n == len(replies) - 1)
               for n, (status, headers, _) in enumerate(replies) if status != "HTTP/1.1 100 Continue")


#: a whole request hidden after a key exchange's body
SMUGGLED = b"GET /peer HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"


def test_two_content_lengths_are_refused_and_the_body_is_never_read_as_a_request():
    # a server that reads the first length issues a key, then answers the
    # rest of the body as a second request (RFC 9112 §6.3)
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        raw = _send(f"{server.url}/peer",
                    b"POST /peer HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n"
                    b"Content-Length: %d\r\n\r\nGet key" % (7 + len(SMUGGLED)) + SMUGGLED)
        (status, headers, body), = _replies(raw)
        assert status == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in headers
        assert body == f"error: BadRequest: bad Content-Length '7, {7 + len(SMUGGLED)}'"
        assert "peer" not in server.peers
    finally:
        server.close()


def test_the_debug_line_is_built_only_at_debug(monkeypatch, caplog):
    built = []
    monkeypatch.setattr(logging.getLogger("restcipher.http"), "debug",
                        lambda *args: built.append(args[3:6]))
    for level, lines in ((logging.INFO, []), (logging.DEBUG, [("POST", "/peer", 200),
                                                             ("GET", "/peer", 200)])):
        caplog.set_level(level, logger="restcipher.http")
        built.clear()
        server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
        try:
            with ResourceClient(server.url, "peer") as client:
                client.exchange_key()
                client.fetch()
        finally:
            server.close()          # returns once the connection's thread is done
        assert built == lines


_PIECES = [
    b"GET /peer HTTP/1.1\r\n", b"POST /peer HTTP/1.1\r\n", b"GET /peer HTTP/1.0\r\n",
    b"HEAD /peer HTTP/1.1\r\n", b"PUT /peer HTTP/1.1\r\n", b"GET /peer\r\n", b"GET / HTTP/9.9\r\n",
    b"\r\n", b"\n", b"Host: x\r\n", b"Content-Length: 7\r\n", b"Content-Length: 0\r\n",
    b"Content-Length: -1\r\n", b"Transfer-Encoding: chunked\r\n", b"Connection: close\r\n",
    b"Connection: keep-alive\r\n", b"Expect: 100-continue\r\n", b" folded\r\n", b"Name : x\r\n",
    b"NoColon\r\n", b"Get key", b"\xe9\r\n",
]
_REQUESTS = hs.lists(hs.one_of(
    hs.sampled_from(_PIECES),
    hs.binary(max_size=24),
    hs.integers(0, 10 ** 6).map(lambda n: b"Content-Length: %d\r\n" % n),
), max_size=12).map(b"".join)


def test_random_request_bytes_get_plain_replies_or_a_clean_close(caplog, capfd):
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(request=_REQUESTS)
        def check(request):
            _replies(_send(server.url, request))        # each reply's status and type

        check()
        with ResourceClient(server.url, "peer") as client:
            client.exchange_key()
            assert client.fetch()[1] == parse_xml(XML1)
    finally:
        server.close()
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
    assert capfd.readouterr().err == ""


# the client against reply shapes from a socket stub


def _read_request(reader):
    """The bytes of the next request on ``reader``, None at end of file."""
    head = b""
    while (line := reader.readline()) not in (b"\r\n", b""):
        head += line
    if not line:
        return None
    length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
    return head + line + reader.read(int(length[1]) if length else 0)


class _Stub:
    """A listener that answers the requests it reads, one connection at a
    time, with ``replies`` in turn, each ``(bytes, close)``: with ``close``
    set it closes the connection after that reply.  ``connections`` holds
    the requests read on each connection."""

    def __init__(self, replies, host="127.0.0.1"):
        self.listener = socket.create_server(
            (host, 0), family=socket.AF_INET6 if ":" in host else socket.AF_INET)
        port = self.listener.getsockname()[1]
        self.url = f"http://{f'[{host}]' if ':' in host else host}:{port}/x"
        self.listener.settimeout(10)        # a client that never connects ends the stub
        self.replies = list(replies)
        self.connections = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        with self.listener:
            while self.replies:
                conn, _ = self.listener.accept()
                with conn, conn.makefile("rb") as reader:
                    self.connections.append([])
                    while self.replies and (request := _read_request(reader)) is not None:
                        self.connections[-1].append(request)
                        reply, close = self.replies.pop(0)
                        conn.sendall(reply)
                        if close:
                            break

    def join(self) -> list:
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()
        return self.connections


OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


def _request_lines(connections) -> list:
    return [[request.split(b"\r\n")[0] for request in requests] for requests in connections]


def test_kept_alive_replies_share_one_connection():
    stub = _Stub([(OK, False), (OK, True)])
    with contextlib.closing(Connection(stub.url)) as connection:
        assert http_get(stub.url, connection=connection) == "ok"
        assert http_post(stub.url, "ab", connection=connection) == "ok"
    (get, post), = stub.join()
    assert get.startswith(b"GET /x HTTP/1.1\r\n") and b"Content-Length" not in get
    assert post.startswith(b"POST /x HTTP/1.1\r\n") and post.endswith(b"\r\n\r\nab")
    assert b"\r\nContent-Type: text/plain\r\n" in post and b"\r\nContent-Length: 2\r\n" in post


@pytest.mark.parametrize("first,stub_closes", [
    (b"HTTP/1.1 200 OK\r\n\r\nto the end", True),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\nConnection: close\r\n\r\nto the end", False),
    (b"HTTP/1.0 200 OK\r\nContent-Length: 10\r\n\r\nto the end", False),
], ids=["no-length", "connection-close", "http-1.0"])
def test_after_a_reply_that_ends_the_connection_the_next_request_opens_one(first, stub_closes):
    # a stub that keeps the connection open sees the client close it
    stub = _Stub([(first, stub_closes), (OK, True)])
    with contextlib.closing(Connection(stub.url)) as connection:
        assert connection.request("GET", stub.url, None, 10) == "to the end"
        assert connection.request("GET", stub.url, None, 10) == "ok"
    assert _request_lines(stub.join()) == [[b"GET /x HTTP/1.1"], [b"GET /x HTTP/1.1"]]


def test_an_http_1_0_reply_may_keep_the_connection_alive():
    kept = b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok"
    stub = _Stub([(kept, False), (OK, True)])
    with contextlib.closing(Connection(stub.url)) as connection:
        assert connection.request("GET", stub.url, None, 10) == "ok"
        assert connection.request("GET", stub.url, None, 10) == "ok"
    assert _request_lines(stub.join()) == [[b"GET /x HTTP/1.1"] * 2]


@pytest.mark.parametrize("reply,detail", [
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
     "a reply with Transfer-Encoding 'chunked' is not read: only Content-Length is"),
    (b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\nok",
     "bad status line b'HTTP/1.1 2x0 OK\\r\\n'"),
    (b"ICY 200 OK\r\n\r\nok", "bad status line b'ICY 200 OK\\r\\n'"),
    (b"HTTP/1.1 200 OK\r\n" + _fields(100) + b"Content-Length: 2\r\n\r\nok", "Too many headers"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", "the reply ended before its 10 bytes"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok",
     "bad Content-Length '2, 3'"),
    (b"", "the connection closed with no reply"),
], ids=["chunked", "bad-status-code", "not-http", "101-header-lines", "short-body",
        "two-lengths", "no-reply"])
def test_a_reply_that_does_not_frame_is_transport_and_not_resent(reply, detail):
    stub = _Stub([(reply, True)])
    connection = Connection(stub.url)
    with pytest.raises(Transport, match=re.escape(f"GET {stub.url} failed: {detail}")):
        connection.request("GET", stub.url, None, 10)
    assert connection._sock is None             # dropped
    assert _request_lines(stub.join()) == [[b"GET /x HTTP/1.1"]]


def test_99_header_lines_in_a_reply_are_read():
    stub = _Stub([(b"HTTP/1.1 200 OK\r\n" + _fields(98) + b"Content-Length: 2\r\n\r\nok", True)])
    assert http_get(stub.url) == "ok"
    assert _request_lines(stub.join()) == [[b"GET /x HTTP/1.1"]]


def test_an_interim_reply_is_skipped():
    stub = _Stub([(b"HTTP/1.1 100 Continue\r\n\r\n" + OK, True)])
    assert http_get(stub.url) == "ok"
    assert _request_lines(stub.join()) == [[b"GET /x HTTP/1.1"]]


def test_an_ipv6_literal_keeps_its_brackets_in_the_host_field():
    try:
        stub = _Stub([(OK, True)], host="::1")
    except OSError:
        pytest.skip("no IPv6 loopback")
    assert http_get(stub.url) == "ok"
    (request,), = stub.join()
    port = urllib.parse.urlsplit(stub.url).port
    assert request.split(b"\r\n")[:2] == [b"GET /x HTTP/1.1", b"Host: [::1]:%d" % port]
    assert request.endswith(b"\r\nConnection: close\r\n\r\n")      # one request, its last


@pytest.mark.parametrize("path", ["/a b", "/a\r\nX-Injected: 1", "/caf\xe9"])
def test_a_target_that_would_break_the_request_line_is_never_sent(path):
    stub = _Stub([(OK, True)])
    with pytest.raises(Transport, match="bad request target"):
        http_get(stub.url.replace("/x", path))
    assert http_get(stub.url) == "ok"
    assert _request_lines(stub.join()) == [[b"GET /x HTTP/1.1"]]


# the import tree

IMPORT_TREE = """
import json, socket, sys
import restcipher
from restcipher.errors import Transport
from restcipher.keyxchg import http_get

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("http", "email", "html", "ssl", "_ssl"))

report = {"import": loaded()}
with socket.create_server(("127.0.0.1", 0)) as listener:
    port = listener.getsockname()[1]          # refuses connections once closed
for scheme in ("http", "https"):
    try:
        http_get(f"{scheme}://127.0.0.1:{port}/x", timeout=5)
    except Transport:
        report[scheme] = loaded()
print(json.dumps(report))
"""


def test_the_import_tree_holds_no_stdlib_http_and_ssl_only_for_https():
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", IMPORT_TREE], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True).stdout
    report = json.loads(out)
    assert report["import"] == []
    assert report["http"] == []
    assert "ssl" in report["https"]
    assert not any(m == "http" or m.startswith(("http.", "email", "html")) for m in report["https"])
