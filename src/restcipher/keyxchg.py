"""The HTTP client, the client side of the "Get key" exchange and the keyring file.

A client POSTs the exact body ``Get key`` (text/plain); the server
(``restkit.ResourceServer``) generates a fresh key, keeps it in the peer's
session, and replies with the serialized key as the entire response body.
The exchange should ride on TLS in real deployments; this package's
harness speaks plain HTTP and says so.  ``load_ring`` reads the keyring
file that the command line's ``sign`` and ``verify`` take.

Every request goes through ``Connection.request``.  A ``Connection`` is one
HTTP/1.1 connection on a socket of its own, opened on first use and kept
alive between requests; ``http_get``, ``http_post`` and ``request_key`` use
the one they are given, or open one for the single request and close it.  A
request that fails is never resent, because a request the server received
may already have changed its state: the connection is dropped, the caller
gets ``Transport``, and the next request opens a new one.  A reply that is
not 2xx is ``Transport`` too, and quotes the first line of the reply, such
as ``error: <Name>: <detail>``.

Both ends speak the same small part of HTTP/1.1 (RFC 9112): GET and POST,
bodies framed by ``Content-Length`` and nothing else, kept-alive
connections.  ``read_fields`` and ``read_body`` frame a header block and a
body for the client here and for ``restkit``'s server alike, with the
stdlib's limits on lines.  Neither end loads ``http.client``,
``http.server`` or ``email``, and only an ``https`` connection loads
``ssl``.
"""

import contextlib
import re
import socket
import urllib.parse

from .composition import KeyRing
from .errors import Corrupt, Malformed, RestCipherError, Transport
from .keycore import TenElementKey, parse_key

GET_KEY_COMMAND = "Get key"
ROLES = ("pairwise", "group")


def load_ring(path) -> KeyRing:
    """The ring of keys in the keyring file at ``path``.

    One key per line, four tab-separated fields: peer id, key id, role
    (``pairwise`` or ``group``) and the serialized key; blank lines are
    skipped.  The peer id must not be empty but is otherwise not read.  A
    line that is not UTF-8, has another number of fields, names another
    role, leaves an id empty or holds no valid key is ``Corrupt`` with its
    line number; keys that do not form one ring (a key id given twice, a
    second group key) are ``Malformed``.
    """
    records = []
    # undecodable bytes become lone surrogates, so the line they sit on is known
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise Corrupt(number, f"line {number}: not UTF-8 text") from None
            fields = line.split("\t")
            if len(fields) != 4:
                raise Corrupt(number, f"line {number}: expected 4 fields, got {len(fields)}")
            peer_id, key_id, role, key_text = fields
            if role not in ROLES:
                raise Corrupt(number, f"line {number}: unknown role {role!r}")
            for label, value in (("peer id", peer_id), ("key id", key_id)):
                if not value:
                    raise Corrupt(number, f"line {number}: empty {label}")
            try:
                records.append((key_id, parse_key(key_text), role == "group"))
            except RestCipherError as exc:
                raise Corrupt(number, f"line {number}: {exc}") from None
    ring = KeyRing()
    for key_id, key, is_group in records:
        try:
            ring.add_key(key_id, key, is_group)
        except ValueError as exc:
            raise Malformed(f"keystore {path} does not form one ring: {exc}") from None
    return ring


#: the stdlib's limits: bytes in one line, and lines in one header block,
#: the blank line that ends it counted
MAX_LINE = 65536
MAX_HEADERS = 100

#: a field name is a token (RFC 9110 §5.6.2): no whitespace, no separator
_FIELD_NAME = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
#: what a request target may not hold: a space, a control or a non-ASCII character
_UNSAFE_TARGET = re.compile(r"[^!-~]")


def read_fields(reader):
    """The fields of the header block next on ``reader`` by lower-case name;
    the values of a name given twice are joined by ", " (RFC 9110 §5.3), so
    a second Content-Length is no decimal.  None if end of file comes first.

    Raises ValueError for a line that is no field (an obs-fold, whitespace
    before the colon, no colon: RFC 9112 §5), a line over MAX_LINE bytes, or
    a block of more than MAX_HEADERS lines."""
    fields = {}
    for _ in range(MAX_HEADERS):
        line = reader.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise ValueError("Line too long")
        if line == b"\r\n" or line == b"\n":
            return fields
        if not line.endswith(b"\n"):
            return None
        text = str(line, "iso-8859-1")
        name, colon, value = text.partition(":")
        if not (colon and _FIELD_NAME.fullmatch(name)):
            text = text.rstrip("\r\n")
            raise ValueError(f"bad header line {text!r}")
        name = name.lower()
        value = value.strip(" \t\r\n")
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise ValueError("Too many headers")


def read_body(reader, length: str):
    """The body whose Content-Length is ``length``, read a MiB at a time so
    that memory follows the bytes that arrive; None if end of file comes
    first.  A length that is not a plain decimal raises ValueError."""
    # at most 18 digits: more than any body, and within int()'s limit on digits
    if not (length.isdecimal() and length.isascii() and len(length) <= 18):
        raise ValueError(f"bad Content-Length {length!r}")
    left = int(length)
    chunks = []
    while left:
        chunk = reader.read(min(left, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        left -= len(chunk)
    return b"".join(chunks)


def _read_reply(reader) -> tuple:
    """(status, reason, body, keep) of the next reply on ``reader``: a status
    line, a header block and a body of Content-Length bytes, or of every
    byte up to end of file when the reply gives no length.  An interim 1xx
    reply is skipped.  ``keep`` is whether the connection stays open after
    it.  A reply that does not frame so raises ValueError."""
    status = 100
    while status < 200:
        line = reader.readline(MAX_LINE + 1)
        if not line:
            raise ValueError("the connection closed with no reply")
        version, code, reason = (str(line, "iso-8859-1").split(None, 2) + ["", ""])[:3]
        if (version not in ("HTTP/1.0", "HTTP/1.1") or len(code) != 3
                or not (code.isdecimal() and code.isascii()) or code[0] == "0"):
            raise ValueError(f"bad status line {line!r}")
        fields = read_fields(reader)
        if fields is None:
            raise ValueError("the reply ended in its header block")
        status, reason = int(code), reason.strip()
    if "transfer-encoding" in fields:
        raise ValueError(f"a reply with Transfer-Encoding "
                         f"{fields['transfer-encoding']!r} is not read: only Content-Length is")
    connection = fields.get("connection", "").lower()
    keep = "close" not in connection if version == "HTTP/1.1" else "keep-alive" in connection
    length = fields.get("content-length")
    if length is None:
        return status, reason, reader.read(), False
    body = read_body(reader, length)
    if body is None:
        raise ValueError(f"the reply ended before its {length} bytes of body")
    return status, reason, body, keep


def _target(url: str) -> str:
    """The request target of ``url``: its path (``/`` for none) and query."""
    parts = urllib.parse.urlsplit(url)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if _UNSAFE_TARGET.search(target):
        raise ValueError(f"bad request target {target!r}: "
                         "a space, a control or a non-ASCII character")
    return target


class Connection:
    """One kept-alive HTTP/1.1 connection to the host of ``url`` (TLS for an
    ``https`` URL), for one request at a time; ``close`` it when done."""

    def __init__(self, url: str):
        try:
            parts = urllib.parse.urlsplit(url)
            port = parts.port
        except ValueError as exc:
            raise Transport(f"bad URL {url!r}: {exc}") from None
        host = parts.hostname
        if parts.scheme not in ("http", "https") or not host:
            raise Transport(f"bad URL {url!r}: not http:// or https:// with a host")
        self._tls = parts.scheme == "https"
        self._address = (host, port or (443 if self._tls else 80))
        name = f"[{host}]" if ":" in host else host      # an IPv6 literal
        self._host = name if port is None else f"{name}:{port}"
        self._sock = self._reader = None
        self._timeout = None

    def _open(self, timeout: float) -> None:
        if self._tls:
            import ssl                  # here, so that only an https connection loads it

            context = ssl.create_default_context()
        sock = socket.create_connection(self._address, timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls:
                sock = context.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        self._sock, self._reader, self._timeout = sock, sock.makefile("rb"), timeout

    def request(self, method: str, url: str, data, timeout: float, *, last=False) -> str:
        """Send one request to ``url`` on this connection and return the
        response body; transport faults wrapped.  A GET (``data`` None) sends
        no Content-Type; the ``last`` request on a connection asks the server
        to close it after the reply.  The head and body go out in one write."""
        try:
            head = f"{method} {_target(url)} HTTP/1.1\r\nHost: {self._host}\r\n"
            if data is not None:
                head += f"Content-Type: text/plain\r\nContent-Length: {len(data)}\r\n"
            if last:
                head += "Connection: close\r\n"
            message = (head + "\r\n").encode("ascii")
            if self._sock is None:
                self._open(timeout)
            elif timeout != self._timeout:
                self._sock.settimeout(timeout)
                self._timeout = timeout
            self._sock.sendall(message + data if data else message)
            status, reason, body, keep = _read_reply(self._reader)
        except (OSError, ValueError) as exc:
            self.close()                # never resent: the next request reconnects
            raise Transport(f"{method} {url} failed: {exc}") from None
        if not keep:
            self.close()
        if not 200 <= status < 300:
            # the refusal's first line, which names the server's error
            text = body.decode("ascii", "backslashreplace").partition("\n")[0].strip()
            raise Transport(f"{method} {url} failed: {status} {reason}"
                            + (f": {text}" if text else ""))
        try:
            return body.decode("ascii")
        except UnicodeDecodeError:
            raise Transport(f"{method} {url} failed: reply is not ASCII text") from None

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None


def _request(method: str, url: str, data, timeout: float, connection) -> str:
    if connection is not None:
        return connection.request(method, url, data, timeout)
    with contextlib.closing(Connection(url)) as once:
        return once.request(method, url, data, timeout, last=True)


def http_post(url: str, body: str, timeout: float = 10.0, *, connection=None) -> str:
    """POST text/plain, return the response body; transport faults wrapped.
    A body that is not ASCII text is refused before any connection."""
    try:
        data = body.encode("ascii")
    except UnicodeEncodeError:
        raise Transport(f"POST {url} failed: body is not ASCII text") from None
    return _request("POST", url, data, timeout, connection)


def http_get(url: str, timeout: float = 10.0, *, connection=None) -> str:
    return _request("GET", url, None, timeout, connection)


def request_key(endpoint: str, *, timeout: float = 10.0,
                connection: Connection = None) -> TenElementKey:
    """Client side of the exchange: POST ``Get key`` to ``endpoint`` and
    return the key its reply body holds.  A reply that is no valid key is
    ``Malformed``; the caller keeps the key in its own session."""
    body = http_post(endpoint, GET_KEY_COMMAND, timeout=timeout, connection=connection)
    try:
        return parse_key(body)
    except RestCipherError as exc:
        raise Malformed(f"peer response is not a valid key: {exc}") from None
