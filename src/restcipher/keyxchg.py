"""The HTTP client, the client side of the "Get key" exchange and the keystore.

A client POSTs the exact body ``Get key`` (text/plain); the server
(``restkit.ResourceServer``) generates a fresh key, stores it against the
peer, and replies with the serialized key as the entire response body.  The
exchange should ride on TLS in real deployments; this package's harness
speaks plain HTTP and says so.

Every request goes through ``Connection.request``.  A ``Connection`` is one
HTTP/1.1 connection, opened on first use and kept alive between requests;
``http_get``, ``http_post`` and ``request_key`` use the one they are given,
or open one for the single request and close it.  A request that fails is
never resent, because a request the server received may already have changed
its state: the connection is dropped, the caller gets ``Transport``, and the
next request opens a new one.  A reply that is not 2xx is ``Transport`` too,
and quotes the first line of the reply, such as ``error: <Name>: <detail>``.
"""

import contextlib
import http.client
import threading
import urllib.parse
from dataclasses import dataclass

from .errors import Corrupt, Malformed, RestCipherError, StoreFailure, Transport
from .keycore import TenElementKey, parse_key, serialize_key

GET_KEY_COMMAND = "Get key"
ROLES = ("pairwise", "group")


@dataclass(frozen=True)
class StoreRecord:
    peer_id: str
    key_id: str
    role: str
    key: TenElementKey


class KeyStore:
    """(peer, key-id) records; writes are atomic under one lock."""

    def __init__(self):
        self._records = {}
        self._lock = threading.Lock()

    def put(self, peer_id: str, key_id: str, role: str, key: TenElementKey) -> StoreRecord:
        for label, value in (("peer id", peer_id), ("key id", key_id)):
            if not value or "\t" in value or "\n" in value:
                raise StoreFailure(f"invalid {label}: {value!r}")
        if role not in ROLES:
            raise StoreFailure(f"role must be one of {ROLES}, got {role!r}")
        record = StoreRecord(peer_id, key_id, role, key)
        with self._lock:
            self._records[(peer_id, key_id)] = record
        return record

    def get(self, peer_id: str, key_id: str):
        return self._records.get((peer_id, key_id))

    def records(self) -> list:
        return list(self._records.values())

    def __len__(self):
        return len(self._records)


def save_store(store: KeyStore, path) -> None:
    """One record per line: peer-id, key-id, role, serialized key, tab-separated."""
    lines = [
        f"{r.peer_id}\t{r.key_id}\t{r.role}\t{serialize_key(r.key)}\n"
        for r in store.records()
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def load_store(path) -> KeyStore:
    store = KeyStore()
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
            try:
                key = parse_key(key_text)
            except RestCipherError as exc:
                raise Corrupt(number, f"line {number}: {exc}") from None
            store.put(peer_id, key_id, role, key)
    return store


class Connection:
    """One kept-alive HTTP/1.1 connection to the host of ``url`` (TLS for an
    ``https`` URL), for one request at a time; ``close`` it when done."""

    def __init__(self, url: str):
        parts = urllib.parse.urlsplit(url)
        try:
            port = parts.port
        except ValueError as exc:
            raise Transport(f"bad URL {url!r}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise Transport(f"bad URL {url!r}: not http:// or https:// with a host")
        connection_class = (http.client.HTTPSConnection if parts.scheme == "https"
                            else http.client.HTTPConnection)
        self._http = connection_class(parts.hostname, port)

    def request(self, method: str, url: str, data, timeout: float, *, last=False) -> str:
        """Send one request to ``url`` on this connection and return the
        response body; transport faults wrapped.  A GET (``data`` None) sends
        no Content-Type; the ``last`` request on a connection asks the server
        to close it after the reply."""
        parts = urllib.parse.urlsplit(url)
        target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        headers = {} if data is None else {"Content-Type": "text/plain"}
        if last:
            headers["Connection"] = "close"
        self._http.timeout = timeout
        if self._http.sock is not None:
            self._http.sock.settimeout(timeout)
        try:
            self._http.request(method, target, data, headers)
            response = self._http.getresponse()
            body = response.read()
        except (http.client.HTTPException, OSError) as exc:
            self.close()                # never resent: the next request reconnects
            raise Transport(f"{method} {url} failed: {exc}") from None
        if not 200 <= response.status < 300:
            # the refusal's first line, which names the server's error
            text = body.decode("ascii", "backslashreplace").partition("\n")[0].strip()
            raise Transport(f"{method} {url} failed: {response.status} {response.reason}"
                            + (f": {text}" if text else ""))
        try:
            return body.decode("ascii")
        except UnicodeDecodeError:
            raise Transport(f"{method} {url} failed: reply is not ASCII text") from None

    def close(self) -> None:
        self._http.close()


def _request(method: str, url: str, data, timeout: float, connection) -> str:
    if connection is not None:
        return connection.request(method, url, data, timeout)
    with contextlib.closing(Connection(url)) as once:
        return once.request(method, url, data, timeout, last=True)


def http_post(url: str, body: str, timeout: float = 10.0, *, connection=None) -> str:
    """POST text/plain, return the response body; transport faults wrapped."""
    return _request("POST", url, body.encode("ascii"), timeout, connection)


def http_get(url: str, timeout: float = 10.0, *, connection=None) -> str:
    return _request("GET", url, None, timeout, connection)


def request_key(endpoint: str, *, store: KeyStore = None, peer_id: str = "server",
                key_id: str = "session", timeout: float = 10.0,
                connection: Connection = None) -> TenElementKey:
    """Client side: fetch a session key from a peer endpoint.

    Nothing is stored unless the response parses as a key.
    """
    body = http_post(endpoint, GET_KEY_COMMAND, timeout=timeout, connection=connection)
    try:
        key = parse_key(body)
    except RestCipherError as exc:
        raise Malformed(f"peer response is not a valid key: {exc}") from None
    if store is not None:
        store.put(peer_id, key_id, "pairwise", key)
    return key
