"""The HTTP client, the client side of the "Get key" exchange and the keystore.

A client POSTs the exact body ``Get key`` (text/plain); the server
(``restkit.ResourceServer``) generates a fresh key, stores it against the
peer, and replies with the serialized key as the entire response body.  The
exchange should ride on TLS in real deployments; this package's harness
speaks plain HTTP and says so.  Every request goes through ``_request``.
"""

import threading
import urllib.error
import urllib.request
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


def _request(method: str, url: str, data, timeout: float) -> str:
    """Send one request, return the response body; transport faults wrapped.
    A GET (``data`` None) sends no Content-Type."""
    headers = {} if data is None else {"Content-Type": "text/plain"}
    request = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.read().decode("ascii")
    except urllib.error.HTTPError as exc:
        raise Transport(f"{method} {url} failed: {exc.code} {exc.reason}") from None
    except (urllib.error.URLError, OSError) as exc:
        raise Transport(f"{method} {url} failed: {exc}") from None


def http_post(url: str, body: str, timeout: float = 10.0) -> str:
    """POST text/plain, return the response body; transport faults wrapped."""
    return _request("POST", url, body.encode("ascii"), timeout)


def http_get(url: str, timeout: float = 10.0) -> str:
    return _request("GET", url, None, timeout)


def request_key(endpoint: str, *, store: KeyStore = None, peer_id: str = "server",
                key_id: str = "session", timeout: float = 10.0) -> TenElementKey:
    """Client side: fetch a session key from a peer endpoint.

    Nothing is stored unless the response parses as a key.
    """
    body = http_post(endpoint, GET_KEY_COMMAND, timeout=timeout)
    try:
        key = parse_key(body)
    except RestCipherError as exc:
        raise Malformed(f"peer response is not a valid key: {exc}") from None
    if store is not None:
        store.put(peer_id, key_id, "pairwise", key)
    return key
