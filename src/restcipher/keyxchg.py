"""The "Get key" exchange and the persistent keystore at both ends.

A client POSTs the exact body ``Get key`` (text/plain); the server generates
a fresh key, stores it against the peer, and replies with the serialized key
as the entire response body.  The exchange should ride on TLS in real
deployments; this package's harness speaks plain HTTP and says so.
"""

import threading
import urllib.error
import urllib.request
from dataclasses import dataclass

from .errors import Corrupt, Malformed, RestCipherError, StoreFailure, Transport
from .keycore import TenElementKey, generate_key, parse_key, serialize_key

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


def handle_key_request(body: str, peer_id: str, store: KeyStore, *,
                       rng=None, bounds=None, key_id: str = "session"):
    """Server side of the exchange.

    Returns the response body for an exact "Get key" command, None for
    anything else (the caller treats the request as ordinary traffic).  A
    repeated request replaces the stored key: key changes are client-driven.
    """
    if body != GET_KEY_COMMAND:
        return None
    key = generate_key(bounds, rng=rng)
    store.put(peer_id, key_id, "pairwise", key)
    return serialize_key(key)


def http_post(url: str, body: str, timeout: float = 10.0) -> str:
    """POST text/plain, return the response body; transport faults wrapped."""
    request = urllib.request.Request(
        url, data=body.encode("ascii"),
        headers={"Content-Type": "text/plain"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.read().decode("ascii")
    except urllib.error.HTTPError as exc:
        raise Transport(f"POST {url} failed: {exc.code} {exc.reason}") from None
    except (urllib.error.URLError, OSError) as exc:
        raise Transport(f"POST {url} failed: {exc}") from None


def http_get(url: str, timeout: float = 10.0) -> str:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read().decode("ascii")
    except urllib.error.HTTPError as exc:
        raise Transport(f"GET {url} failed: {exc.code} {exc.reason}") from None
    except (urllib.error.URLError, OSError) as exc:
        raise Transport(f"GET {url} failed: {exc}") from None


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
