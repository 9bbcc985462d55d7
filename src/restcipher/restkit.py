"""Loopback HTTP demonstration harness.

Two pieces: a resource server / client pair exercising the two-party flow
(key exchange, symbol-table first response, tag-table responses after), and
a three-party composition pipeline in which a main server S fans a multi-key
signed document out to providers SP1 and SP2, each of which edits only the
variables of its own tags and passes everything else through byte-identical.
S checks every digest of each reply, but decodes and splices in only the
subtrees it granted that provider.  A subtree inside one of them that
another key owns must come back as S sent it (``changed_kept``), so S's
decode of it equals S's own items.  S refuses a reply whose access list is
not the one it sent: nothing signs that list, and every provider holds the
group key that signs the root.

Everything runs over plain HTTP on loopback; real deployments terminate TLS
in front.  Bodies are text/plain and no custom header is used.  Each service
is one threading TCP server (``_HttpService``), and every service shares
one request handler (``_Handler``), which reads each request itself,
hands the path and body to the service's ``respond`` and writes the status
and text it returns; a ``RestCipherError`` raised while reading the request
or responding becomes a 400 ``error: <Name>: <detail>``, and any other
exception a 500.

Connections are HTTP/1.1 and kept alive, and both ends speak only the part
of it the harness needs (``keyxchg`` frames header blocks and bodies for
both): GET and POST, bodies framed by ``Content-Length``.  A
``ResourceClient`` sends every request over one connection of its own and
closes it in ``close``; a request that fails is never resent, since the
server may already have committed its words to the tag tables.  A service
serves each connection on one thread for the connection's life (the
stdlib's threading server loop) and turns Nagle's algorithm off; its
``close`` ends every idle connection.  Each service accepts on a thread of
its own that blocks until a connection arrives, so closing one does not
wait on a poll: ``close`` wakes it with a connection.
"""

import contextlib
import functools
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from socketserver import StreamRequestHandler, TCPServer, ThreadingMixIn

from .codec import EncryptedMessage, OpaqueRun, Session, item_spans
from .composition import (
    CompositionPolicy,
    KeyRing,
    Signed,
    Status,
    access_header,
    attach_digests,
    changed_kept,
    compose_decrypt,
    compose_encrypt,
    compose_reencrypt,
    owners,
    refresh_digests,
    reply_owners,
    verify_digests,
)
from .docmodel import (Close, Open, Variable, emit_xml, parse_json, parse_xml,
                       validate_stream)
from .errors import (AccessNotGranted, BadRequest, Bind, EditNotApplied, KeptWordsChanged,
                     Malformed, MalformedMessage, RestCipherError, VerificationFailed)
from .keycore import TenElementKey, generate_key, serialize_key, validate_key
from .keyxchg import (GET_KEY_COMMAND, MAX_LINE, Connection, http_get, http_post, read_body,
                      read_fields, request_key)

PLAIN_HTTP_WARNING = (
    "serving plain HTTP on loopback; the key exchange is unprotected, "
    "terminate TLS in front for anything beyond demonstration"
)


@dataclass
class TranscriptEntry:
    direction: str
    uri: str
    body: str
    kind: str = "message"


def format_transcript(entries) -> str:
    return "\n".join(f"{e.direction}\t{e.uri}\t{e.body}" for e in entries)


def _parse_document(text: str):
    if text.lstrip().startswith("<"):
        return parse_xml(text)
    return parse_json(text)


#: the reason phrase of each status a service here gives (RFC 9110 §15); any
#: other status gets an empty one, which RFC 9112 §4 allows
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 409: "Conflict",
            500: "Internal Server Error"}

_DEBUG = 10                # logging.DEBUG; logging is loaded only with a service


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """``second`` of the epoch as an IMF-fixdate (RFC 9110 §5.6.7), for the
    Date field of every reply; rendered once a second."""
    t = time.gmtime(second)
    day = "MonTueWedThuFriSatSun"[3 * t.tm_wday:3 * t.tm_wday + 3]
    month = "JanFebMarAprMayJunJulAugSepOctNovDec"[3 * t.tm_mon - 3:3 * t.tm_mon]
    return (f"{day}, {t.tm_mday:02d} {month} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


class _Handler(StreamRequestHandler):
    """The one request handler of every service (see ``_HttpService``): it
    reads the requests of one connection one after another, each with the
    stdlib's limits and refusal texts, and writes each reply."""

    # a reply's head and body are two writes, so that a write to a client
    # that has left fails on the second; with Nagle on, a kept-alive client
    # would wait out its delayed ACK for the body
    disable_nagle_algorithm = True

    def handle(self) -> None:
        import logging

        log = logging.getLogger("restcipher.http")
        while self._answer(log):
            pass

    def _answer(self, log) -> bool:
        """Read one request and write its reply; False once the connection
        is to close."""
        line = self.rfile.readline(MAX_LINE + 1)
        if line == b"\r\n" or line == b"\n":
            # one blank line before a request line is skipped (RFC 9112 §2.2)
            line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            return False
        started = time.perf_counter()
        keep = False
        text = error = None
        try:
            request = self._read_request(line)
            if request is None:
                return False
            keep, data = request
            try:
                text = data.decode("ascii")     # a GET's body is read and dropped
            except UnicodeDecodeError:
                raise BadRequest("request body is not ASCII text") from None
            status, reply = self.server.respond(self.path,
                                                text if self.command == "POST" else None)
        except RestCipherError as exc:
            status, reply, error = 400, f"error: {exc.name}: {exc}", exc.name
        except Exception as exc:        # noqa: BLE001 - any fault gets a reply
            # a fault, not a refusal: nothing more is read on this connection
            keep = False
            error = type(exc).__name__
            status, reply = 500, f"error: {error}: {exc}"
        data = reply.encode("ascii", "backslashreplace")     # it may quote the request
        close = "" if keep else "Connection: close\r\n"
        self.request.sendall(
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            f"Date: {_http_date(int(time.time()))}\r\nContent-Type: text/plain\r\n"
            f"Content-Length: {len(data)}\r\n{close}\r\n".encode("ascii"))
        if data and self.command != "HEAD":
            self.request.sendall(data)
        if log.isEnabledFor(_DEBUG):
            # a request line refused before its method was read has no path
            log.debug("%s:%s %s %s %d %s in=%d out=%d %.3fms", *self.client_address[:2],
                      self.command or "-", self.path or "-", status, error or "-",
                      len(text or ""), len(data), (time.perf_counter() - started) * 1000)
        return keep

    def _read_request(self, line: bytes):
        """Read the rest of the request whose first line is ``line``: set
        ``command`` and ``path``, and return whether the connection is kept
        alive after it and its body.  None for no whole request: a blank
        line (a second one: ``_answer`` skips the first), or a request cut
        short by end of file.  A refusal raises BadRequest, after which the
        connection closes, since the rest of the request may be unread."""
        self.command = self.path = None
        if len(line) > MAX_LINE:
            raise BadRequest("Request-URI Too Long")
        request_line = str(line, "iso-8859-1").rstrip("\r\n")
        words = request_line.split()
        if not words:
            return None
        if len(words) >= 3:
            text = words[-1]
            numbers = text[5:].split(".") if text.startswith("HTTP/") else ()
            if not (len(numbers) == 2 and all(n.isdecimal() and n.isascii() and len(n) <= 10
                                              for n in numbers)):
                raise BadRequest(f"Bad request version ({text!r})")
            version = int(numbers[0]), int(numbers[1])
            if version >= (2, 0):
                raise BadRequest(f"Invalid HTTP version ({text[5:]})")
        if len(words) == 2 and words[0] != "GET":
            raise BadRequest(f"Bad HTTP/0.9 request type ({words[0]!r})")
        if len(words) != 3:
            raise BadRequest(f"Bad request syntax ({request_line!r})")
        self.command, self.path = words[0], words[1]
        try:
            fields = read_fields(self.rfile)
            if fields is None:
                return None
            # RFC 9112 §3.2: exactly one Host line in an HTTP/1.1 request; a
            # second one's value is joined to the first's by ", ", which no
            # host holds
            host = fields.get("host")
            if host is None and version >= (1, 1):
                raise ValueError("an HTTP/1.1 request needs a Host line")
            if host is not None and ", " in host:
                raise ValueError(f"more than one Host line ({host!r})")
            if self.command not in ("GET", "POST"):
                # refused before respond, which reads a body of None as a GET
                raise ValueError(f"method {self.command!r} is not supported; use GET or POST")
            if "transfer-encoding" in fields:
                raise ValueError("a request body must come with a Content-Length")
            if version >= (1, 1) and fields.get("expect", "").lower() == "100-continue":
                self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = read_body(self.rfile, fields.get("content-length", "0"))
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        if body is None:
            return None
        connection = fields.get("connection", "").lower()
        return connection == "keep-alive" or (version >= (1, 1) and connection != "close"), body


class _HttpService(ThreadingMixIn, TCPServer):
    """A threading TCP server with the one request handler, which accepts on
    a thread of its own.

    Each connection is served on a thread of its own for its whole life,
    which reads its requests one after another.  For each it reads a POST
    body as ASCII text (a GET's body is read and dropped: ``None``), calls
    ``respond(path, body)`` and writes the ``(status, text)`` it returns as
    text/plain, with a Date.  A ``RestCipherError`` raised while reading the
    body or responding is written as ``400 error: <Name>: <detail>``, and so
    is any method but GET and POST (a HEAD gets the headers only) and any
    request line or header block the handler refuses (``BadRequest``): one
    over the stdlib's limits, a Transfer-Encoding, a Content-Length that is
    not one plain decimal, an obs-fold or whitespace before a colon.  A
    refusal of the request's head closes the connection.  Any other
    exception is written as ``500 error: <Name>: <detail>``, and the
    connection closes.  A reply after which the connection closes says
    ``Connection: close``.  Each request is one debug line on the
    ``restcipher.http`` logger, built only when that logger is at DEBUG; a
    connection that ends in a fault (its peer left before the reply, or it
    got no thread) is one warning line there.

    A connection is tracked from its accept, on the accepting thread, so
    ``close`` waits for every connection accepted before it, and bounds its
    own wait.  A subclass adds no attribute that ``socketserver.BaseServer``
    uses, such as ``timeout``, ``socket`` or ``server_address``.
    """

    allow_reuse_address = True          # a service restarted on its port binds at once
    daemon_threads = True
    block_on_close = False

    def __init__(self, host: str, port: int):
        self._closing = False
        self._connections = set()       # every open connection, guarded by _lock
        self._lock = threading.Condition()      # notified as each one is untracked
        try:
            super().__init__((host, port), _Handler)
        except (OSError, OverflowError) as exc:     # OverflowError: a port past 0-65535
            raise Bind(f"cannot bind {host}:{port}: {exc}") from None
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        # Python runs signal handlers on the main thread only, so this thread
        # and every handler thread it starts leave the process's signals to it
        if hasattr(signal, "pthread_sigmask"):
            signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals() - {
                signal.SIGSEGV, signal.SIGBUS, signal.SIGFPE, signal.SIGILL})
        # handle_request blocks in select with no timeout until a connection
        # arrives; close() sends one after setting the flag
        while not self._closing:
            self.handle_request()

    def get_request(self):
        connection, client_address = super().get_request()
        with self._lock:
            self._connections.add(connection)
            if self._closing:
                self._stop_reading(connection)
        return connection, client_address

    def shutdown_request(self, request):
        # under the lock, so close() never shuts down a socket being closed
        with self._lock:
            self._connections.discard(request)
            self._lock.notify_all()
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        # a peer gone before its reply was written, or a connection that got
        # no thread: one line, not socketserver's traceback
        import logging

        exc = sys.exc_info()[1]
        logging.getLogger("restcipher.http").warning(
            "%s:%s dropped: %s: %s", *client_address[:2], type(exc).__name__, exc)

    @staticmethod
    def _stop_reading(connection) -> None:
        """Make the handler's next read of ``connection`` return end of file;
        a reply being written still goes out."""
        with contextlib.suppress(OSError):      # the peer may have gone already
            connection.shutdown(socket.SHUT_RD)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self):
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, and end every kept-alive connection once its
        current request, if any, is answered; return once each is closed, or
        after 10 s with a request still being answered."""
        if self._thread.is_alive():
            with self._lock:
                self._closing = True
                for connection in self._connections:
                    self._stop_reading(connection)
            with socket.create_connection(self.server_address[:2]):
                pass
            self._thread.join()
            with self._lock:
                self._lock.wait_for(lambda: not self._connections, timeout=10)
        self.server_close()


@dataclass
class _PeerState:
    session: Session
    st_sent: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)


class ResourceServer(_HttpService):
    """Encrypting resource server for the two-party flow.

    POST /<peer> "Get key"  -> new session key for that peer
    GET  /<peer>            -> encrypted resource (ST first, TAT after)
    POST /<peer> ""         -> ST-encrypted resource representation
    POST /<peer> <message>  -> decode update, store it, reply encrypted

    A decoded update that is not one document is refused with
    MalformedStream and not stored.

    Unless ``bounds`` sets a symbol type, an issued key uses a four-class
    arrangement, which holds every printable character, so any document
    encodes under it.
    """

    def __init__(self, document: str, *, host: str = "127.0.0.1", port: int = 0,
                 rng=None, bounds=None):
        self.stream = _parse_document(document)
        self.peers = {}
        self._rng = rng
        self._bounds = {"symbol_type": (40, 63), **(bounds or {})}
        super().__init__(host, port)

    def respond(self, path: str, body) -> tuple:
        peer_id = path.strip("/")
        if not peer_id or "/" in peer_id:
            return 404, "error: BadRequest: unknown resource"
        if body == GET_KEY_COMMAND:
            # a repeated request replaces the peer's key: key changes are client-driven
            key = generate_key(self._bounds, rng=self._rng)
            self.peers[peer_id] = _PeerState(Session.for_key(key))
            return 200, serialize_key(key)
        state = self.peers.get(peer_id)
        if state is None:
            return 409, "no session key"
        with state.lock:
            if body:
                # non-empty POST carries an encrypted update of the resource
                stream = state.session.decrypt(EncryptedMessage.parse(body))
                validate_stream(stream)
                self.stream = stream
            if body == "" or not state.st_sent:
                # empty POST asks for the resource representation; the first
                # response of a session is always symbol-table encrypted
                reply = state.session.encrypt(self.stream, mode="st", access=(1,))
                state.st_sent = True
            else:
                reply = state.session.encrypt(self.stream, mode="tat", access=(1,))
        return 200, reply.serialize()


def serve(document: str, **kwargs) -> ResourceServer:
    """Start a ResourceServer; caller closes it."""
    server = ResourceServer(document, **kwargs)
    server.start()
    return server


class ResourceClient:
    """Client side of the two-party flow against one peer id.

    Every request goes over the client's one kept-alive connection, which
    ``close`` (or leaving a ``with`` block) closes.  A request that fails is
    not resent: the next one opens a new connection.

    An exchange that raises (a transport fault or timeout, a reply that does
    not parse or decode) may have moved one end's tag table alone, so the
    next one first exchanges a new key: the server replaces the peer's
    session, and both ends restart from empty tables.
    """

    def __init__(self, base_url: str, peer_id: str = "client"):
        self.url = f"{base_url}/{peer_id}"
        self.peer_id = peer_id
        self.session = None
        self._stale = False         # the last exchange raised
        self._connection = Connection(self.url)

    def close(self) -> None:
        self._connection.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def exchange_key(self) -> TenElementKey:
        key = request_key(self.url, connection=self._connection)
        self.session = Session.for_key(key)
        self._stale = False
        return key

    def _exchange(self, request):
        """(message, decoded stream) of the reply ``request()`` returns."""
        if self.session is None:
            raise BadRequest("exchange a key first")
        if self._stale:
            self.exchange_key()
        self._stale = True
        msg = EncryptedMessage.parse(request())
        stream = self.session.decrypt(msg)
        self._stale = False
        return msg, stream

    def fetch(self):
        """GET the resource."""
        return self._exchange(lambda: http_get(self.url, connection=self._connection))

    def fetch_representation(self):
        """Empty POST: the ST-encrypted resource representation."""
        return self._exchange(lambda: http_post(self.url, "", connection=self._connection))

    def push(self, stream, mode: str = "tat"):
        """POST an encrypted update; the reply is the updated resource.  A
        stream that is not one document raises MalformedStream, unsent."""
        validate_stream(stream)
        return self._exchange(lambda: http_post(
            self.url, self.session.encrypt(stream, mode=mode, access=(1,)).serialize(),
            connection=self._connection))


# three-party composition pipeline

#: keys of the worked three-party exchange
SCENARIO_KEYS = {
    "K1": (12, 6, 1, 1, 1, 14, 4, 1, 3, 2),
    "K2": (6, 12, 1, 0, 1, 14, 3, 1, 3, 2),
    "K3": (7, 10, 0, 0, 1, 14, 3, 0, 3, 2),
}

SCENARIO_DOCUMENT = (
    '<root attr1="value1" attr2="value2">'
    "<name>iiti</name><value>2</value><nv>a1</nv></root>"
)


@dataclass
class ScenarioConfig:
    document: str = SCENARIO_DOCUMENT
    keys: dict = None                    # key id -> TenElementKey
    group_id: str = "K3"
    policy: dict = None                  # ordinal -> key id
    providers: dict = None               # provider name -> its pairwise key id
    edits: dict = None                   # provider -> {ordinal: new variable text}
    mode: str = "tat"
    tamper: tuple = None                 # (provider name, foreign ordinal)
    host: str = "127.0.0.1"

    def __post_init__(self):
        if self.keys is None:
            self.keys = {kid: validate_key(k) for kid, k in SCENARIO_KEYS.items()}
        if self.policy is None:
            self.policy = {2: "K1", 3: "K2", 4: "K2"}
        if self.providers is None:
            self.providers = {"SP1": "K1", "SP2": "K2"}
        if self.edits is None:
            self.edits = {"SP1": {2: "iitd"}, "SP2": {3: "7", 4: "b2"}}


@dataclass
class ScenarioResult:
    transcript: list
    verdicts: dict                       # stage label -> list of Verdict
    final_document: str = None
    final_stream: tuple = None
    halted: bool = False
    reject_ordinals: tuple = ()


def _splice_subtrees(final, spans: dict, decoded, ordinals) -> tuple:
    """``final``, a token stream whose ``item_spans`` are ``spans``, with the
    subtrees of ``ordinals`` copied in from ``decoded``, a reply's items:
    each listed subtree decoded whole, any other subtree that holds no
    listed tag an OpaqueRun or decoded.  A subtree inside a copied one that
    another key owns (``composition.reply_owners``'s ``kept``) is copied
    from the reply too: ``changed_kept`` has refused a reply whose words
    there differ from the ones ``final``'s sender signed, so the decode
    there equals ``final``'s own items.

    Only the outermost listed subtrees are copied, in stream order; a listed
    tag nested in one of them comes along with it.  This equals replacing the
    listed subtrees one by one as long as each copied subtree holds as many
    tags as the one it replaces, so a reply that changes that, or the number
    of tags in all, is refused, and so is one with a listed tag left opaque.
    """
    wanted = set(ordinals)
    src = {}            # listed ordinal -> (first item, last item, tags inside)
    stack = []          # per open tag, (its ordinal, its item index)
    ordinal = 0
    for i, item in enumerate(decoded):
        cls = type(item)
        if cls is Open:
            ordinal += 1
            stack.append((ordinal, i))
        elif cls is Close:
            opened, start = stack.pop()
            if opened in wanted:
                src[opened] = start, i, ordinal - opened
        elif cls is OpaqueRun:
            ordinal += 1 + item.opens_inside
    if ordinal != len(spans):
        raise MalformedMessage(f"the reply holds {ordinal} tags, the document {len(spans)}")
    out = []
    pos = 0
    for ordinal in sorted(wanted):
        if ordinal not in spans or ordinal not in src:
            raise MalformedMessage(f"tag {ordinal} is missing from the document or the reply")
        _, start, end, inside = spans[ordinal]
        if start < pos:
            continue            # copied with an enclosing subtree
        first, last, opens_inside = src[ordinal]
        if opens_inside != inside:
            raise MalformedMessage(f"reply changes the tags inside tag {ordinal}")
        out += final[pos:start]
        out += decoded[first:last + 1]
        pos = end + 1
    out += final[pos:]
    return tuple(out)


def _apply_edits(items: list, edits: dict, name: str) -> list:
    """Replace the variable text directly under the given tag ordinals
    (token items).  An edit of a tag with no variable text among the items,
    one inside an OpaqueRun for instance, raises EditNotApplied, which names
    the provider ``name`` and each such ordinal."""
    out = list(items)
    ordinal = 0
    stack = []          # per open tag, its ordinal: a Variable's innermost tag, no Span's
    applied = set()
    for i, item in enumerate(out):
        if isinstance(item, OpaqueRun):
            ordinal += 1 + item.opens_inside
        elif isinstance(item, Open):
            ordinal += 1
            stack.append(ordinal)
        elif isinstance(item, Close):
            stack.pop()
        elif isinstance(item, Variable) and stack and stack[-1] in edits:
            out[i] = Variable(edits[stack[-1]])
            applied.add(stack[-1])
    missed = sorted(edits.keys() - applied)
    if missed:
        tags = ("tag " if len(missed) == 1 else "tags ") + ", ".join(map(str, missed))
        raise EditNotApplied(f"{name} cannot apply its edit of {tags}: "
                             "it reads no variable text there")
    return out


def _tamper_words(signed: Signed, ordinal: int) -> list:
    """Flip the last digit of ``ordinal``'s tag word, found by ``signed``'s record."""
    _, spans, digests = signed.layout
    tag = spans[ordinal].start      # in the body; each digest before it shifts it
    start = tag + sum(spans[o].end < tag for o in digests)
    out = list(signed)
    out[start] = out[start][:-1] + str((int(out[start][-1]) + 1) % 10)
    return out


class _Provider(_HttpService):
    """Intermediary service: verify, decode own tags, edit, re-sign, reply."""

    def __init__(self, name: str, pairwise: tuple, group: tuple, config):
        self.name = name
        self.ring = KeyRing()
        self.ring.add_key(pairwise[0], pairwise[1])
        self.ring.add_key(group[0], group[1], is_group=True)
        self.edits = config.edits.get(name, {})
        self.mode = config.mode
        self.tamper = config.tamper if config.tamper and config.tamper[0] == name else None
        self.verdicts = []
        self._processing = threading.Lock()     # one message at a time
        super().__init__(config.host, 0)

    def respond(self, path: str, body) -> tuple:
        if body is None:
            raise BadRequest(f"{self.name} answers POST only")
        with self._processing:
            return 200, self.process(body)

    def process(self, body: str) -> str:
        msg = EncryptedMessage.parse(body)
        rule = owners(self.ring, access=msg.access)     # for every step below
        verdicts = verify_digests(msg, self.ring, rule)
        self.verdicts = verdicts
        if any(v.status is Status.REJECT for v in verdicts):
            raise VerificationFailed(f"{self.name} rejects the incoming message")
        items = compose_decrypt(msg, self.ring, rule)
        items = _apply_edits(items, self.edits, self.name)
        words = compose_reencrypt(items, rule, self.ring, self.mode)
        signed = refresh_digests(words, self.ring, rule, msg.layout.digests)
        if self.tamper:
            signed = _tamper_words(signed, self.tamper[1])
        return EncryptedMessage(msg.access, tuple(signed)).serialize()


def run_composition_scenario(config: ScenarioConfig = None) -> ScenarioResult:
    """S -> SP1/SP2 -> S: encrypt, sign, edit, verify, assemble.

    The honest run returns the final edited document; a tampering provider
    halts the pipeline with Reject verdicts on the touched tags.

    S splices in from each reply only the subtrees it granted that
    provider, and refuses with AccessNotGranted, splicing nothing, a reply
    whose access list is not the one S sent it: nothing signs that list.
    S reads a reply under ``reply_owners``: the root, the granted subtrees
    and the tags that enclose them.  Every other subtree is checked against
    its digests only, and S's own copy of it stays in the final document,
    so a word S cannot read there is not decoded at all.  S checks each
    reply against the ``Signed`` record of the body it sent, which spares
    the hash of every subtree the reply sends back unchanged.  A subtree
    inside a granted one that another key owns must come back word for word
    as S sent it, for the group key, which every provider holds, may be the
    only key that signs such a tag; else S refuses the reply with
    KeptWordsChanged before it splices anything.  So S's decode of such a
    subtree equals S's own items.
    """
    config = config or ScenarioConfig()
    stream = _parse_document(config.document)
    policy = CompositionPolicy(dict(config.policy))
    ring = KeyRing()
    for key_id, key in config.keys.items():
        ring.add_key(key_id, key, is_group=(key_id == config.group_id))
    rule = owners(ring, policy)         # S's, for every message it sends or reads
    body = compose_encrypt(stream, rule, ring, config.mode)
    tag_count = len(body.spans)
    if config.tamper and (config.tamper[0] not in config.providers
                          or not 1 <= config.tamper[1] <= tag_count):
        raise Malformed(f"no provider tag {config.tamper} to tamper with")
    signed = attach_digests(body, rule, ring)

    providers = {}
    for name, pair_id in config.providers.items():
        provider = _Provider(
            name, (pair_id, config.keys[pair_id]),
            (config.group_id, config.keys[config.group_id]), config,
        )
        provider.start()
        providers[name] = provider

    transcript = []
    verdicts = {}
    try:
        replies = {}
        for name, provider in providers.items():
            access = access_header(rule, ring, [config.providers[name]], tag_count)
            reads = reply_owners(rule, body.spans, access)
            message = EncryptedMessage(access, tuple(signed)).serialize()
            uri = f"{provider.url}/process"
            transcript.append(TranscriptEntry(f"S->{name}", uri, message))
            reply = http_post(uri, message)
            transcript.append(TranscriptEntry(f"{name}->S", uri, reply))
            reply_msg = EncryptedMessage.parse(reply)
            if reply_msg.access != access:
                raise AccessNotGranted(f"{name} replies for tags {reply_msg.access}, "
                                       f"but was granted {access}")
            stage = verify_digests(reply_msg, ring, rule, sent=signed)
            verdicts[f"S<-{name}"] = stage
            rejected = tuple(v.ordinal for v in stage if v.status is Status.REJECT)
            if rejected:
                return ScenarioResult(transcript, verdicts, halted=True,
                                      reject_ordinals=rejected)
            changed = changed_kept(reads.kept, signed, reply_msg.layout)
            if changed:
                tags = ("tag " if len(changed) == 1 else "tags ") + ", ".join(map(str, changed))
                raise KeptWordsChanged(f"{name} changes {tags}, which its key does not own")
            replies[name] = reply_msg, reads

        # assemble: take each provider's granted subtrees, everything else from S's copy
        final = stream
        for reply, reads in replies.values():
            decoded = compose_decrypt(reply, ring, reads)
            # the body's words are the stream's items, so it has the stream's spans
            spans = body.spans if final is stream else item_spans(final)
            final = _splice_subtrees(final, spans, decoded, reply.access)
        document = emit_xml(final)
        transcript.append(TranscriptEntry("S", "final", document, kind="document"))
        return ScenarioResult(transcript, verdicts, final_document=document,
                              final_stream=final)
    finally:
        for provider in providers.values():
            provider.close()
