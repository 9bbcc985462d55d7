"""The two-party flow and the three-party scenario end to end, a new key
after an exchange that did not complete, the scenario's assembly step,
kept-alive connections, and closing the loopback services."""

import contextlib
import functools
import hashlib
import http.client
import logging
import random
import re
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from restcipher import (
    EncryptedMessage,
    ResourceClient,
    ScenarioConfig,
    Session,
    Status,
    emit_xml,
    parse_key,
    parse_xml,
    run_composition_scenario,
    serve,
)
from restcipher.codec import Layout, OpaqueRun, Span, item_spans, subtree_spans
from restcipher.composition import (CompositionPolicy, KeyRing, Owners, access_header,
                                    attach_digests, changed_kept, compose_decrypt,
                                    compose_encrypt, owners, refresh_digests, reply_owners)
from restcipher.docmodel import AttrName, AttrValue, Close, Open, Variable
from restcipher.errors import (EditNotApplied, KeptWordsChanged, MalformedMessage,
                               RestCipherError, Transport, UnknownTatCode)
from restcipher.keyxchg import GET_KEY_COMMAND, Connection, http_get, http_post
from restcipher import restkit
from restcipher.restkit import _HttpService, _Provider, _apply_edits, _splice_subtrees

from conftest import XML1, XML2
from docgen import nested_catalog
from oracle import oracle_apply_edits, oracle_changed_kept, oracle_splice_subtrees
from test_ownership import _record_main_decodes

DEFAULT_FINAL = ('<root attr1="value1" attr2="value2">'
                 "<name>iitd</name><value>7</value><nv>b2</nv></root>")

#: sha256 of the four message bodies of the default scenario, in order
DEFAULT_BODIES = {
    "S->SP1": "4455bab1f79e453a36839184c08161495bc0e65da90220120e0168783710b0c4",
    "SP1->S": "86cc4f0fa8ba17816820f01e09de68250633946f1aa475b7b8018b0950631298",
    "S->SP2": "ed18f2d46c0ffd9085a261d850db904171693bd1854cc13ecf2dc5964d4a50ad",
    "SP2->S": "15d4cd8caf2d45016195e9e9da5dcb96e2c5a88b817b6ebf1925bbcf01b35e13",
}


# the two-party flow over loopback


def _status(request) -> int:
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=10)
    with info.value as response:
        return response.code


def test_the_two_party_flow_keeps_both_tag_tables_equal():
    # "value3" is a new word, which both ends enter when the update passes
    update = ('<root attr1="value3" attr2="value1"><name>iitd</name>'
              "<value>7</value></root>")
    server = serve(XML1, rng=random.Random(5), bounds={"symbol_type": (63, 63)})
    try:
        with ResourceClient(server.url, "peer") as client:
            key = client.exchange_key()
            held = server.peers["peer"].session
            assert held.key == key
            mirror = Session.for_key(key)        # what the server must send

            def same_tables():
                return list(client.session.tat.items()) == list(held.tat.items())

            for mode in ("st", "tat", "tat"):
                msg, stream = client.fetch()
                assert msg.serialize() == mirror.encrypt(parse_xml(XML1), mode, (1,)).serialize()
                assert stream == parse_xml(XML1)
                assert same_tables()
            assert len(client.session.tat) > 0

            before = len(held.tat)
            msg, stream = client.push(parse_xml(update))
            assert emit_xml(stream) == update
            assert server.stream == parse_xml(update)
            mirror.encrypt(parse_xml(update), "tat", (1,))       # the update itself
            assert msg.serialize() == mirror.encrypt(parse_xml(update), "tat", (1,)).serialize()
            assert len(held.tat) == before + 1
            assert same_tables()

            assert _status(f"{server.url}/stranger") == 409
            assert _status(urllib.request.Request(f"{server.url}/stranger", data=b"04 0",
                                                  method="POST")) == 409
            assert client.fetch()[1] == parse_xml(update)
            assert same_tables()
            # an empty POST asks for the representation, always spelled out
            msg, stream = client.fetch_representation()
            assert msg.serialize() == mirror.encrypt(parse_xml(update), "st", (1,)).serialize()
            assert stream == parse_xml(update)
            assert same_tables()
    finally:
        server.close()


# a new key after an exchange that did not complete

#: a resource with two words XML1 lacks, "value3" and "iitd"
NEW_WORDS = ('<root attr1="value3" attr2="value1"><name>iitd</name>'
             "<value>7</value></root>")


def _served(port: int = 0):
    return serve(XML1, port=port, rng=random.Random(5), bounds={"symbol_type": (63, 63)})


def _tables_equal(client, server, peer_id) -> bool:
    held = server.peers[peer_id].session
    return client.session.tat.items() == held.tat.items()


def test_after_a_push_to_a_closed_server_the_next_exchange_uses_a_new_key():
    server = _served()
    address = server.server_address[:2]
    try:
        with ResourceClient(server.url, "peer") as client:
            client.exchange_key()
            session = client.session
            client.fetch()
            client.fetch()
            server.close()
            with pytest.raises(Transport):
                # the client enters the update's new words as it encrypts it
                client.push(parse_xml(NEW_WORDS))
            # the server comes back at the same address with the state it had
            restarted = _served(port=address[1])
            restarted.peers = server.peers
            server = restarted
            msg, stream = client.fetch()
            assert stream == parse_xml(XML1)
            assert _tables_equal(client, server, "peer")
            assert client.session is not session
            assert client.push(parse_xml(NEW_WORDS))[1] == parse_xml(NEW_WORDS)
            assert _tables_equal(client, server, "peer")
    finally:
        server.close()


def test_after_a_reply_that_never_arrives_the_next_exchange_uses_a_new_key(capfd):
    server = _served()
    respond = server.respond

    def dropped(path, body):
        respond(path, body)         # computed, its new words committed
        raise ConnectionAbortedError("the reply is lost")   # a 500 goes out instead

    try:
        with ResourceClient(server.url, "p1") as p1, ResourceClient(server.url, "p2") as p2:
            p1.exchange_key()
            p2.exchange_key()
            session = p2.session
            p2.fetch()
            p2.fetch()
            p1.fetch()
            p1.push(parse_xml(NEW_WORDS))
            server.respond = dropped
            with pytest.raises(Transport):
                p2.fetch()
            del server.respond
            msg, stream = p2.fetch()
            assert stream == parse_xml(NEW_WORDS)
            assert p2.session is not session
            assert _tables_equal(p2, server, "p2")
            assert p2.fetch()[1] == parse_xml(NEW_WORDS)
            assert _tables_equal(p2, server, "p2")
    finally:
        server.close()
    assert capfd.readouterr().err == ""


def test_after_a_client_timeout_the_next_exchange_uses_a_new_key(monkeypatch, caplog, capfd):
    caplog.set_level(logging.DEBUG, logger="restcipher.http")
    server = _served()
    respond = server.respond

    def late(path, body):
        reply = respond(path, body)     # computed, its new words committed
        time.sleep(0.6)                 # past the client's timeout
        return reply

    try:
        with ResourceClient(server.url, "p1") as p1, ResourceClient(server.url, "p2") as p2:
            p1.exchange_key()
            p2.exchange_key()
            session = p2.session
            p2.fetch()
            p1.push(parse_xml(NEW_WORDS))
            server.respond = late
            monkeypatch.setattr(restkit, "http_get",
                                functools.partial(restkit.http_get, timeout=0.2))
            with pytest.raises(Transport, match="timed out"):
                p2.fetch()
            monkeypatch.undo()
            del server.respond
            msg, stream = p2.fetch()
            assert stream == parse_xml(NEW_WORDS)
            assert p2.session is not session
            assert _tables_equal(p2, server, "p2")
            assert p2.fetch()[1] == parse_xml(NEW_WORDS)
            assert _tables_equal(p2, server, "p2")
    finally:
        server.close()          # returns once the late reply's thread is done
    # its write to the departed client is one logged line
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "restcipher.http" and r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    assert re.fullmatch(r"127\.0\.0\.1:\d+ dropped: (BrokenPipeError|ConnectionResetError): .*",
                        warnings[0])
    assert capfd.readouterr().err == ""


def test_an_unexpected_exception_is_a_500_and_the_next_request_reconnects(caplog, capfd):
    caplog.set_level(logging.DEBUG, logger="restcipher.http")
    server = _served()

    def faulty(path, body):
        raise KeyError("no entry")

    try:
        with ResourceClient(server.url, "peer") as client:
            client.exchange_key()
            server.respond = faulty
            with contextlib.closing(http.client.HTTPConnection(
                    *server.server_address[:2], timeout=10)) as raw:
                raw.request("GET", "/peer")
                response = raw.getresponse()
                assert response.status == 500
                assert response.getheader("Content-Type") == "text/plain"
                assert response.getheader("Connection") == "close"
                assert response.read() == b"error: KeyError: 'no entry'"
            with pytest.raises(Transport, match="500 Internal Server Error: "
                                                "error: KeyError: 'no entry'$"):
                client.fetch()
            del server.respond
            assert client.fetch()[1] == parse_xml(XML1)
    finally:
        server.close()
    requests = {}
    for record in caplog.records:
        assert record.name == "restcipher.http"
        port, *line = record.getMessage().split()
        requests.setdefault(port, []).append(tuple(line[:4]))
    # the client's key exchange and its 500 on one connection; its new key
    # and the fetch that decodes on another
    assert sorted(requests.values()) == [
        [("GET", "/peer", "500", "KeyError")],
        [("POST", "/peer", "200", "-"), ("GET", "/peer", "200", "-")],
        [("POST", "/peer", "200", "-"), ("GET", "/peer", "500", "KeyError")],
    ]
    assert capfd.readouterr().err == ""


# kept-alive connections


def test_each_connection_is_served_on_one_thread():
    server = _served()
    respond = server.respond
    answered = []

    def noted(path, body):
        answered.append((path, threading.current_thread().name))
        return respond(path, body)

    server.respond = noted
    try:
        with ResourceClient(server.url, "p1") as p1, ResourceClient(server.url, "p2") as p2:
            for client in (p1, p2):
                client.exchange_key()
            for _ in range(3):
                p1.fetch()
                p2.fetch()
    finally:
        server.close()
    threads = {path: {name for p, name in answered if p == path} for path in ("/p1", "/p2")}
    assert len(answered) == 8
    assert len(threads["/p1"]) == len(threads["/p2"]) == 1
    assert threads["/p1"] != threads["/p2"]


def test_fifty_fetches_over_one_connection_take_under_a_second():
    # with Nagle's algorithm on in the handler, each reply body waits out the
    # client's delayed ACK (about 44 ms), and 50 fetches take about 2.2 s
    server = serve(XML1, rng=random.Random(5), bounds={"symbol_type": (63, 63)})
    try:
        with ResourceClient(server.url, "peer") as client:
            client.exchange_key()
            started = time.perf_counter()
            for _ in range(50):
                assert client.fetch()[1] == parse_xml(XML1)
            assert time.perf_counter() - started < 1.0
    finally:
        server.close()


def test_one_clients_requests_share_one_connection_and_each_is_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="restcipher.http")
    server = serve(XML1, rng=random.Random(5), bounds={"symbol_type": (63, 63)})
    try:
        with ResourceClient(server.url, "peer") as client:
            client.exchange_key()
            for _ in range(19):
                client.fetch()
            with pytest.raises(Transport, match="400 Bad Request: error: MalformedMessage: "):
                http_post(client.url, "1" * 5000 + ", 04 0", connection=client._connection)
    finally:
        server.close()
    lines = [r.getMessage() for r in caplog.records if r.name == "restcipher.http"]
    assert len(lines) == 21
    assert len({line.split()[0] for line in lines}) == 1       # one client port
    assert lines[0].split()[1:6] == ["POST", "/peer", "200", "-", "in=7"]
    assert all(line.split()[1:5] == ["GET", "/peer", "200", "-"] for line in lines[1:20])
    assert lines[20].split()[1:6] == ["POST", "/peer", "400", "MalformedMessage", "in=5006"]
    assert all(line.endswith("ms") for line in lines)


def test_close_ends_twenty_idle_kept_alive_connections_promptly():
    before = set(threading.enumerate())
    server = serve(XML1, rng=random.Random(5), bounds={"symbol_type": (63, 63)})
    with contextlib.ExitStack() as stack:
        clients = [stack.enter_context(ResourceClient(server.url, f"peer{n}"))
                   for n in range(20)]
        for client in clients:
            client.exchange_key()
            client.fetch()
        started = set(threading.enumerate()) - before
        assert len(started) >= 21               # the acceptor, a thread per connection
        _assert_closes_promptly(server)
        for thread in started:
            thread.join(timeout=1)
            assert not thread.is_alive()


class _SlowService(_HttpService):
    """Answers each request after a short wait."""

    def __init__(self):
        self.responding = threading.Event()
        super().__init__("127.0.0.1", 0)

    def respond(self, path, body):
        self.responding.set()
        time.sleep(0.3)
        return 200, "slow"


def test_close_returns_once_every_connection_is_closed():
    service = _SlowService().start()
    server = serve(XML1, rng=random.Random(5), bounds={"symbol_type": (63, 63)})
    with contextlib.ExitStack() as stack:
        clients = [stack.enter_context(ResourceClient(server.url, f"peer{n}"))
                   for n in range(20)]
        for client in clients:
            client.exchange_key()
            client.fetch()
        sock = stack.enter_context(socket.create_connection(
            service.server_address[:2], timeout=10))
        sock.sendall(b"GET /x HTTP/1.1\r\nHost: x\r\n\r\n")
        assert service.responding.wait(10)
        # no thread joined: each close() itself waits for its handlers, the
        # slow one until its reply is written
        for closing in (server, service):
            closing.close()
            assert not closing._connections
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 ") and reply.endswith(b"\r\n\r\nslow")


def test_close_waits_for_a_connection_accepted_before_it(monkeypatch):
    entered, release = threading.Event(), threading.Event()
    finish_request = restkit._HttpService.finish_request

    def held(self, request, client_address):
        # on the connection's thread, before its handler reads anything
        entered.set()
        release.wait(10)
        finish_request(self, request, client_address)

    monkeypatch.setattr(restkit._HttpService, "finish_request", held)
    service = _HttpService("127.0.0.1", 0).start()
    with socket.create_connection(service.server_address[:2], timeout=10) as sock:
        assert entered.wait(10)
        closing = threading.Thread(target=service.close)
        closing.start()
        closing.join(0.3)
        assert closing.is_alive()
        release.set()
        closing.join(10)
        assert not closing.is_alive()
        assert not service._connections
        assert sock.recv(4096) == b""       # ended without a reply


def test_a_request_on_a_closed_connection_fails_once_and_is_not_resent(caplog):
    caplog.set_level(logging.DEBUG, logger="restcipher.http")
    server = serve(XML1, rng=random.Random(5), bounds={"symbol_type": (63, 63)})
    port = server.server_address[1]
    with ResourceClient(server.url, "peer") as client:
        try:
            client.exchange_key()
            client.fetch()
        finally:
            server.close()                 # shuts the client's idle connection
        fresh = serve(XML1, port=port, rng=random.Random(5),
                      bounds={"symbol_type": (63, 63)})
        try:
            caplog.clear()
            with pytest.raises(Transport, match="GET .* failed"):
                client.fetch()
            assert caplog.records == []     # the fresh server saw no resent GET
            client.exchange_key()           # a new connection, to the fresh server
            assert client.fetch()[1] == parse_xml(XML1)
            assert len({r.getMessage().split()[0] for r in caplog.records}) == 1
        finally:
            fresh.close()


def test_a_timed_out_request_drops_the_connection_and_is_not_resent():
    seen = []

    def stub(listener):
        # the first connection reads a request and never answers it
        with listener, listener.accept()[0] as first:
            seen.append(first.recv(4096))
            with listener.accept()[0] as second:
                seen.append(second.recv(4096))
                second.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")

    listener = socket.create_server(("127.0.0.1", 0))
    url = "http://127.0.0.1:%d/x" % listener.getsockname()[1]
    thread = threading.Thread(target=stub, args=(listener,))
    thread.start()
    with contextlib.closing(Connection(url)) as connection:
        with pytest.raises(Transport, match="timed out"):
            connection.request("GET", url, None, 0.2)
        assert connection.request("GET", url, None, 10) == "ok"   # on a new connection
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert [request.split(b"\r\n")[0] for request in seen] == [b"GET /x HTTP/1.1"] * 2


#: sha256 of the 21 reply bodies of ``_replay``, joined by newlines
REPLAY_SHA256 = "a634baaa44826ad48a55a383b54ce253317fc5e823dbed1ebac0593096c99ddb"


def _replay(connect) -> list:
    """Reply bodies of three peers' key exchange, 3 GETs, a TAT push, a GET
    and an empty POST, each peer's requests over ``connect(url)``."""
    server = serve(XML1, rng=random.Random(23), bounds={"symbol_type": (63, 63)})
    bodies = []
    try:
        for peer in ("p1", "p2", "p3"):
            url = f"{server.url}/{peer}"
            with connect(url) as connection:
                bodies.append(http_post(url, GET_KEY_COMMAND, connection=connection))
                session = Session.for_key(parse_key(bodies[-1]))
                for _ in range(3):
                    bodies.append(http_get(url, connection=connection))
                update = session.encrypt(parse_xml(XML2), "tat", (1,)).serialize()
                bodies.append(http_post(url, update, connection=connection))
                bodies.append(http_get(url, connection=connection))
                bodies.append(http_post(url, "", connection=connection))
                for body in bodies[-6:]:
                    session.decrypt(EncryptedMessage.parse(body))
    finally:
        server.close()
    return bodies


@pytest.mark.parametrize("connect", [lambda url: contextlib.closing(Connection(url)),
                                     lambda url: contextlib.nullcontext()],
                         ids=["kept-alive", "one-per-request"])
def test_reply_bodies_are_pinned_over_a_fixed_replay(connect):
    bodies = _replay(connect)
    assert len(bodies) == 21
    assert hashlib.sha256("\n".join(bodies).encode("ascii")).hexdigest() == REPLAY_SHA256


# the scenario end to end


@pytest.mark.parametrize("mode", ["tat", "st"])
def test_default_scenario_yields_the_edited_document(mode):
    result = run_composition_scenario(ScenarioConfig(mode=mode))
    assert not result.halted
    assert result.final_document == DEFAULT_FINAL
    assert result.final_stream == parse_xml(DEFAULT_FINAL)
    assert all(v.status.value == "accept"
               for stage in result.verdicts.values() for v in stage)


def test_default_scenario_message_bodies_are_pinned():
    result = run_composition_scenario(ScenarioConfig())
    bodies = {e.direction: hashlib.sha256(e.body.encode("ascii")).hexdigest()
              for e in result.transcript if e.kind == "message"}
    assert bodies == DEFAULT_BODIES
    assert list(bodies) == list(DEFAULT_BODIES)


def test_a_tampering_provider_halts_the_scenario():
    result = run_composition_scenario(ScenarioConfig(tamper=("SP1", 2)))
    assert result.halted
    assert result.reject_ordinals == (2, 1)
    assert result.final_document is None


@pytest.mark.parametrize("ordinal", [3, 4])
def test_a_tampering_second_provider_halts_the_scenario(ordinal):
    # SP2 receives SP1's tag 2 as a run ahead of its own tags, so its tamper
    # word is placed by the received spans it re-signs by
    result = run_composition_scenario(ScenarioConfig(tamper=("SP2", ordinal)))
    assert result.halted
    assert result.reject_ordinals == (ordinal, 1)
    assert result.final_document is None


class _Forger(_Provider):
    """A provider that also holds the group key, so it can read and re-sign
    the group's tag 4: it sets that tag's text to FORGED and claims access
    to tag 4 as well as its own tag 2."""

    def process(self, body: str) -> str:
        msg = EncryptedMessage.parse(body)
        rule = owners(self.ring, access=msg.access)
        rule[4] = self.ring[self.ring.group_id]
        items = compose_decrypt(msg, self.ring, rule)
        words = compose_encrypt(_apply_edits(items, {4: "FORGED"}, self.name),
                                rule, self.ring, self.mode)
        signed = refresh_digests(words, self.ring, rule, msg.layout)
        return EncryptedMessage((2, 4), tuple(signed)).serialize()


@pytest.mark.parametrize("mode", ["tat", "st"])
def test_a_reply_claiming_a_tag_it_was_not_granted_is_refused(monkeypatch, mode):
    # tag 4 is the group key's, which every provider holds; nothing signs the
    # access list, so only the list S sent says what SP1 may change
    monkeypatch.setattr(restkit, "_Provider", lambda name, *args: (
        _Forger if name == "SP1" else _Provider)(name, *args))
    config = ScenarioConfig(policy={2: "K1", 3: "K2"},
                            edits={"SP1": {2: "iitd"}, "SP2": {3: "7"}}, mode=mode)
    with pytest.raises(RestCipherError) as refused:
        run_composition_scenario(config)
    assert refused.value.name == "AccessNotGranted"
    assert str(refused.value) == "SP1 replies for tags (2, 4), but was granted (2,)"


#: tag 4 (nv) is the group key's and lies inside SP1's tag 2 (item)
NESTED_DOCUMENT = '<root a="v"><item><name>n</name><nv>x</nv></item><q>y</q></root>'
NESTED_POLICY = {2: "K1", 3: "K1", 5: "K2"}
NESTED_EDITS = {"SP1": {3: "m"}, "SP2": {5: "z"}}


class _NestedForger(_Provider):
    """A provider that reads a group tag its recipient rule leaves foreign,
    by default tag 4, nested in its own tag 2, with the group key, which
    every provider holds: it sets that tag's text to FORGED and re-signs the
    subtrees it holds under the access list it was sent."""

    forged = 4

    def process(self, body: str) -> str:
        msg = EncryptedMessage.parse(body)
        rule = owners(self.ring, access=msg.access)
        rule[self.forged] = self.ring[self.ring.group_id]
        items = compose_decrypt(msg, self.ring, rule)
        words = compose_encrypt(_apply_edits(items, {self.forged: "FORGED"}, self.name),
                                rule, self.ring, self.mode)
        signed = refresh_digests(words, self.ring, rule, msg.layout)
        return EncryptedMessage(msg.access, tuple(signed)).serialize()


@pytest.mark.parametrize("mode", ["tat", "st"])
def test_a_reply_that_changes_a_group_tag_inside_its_own_is_refused(monkeypatch, mode):
    # every digest of the forged reply verifies: SP1 holds K1, which signs
    # tag 2, and the group key, which signs the root; but an honest SP1
    # cannot read tag 4 and sends its words back as S sent them
    honest = run_composition_scenario(ScenarioConfig(
        document=NESTED_DOCUMENT, policy=NESTED_POLICY, edits=NESTED_EDITS, mode=mode))
    assert honest.final_document == \
        '<root a="v"><item><name>m</name><nv>x</nv></item><q>z</q></root>'
    monkeypatch.setattr(restkit, "_Provider", lambda name, *args: (
        _NestedForger if name == "SP1" else _Provider)(name, *args))
    config = ScenarioConfig(document=NESTED_DOCUMENT, policy=NESTED_POLICY,
                            edits=NESTED_EDITS, mode=mode)
    with pytest.raises(KeptWordsChanged) as refused:
        run_composition_scenario(config)
    assert str(refused.value) == "SP1 changes tag 4, which its key does not own"


@pytest.mark.parametrize("mode", ["tat", "st"])
def test_s_holds_a_group_tag_inside_a_grant_as_the_run_its_provider_copied(monkeypatch, mode):
    # SP1 reads its tags 2 and 3 and copies the group's tag 4 inside tag 2
    # and SP2's tag 5 as runs; S reads SP1's reply by the same rule
    decodes = _record_main_decodes(monkeypatch)
    result = run_composition_scenario(ScenarioConfig(
        document=NESTED_DOCUMENT, policy=NESTED_POLICY, edits=NESTED_EDITS, mode=mode))
    assert result.final_document == \
        '<root a="v"><item><name>m</name><nv>x</nv></item><q>z</q></root>'
    (access, sp1), _ = decodes
    assert access == (2, 3)
    assert [item.ordinal for item in sp1 if type(item) is OpaqueRun] == [4, 5]


#: tag 5 (q) is the group key's and lies beside the tags the default policy maps
UNMAPPED_DOCUMENT = ('<root attr1="value1" attr2="value2"><name>iiti</name><value>2</value>'
                     "<nv>a1</nv><q>y</q></root>")


@pytest.mark.parametrize("mode", ["tat", "st"])
def test_a_reply_that_changes_a_group_tag_beside_its_own_is_refused(monkeypatch, mode):
    # no provider reads tag 5, so every honest reply copies it as it was
    # sent; a forger that holds the group key re-signs the root over its
    # own tag 5, and every digest of its reply verifies
    honest = run_composition_scenario(ScenarioConfig(document=UNMAPPED_DOCUMENT, mode=mode))
    assert honest.final_document == ('<root attr1="value1" attr2="value2"><name>iitd</name>'
                                     "<value>7</value><nv>b2</nv><q>y</q></root>")
    monkeypatch.setattr(_NestedForger, "forged", 5)
    monkeypatch.setattr(restkit, "_Provider", lambda name, *args: (
        _NestedForger if name == "SP1" else _Provider)(name, *args))
    with pytest.raises(KeptWordsChanged) as refused:
        run_composition_scenario(ScenarioConfig(document=UNMAPPED_DOCUMENT, mode=mode))
    assert str(refused.value) == "SP1 changes tag 5, which its key does not own"


def test_a_provider_refuses_an_edit_of_a_tag_it_cannot_read():
    # SP2's tag 3 lies inside SP1's tag 2, which the recipient rule makes
    # foreign to SP2, so tag 3 reaches SP2 inside an OpaqueRun
    config = ScenarioConfig(
        document='<root a="v"><item><name>n1</name><price>1</price></item><x>b</x></root>',
        policy={2: "K1", 3: "K2", 4: "K1"}, edits={"SP1": {4: "9"}, "SP2": {3: "n2"}},
        mode="st")
    with pytest.raises(Transport, match="/process failed: 400 Bad Request: error: "
                                        "EditNotApplied: SP2 cannot apply its edit of tag 3: "):
        run_composition_scenario(config)


@pytest.mark.parametrize("mode", ["tat", "st"])
def test_a_provider_refuses_an_empty_edit(mode):
    # empty variable text spells no word, so SP1 refuses it rather than
    # send a reply no reader can parse
    config = ScenarioConfig(edits={"SP1": {2: ""}, "SP2": {3: "7", 4: "b2"}}, mode=mode)
    with pytest.raises(Transport, match="/process failed: 400 Bad Request: error: "
                                        "UnsupportedShape: empty variable text at word "):
        run_composition_scenario(config)


def test_an_edit_applies_to_the_variable_text_directly_under_its_tag():
    items = parse_xml("<r><a>x</a><b><c>y</c></b><d></d></r>")
    assert tuple(_apply_edits(items, {2: "z", 4: "w"}, "SP1")) == parse_xml(
        "<r><a>z</a><b><c>w</c></b><d></d></r>")
    # tag 3 holds only a tag, tag 5 no text at all, and there is no tag 9
    with pytest.raises(EditNotApplied, match="^SP1 cannot apply its edit of tags 3, 5, 9: "):
        _apply_edits(items, {2: "z", 3: "w", 5: "v", 9: "q"}, "SP1")


_RANDOM_CATALOGS = (hs.randoms(use_true_random=False),
                    hs.lists(hs.sampled_from(["K1", "K2", "K3"]), min_size=1, max_size=20))


def _random_catalog(rng, keys) -> tuple:
    """(config, expected document): item j's subtree goes to ``keys[j]``;
    SP1 renames its items and SP2 reprices its own."""
    document = nested_catalog(rng, len(keys))
    stream = parse_xml(document)
    spans = item_spans(stream)
    items = [o for o, span in spans.items() if stream[span.start].name == "item"]
    policy, edits, expected = {}, {"SP1": {}, "SP2": {}}, document
    for j, (start, end, key) in enumerate(zip(items, items[1:] + [len(spans) + 1], keys)):
        policy.update(dict.fromkeys(range(start, end), key))
        if key == "K1":
            edits["SP1"][start + 1] = f"m{j}"
            expected = expected.replace(f"<name>n{j}</name>", f"<name>m{j}</name>")
        elif key == "K2":
            edits["SP2"][start + 2] = f"{j}9"
            expected = expected.replace(f"<price>{j}5</price>", f"<price>{j}9</price>")
    config = ScenarioConfig(document=document, policy=policy, edits=edits, mode="st")
    return config, emit_xml(parse_xml(expected))


@settings(max_examples=25, deadline=None)
@given(*_RANDOM_CATALOGS)
def test_the_scenario_applies_every_edit_on_random_catalogs(rng, keys):
    config, expected = _random_catalog(rng, keys)
    result = run_composition_scenario(config)
    assert not result.halted
    assert all(v.status is Status.ACCEPT for stage in result.verdicts.values() for v in stage)
    assert result.final_document == expected


@settings(max_examples=25, deadline=None)
@given(*_RANDOM_CATALOGS)
def test_s_reads_a_reply_by_the_rule_its_provider_read_the_message_by(rng, keys):
    # one ownership rule at both ends: S's rule for a reply maps the
    # ordinals the provider's maps, each to a key of the same id
    config, _ = _random_catalog(rng, keys)
    ring = KeyRing()
    for key_id, key in config.keys.items():
        ring.add_key(key_id, key, is_group=(key_id == config.group_id))
    rule = owners(ring, CompositionPolicy(config.policy))
    tags = range(1, len(item_spans(parse_xml(config.document))) + 1)
    for pair_id in config.providers.values():
        provider = KeyRing()
        provider.add_key(pair_id, config.keys[pair_id])
        provider.add_key(config.group_id, config.keys[config.group_id], is_group=True)
        access = access_header(rule, ring, [pair_id], len(tags))
        reads, read = reply_owners(rule, access), owners(provider, access=access)
        assert [reads[o] and reads[o].key_id for o in tags] == \
            [read[o] and read[o].key_id for o in tags]


def _changed(word: str) -> str:
    """The word with its last digit changed, of the same class."""
    return word[:-1] + ("2" if word[-1] == "1" else "1")


@settings(max_examples=25, deadline=None)
@given(*_RANDOM_CATALOGS, hs.randoms(use_true_random=False))
def test_changed_kept_equals_the_per_tag_oracle_on_random_catalogs(rng, keys, pick):
    # each provider's real reply, as sent and with one word of a subtree it
    # copied changed: a tag word, or a word inside the subtree
    config, _ = _random_catalog(rng, keys)
    ring = KeyRing()
    for key_id, key in config.keys.items():
        ring.add_key(key_id, key, is_group=(key_id == config.group_id))
    rule = owners(ring, CompositionPolicy(config.policy))
    body = compose_encrypt(parse_xml(config.document), rule, ring, config.mode)
    signed = attach_digests(body, rule, ring)
    for name, pair_id in config.providers.items():
        access = access_header(rule, ring, [pair_id], len(body.spans))
        read = reply_owners(rule, access)
        provider = _Provider(name, (pair_id, config.keys[pair_id]),
                             (config.group_id, config.keys[config.group_id]), config)
        try:
            reply = provider.process(EncryptedMessage(access, tuple(signed)).serialize())
        finally:
            provider.close()
        layout = EncryptedMessage.parse(reply).layout
        assert changed_kept(read, signed, layout) == [] == oracle_changed_kept(
            read, signed, layout)
        foreign = [o for o in layout.spans if read.get(o) is None]
        if not foreign:
            continue
        span = layout.spans[pick.choice(foreign)]
        words = list(layout.body)
        i = pick.choice([i for i in range(span.start, span.end) if words[i] != "0"])
        words[i] = _changed(words[i])
        edited = layout._replace(body=tuple(words))
        got = changed_kept(read, signed, edited)
        assert got == oracle_changed_kept(read, signed, edited) and len(got) == 1


# the assembly against one replacement per listed ordinal


def _subtree_token_span(stream, ordinal: int):
    """(start, end) token indexes of a tag subtree, closer inclusive."""
    start = [i for i, token in enumerate(stream) if isinstance(token, Open)][ordinal - 1]
    depth = 0
    for i in range(start, len(stream)):
        if isinstance(stream[i], Open):
            depth += 1
        elif isinstance(stream[i], Close):
            depth -= 1
            if depth == 0:
                return start, i
    raise ValueError(f"no subtree for ordinal {ordinal}")


def _replace_one_by_one(final, decoded, ordinals) -> tuple:
    final = list(final)
    for ordinal in ordinals:
        src = _subtree_token_span(decoded, ordinal)
        dst = _subtree_token_span(tuple(final), ordinal)
        final[dst[0]:dst[1] + 1] = list(decoded[src[0]:src[1] + 1])
    return tuple(final)


def _provider_copy(stream, owned: set, label: str) -> tuple:
    """``stream`` with the variable text of each owned tag that a recipient
    rule reaches relabelled: an owned tag all of whose enclosing tags but
    the root are owned too."""
    out, stack, ordinal = [], [], 0     # per open tag, (its ordinal, whether it is reached)
    for token in stream:
        if isinstance(token, Open):
            ordinal += 1
            stack.append((ordinal, not stack or ordinal in owned and stack[-1][1]))
        elif isinstance(token, Close):
            stack.pop()
        elif isinstance(token, Variable) and stack[-1][0] in owned and stack[-1][1]:
            token = Variable(f"{label}-{token.text}")
        out.append(token)
    return tuple(out)


def _policies(stream, rng):
    """SP1 owns whole items and some of their inner tags; SP2 owns tags,
    some of them inside SP1's items."""
    opens = [t for t in stream if isinstance(t, Open)]
    sp1, sp2 = set(), set()
    for ordinal, token in enumerate(opens, start=1):
        if ordinal == 1:
            continue
        draw = rng.random()
        if token.name == "item" and draw < 0.5:
            sp1.add(ordinal)
        elif token.name != "item" and draw < 0.3:
            sp1.add(ordinal)            # nested under an SP1 item, or on its own
        elif token.name != "item" and draw < 0.6:
            sp2.add(ordinal)            # often inside an SP1 item
    return sp1, sp2


def _as_read(stream, ordinals) -> tuple:
    """``stream`` as the sender reads a reply granting ``ordinals``: each
    subtree ``reply_owners`` leaves foreign is one OpaqueRun."""
    spans = item_spans(stream)
    everything = Owners()
    everything.default = "held"
    reads = reply_owners(everything, ordinals)
    out, ordinal, i = [], 0, 0
    while i < len(stream):
        if isinstance(stream[i], Open):
            ordinal += 1
            if reads[ordinal] is None:
                span = spans[ordinal]
                out.append(OpaqueRun(("w",) * (span.end - span.start + 1),
                                     ordinal, span.opens_inside))
                ordinal += span.opens_inside
                i = span.end + 1
                continue
        out.append(stream[i])
        i += 1
    return tuple(out)


def _splice(final, decoded) -> tuple:
    """``final`` with ``decoded`` written into it as S writes a reply."""
    out = list(final)
    _splice_subtrees(out, decoded, item_spans(final)[2].start)
    return tuple(out)


@pytest.mark.parametrize("seed", range(12))
def test_splice_equals_replacing_one_by_one(seed):
    rng = random.Random(seed)
    final = parse_xml(nested_catalog(rng, 12))
    sp1, sp2 = _policies(final, rng)
    replies = [(sorted(sp1), _provider_copy(final, sp1, "SP1")),
               (sorted(sp2), _provider_copy(final, sp2, "SP2"))]
    want = got = whole = final
    for ordinals, decoded in replies:
        want = _replace_one_by_one(want, decoded, ordinals)
        got = _splice(got, _as_read(decoded, ordinals))
        whole = oracle_splice_subtrees(whole, decoded, ordinals)    # every subtree decoded
    assert got == whole == want


@settings(max_examples=25, deadline=None)
@given(*_RANDOM_CATALOGS, hs.sampled_from(["st", "tat"]))
def test_s_splices_each_reply_as_the_oracle_does_on_random_catalogs(rng, keys, mode):
    # every reply S decodes, with its runs, written in by word position
    # equals the copy of each granted subtree by its Spans
    config, expected = _random_catalog(rng, keys)
    config.mode = mode
    accesses, spliced = [], []
    decode, splice = restkit.compose_decrypt, restkit._splice_subtrees

    def recorded(msg, ring, policy=None):
        items = decode(msg, ring, policy)
        if threading.current_thread() is threading.main_thread():
            accesses.append(msg.access)
        return items

    def checked(final, decoded, head):
        want = oracle_splice_subtrees(tuple(final), decoded, accesses[-1])
        splice(final, decoded, head)
        spliced.append(tuple(final) == want)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(restkit, "compose_decrypt", recorded)
        patch.setattr(restkit, "_splice_subtrees", checked)
        try:
            result = run_composition_scenario(config)
        except UnknownTatCode:
            # ROADMAP item 1: in tat mode S may misread a reply's root
            assert mode == "tat"
        else:
            assert result.final_document == expected and len(spliced) == 2
    assert all(spliced) and len(spliced) == len(accesses)


def test_s_keeps_its_own_copy_of_a_tag_its_provider_could_not_reach():
    final = parse_xml("<r><item><name>a</name><price>1</price></item><x>b</x></r>")
    # SP2 is granted the name alone, inside an item it cannot read: the
    # sender reads the item as the one run SP2 copied and keeps its own name
    forged = parse_xml("<r><item><name>z</name><price>1</price></item><x>b</x></r>")
    read = _as_read(forged, (3,))
    assert [type(t).__name__ for t in read] == ["Open", "OpaqueRun", "OpaqueRun", "Close"]
    assert _splice(final, read) == final
    # SP1 is granted the item and its name, not the price inside it: the
    # sender copies the item from the reply with its own price in the run
    sp1 = _provider_copy(final, {2, 3}, "SP1")
    read = _as_read(sp1, (2, 3))
    assert [type(t).__name__ for t in read] == [
        "Open", "Open", "Open", "Variable", "Close", "OpaqueRun", "Close", "OpaqueRun", "Close"]
    assert _splice(final, read) == _replace_one_by_one(final, sp1, (2,)) == parse_xml(
        "<r><item><name>SP1-a</name><price>1</price></item><x>b</x></r>")


@pytest.mark.parametrize("seed", range(12))
def test_item_spans_of_a_stream_as_read_are_those_of_the_tags_read(seed):
    # each tag read keeps its place and its count of tags inside, a run
    # counting for all of its tags; a tag in a run has no Span
    rng = random.Random(seed)
    final = parse_xml(nested_catalog(rng, 12))
    full = item_spans(final)
    for ordinals in map(sorted, _policies(final, rng)):
        read = _as_read(final, ordinals)
        at, pos = {}, 0         # index in ``final`` -> index in ``read``, of each read item
        for k, item in enumerate(read):
            at[pos] = k
            pos += len(item.words) if type(item) is OpaqueRun else 1
        want = [Span(o, at[span.start], at[span.end], span.opens_inside)
                for o, span in full.items()
                if span.start in at and type(read[at[span.start]]) is Open]
        assert list(item_spans(read).values()) == want


def _edit_outcome(apply, items, edits):
    """The edited items, or the EditNotApplied text, of ``apply``."""
    try:
        return tuple(apply(items, edits, "SP1"))
    except EditNotApplied as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(12))
def test_edits_equal_the_oracle_s_on_streams_as_read(seed):
    rng = random.Random(seed)
    final = parse_xml(nested_catalog(rng, 12))
    count = len(item_spans(final))
    for ordinals in map(sorted, _policies(final, rng)):
        read = _as_read(final, ordinals)
        # the granted tags the oracle edits, each granted tag, and any tags,
        # one past the last included
        each = [o for o in ordinals if type(_edit_outcome(
            oracle_apply_edits, read, {o: "e"})) is tuple]
        for edited in (each, ordinals, rng.sample(range(1, count + 2), 6)):
            edits = {o: f"e{o}" for o in edited}
            assert _edit_outcome(_apply_edits, read, edits) == \
                _edit_outcome(oracle_apply_edits, read, edits)


#: SP1's item, tag 3, is the last subtree, so a reshape of it moves no
#: ordinal that a digest after it is checked under
RESHAPE_DOCUMENT = "<r><a>x</a><item><name>n</name><price>1</price></item></r>"
RESHAPE_POLICY = {2: "K2", 3: "K1", 4: "K1", 5: "K1"}
RESHAPE_EDITS = {"SP1": {4: "m"}, "SP2": {2: "y"}}


class _Reshaper(_Provider):
    """A provider that replaces its item by the one of ``document``, reads
    any tag that adds with its own key, and signs each subtree signed before
    by its new Span, so every digest of its reply verifies."""

    document = None

    def process(self, body: str) -> str:
        msg = EncryptedMessage.parse(body)
        rule = owners(self.ring, access=msg.access)
        items = compose_decrypt(msg, self.ring, rule)
        shaped = parse_xml(self.document)
        items = items[:items.index(Open("item"))] + list(shaped[shaped.index(Open("item")):])
        encode = Owners(rule)
        encode.default = rule[3]
        words = compose_encrypt(items, encode, self.ring, self.mode)
        spans = subtree_spans(words).spans
        digests = {o: msg.layout.digests[o] for o in spans if o in msg.layout.digests}
        signed = refresh_digests(words, self.ring, rule, Layout(tuple(words), spans, digests))
        return EncryptedMessage(msg.access, tuple(signed)).serialize()


def test_a_reply_that_changes_the_tags_inside_a_subtree_is_refused(monkeypatch):
    final = parse_xml("<r><item><name>a</name></item></r>")
    # a listed tag the reply holds in a run stays as S has it: its provider
    # could not read it either
    assert _splice(final, (final[0], OpaqueRun(("w",) * 5, 2, 1), final[-1])) == final
    # S checks a reply's Spans from its Layout before it decodes any reply
    honest = run_composition_scenario(ScenarioConfig(
        document=RESHAPE_DOCUMENT, policy=RESHAPE_POLICY, edits=RESHAPE_EDITS))
    assert honest.final_document == "<r><a>y</a><item><name>m</name><price>1</price></item></r>"
    decodes = _record_main_decodes(monkeypatch)
    monkeypatch.setattr(restkit, "_Provider", lambda name, *args: (
        _Reshaper if name == "SP1" else _Provider)(name, *args))
    for document in (
            # one more tag inside the item
            "<r><a>x</a><item><name>n</name><price>1</price><qty>2</qty></item></r>",
            # the price moved into the name: as many tags inside the item and in all
            "<r><a>x</a><item><name><price>1</price></name></item></r>"):
        monkeypatch.setattr(_Reshaper, "document", document)
        for mode in ("tat", "st"):
            config = ScenarioConfig(document=RESHAPE_DOCUMENT, policy=RESHAPE_POLICY,
                                    edits=RESHAPE_EDITS, mode=mode)
            with pytest.raises(MalformedMessage) as refused:
                run_composition_scenario(config)
            assert str(refused.value) == \
                "SP1 replies with a body that does not lie where the sent one did"
            assert decodes == []


class _AttributeAdder(_Provider):
    """A provider that adds ``x="evil"`` to its <name> and signs each
    subtree signed before by its new Span, so every digest of its reply
    verifies and no tag moves in document or closer order."""

    def process(self, body: str) -> str:
        msg = EncryptedMessage.parse(body)
        rule = owners(self.ring, access=msg.access)
        items = list(compose_decrypt(msg, self.ring, rule))
        at = items.index(Open("name")) + 1
        items[at:at] = [AttrName("x"), AttrValue("evil")]
        words = compose_encrypt(items, rule, self.ring, self.mode)
        layout = Layout(tuple(words), subtree_spans(words).spans, msg.layout.digests)
        signed = refresh_digests(words, self.ring, rule, layout)
        return EncryptedMessage(msg.access, tuple(signed)).serialize()


def test_a_reply_that_adds_an_attribute_to_a_granted_tag_is_refused(monkeypatch):
    # the tags come back in the order sent, but every word after the new
    # attribute lies two words later than in the body S sent
    decodes = _record_main_decodes(monkeypatch)
    monkeypatch.setattr(restkit, "_Provider", lambda name, *args: (
        _AttributeAdder if name == "SP1" else _Provider)(name, *args))
    for mode in ("tat", "st"):
        with pytest.raises(MalformedMessage) as refused:
            run_composition_scenario(ScenarioConfig(mode=mode))
        assert str(refused.value) == \
            "SP1 replies with a body that does not lie where the sent one did"
        assert decodes == []


class _RootRewriter(_Provider):
    """A provider that also renames the root and changes its first
    attribute value and any text of its own, and re-signs the root with the
    group key it holds, so every digest of its reply verifies and every
    word lies where it did."""

    def process(self, body: str) -> str:
        msg = EncryptedMessage.parse(body)
        rule = owners(self.ring, access=msg.access)
        items = _apply_edits(compose_decrypt(msg, self.ring, rule), self.edits, self.name)
        items[:3] = [Open("evil"), items[1], AttrValue("evil")]
        if type(items[-2]) is Variable:
            items[-2] = Variable("evil")
        words = compose_encrypt(items, rule, self.ring, self.mode)
        signed = refresh_digests(words, self.ring, rule, msg.layout)
        return EncryptedMessage(msg.access, tuple(signed)).serialize()


@pytest.mark.parametrize("mode", ["tat", "st"])
@pytest.mark.parametrize("document,edits,final", [
    (restkit.SCENARIO_DOCUMENT, None, DEFAULT_FINAL),
    ('<root attr1="value1">x</root>', {}, '<root attr1="value1">x</root>'),
], ids=["default", "text-only-root"])
def test_s_keeps_its_own_root_when_a_provider_re_signs_a_changed_one(
        monkeypatch, mode, document, edits, final):
    # a provider holds the group key that signs the root, so S takes none
    # of the root's own words from a reply
    decodes = _record_main_decodes(monkeypatch)
    monkeypatch.setattr(restkit, "_Provider", _RootRewriter)
    result = run_composition_scenario(ScenarioConfig(document=document, edits=edits, mode=mode))
    assert all(v.status is Status.ACCEPT for stage in result.verdicts.values() for v in stage)
    assert [read[:3] for _, read in decodes] == \
        [[Open("evil"), AttrName("attr1"), AttrValue("evil")]] * 2
    assert result.final_document == final


# closing a service returns at once


def _assert_closes_promptly(service) -> None:
    address = service.server_address[:2]
    started = time.perf_counter()
    service.close()
    assert time.perf_counter() - started < 0.1
    service._thread.join(timeout=1)
    assert not service._thread.is_alive()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=1).close()


def test_a_resource_server_closes_promptly():
    _assert_closes_promptly(serve(XML1))


def test_a_provider_closes_promptly():
    config = ScenarioConfig()
    _assert_closes_promptly(_Provider("SP1", ("K1", config.keys["K1"]),
                                      ("K3", config.keys["K3"]), config).start())


class _SignalMaskService(_HttpService):
    """Replies with the signals the answering thread blocks."""

    def respond(self, path, body):
        return 200, " ".join(str(int(s)) for s in signal.pthread_sigmask(signal.SIG_BLOCK, []))


@pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="no POSIX signal masks")
def test_service_threads_leave_the_process_signals_to_the_main_thread():
    # a SIGINT the kernel hands to a service thread would not interrupt a main
    # thread that sleeps until KeyboardInterrupt, as `restcipher serve` does
    service = _SignalMaskService("127.0.0.1", 0).start()
    try:
        with contextlib.closing(Connection(service.url)) as connection:
            for _ in range(3):             # one connection's thread, request after request
                blocked = {int(s) for s in http_get(f"{service.url}/x",
                                                    connection=connection).split()}
                assert {int(signal.SIGINT), int(signal.SIGTERM)} <= blocked
                assert int(signal.SIGSEGV) not in blocked
    finally:
        service.close()
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])


def test_a_service_that_never_started_closes():
    config = ScenarioConfig()
    provider = _Provider("SP1", ("K1", config.keys["K1"]),
                         ("K3", config.keys["K3"]), config)
    provider.close()
    assert not provider._thread.is_alive()
