"""The HTTP and CLI boundaries: bad input gives a named error, and CLI state
files carry a session from one run to the next."""

import gc
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.parse
import urllib.request
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from restcipher import (
    EncryptedMessage,
    ResourceClient,
    ResourceServer,
    ScenarioConfig,
    Session,
    emit_xml,
    parse_key,
    parse_xml,
    request_key,
    run_composition_scenario,
    serve,
)
from restcipher.cli import main
from restcipher.docmodel import CLOSE, AttrName, Open, Variable
from restcipher.errors import (Bind, Corrupt, Malformed, MalformedStream, OutOfRange, Transport,
                               WidthTooSmall)
from restcipher.keyxchg import http_get, http_post, load_ring
from restcipher.restkit import PLAIN_HTTP_WARNING, _HttpService, _Provider

from conftest import K1_TEXT, K2_TEXT, K3_TEXT, XML1, XML2

#: a full-printable arrangement, so every generated key encodes XML1
SERVER_BOUNDS = {"symbol_type": (63, 63)}


def _post_bytes(url: str, data: bytes) -> tuple:
    """(status, body) of a POST that the server refuses."""
    request = urllib.request.Request(url, data=data, method="POST",
                                     headers={"Content-Type": "text/plain"})
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=10)
    with info.value as response:
        return response.code, response.read().decode("ascii")


def test_non_ascii_post_to_the_resource_server_is_a_bad_request():
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        status, body = _post_bytes(f"{server.url}/peer", "Get kéy".encode("utf-8"))
        assert status == 400
        assert body.startswith("error: BadRequest: ")
        with ResourceClient(server.url, "peer") as client:
            client.exchange_key()
            assert client.fetch()[1] == parse_xml(XML1)
    finally:
        server.close()


#: a decoded stream that is no document: the attribute's value is missing
NO_DOCUMENT = (Open("a"), AttrName("b"), Variable("x"), CLOSE)


def test_a_client_refuses_to_push_a_stream_that_is_no_document():
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        with ResourceClient(server.url, "peer") as client:
            client.exchange_key()
            client.fetch()
            before = client.session.tat.items()
            with pytest.raises(MalformedStream, match="cannot follow AttrName"):
                client.push(NO_DOCUMENT)
            assert client.session.tat.items() == before
            assert server.peers["peer"].session.tat.items() == before
            assert server.stream == parse_xml(XML1)
            assert client.fetch()[1] == parse_xml(XML1)
    finally:
        server.close()


def test_the_resource_server_refuses_an_update_that_is_no_document():
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        with ResourceClient(server.url, "p1") as sender, \
                ResourceClient(server.url, "p2") as reader:
            sender.exchange_key()
            reader.exchange_key()
            sender.fetch()
            body = sender.session.encrypt(NO_DOCUMENT, mode="tat", access=(1,)).serialize()
            with pytest.raises(Transport, match="400 .*error: MalformedStream: "
                                                "Variable at token 2 cannot follow AttrName"):
                http_post(sender.url, body)
            assert server.stream == parse_xml(XML1)
            # the refused update's new words entered both ends alike
            assert sender.session.tat.items() == server.peers["p1"].session.tat.items()
            assert sender.fetch()[1] == parse_xml(XML1)
            assert reader.fetch()[1] == parse_xml(XML1)
    finally:
        server.close()


def test_decrypting_a_stream_that_is_no_document_is_a_named_error(tmp_path, capsys):
    assert main(["keygen", "--seed", "7", "--bounds", "symbol_type=63..63"]) == 0
    key = capsys.readouterr().out.strip()
    plain, cipher = tmp_path / "plain.xml", tmp_path / "cipher"
    plain.write_text('<a b="c">x</a>', encoding="utf-8")
    assert main(["encrypt", "--key", key, "--mode", "st", "--in", str(plain)]) == 0
    assert capsys.readouterr().out == "0884 00306 000337 593 0\n"
    cipher.write_text("0884 00306 593 0", encoding="utf-8")    # the value word dropped
    state = tmp_path / "receiver.state"
    assert main(["decrypt", "--key", key, "--state", str(state), "--in", str(cipher)]) == 1
    assert capsys.readouterr().err == (
        "error: MalformedStream: Variable at token 2 cannot follow AttrName\n")
    assert not state.exists()


def _raw_exchange(url: str, head: str, body: bytes = b"") -> bytes:
    """Everything the server sends, up to its closing the connection, after
    the request line ``head`` (``{path}`` filled in), a Host header, any
    further header lines in ``head`` (sent as Latin-1), and ``body`` on one
    connection."""
    parts = urllib.parse.urlsplit(url)
    request_line, _, headers = head.format(path=parts.path).partition("\r\n")
    request = f"{request_line}\r\nHost: {parts.netloc}\r\n{headers}\r\n"
    with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
        sock.sendall(request.encode("latin-1") + body)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


def _post_with_length(url: str, length: str) -> bytes:
    """The whole reply to a POST whose Content-Length header is ``length``
    and which sends no body."""
    return _raw_exchange(url, f"POST {{path}} HTTP/1.1\r\nContent-Length: {length}\r\n")


BAD_LENGTHS = ["abc", "-5", "+5", "1_0"]


def _assert_bad_length(reply: bytes, length: str) -> None:
    head, _, body = reply.decode("ascii").partition("\r\n\r\n")
    assert head.startswith("HTTP/1.1 400 ")
    assert body == f"error: BadRequest: bad Content-Length {length!r}"


@pytest.mark.parametrize("length", BAD_LENGTHS)
def test_a_bad_content_length_to_the_resource_server_is_a_bad_request(length):
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        _assert_bad_length(_post_with_length(f"{server.url}/peer", length), length)
        with ResourceClient(server.url, "peer") as client:
            client.exchange_key()
            assert client.fetch()[1] == parse_xml(XML1)
    finally:
        server.close()


@pytest.mark.parametrize("length", BAD_LENGTHS)
def test_a_bad_content_length_to_a_scenario_provider_is_a_bad_request(length):
    config = ScenarioConfig()
    provider = _Provider("SP1", ("K1", config.keys["K1"]),
                         ("K3", config.keys["K3"]), config).start()
    try:
        _assert_bad_length(_post_with_length(f"{provider.url}/process", length), length)
    finally:
        provider.close()


def test_a_provider_refuses_a_message_stripped_of_its_digests():
    config = ScenarioConfig()
    result = run_composition_scenario(config)
    signed = next(e.body for e in result.transcript if e.direction == "S->SP1")
    message = EncryptedMessage.parse(signed)
    stripped = EncryptedMessage(message.access, message.layout.body).serialize()
    provider = _Provider("SP1", ("K1", config.keys["K1"]),
                         ("K3", config.keys["K3"]), config).start()
    try:
        status, body = _post_bytes(f"{provider.url}/process", stripped.encode("ascii"))
        assert status == 400
        assert body == "error: VerificationFailed: SP1 rejects the incoming message"
        assert [(v.ordinal, v.detail) for v in provider.verdicts] == [(1, "missing digest")]
        # the signed message itself passes
        with urllib.request.urlopen(urllib.request.Request(
                f"{provider.url}/process", data=signed.encode("ascii"),
                method="POST"), timeout=10) as response:
            assert response.status == 200
    finally:
        provider.close()


def test_an_access_list_naming_the_root_is_a_malformed_message():
    # the root is the group key's under the one ownership rule; a provider
    # that gave it to its pairwise key could not re-encode its own reply
    config = ScenarioConfig()
    result = run_composition_scenario(config)
    signed, reply = (next(e.body for e in result.transcript if e.direction == direction)
                     for direction in ("S->SP1", "SP1->S"))
    words = EncryptedMessage.parse(signed).words
    provider = _Provider("SP1", ("K1", config.keys["K1"]),
                         ("K3", config.keys["K3"]), config).start()
    try:
        status, body = _post_bytes(f"{provider.url}/process",
                                   EncryptedMessage((1, 2), words).serialize().encode("ascii"))
        assert status == 400
        assert body == ("error: MalformedMessage: the access list names the outermost "
                        "tag, which the group key owns")
        assert http_post(f"{provider.url}/process", signed) == reply
    finally:
        provider.close()


def test_a_get_to_a_provider_is_a_bad_request():
    config = ScenarioConfig()
    result = run_composition_scenario(config)
    signed, reply = (next(e.body for e in result.transcript if e.direction == direction)
                     for direction in ("S->SP1", "SP1->S"))
    provider = _Provider("SP1", ("K1", config.keys["K1"]),
                         ("K3", config.keys["K3"]), config).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"{provider.url}/process", timeout=10)
        with info.value as response:
            assert response.code == 400
            assert response.read().decode("ascii") == "error: BadRequest: SP1 answers POST only"
        assert http_post(f"{provider.url}/process", signed) == reply
    finally:
        provider.close()


#: a whole request hidden in a body; a server that leaves the body unread
#: on a kept-alive connection reads it as the next request and answers it
SMUGGLED = b"GET /peer HTTP/1.1\r\nHost: x\r\n\r\n"


def _replies(raw: bytes) -> list:
    """(status line, header lines, body) of each reply in ``raw``, using
    each reply's Content-Length; a HEAD reply must be the last."""
    replies = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        status, *headers = head.decode("ascii").split("\r\n")
        length = next(int(h.split(":")[1]) for h in headers
                      if h.lower().startswith("content-length:"))
        body, raw = raw[:length], raw[length:]
        replies.append((status, headers, body.decode("ascii")))
    return replies


@pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "OPTIONS", "FOO"])
def test_other_methods_are_a_bad_request_that_closes_the_connection(method):
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        with ResourceClient(server.url, "peer") as client:
            client.exchange_key()
            raw = _raw_exchange(client.url, f"{method} {{path}} HTTP/1.1\r\n"
                                f"Content-Length: {len(SMUGGLED)}\r\n", SMUGGLED)
            # one reply: the body was not read as a second request
            (status, headers, body), = _replies(raw)
            assert status.startswith("HTTP/1.1 400 ")
            assert "Content-Type: text/plain" in headers
            assert "Connection: close" in headers
            assert body == f"error: BadRequest: method {method!r} is not supported; use GET or POST"
            # not answered as a GET: the first reply of the session is still to come
            assert not server.peers["peer"].st_sent
            assert client.fetch()[1] == parse_xml(XML1)
    finally:
        server.close()


def _raw_reply(url: str, request: bytes) -> bytes:
    """Everything the server sends after ``request`` on a new connection,
    up to its closing it (a reset after a refusal that left the rest of
    the request unread ends the reply too)."""
    parts = urllib.parse.urlsplit(url)
    reply = b""
    with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(4096):
                reply += chunk
        except ConnectionResetError:
            pass
    return reply


@pytest.mark.parametrize("request_line,detail", [
    (b"GARBAGE", "Bad request syntax ('GARBAGE')"),
    (b"GET / HTTP/1.1 extra", "Bad request version ('extra')"),
    (b"GET / HTTP/9.9", "Invalid HTTP version (9.9)"),
    (b"GET /" + b"a" * 70_000 + b" HTTP/1.1", "Request-URI Too Long"),
], ids=["one-word", "four-words", "http-9.9", "70kB"])
def test_a_request_line_the_stdlib_refuses_is_a_plain_bad_request(request_line, detail):
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        (status, headers, body), = _replies(_raw_reply(server.url, request_line + b"\r\n\r\n"))
        assert status == "HTTP/1.1 400 Bad Request"
        assert "Content-Type: text/plain" in headers
        assert "Connection: close" in headers
        assert body == f"error: BadRequest: {detail}"
        with ResourceClient(server.url, "peer") as client:
            client.exchange_key()
            assert client.fetch()[1] == parse_xml(XML1)
    finally:
        server.close()


@pytest.mark.parametrize("head,detail", [
    ("\xe9 {path} HTTP/1.1\r\n", "method '\\xe9' is not supported; use GET or POST"),
    ("POST {path} HTTP/1.1\r\nContent-Length: \xe9\r\n", "bad Content-Length '\\xe9'"),
])
def test_a_refusal_that_quotes_a_non_ascii_request_is_still_ascii(head, detail):
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        (status, headers, body), = _replies(_raw_exchange(f"{server.url}/peer", head))
        assert status.startswith("HTTP/1.1 400 ")
        assert body == f"error: BadRequest: {detail}"
    finally:
        server.close()


def test_a_head_request_gets_the_headers_of_the_refusal_only():
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        raw = _raw_exchange(f"{server.url}/peer", "HEAD {path} HTTP/1.1\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert body == b""
    finally:
        server.close()


def test_the_body_of_a_get_is_read_and_not_answered_as_a_request():
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        raw = _raw_exchange(f"{server.url}/nobody",
                            f"GET {{path}} HTTP/1.1\r\nContent-Length: {len(SMUGGLED)}\r\n",
                            SMUGGLED + b"GET /nobody HTTP/1.1\r\nHost: x\r\n"
                            b"Connection: close\r\n\r\n")
        assert [status for status, _, _ in _replies(raw)] == ["HTTP/1.1 409 Conflict"] * 2
    finally:
        server.close()


def test_a_chunked_post_is_a_bad_request_that_closes_the_connection():
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(SMUGGLED), SMUGGLED)
        raw = _raw_exchange(f"{server.url}/peer",
                            "POST {path} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n", chunked)
        (status, headers, body), = _replies(raw)
        assert status.startswith("HTTP/1.1 400 ")
        assert "Connection: close" in headers
        assert body == "error: BadRequest: a request body must come with a Content-Length"
        assert "peer" not in server.peers
    finally:
        server.close()


def test_every_key_a_server_issues_by_default_encodes_its_resource():
    server = serve(XML1, rng=random.Random(11))
    try:
        for n in range(20):
            with ResourceClient(server.url, f"peer{n}") as client:
                client.exchange_key()
                assert client.fetch()[1] == parse_xml(XML1)
    finally:
        server.close()


def test_overlong_access_ordinal_is_a_malformed_message():
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        with ResourceClient(server.url, "peer") as client:
            client.exchange_key()
            status, body = _post_bytes(client.url, b"1" * 5000 + b", 04 0")
            assert status == 400
            assert body.startswith("error: MalformedMessage: ")
            assert client.fetch()[1] == parse_xml(XML1)
    finally:
        server.close()


def test_non_ascii_post_to_a_scenario_provider_is_a_bad_request():
    config = ScenarioConfig()
    provider = _Provider("SP1", ("K1", config.keys["K1"]),
                         ("K3", config.keys["K3"]), config).start()
    try:
        status, body = _post_bytes(f"{provider.url}/process", "04 é 0".encode("utf-8"))
        assert status == 400
        assert body.startswith("error: BadRequest: ")
    finally:
        provider.close()


@pytest.mark.parametrize("rows", [
    "tag\troot",                    # too few fields
    "tag\troot\t4\textra",          # too many
    "tag\troot\tfour",              # code is no integer
    "tag\troot\t0",                 # codes are positive
    "tag\troot\t4\ntag\tname\t4",   # code taken twice
    "tag\tr\udce9ot\t4",              # byte 0xE9 alone is no UTF-8
    "tag\troot\t117126",            # spells "ro" under K1
])
def test_malformed_state_line_is_a_named_error(tmp_path, capsys, rows):
    state = tmp_path / "session.state"
    state.write_text(f"{K1_TEXT}\n{rows}\n", encoding="utf-8", errors="surrogateescape")
    assert main(["tables", "--state", str(state)]) == 1
    assert capsys.readouterr().err.startswith("error: Malformed: ")


def test_a_state_row_of_an_unknown_kind_is_refused_by_file_and_line(tmp_path, capsys):
    state, plain = tmp_path / "session.state", tmp_path / "plain.xml"
    state.write_text(f"{K1_TEXT}\ntag\tname\t4\nbogus\troot\t5\n", encoding="utf-8")
    plain.write_text('<root a="v1">one</root>', encoding="utf-8")
    for argv in (["tables"], ["encrypt", "--mode", "tat", "--in", str(plain)]):
        assert main([*argv, "--state", str(state)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: Malformed: state file {state} line 3: "
                       "unknown tag-table kind 'bogus'\n")


def test_a_state_row_with_an_empty_word_is_refused_and_the_file_kept(tmp_path, capsys):
    # no encoder makes an empty word, so a table holding one differs from the peer's
    state, plain = tmp_path / "session.state", tmp_path / "plain.xml"
    plain.write_text('<root a="v1">one</root>', encoding="utf-8")
    argv = ["encrypt", "--mode", "tat", "--in", str(plain), "--state", str(state)]
    assert main([*argv, "--key", K1_TEXT]) == 0
    with open(state, "a", encoding="utf-8") as fh:
        fh.write("tag\t\t9\n")
    before = state.read_bytes()
    row = len(before.splitlines())
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: Malformed: state file {state} line {row}: empty tag-table word\n"
    assert state.read_bytes() == before


@pytest.mark.parametrize("code", ["1_0", "+10", " 10", "10 ", "010", "0", "\u0663", "1\u0663"])
def test_a_state_code_other_than_the_saved_text_is_refused_and_the_file_kept(
        tmp_path, capsys, code):
    # int() reads each of these as a code; _save_state writes only [1-9][0-9]*
    state, plain = tmp_path / "session.state", tmp_path / "plain.xml"
    plain.write_text('<root a="v1">one</root>', encoding="utf-8")
    state.write_text(f"{K1_TEXT}\ntag\tname\t5\ntag\troot\t{code}\n", encoding="utf-8")
    before = state.read_bytes()
    assert main(["encrypt", "--mode", "tat", "--in", str(plain), "--state", str(state)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: Malformed: state file {state} line 3: "
                   f"tag code {code!r} is not written [1-9][0-9]* in ASCII\n")
    assert state.read_bytes() == before


def test_well_formed_state_file_loads(tmp_path, capsys):
    state = tmp_path / "session.state"
    state.write_text(f"{K1_TEXT}\ntag\troot\t4\n", encoding="utf-8")
    assert main(["tables", "--state", str(state)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "tag root 4"


def test_state_files_carry_a_session_across_cli_runs(tmp_path):
    # anagrams share a code sum, so the second message's new words probe
    # past codes that only the loaded state files hold
    docs = ['<root a="abc" b="bca"><p>x1</p></root>',
            '<root a="cab" b="acb"><p>x2</p></root>']
    key = parse_key(K1_TEXT)
    sender, receiver = Session.for_key(key), Session.for_key(key)
    for n, (doc, mode) in enumerate(zip(docs, ("st", "tat"))):
        plain, cipher, back = (tmp_path / f"{name}{n}" for name in ("plain", "cipher", "back"))
        plain.write_text(doc, encoding="utf-8")
        start = ["--key", K1_TEXT] if n == 0 else []
        assert main(["encrypt", *start, "--state", str(tmp_path / "sender.state"),
                     "--mode", mode, "--in", str(plain), "--out", str(cipher)]) == 0
        assert main(["decrypt", *start, "--state", str(tmp_path / "receiver.state"),
                     "--in", str(cipher), "--out", str(back)]) == 0
        message = sender.encrypt(parse_xml(doc), mode=mode)
        assert cipher.read_text(encoding="utf-8") == message.serialize()
        assert back.read_text(encoding="utf-8") == emit_xml(receiver.decrypt(message))
        assert back.read_text(encoding="utf-8") == doc
    rows = [f"{kind}\t{word}\t{code}" for word, code, kind in sender.tat.items()]
    for side in ("sender", "receiver"):
        state = (tmp_path / f"{side}.state").read_text(encoding="utf-8")
        assert state.splitlines()[1:] == rows
    assert rows[-2:] == ["attribute-value\tcab\t7", "attribute-value\tacb\t8"]


def test_a_non_utf8_document_is_malformed(tmp_path, capsys):
    doc = tmp_path / "doc.xml"
    doc.write_bytes(b"<root>caf\xe9</root>")
    assert main(["encrypt", "--key", K1_TEXT, "--mode", "st", "--in", str(doc)]) == 1
    assert capsys.readouterr().err.startswith("error: Malformed: ")


def test_a_non_utf8_store_line_is_corrupt(tmp_path, capsys):
    path = tmp_path / "ring.store"
    path.write_bytes(f"peer\tK1\tpairwise\t{K1_TEXT}\n".encode("ascii")
                     + b"p\xe9er\tK3\tgroup\t" + K1_TEXT.encode("ascii") + b"\n")
    with pytest.raises(Corrupt) as info:
        load_ring(path)
    assert info.value.line == 2
    assert main(["verify", "--keyring", str(path), "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: Corrupt: ")


def test_deep_documents_through_the_cli(tmp_path, capsys):
    # XML has no nesting limit; JSON's is the json module's, a named error
    deep = "<a>" * 5000 + "x" + "</a>" * 5000
    plain, cipher, back, deep_json = (tmp_path / name for name in
                                      ("plain.xml", "cipher", "back.xml", "deep.json"))
    plain.write_text(deep, encoding="utf-8")
    assert main(["encrypt", "--key", K1_TEXT, "--mode", "tat",
                 "--in", str(plain), "--out", str(cipher)]) == 0
    assert main(["decrypt", "--key", K1_TEXT, "--in", str(cipher), "--out", str(back)]) == 0
    assert back.read_text(encoding="utf-8") == deep
    deep_json.write_text('{"a": ' * 5000 + '"x"' + "}" * 5000, encoding="utf-8")
    assert main(["encrypt", "--key", K1_TEXT, "--mode", "st", "--format", "json",
                 "--in", str(deep_json)]) == 1
    assert capsys.readouterr().err.startswith("error: MalformedJson: ")
    assert main(["decrypt", "--key", K1_TEXT, "--format", "json",
                 "--in", str(cipher)]) == 1
    assert capsys.readouterr().err.startswith("error: UnsupportedShape: ")


# the other subcommands through main, each with its round trip and its
# named error


def test_keygen_prints_a_key_within_the_bounds(capsys):
    assert main(["keygen", "--seed", "3", "--bounds", "rows=9..9,power=1..2"]) == 0
    key = parse_key(capsys.readouterr().out.strip())
    assert key.rows == 9 and key.power in (1, 2)
    assert main(["keygen", "--seed", "3", "--bounds", "rows=9..9,power=1..2"]) == 0
    assert parse_key(capsys.readouterr().out.strip()) == key


@pytest.mark.parametrize("bounds,error", [
    ("rows=9..4", "NoValidKeyInBounds"),    # an empty range
    ("rows=x", "Malformed"),
    ("size=4", "Malformed"),                # no such element
    ("rows=4..4,rows=9..9", "Malformed"),   # an element given twice
])
def test_keygen_bad_bounds_are_named_errors(capsys, bounds, error):
    assert main(["keygen", "--bounds", bounds]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}: ")


def test_keygen_refuses_bounds_whose_least_table_is_over_the_cell_bound(capsys):
    assert main(["keygen", "--bounds", "rows=300..300,cols=300..300"]) == 1
    assert capsys.readouterr().err == ("error: NoValidKeyInBounds: rows * cols is at least "
                                       "90000, over the 65536 cells a key's table may hold\n")


def _keyring(tmp_path):
    path = tmp_path / "ring.store"
    path.write_text(f"S\tK1\tpairwise\t{K1_TEXT}\nS\tK2\tpairwise\t{K2_TEXT}\n"
                    f"S\tK3\tgroup\t{K3_TEXT}\n", encoding="utf-8")
    return path


def test_sign_then_verify_accepts_and_a_flipped_digit_rejects(tmp_path, capsys):
    ring, plain, signed = _keyring(tmp_path), tmp_path / "plain.xml", tmp_path / "signed"
    plain.write_text(XML2, encoding="utf-8")
    assert main(["sign", "--keyring", str(ring), "--policy", "2=K1,3=K2,4=K2",
                 "--in", str(plain), "--out", str(signed)]) == 0
    assert main(["verify", "--keyring", str(ring), "--policy", "2=K1,3=K2,4=K2",
                 "--in", str(signed)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith(": accept") for line in lines)
    assert "tag 1: accept" in lines and "tag 2: accept" in lines
    access, root, *rest = signed.read_text(encoding="utf-8").split(" ")
    flipped = root[:-1] + str((int(root[-1]) + 1) % 10)
    signed.write_text(" ".join([access, flipped, *rest]), encoding="utf-8")
    assert main(["verify", "--keyring", str(ring), "--policy", "2=K1,3=K2,4=K2",
                 "--in", str(signed)]) == 1
    assert "tag 1: reject (digest mismatch)" in capsys.readouterr().out.splitlines()


def test_verify_rejects_a_message_stripped_of_its_digests(tmp_path, capsys):
    ring, plain, signed = _keyring(tmp_path), tmp_path / "plain.xml", tmp_path / "signed"
    plain.write_text(XML2, encoding="utf-8")
    policy = ["--policy", "2=K1,3=K2,4=K2"]
    assert main(["sign", "--keyring", str(ring), *policy,
                 "--in", str(plain), "--out", str(signed)]) == 0
    message = EncryptedMessage.parse(signed.read_text(encoding="utf-8"))
    signed.write_text(EncryptedMessage(message.access, message.layout.body).serialize(),
                      encoding="utf-8")
    assert main(["verify", "--keyring", str(ring), *policy, "--in", str(signed)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"tag {o}: reject (missing digest)" for o in (2, 3, 4, 1)]


@pytest.mark.parametrize("command", ["encrypt", "sign"])
@pytest.mark.parametrize("access", ["--access=0", "--access=-1", "--access=2,0",
                                    "--access=2,2"])
def test_access_ordinals_below_one_are_malformed(tmp_path, capsys, command, access):
    plain, out = tmp_path / "plain.xml", tmp_path / "out"
    plain.write_text(XML2, encoding="utf-8")
    if command == "encrypt":
        options = ["--key", K1_TEXT, "--mode", "st"]
    else:
        options = ["--keyring", str(_keyring(tmp_path)), "--policy", "2=K1"]
    assert main([command, *options, access, "--in", str(plain), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: Malformed: bad access list ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sign", "verify"])
@pytest.mark.parametrize("policy", ["1=K1", "1=K3", "0=K1,-3=K2", "2=K1,-1=K2"])
def test_policy_ordinals_below_two_are_malformed(tmp_path, capsys, command, policy):
    ring, plain, signed = _keyring(tmp_path), tmp_path / "plain.xml", tmp_path / "signed"
    plain.write_text(XML2, encoding="utf-8")
    assert main(["sign", "--keyring", str(ring), "--policy", "2=K1",
                 "--in", str(plain), "--out", str(signed)]) == 0
    out = tmp_path / "out"
    files = ["--in", str(plain), "--out", str(out)] if command == "sign" else ["--in", str(signed)]
    assert main([command, "--keyring", str(ring), "--policy", policy, *files]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: Malformed: bad policy {policy!r}: policy ordinals start at 2\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["sign", "verify"])
def test_a_policy_naming_a_tag_twice_is_malformed(tmp_path, capsys, command):
    ring, plain, signed = _keyring(tmp_path), tmp_path / "plain.xml", tmp_path / "signed"
    plain.write_text(XML2, encoding="utf-8")
    files = ["--in", str(plain), "--out", str(signed)] if command == "sign" \
        else ["--in", str(plain)]
    assert main([command, "--keyring", str(ring), "--policy", "2=K1,2=K2", *files]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: Malformed: bad policy '2=K1,2=K2': tag 2 given twice\n"
    assert captured.out == "" and not signed.exists()


@pytest.mark.parametrize("option,value,refusal", [
    ("--policy", "\u0662=K1", "bad policy entry"),        # an Arabic-Indic two
    ("--policy", " +2=K1", "bad policy entry"),
    ("--access", "\u0662", "bad access list"),
    ("--access", "2_0", "bad access list"),
    ("--bounds", "rows=\u0664..\u0664", "bad range"),
    ("--bounds", "rows=04..4", "bad range"),
], ids=["policy-arabic-indic", "policy-plus", "access-arabic-indic", "access-underscore",
        "bounds-arabic-indic", "bounds-leading-zero"])
def test_a_number_int_reads_but_no_one_writes_is_malformed(tmp_path, capsys, option, value,
                                                           refusal):
    # int() reads each of these as a plain decimal, so each once passed as one
    plain, out = tmp_path / "plain.xml", tmp_path / "out"
    plain.write_text(XML2, encoding="utf-8")
    files = ["--in", str(plain), "--out", str(out)]
    command = {"--policy": ["sign", "--keyring", str(_keyring(tmp_path)), *files],
               "--access": ["encrypt", "--key", K1_TEXT, "--mode", "st", *files],
               "--bounds": ["keygen"]}[option]
    assert main([*command, option, value]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: Malformed: {refusal} ")
    assert captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["sign", "verify"])
@pytest.mark.parametrize("records,detail", [
    ([("S", "K1", "pairwise"), ("T", "K1", "pairwise"), ("S", "K3", "group")],
     "duplicate key id 'K1'"),
    ([("S", "K1", "group"), ("S", "K3", "group")], "a ring holds exactly one group key"),
])
def test_a_keystore_that_forms_no_ring_is_malformed(tmp_path, capsys, command, records, detail):
    texts = {"K1": K1_TEXT, "K3": K3_TEXT}
    ring, plain, out = tmp_path / "ring.store", tmp_path / "plain.xml", tmp_path / "out"
    ring.write_text("".join(f"{peer_id}\t{key_id}\t{role}\t{texts[key_id]}\n"
                            for peer_id, key_id, role in records), encoding="utf-8")
    plain.write_text(XML2, encoding="utf-8")
    files = ["--in", str(plain)] + (["--out", str(out)] if command == "sign" else [])
    assert main([command, "--keyring", str(ring), "--policy", "2=K1", *files]) == 1
    assert capsys.readouterr().err == (
        f"error: Malformed: keystore {ring} does not form one ring: {detail}\n")
    assert not out.exists()


def _serve_command(resource, port: int) -> tuple:
    """(argv, environment) of ``restcipher serve`` run from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return [sys.executable, "-u", "-m", "restcipher.cli", "serve",
            "--resource", str(resource), "--port", str(port)], env


def test_serve_and_fetch_through_the_cli(tmp_path, capsys):
    resource = tmp_path / "resource.xml"
    resource.write_text(XML1, encoding="utf-8")
    command, env = _serve_command(resource, 0)
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env) as proc:
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving on http://127.0.0.1:")
            url = line.split()[-1].removesuffix("/<peer-id>")
            assert main(["fetch", "--url", url, "--count", "2"]) == 0
            assert capsys.readouterr().out == f"{XML1}\n{XML1}\n"
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    assert proc.returncode == 0
    assert err == f"warning: {PLAIN_HTTP_WARNING}\n"


def test_a_port_in_use_is_a_bind_error_and_leaves_no_socket_open(tmp_path):
    server = serve(XML1)
    try:
        host, port = server.server_address[:2]
        gc.collect()                # only the second server's garbage is looked at below
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(Bind, match=f"cannot bind {host}:{port}: "):
                ResourceServer(XML1, host=host, port=port)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        resource = tmp_path / "resource.xml"
        resource.write_text(XML1, encoding="utf-8")
        command, env = _serve_command(resource, port)
        done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1 and done.stdout == ""
        error = done.stderr.splitlines()[-1]
        assert error.startswith(f"error: Bind: cannot bind {host}:{port}: ")
    finally:
        server.close()


@pytest.mark.parametrize("port", [70000, -1])
def test_a_port_outside_the_port_range_is_a_bind_error(tmp_path, capsys, port):
    with pytest.raises(Bind, match=f"cannot bind 127.0.0.1:{port}: "):
        ResourceServer(XML1, port=port)
    resource = tmp_path / "resource.xml"
    resource.write_text(XML1, encoding="utf-8")
    assert main(["serve", "--resource", str(resource), "--port", str(port)]) == 1
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith(f"error: Bind: cannot bind 127.0.0.1:{port}: ")


def test_bench_prints_one_row_per_document(tmp_path, capsys):
    plain = tmp_path / "plain.xml"
    plain.write_text(XML1, encoding="utf-8")
    assert main(["bench", "--key", K1_TEXT, "--in", str(plain)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["document", "nonvar", "var", "original", "stbe", "tatbe",
                              "tatbe/orig"]
    assert row.split()[0] == str(plain) and row.split()[3] == str(len(XML1))
    assert main(["bench", "--key", K1_TEXT, "--in", str(tmp_path / "missing.xml")]) == 1
    assert capsys.readouterr().err.startswith("error: Io: ")


def test_scenario_runs_and_a_tampering_provider_halts_it(capsys):
    assert main(["scenario"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("final: <root") and "iitd" in out[-1]
    assert main(["scenario", "--tamper", "SP1:3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "halted: reject on tags 3,1"


#: more digits than int() and str() convert under the interpreter's default limit
NINES = "9" * 5000


@pytest.mark.parametrize("tamper", ["SP1:x", "SP1:", "SP1:999", "SP1:0", "SP9:2",
                                    "SP1:\u0663", "SP1:+3", "SP1:03", f"SP1:{NINES}"],
                         ids=lambda tamper: tamper if len(tamper) < 10 else "SP1:5000-nines")
def test_scenario_bad_tamper_target_is_malformed(capsys, tamper):
    assert main(["scenario", "--tamper", tamper]) == 1
    assert capsys.readouterr().err.startswith("error: Malformed: ")


# the key exchange and the keystore file


def test_request_key_returns_the_key_the_server_keeps_for_the_peer():
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        key = request_key(f"{server.url}/peer")
        assert server.peers["peer"].session.key == key
    finally:
        server.close()


class _NotAKeyService(_HttpService):
    def respond(self, path, body):
        return 200, "[1,2,3]"


def test_request_key_refuses_a_reply_that_is_no_key():
    service = _NotAKeyService("127.0.0.1", 0).start()
    try:
        with pytest.raises(Malformed, match="not a valid key"):
            request_key(f"{service.url}/peer")
    finally:
        service.close()


class _KeyTextService(_HttpService):
    """Answers every request with ``text``."""

    text = None

    def respond(self, path, body):
        return 200, self.text


@pytest.mark.parametrize("text,error,detail", [
    (f"[{NINES},6,1,1,1,14,4,1,3,2]", Malformed, "a key element has more than 640 digits"),
    ("[12,6,1,1,1,14,4,1,5000,2]", OutOfRange, "final_sum must be 1..640, got 5000"),
    ("[12,6,1,1,1,14,4,1,3,5000]", WidthTooSmall,
     "cell value 18**5000 + 6**5000 is wider than final_sum 3"),
    # a table of a million cells, which a key of 28 characters would have built
    ("[1000,1000,1,1,1,14,4,1,7,2]", OutOfRange, "rows * cols must be at most 65536, got 1000000"),
], ids=["rows", "final_sum", "power", "cells"])
def test_a_key_with_an_element_too_wide_to_convert_is_a_named_error(
        tmp_path, capsys, monkeypatch, text, error, detail):
    # Python's int() and str() stop at 4,300 digits by default
    with pytest.raises(error) as raised:
        parse_key(text)
    assert type(raised.value) is error and str(raised.value) == detail
    monkeypatch.setattr(_KeyTextService, "text", text)
    service = _KeyTextService("127.0.0.1", 0).start()
    try:
        with pytest.raises(Malformed) as raised:
            request_key(f"{service.url}/peer")
        assert str(raised.value) == f"peer response is not a valid key: {detail}"
    finally:
        service.close()
    ring = tmp_path / "ring.store"
    ring.write_text(f"peer\tK1\tpairwise\t{K1_TEXT}\n\npeer\tK2\tgroup\t{text}\n",
                    encoding="utf-8")
    with pytest.raises(Corrupt) as raised:
        load_ring(ring)
    assert raised.value.line == 3 and str(raised.value) == f"line 3: {detail}"
    state = tmp_path / "session.state"
    state.write_text(f"{text}\n", encoding="utf-8")
    plain = tmp_path / "plain.xml"
    plain.write_text(XML1, encoding="utf-8")
    for argv, line in ((["tables", "--key", text], f"{error.__name__}: {detail}"),
                       (["tables", "--state", str(state)], f"{error.__name__}: {detail}"),
                       (["sign", "--keyring", str(ring), "--policy", "2=K1", "--in", str(plain)],
                        f"Corrupt: line 3: {detail}")):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {line}\n"


class _NotAsciiHandler(BaseHTTPRequestHandler):
    """Answers every GET and POST with 200 and the body ``é`` in UTF-8, or,
    on the path ``/refused``, with 503 and two lines, the first not ASCII."""

    protocol_version = "HTTP/1.1"

    def _reply(self):
        self.rfile.read(int(self.headers.get("Content-Length") or "0"))
        refused = self.path == "/refused"
        data = ("é is busy\r\nsecond line" if refused else "é").encode("utf-8")
        self.send_response(503 if refused else 200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST = _reply

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass


@pytest.fixture
def not_ascii_url():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _NotAsciiHandler)
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,))
    thread.start()
    try:
        yield "http://%s:%d/peer" % httpd.server_address[:2]
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=1)


@pytest.mark.parametrize("url", ["localhost:8080/peer", "http:///peer",
                                 "http://127.0.0.1:port/peer", "ftp://127.0.0.1/peer",
                                 "http://[::1/peer"])
def test_a_url_no_connection_can_be_opened_to_is_a_named_error(url):
    with pytest.raises(Transport, match="bad URL"):
        http_get(url)
    with pytest.raises(Transport, match="bad URL"):
        ResourceClient(url.removesuffix("/peer"), "peer")


def test_an_https_url_is_spoken_to_over_tls():
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        # a plain HTTP server does not answer a TLS handshake
        with pytest.raises(Transport, match="SSL"):
            http_get(server.url.replace("http://", "https://") + "/peer")
    finally:
        server.close()


def test_a_get_reply_that_is_not_ascii_is_a_named_error(not_ascii_url):
    with pytest.raises(Transport, match=f"GET {not_ascii_url} failed: reply is not ASCII"):
        http_get(not_ascii_url)


def test_a_post_body_that_is_not_ascii_is_a_named_error(monkeypatch):
    def no_connection(*args, **kwargs):
        raise AssertionError("a connection was opened")

    monkeypatch.setattr(socket, "create_connection", no_connection)
    url = "http://127.0.0.1:9/peer"
    with pytest.raises(Transport) as info:
        http_post(url, "\u00e9")
    assert str(info.value) == f"POST {url} failed: body is not ASCII text"


def test_a_refusal_quotes_its_first_line_with_non_ascii_escaped(not_ascii_url):
    url = not_ascii_url.replace("/peer", "/refused")
    with pytest.raises(Transport) as info:
        http_get(url)
    assert str(info.value) == f"GET {url} failed: 503 Service Unavailable: \\xc3\\xa9 is busy"


def test_a_key_exchange_reply_that_is_not_ascii_is_a_named_error(not_ascii_url):
    with pytest.raises(Transport, match=f"POST {not_ascii_url} failed: reply is not ASCII"):
        request_key(not_ascii_url)


def test_a_client_refuses_a_key_exchange_reply_that_is_no_key():
    service = _NotAKeyService("127.0.0.1", 0).start()
    try:
        with ResourceClient(service.url, "peer") as client:
            with pytest.raises(Malformed, match="not a valid key"):
                client.exchange_key()
            assert client.session is None
    finally:
        service.close()


def test_a_keyring_file_reads_into_one_ring(tmp_path):
    ring = load_ring(_keyring(tmp_path))
    assert ring.group_id == "K3" and ring.pairwise_ids() == ["K1", "K2"]
    assert ring["K1"].key == parse_key(K1_TEXT)


@pytest.mark.parametrize("line,detail", [
    ("peer\tK2\tpairwise", "expected 4 fields, got 3"),
    ("peer\tK2\tpairwise\t" + K1_TEXT + "\tmore", "expected 4 fields, got 5"),
    ("peer\tK2\towner\t" + K1_TEXT, "unknown role 'owner'"),
    ("peer\tK2\tpairwise\t[1,2]", "not a serialized key"),
    ("peer\tK2\tpairwise\t[0,6,1,1,1,14,4,1,3,2]", "rows must be positive"),
    ("\tK2\tpairwise\t" + K1_TEXT, "empty peer id"),
    ("peer\t\tpairwise\t" + K1_TEXT, "empty key id"),
])
def test_a_bad_store_line_is_corrupt_with_its_number(tmp_path, line, detail):
    path = tmp_path / "ring.store"
    path.write_text(f"peer\tK1\tpairwise\t{K1_TEXT}\n\n{line}\n", encoding="utf-8")
    with pytest.raises(Corrupt, match=detail) as info:
        load_ring(path)
    assert info.value.line == 3
    assert str(info.value).startswith("line 3: ")
