"""The two-party flow and the three-party scenario end to end, the
scenario's assembly step, and closing the loopback services."""

import hashlib
import random
import socket
import time
import urllib.error
import urllib.request

import pytest

from restcipher import (
    ResourceClient,
    ScenarioConfig,
    Session,
    emit_xml,
    parse_xml,
    run_composition_scenario,
    serve,
)
from restcipher.docmodel import Close, Open, Variable, tag_ordinals
from restcipher.errors import MalformedMessage
from restcipher.restkit import _Provider, _splice_subtrees

from conftest import XML1
from docgen import nested_catalog

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
        client = ResourceClient(server.url, "peer")
        key = client.exchange_key()
        assert server.store.get("peer", "session").key == key
        held = server.peers["peer"].session
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


# the assembly against one replacement per listed ordinal


def _subtree_token_span(stream, ordinal: int):
    """(start, end) token indexes of a tag subtree, closer inclusive."""
    ordinals = tag_ordinals(stream)
    start = next(i for i, o in ordinals.items() if o == ordinal)
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
    """``stream`` with every variable inside an owned subtree relabelled."""
    out, depth_in_owned, ordinal = [], [], 0
    for token in stream:
        if isinstance(token, Open):
            ordinal += 1
            depth_in_owned.append(ordinal in owned or bool(depth_in_owned and depth_in_owned[-1]))
        elif isinstance(token, Close):
            depth_in_owned.pop()
        elif isinstance(token, Variable) and depth_in_owned[-1]:
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


@pytest.mark.parametrize("seed", range(12))
def test_splice_equals_replacing_one_by_one(seed):
    rng = random.Random(seed)
    final = parse_xml(nested_catalog(rng, 12))
    sp1, sp2 = _policies(final, rng)
    replies = [(sorted(sp1), _provider_copy(final, sp1, "SP1")),
               (sorted(sp2), _provider_copy(final, sp2, "SP2"))]
    want = got = final
    for ordinals, decoded in replies:
        want = _replace_one_by_one(want, decoded, ordinals)
        got = _splice_subtrees(got, decoded, ordinals)
    assert got == want


def test_an_sp2_tag_inside_an_sp1_item_keeps_the_sp2_edit():
    final = parse_xml("<r><item><name>a</name><price>1</price></item><x>b</x></r>")
    sp1 = _provider_copy(final, {2}, "SP1")           # the item, name included
    sp2 = _provider_copy(final, {3}, "SP2")           # the name alone
    got = _splice_subtrees(_splice_subtrees(final, sp1, (2,)), sp2, (3,))
    want = _replace_one_by_one(_replace_one_by_one(final, sp1, (2,)), sp2, (3,))
    assert got == want == parse_xml(
        "<r><item><name>SP2-a</name><price>SP1-1</price></item><x>b</x></r>")


def test_a_reply_that_changes_the_tags_inside_a_subtree_is_refused():
    final = parse_xml("<r><item><name>a</name></item></r>")
    decoded = parse_xml("<r><item><name>a</name><extra>b</extra></item></r>")
    with pytest.raises(MalformedMessage):
        _splice_subtrees(final, decoded, (2,))
    with pytest.raises(MalformedMessage):
        _splice_subtrees(final, final, (9,))


# closing a service returns at once


def _assert_closes_promptly(service) -> None:
    address = service._httpd.server_address[:2]
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


def test_a_service_that_never_started_closes():
    config = ScenarioConfig()
    provider = _Provider("SP1", ("K1", config.keys["K1"]),
                         ("K3", config.keys["K3"]), config)
    provider.close()
    assert not provider._thread.is_alive()
