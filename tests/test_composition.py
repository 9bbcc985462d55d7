import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from restcipher import (
    AttrName,
    AttrValue,
    Close,
    CompositionPolicy,
    EncryptedMessage,
    KeyRing,
    Open,
    OpaqueRun,
    Session,
    Status,
    Variable,
    access_header,
    attach_digests,
    compose_decrypt,
    compose_encrypt,
    compose_reencrypt,
    parse_key,
    parse_xml,
    refresh_digests,
    sign_segment,
    stbe,
    strip_digests,
    verify_digests,
)
from restcipher.composition import recipient_resolver, subtree_spans
from restcipher.errors import (
    MalformedMessage,
    MalformedWord,
    MissingKey,
    UnknownCode,
    UnknownTatCode,
    UnsupportedCharacter,
)

from conftest import COMPOSE_ST_BODY, D1, D2, K3_TEXT, XML2, make_ring

TAT_SEGMENT = ["05", "122122104122", "0"]
TAT_BODY = "01 009 0002 003 0004 05 122122104122 0 07 313 0 08 356290 0 0".split(" ")


@pytest.fixture
def stream():
    return parse_xml(XML2)


# ring and policy


def test_ring_requires_a_single_group_key(k1, k3):
    ring = KeyRing()
    ring.add_key("K1", k1)
    with pytest.raises(MissingKey):
        ring.group
    ring.add_key("K3", k3, is_group=True)
    assert ring.group.key_id == "K3"
    with pytest.raises(ValueError):
        ring.add_key("K3b", k3, is_group=True)


def test_policy_defaults_to_the_group_key(ring, policy):
    assert policy.key_for(1, ring) == "K3"
    assert policy.key_for(2, ring) == "K1"
    assert policy.key_for(3, ring) == "K2"


def test_policy_cannot_move_the_root_off_the_group_key(ring):
    with pytest.raises(ValueError):
        CompositionPolicy({1: "K1"}).key_for(1, ring)


def test_policy_missing_key(k1, k3):
    partial = make_ring(k1, None, k3, "K1", "K3")
    with pytest.raises(MissingKey):
        CompositionPolicy({3: "K2"}).key_for(3, partial)


# compose_encrypt


def test_compose_st_body_matches_the_worked_exchange(stream, ring, policy):
    body = compose_encrypt(stream, policy, ring, "st")
    assert " ".join(body) == COMPOSE_ST_BODY


def test_compose_k2_variable_encodings(stream, ring, policy):
    body = compose_encrypt(stream, policy, ring, "st")
    assert body[9] == "313"      # "2" under the second pairwise key
    assert body[12] == "356290"  # "a1" under the second pairwise key


def test_compose_name_segment(stream, ring, policy):
    body = compose_encrypt(stream, policy, ring, "st")
    assert body[5:8] == ["0116153109146", "122122104122", "0"]


def test_compose_per_key_tag_tables(stream, ring, policy):
    compose_encrypt(stream, policy, ring, "st")
    assert {w: c for w, c, _ in ring["K3"].tat.items()} == {
        "root": 1, "attr1": 9, "value1": 2, "attr2": 3, "value2": 4,
    }
    assert {w: c for w, c, _ in ring["K1"].tat.items()} == {"name": 5}
    assert {w: c for w, c, _ in ring["K2"].tat.items()} == {"value": 1, "nv": 7}


def test_compose_tat_mode_after_priming(stream, ring, policy):
    compose_encrypt(stream, policy, ring, "st")
    body = compose_encrypt(stream, policy, ring, "tat")
    assert " ".join(body) == (
        "01 009 0002 003 0004 05 122122104122 0 01 313 0 07 356290 0 0"
    )


def test_degenerate_policy_equals_plain_stbe(k1, k3, stream):
    # every tag mapped to the group key: the body equals single-key output
    ring = make_ring(k1, None, k3, "K3")
    body = compose_encrypt(stream, CompositionPolicy({}), ring, "st")
    session = Session.for_key(k3)
    plain = stbe(stream, session.st, session.tat, session.ctx)
    assert tuple(body) == plain.words


_ITEM = hs.tuples(hs.sampled_from([f"i{n}" for n in range(12)]),
                  hs.sampled_from(["book", "disc", "tool"]),
                  hs.text("abcdefXYZ019", min_size=1, max_size=6))
_MESSAGE = hs.tuples(hs.sampled_from(["st", "tat"]), hs.lists(_ITEM, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(hs.lists(_MESSAGE, min_size=1, max_size=6))
def test_single_key_session_equals_a_one_key_composition(messages):
    key = parse_key(K3_TEXT)
    session = Session.for_key(key)
    ring = KeyRing()
    ring.add_key("K3", key, is_group=True)
    for mode, items in messages:
        stream = parse_xml("<catalog>" + "".join(
            f'<item id="{i}" kind="{k}" tag="{n}"><name>{n}</name></item>'
            for i, k, n in items) + "</catalog>")
        plain = session.encrypt(stream, mode=mode)
        assert tuple(compose_encrypt(stream, CompositionPolicy({}), ring, mode)) \
            == plain.words
        assert ring["K3"].tat.items() == session.tat.items()


@pytest.mark.parametrize("encrypt", [compose_encrypt, compose_reencrypt])
def test_compose_rejects_an_unknown_mode(stream, ring, policy, encrypt):
    with pytest.raises(ValueError, match="unknown mode 'ts'"):
        encrypt(list(stream), policy, ring, "ts")


def test_compose_missing_key(stream, k1, k3, policy):
    ring = make_ring(k1, None, k3, "K1", "K3")
    with pytest.raises(MissingKey):
        compose_encrypt(stream, policy, ring, "st")


# access headers


def test_access_headers(ring, policy):
    assert access_header(policy, ring, ["K1"], 4) == (2,)
    assert access_header(policy, ring, ["K2"], 4) == (3, 4)
    assert access_header(policy, ring, ["K1", "K2"], 4) == (2, 3, 4)
    assert access_header(policy, ring, [], 4) == ()
    assert access_header(policy, ring, ["K3"], 4) == ()


# compose_decrypt


def test_recipient_view_decodes_only_held_segments(stream, ring, policy, k1, k3):
    body = compose_encrypt(stream, policy, ring, "st")
    sp1 = make_ring(k1, None, k3, "K1", "K3")
    items = compose_decrypt(EncryptedMessage((2,), tuple(body)), sp1)
    kinds = [type(item).__name__ for item in items]
    assert kinds == [
        "Open", "AttrName", "AttrValue", "AttrName", "AttrValue",
        "Open", "Variable", "Close", "OpaqueRun", "OpaqueRun", "Close",
    ]
    assert items[0] == Open("root")
    assert items[6] == Variable("iiti")
    opaque = [item for item in items if isinstance(item, OpaqueRun)]
    assert [run.ordinal for run in opaque] == [3, 4]
    assert opaque[0].words == ("0291356265326320", "313", "0")
    assert opaque[1].words == ("0410291", "356290", "0")


def test_full_ring_with_policy_decodes_everything(stream, ring, policy, k1, k2, k3):
    body = compose_encrypt(stream, policy, ring, "st")
    receiver = make_ring(k1, k2, k3, "K1", "K2", "K3")
    items = compose_decrypt(EncryptedMessage((2,), tuple(body)), receiver, policy)
    assert tuple(items) == stream


def test_wrong_key_never_reads_the_right_text(stream, ring, policy, k2, k3):
    # decoding the first pairwise segment with the other pairwise key either
    # fails outright or yields garbled text, never the real content
    body = compose_encrypt(stream, policy, ring, "st")
    wrong = make_ring(None, k2, k3, "K2", "K3")
    try:
        items = compose_decrypt(EncryptedMessage((2,), tuple(body)), wrong)
    except (UnknownCode, UnknownTatCode, MalformedWord):
        return
    variables = [item.text for item in items if isinstance(item, Variable)]
    assert "iiti" not in variables
    names = [item.name for item in items if isinstance(item, Open)]
    assert "name" not in names


def test_reencrypt_preserves_opaque_runs(stream, ring, policy, k1, k3):
    body = compose_encrypt(stream, policy, ring, "st")
    sp1 = make_ring(k1, None, k3, "K1", "K3")
    message = EncryptedMessage((2,), tuple(body))
    items = compose_decrypt(message, sp1)
    edited = [Variable("abcd") if isinstance(i, Variable) and i.text == "iiti" else i
              for i in items]
    view = CompositionPolicy({2: "K1"})
    words = compose_reencrypt(edited, view, sp1, "st")
    spans, _ = subtree_spans(words)
    # foreign subtrees byte-identical, owned words changed
    assert words[spans[3].start:spans[3].end + 1] == body[spans[3].start:spans[3].end + 1]
    assert words[spans[4].start:spans[4].end + 1] == body[spans[4].start:spans[4].end + 1]
    assert words != body
    # an unedited pass re-serializes the whole message byte-identically
    other = compose_decrypt(message, make_ring(k1, None, k3, "K1", "K3"))
    sp1_again = make_ring(k1, None, k3, "K1", "K3")
    compose_decrypt(message, sp1_again)  # prime tables
    assert compose_reencrypt(other, view, sp1_again, "st") == body


# a failed composition message leaves every key's table as it was

BAD_CHAR_XML = '<r><p q="v">ok</p><s>bad.char</s></r>'   # no paper key has "."


def _ring_state(ring, key_ids=("K1", "K2", "K3")):
    return [(ring[k].tat.items(), replace(ring[k].ctx)) for k in key_ids]


@pytest.mark.parametrize("mode", ["st", "tat"])
def test_failed_compose_encrypt_commits_nothing(k1, k2, k3, mode):
    policy = CompositionPolicy({2: "K1", 3: "K2"})
    sender = make_ring(k1, k2, k3, "K1", "K2", "K3")
    receiver = make_ring(k1, k2, k3, "K1", "K2", "K3")

    def send(document):
        stream = parse_xml(document)
        body = compose_encrypt(stream, policy, sender, mode)
        assert compose_decrypt(EncryptedMessage((), tuple(body)), receiver, policy) \
            == list(stream)

    send(XML2)
    before = _ring_state(sender)
    # r, p, q, v and s are new to the tables of K3, K1 and K2 before "." fails
    with pytest.raises(UnsupportedCharacter):
        compose_encrypt(parse_xml(BAD_CHAR_XML), policy, sender, mode)
    assert _ring_state(sender) == before
    send(BAD_CHAR_XML.replace("bad.char", "good"))
    assert _ring_state(receiver) == _ring_state(sender)


def _edited(items, text):
    """SP1's edit: a new root attribute value, a new attribute on <name> and
    ``text`` as its content."""
    out = []
    for item in items:
        if item == AttrValue("value1"):
            item = AttrValue("changed")
        elif item == Variable("iiti"):
            out += [AttrName("lang"), AttrValue("fresh")]
            item = Variable(text)
        out.append(item)
    return out


@pytest.mark.parametrize("mode", ["st", "tat"])
def test_failed_compose_reencrypt_commits_nothing(stream, ring, policy, k1, k3, mode):
    message = EncryptedMessage((2,), tuple(compose_encrypt(stream, policy, ring, mode)))
    sp1 = make_ring(k1, None, k3, "K1", "K3")
    items = compose_decrypt(message, sp1)
    view = CompositionPolicy({2: "K1"})
    before = _ring_state(sp1, ("K1", "K3"))
    with pytest.raises(UnsupportedCharacter):
        compose_reencrypt(_edited(items, "bad.char"), view, sp1, mode)
    assert _ring_state(sp1, ("K1", "K3")) == before

    words = compose_reencrypt(_edited(items, "good"), view, sp1, mode)
    expected = parse_xml('<root attr1="changed" attr2="value2"><name lang="fresh">good'
                         '</name><value>2</value><nv>a1</nv></root>')
    assert compose_decrypt(EncryptedMessage((2,), tuple(words)), ring, policy) \
        == list(expected)
    assert _ring_state(sp1, ("K1", "K3")) == _ring_state(ring, ("K1", "K3"))


# digests


def test_sign_segment_vectors(k1, k3):
    assert sign_segment(TAT_SEGMENT, k1) == D1
    assert sign_segment(TAT_BODY, k3) == D2
    assert sign_segment(TAT_SEGMENT, k1) == sign_segment(TAT_SEGMENT, k1)


def test_sign_segment_algorithms(k1):
    assert len(sign_segment(TAT_SEGMENT, k1, "sha1")) == 40
    assert len(sign_segment(TAT_SEGMENT, k1, "sha256")) == 64


def test_attach_places_digests_after_closers(stream, ring, policy):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    spans, digests = subtree_spans(signed, allow_digests=True)
    assert set(digests) == {2, 3, 4, 1}
    for ordinal, index in digests.items():
        assert signed[index - 1] == "0"
    assert digests[1] == len(signed) - 1


def test_verify_accepts_attach_output(stream, ring, policy):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    verdicts = verify_digests(EncryptedMessage((2,), tuple(signed)), ring, policy)
    assert [(v.ordinal, v.status) for v in verdicts] == [
        (2, Status.ACCEPT), (3, Status.ACCEPT), (4, Status.ACCEPT), (1, Status.ACCEPT),
    ]


def test_verify_recipient_view_marks_foreign_tags(stream, ring, policy, k1, k3):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    sp1 = make_ring(k1, None, k3, "K1", "K3")
    verdicts = verify_digests(EncryptedMessage((2,), tuple(signed)), sp1)
    by_ordinal = {v.ordinal: v.status for v in verdicts}
    assert by_ordinal == {
        2: Status.ACCEPT, 3: Status.NOT_CHECKABLE,
        4: Status.NOT_CHECKABLE, 1: Status.ACCEPT,
    }


def test_flipping_a_digit_rejects_the_subtree(stream, ring, policy):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    spans, _ = subtree_spans(signed, allow_digests=True)
    target = spans[2].start
    word = signed[target]
    tampered = list(signed)
    tampered[target] = word[:-1] + ("1" if word[-1] != "1" else "2")
    verdicts = verify_digests(EncryptedMessage((2,), tuple(tampered)), ring, policy)
    status = {v.ordinal: v.status for v in verdicts}
    assert status[2] is Status.REJECT
    assert status[3] is Status.ACCEPT


def test_verify_rejects_structurally_broken_messages(ring, policy):
    message = EncryptedMessage((2,), ("04", "0", "0"))
    verdicts = verify_digests(message, ring, policy)
    assert verdicts[0].ordinal == 0 and verdicts[0].status is Status.REJECT


def test_strip_digests_round_trip(stream, ring, policy):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    stripped, preserved = strip_digests(signed)
    assert stripped == body
    assert set(preserved) == {1, 2, 3, 4}


def test_refresh_recomputes_held_and_preserves_foreign(stream, ring, policy, k1, k3):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    stripped, preserved = strip_digests(signed)
    sp1 = make_ring(k1, None, k3, "K1", "K3")
    resolve = recipient_resolver((2,), sp1)
    refreshed = refresh_digests(stripped, sp1, resolve, preserved)
    assert refreshed == signed  # nothing edited: identical bytes throughout


def test_digest_grammar_rejects_misplaced_digests():
    with pytest.raises(MalformedMessage):
        subtree_spans(["04", D1, "0"], allow_digests=True)
    with pytest.raises(MalformedMessage):
        subtree_spans(["04", "0", D1, D2], allow_digests=True)


def test_whole_document_digest_covers_body_without_digests(stream, ring, policy):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    assert signed[-1] == sign_segment(body, ring.group.key)


def test_tamper_fuzz_over_every_position(stream, ring, policy):
    rng = random.Random(61)
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    _, digest_map = subtree_spans(signed, allow_digests=True)
    digest_indexes = set(digest_map.values())
    rejects = 0
    trials = 0
    for index, word in enumerate(signed):
        if index in digest_indexes:
            continue
        position = rng.randrange(len(word))
        original = word[position]
        flipped = rng.choice([d for d in "0123456789" if d != original])
        tampered = list(signed)
        tampered[index] = word[:position] + flipped + word[position + 1:]
        try:
            message = EncryptedMessage((2,), tuple(tampered))
            verdicts = verify_digests(message, ring, policy)
        except Exception:
            rejects += 1
            trials += 1
            continue
        if any(v.status is Status.REJECT for v in verdicts):
            rejects += 1
        trials += 1
    assert rejects == trials


@pytest.mark.parametrize("mode", ["st", "tat"])
def test_long_spelled_out_words_round_trip(k1, k2, k3, mode):
    """A 4,503-digit attribute-value word is decoded, not read as a code."""
    value = "abcdefghij" * 150
    sender = make_ring(k1, k2, k3, "K1", "K2", "K3")
    receiver = make_ring(k1, k2, k3, "K1", "K2", "K3")
    policy = CompositionPolicy({2: "K1", 3: "K2"})
    for doc in (f'<root a="{value}"><p q="{value}">x1</p><s b="{value}">y2</s></root>',
                f'<root a="{value[::-1]}"><p q="{value}">x1</p><s b="v">y2</s></root>'):
        stream = parse_xml(doc)
        for _ in range(2):      # spelled out, then (tat) short codes
            body = compose_encrypt(stream, policy, sender, mode)
            assert compose_decrypt(EncryptedMessage((), tuple(body)), receiver, policy) \
                == list(stream)
    for key_id in ("K1", "K2", "K3"):
        assert receiver[key_id].tat.items() == sender[key_id].tat.items()
