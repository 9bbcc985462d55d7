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
    TatContext,
    Variable,
    Verdict,
    WordKind,
    access_header,
    attach_digests,
    compose_decrypt,
    compose_encrypt,
    compose_reencrypt,
    encode_word,
    parse_key,
    parse_xml,
    refresh_digests,
    sign_segment,
    stbe,
    strip_digests,
    verify_digests,
)
from restcipher import composition
from restcipher.codec import item_spans, subtree_spans
from restcipher.composition import owners
from restcipher.errors import (
    MalformedMessage,
    MalformedStream,
    MalformedWord,
    MissingKey,
    UnbalancedClosers,
    Unclassifiable,
    UnknownCode,
    UnknownTatCode,
    UnsupportedCharacter,
    UnsupportedShape,
)

from conftest import COMPOSE_ST_BODY, D1, D2, K1_TEXT, K2_TEXT, K3_TEXT, XML2, make_ring
from docgen import nested_catalog
from oracle import oracle_subtree_spans, oracle_verify_digests

TAT_SEGMENT = ["05", "122122104122", "0"]
TAT_BODY = "01 009 0002 003 0004 05 122122104122 0 07 313 0 08 356290 0 0".split(" ")


@pytest.fixture
def stream():
    return parse_xml(XML2)


# ring and policy


def test_ring_requires_a_single_group_key(k1, k3):
    ring = KeyRing()
    ring.add_key("K1", k1)
    assert ring.group_id is None
    ring.add_key("K3", k3, is_group=True)
    assert ring[ring.group_id].key_id == "K3"
    with pytest.raises(ValueError):
        ring.add_key("K3b", k3, is_group=True)


def test_policy_defaults_to_the_group_key(ring, policy):
    rule = owners(ring, policy)
    assert [rule[o].key_id for o in (1, 2, 3, 4, 5)] == ["K3", "K1", "K2", "K2", "K3"]
    assert owners(ring, rule) is rule


def test_policy_cannot_move_the_root_off_the_group_key(ring):
    with pytest.raises(ValueError):
        owners(ring, CompositionPolicy({1: "K1"}))


def test_policy_missing_key(k1, k3):
    partial = make_ring(k1, None, k3, "K1", "K3")
    policy = CompositionPolicy({3: "K2"})
    assert owners(partial, policy)[3] is None
    with pytest.raises(MissingKey):
        access_header(policy, partial, ["K1"], 4)


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


@pytest.mark.parametrize("encrypt", [compose_encrypt, compose_reencrypt],
                         ids=["compose_encrypt", "compose_reencrypt"])
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


def test_a_reply_is_read_in_the_root_and_the_granted_tags_only(ring):
    # r1 a2 b3 c4 d5 e6 f7; the group key K3 owns every tag.  The sender
    # reads a reply as the recipient read the message: a tag nested in a
    # granted one is foreign unless granted too, and a granted tag nested
    # in a foreign one lies in that tag's run
    rule = owners(ring, CompositionPolicy({}))

    def read(access):
        return sorted(o for o in range(1, 8) if composition.reply_owners(
            rule, access)[o] is not None)

    assert read((4,)) == [1, 4]
    assert read((2, 7)) == [1, 2, 7]
    assert read((2, 5)) == [1, 2, 5]
    assert read(()) == [1]
    assert composition.reply_owners(rule, (4,))[4] is ring["K3"]
    assert composition.reply_owners(rule, (4,))[2] is None


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


def test_text_after_a_closer_goes_with_the_enclosing_tag(ring, k1, k2, k3):
    # mixed content is outside the document grammar, yet each word still
    # travels under its own tag's key, both ways
    stream = [Open("root"), Open("name"), Variable("iiti"), Close(), Variable("ti"),
              Close()]
    policy = CompositionPolicy({2: "K1"})
    body = compose_encrypt(stream, policy, ring, "st")
    assert body[4] == encode_word("ti", WordKind.VARIABLE, ring["K3"].st)
    receiver = make_ring(k1, k2, k3, "K1", "K2", "K3")
    assert compose_decrypt(EncryptedMessage((), tuple(body)), receiver, policy) == stream


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
    spans = subtree_spans(words).spans
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


def _single_key_encrypt(items, policy, ring, mode):
    return ring[ring.group_id].encrypt(items, mode=mode).words


@pytest.mark.parametrize("encode", [compose_encrypt, compose_reencrypt,
                                    _single_key_encrypt],
                         ids=["compose_encrypt", "compose_reencrypt",
                              "_single_key_encrypt"])
@pytest.mark.parametrize("mode", ["st", "tat"])
@pytest.mark.parametrize("items", [
    [Variable("ab")],                   # a word outside every tag
    [Open("a"), Close(), Close()],      # a closer with no open tag
    [Open("a"), Close(), Open("b"), Close()],       # a second root
    [Open("a"), Close(), Variable("ab")],           # a word after the root
    [Open("a"), AttrName("b")],                     # a tag left open
    [],                                             # no tag at all
])
def test_an_unbalanced_stream_is_a_named_error(ring, encode, mode, items):
    before = _ring_state(ring)
    with pytest.raises(UnbalancedClosers):
        encode(items, CompositionPolicy({}), ring, mode)
    assert _ring_state(ring) == before


@pytest.mark.parametrize("encode", [compose_encrypt, compose_reencrypt,
                                    _single_key_encrypt],
                         ids=["compose_encrypt", "compose_reencrypt",
                              "_single_key_encrypt"])
@pytest.mark.parametrize("mode", ["st", "tat"])
@pytest.mark.parametrize("items", [
    [Open("a"), Open(""), Close(), Close()],
    [Open("a"), AttrName(""), AttrValue("v"), Close()],
    [Open("a"), AttrName("n"), AttrValue(""), Close()],
    [Open("a"), Variable(""), Close()],
], ids=["Open", "AttrName", "AttrValue", "Variable"])
def test_an_empty_text_token_is_refused_before_any_commit(ring, encode, mode, items):
    # the empty word would spell no payload: a lone marker or nothing at all
    before = _ring_state(ring)
    with pytest.raises(UnsupportedShape):
        encode(items, CompositionPolicy({}), ring, mode)
    assert _ring_state(ring) == before


def test_a_hand_built_run_encodes_but_only_its_own_message_lays_it_out(ring):
    items = [Open("a"), OpaqueRun(("0123", "0"), 2, 0), Close()]
    body = compose_encrypt(items, CompositionPolicy({}), ring)
    assert body[1:] == ["0123", "0", "0"]
    with pytest.raises(MalformedStream, match="tag 2 "):
        attach_digests(body, CompositionPolicy({}), ring)
    # a one-word run is one word as well as one item, and a run at the root
    # leaves no Span at all; Body.spans refuses both by the run's tag
    for items, ordinal in (([Open("a"), OpaqueRun(("0123",), 2, 0), Close()], 2),
                           ([OpaqueRun(("0123", "0"), 1, 0)], 1)):
        body = compose_encrypt(items, CompositionPolicy({}), ring)
        with pytest.raises(MalformedStream, match=f"^tag {ordinal} is an opaque run, "):
            body.spans


def _decoders(k1, k3):
    """Every decoder of a body under the group key K3, with the state it
    commits to and the error class a body that is not one tag tree gets: a
    single-key session's walker, then a one-key ring and a provider's view,
    which the layout scan refuses first."""
    session = Session.for_key(k3)
    one_key = make_ring(None, None, k3, "K3")
    provider = make_ring(k1, None, k3, "K1", "K3")
    return [
        (lambda words: session.decrypt(EncryptedMessage((), words)), session,
         UnbalancedClosers),
        (lambda words: compose_decrypt(EncryptedMessage((), words), one_key,
                                       CompositionPolicy({})), one_key["K3"],
         MalformedMessage),
        (lambda words: compose_decrypt(EncryptedMessage((2,), words), provider),
         provider["K3"], MalformedMessage),
    ]


@pytest.mark.parametrize("shape", ["second root", "no root", "text after the root",
                                   "closer after the root", "left open", "empty"])
def test_every_decoder_refuses_a_body_that_is_not_one_tag_tree(k1, k3, shape):
    sender = make_ring(None, None, k3, "K3")
    one = tuple(compose_encrypt(parse_xml("<a>b</a>"), CompositionPolicy({}), sender))
    body = {"second root": one + one, "no root": one[1:2],
            "text after the root": one + one[1:2], "closer after the root": one + ("0",),
            "left open": one[:-1], "empty": ()}[shape]
    for decode, session, error in _decoders(k1, k3):
        with pytest.raises(error):
            decode(body)
        assert (session.tat.items(), session.ctx) == ([], TatContext())


BAD_WORD = "12a"        # of no word class


@pytest.mark.parametrize("shape, error, scan_error", [
    ("a closer with no open tag, then a bad word", UnbalancedClosers, MalformedMessage),
    ("a bad word after the root", UnbalancedClosers, Unclassifiable),
    ("the root closed early, then a bad word", UnbalancedClosers, Unclassifiable),
    ("a bad word in the last subtree", Unclassifiable, Unclassifiable),
    ("a digest in the last subtree", MalformedWord, MalformedMessage),
    ("the last subtree left open", UnbalancedClosers, MalformedMessage),
])
def test_a_decoder_reports_the_first_fault_in_word_order(k3, shape, error, scan_error):
    """The fault first in word order names the error: in a body built
    directly, which no parse classified, also when a word of no class comes
    after it; and also where the provider copies the last subtree as
    foreign.  A session's walker raises ``error``; both composition views
    get the layout scan's ``scan_error`` and leave every tag table as it
    was."""
    sender = make_ring(None, None, k3, "K3")
    words = tuple(compose_encrypt(parse_xml("<a><b>c</b><d>e</d></a>"),
                                  CompositionPolicy({}), sender))
    body = {
        "a closer with no open tag, then a bad word": words + ("0", BAD_WORD),
        "a bad word after the root": words + (BAD_WORD,),
        "the root closed early, then a bad word": words[:4] + ("0", BAD_WORD),
        "a bad word in the last subtree": words[:5] + (BAD_WORD,) + words[5:],
        "a digest in the last subtree": words[:5] + (D1,) + words[5:],
        "the last subtree left open": words[:6],
    }[shape]
    session = Session.for_key(k3)
    one_key = make_ring(None, None, k3, "K3")
    provider = make_ring(None, None, k3, "K3")      # reads the root, no other tag
    messages = [EncryptedMessage((), body)]
    if BAD_WORD not in body:        # a parsed one keeps its word classes
        messages.append(EncryptedMessage.parse(" ".join(body)))
    for msg in messages:
        for decode, want in ((lambda: session.decrypt(msg), error),
                             (lambda: compose_decrypt(msg, one_key, CompositionPolicy({})),
                              scan_error),
                             (lambda: compose_decrypt(msg, provider), scan_error)):
            with pytest.raises(want):
                decode()
    for owner in (session, *one_key, *provider):
        assert (owner.tat.items(), owner.ctx) == ([], TatContext())


# digests


def test_sign_segment_vectors(k1, k3):
    assert sign_segment(TAT_SEGMENT, k1) == D1
    assert sign_segment(TAT_BODY, k3) == D2
    assert sign_segment(TAT_SEGMENT, k1) == sign_segment(TAT_SEGMENT, k1)


def test_attach_places_digests_after_closers(stream, ring, policy):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    layout = subtree_spans(signed)
    assert list(layout.digests) == [2, 3, 4, 1]         # in word order
    for word in layout.digests.values():
        assert signed[signed.index(word) - 1] == "0"
    assert layout.digests[1] == signed[-1]
    assert list(layout.body) == body


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
    target = subtree_spans(signed).spans[2].start      # no digest before it
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


def test_a_message_stripped_of_its_digests_is_rejected(stream, ring, policy, k1, k3):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    assert verify_digests(EncryptedMessage((2,), tuple(signed)), ring, policy)
    stripped = EncryptedMessage((2,), tuple(body))
    # with the policy every digest attach_digests makes is due, in word order
    assert [(v.ordinal, v.status, v.detail) for v in verify_digests(stripped, ring, policy)] \
        == [(o, Status.REJECT, "missing digest") for o in (2, 3, 4, 1)]
    # a recipient that knows no policy still misses the whole-document digest
    sp1 = make_ring(k1, None, k3, "K1", "K3")
    assert verify_digests(stripped, sp1) == [Verdict(1, Status.REJECT, "missing digest")]


def test_each_dropped_subtree_digest_is_missing_under_the_policy(stream, ring, policy):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    for ordinal, word in subtree_spans(signed).digests.items():
        dropped = EncryptedMessage((2,), tuple(w for w in signed if w != word))
        rejects = [(v.ordinal, v.detail) for v in verify_digests(dropped, ring, policy)
                   if v.status is Status.REJECT]
        assert rejects == [(ordinal, "missing digest")]


@pytest.mark.parametrize("mode", ["st", "tat"])
def test_a_change_to_a_same_key_child_is_rejected_at_its_outermost_tag(ring, mode):
    # the K1 <item> is a key boundary; its <name> and <price> are not, and
    # neither is the group's <x> directly under the group's root
    stream = parse_xml("<r><item><name>a</name><price>1</price></item><x>y</x></r>")
    policy = CompositionPolicy({2: "K1", 3: "K1", 4: "K1"})
    signed = attach_digests(compose_encrypt(stream, policy, ring, mode), policy, ring)
    layout = signed.layout
    assert list(layout.digests) == [2, 1]
    name = layout.spans[3]
    for index in range(name.start, name.end):           # every word but the closer
        word = signed[index]                            # no digest before it
        tampered = list(signed)
        tampered[index] = word[:-1] + str((int(word[-1]) + 1) % 10)
        message = EncryptedMessage((2,), tuple(tampered))
        assert message.layout.spans == layout.spans
        assert [(v.ordinal, v.status, v.detail) for v in verify_digests(message, ring, policy)] \
            == [(2, Status.REJECT, "digest mismatch"), (1, Status.REJECT, "digest mismatch")]


def test_a_missing_digest_between_two_keys_not_held_is_named(ring, k1, k2, k3):
    # K2's <b> lies directly in K1's <a>; a verifier holding neither key
    # still knows from the policy that <b> is a key boundary
    stream = parse_xml("<r><a><b>x</b></a></r>")
    policy = CompositionPolicy({2: "K1", 3: "K2"})
    signed = attach_digests(compose_encrypt(stream, policy, ring, "st"), policy, ring)
    assert list(signed.layout.digests) == [3, 2, 1]
    stripped = [w for w in signed if w != signed.layout.digests[3]]
    group_only = make_ring(k1, k2, k3, "K3")
    verdicts = verify_digests(EncryptedMessage((), tuple(stripped)), group_only, policy)
    assert [(v.ordinal, v.status, v.detail) for v in verdicts] == [
        (3, Status.REJECT, "missing digest"), (2, Status.NOT_CHECKABLE, "key not held"),
        (1, Status.ACCEPT, "")]


def test_a_hundred_item_catalog_carries_one_digest_per_key_boundary(ring):
    # item j's four tags go to K1 when j % 3 == 0, to K2 when j % 3 == 1 and
    # stay with the group key otherwise: 34 + 33 items and the root
    stream = parse_xml("<catalog>" + "".join(
        f'<item id="i{j}" kind="k{j % 7}"><name>n{j}</name><price>{j}5</price>'
        f"<qty>{j}</qty></item>" for j in range(100)) + "</catalog>")
    keys = {0: "K1", 1: "K2"}
    policy = CompositionPolicy({2 + 4 * j + t: keys[j % 3]
                                for j in range(100) if j % 3 in keys for t in range(4)})
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    assert len(signed) - len(body) == 68
    assert sorted(signed.layout.digests) == [1] + [2 + 4 * j for j in range(100) if j % 3 < 2]
    assert all(v.status is Status.ACCEPT
               for v in verify_digests(EncryptedMessage((), tuple(signed)), ring, policy))


def test_a_body_that_holds_a_digest_is_not_signed_again(stream, ring, policy, k1, k3):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    with pytest.raises(MalformedMessage):
        attach_digests(signed, policy, ring)
    sp1 = make_ring(k1, None, k3, "K1", "K3")
    with pytest.raises(MalformedMessage):
        refresh_digests(signed, sp1, owners(sp1, access=(2,)), subtree_spans(signed))


def test_strip_digests_round_trip(stream, ring, policy):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    stripped, preserved = strip_digests(signed)
    assert stripped == body
    assert set(preserved) == {1, 2, 3, 4}


def test_refresh_recomputes_held_and_preserves_foreign(stream, ring, policy, k1, k3):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    stripped, _ = strip_digests(signed)
    sp1 = make_ring(k1, None, k3, "K1", "K3")
    refreshed = refresh_digests(stripped, sp1, owners(sp1, access=(2,)),
                                subtree_spans(signed))
    assert refreshed == signed  # nothing edited: identical bytes throughout


@pytest.mark.parametrize("ids", [("K1", "K3"), ("K3",)])
def test_refresh_refuses_a_body_of_another_length(monkeypatch, stream, ring, policy,
                                                  k1, k2, k3, ids):
    # a word short or a word over, with or without the key of tag 2,
    # refused before any hash
    signed = attach_digests(compose_encrypt(stream, policy, ring, "st"), policy, ring)
    received = subtree_spans(signed)
    holder = make_ring(k1, k2, k3, *ids)
    hashed = []
    monkeypatch.setattr(composition, "_digest", lambda *args: hashed.append(args))
    for body in (received.body[:-1], received.body + ("1",)):
        with pytest.raises(MalformedMessage, match=f"a body of {len(body)} words"):
            refresh_digests(body, holder, owners(holder, access=(2,)), received)
    assert hashed == []


def test_digest_grammar_rejects_misplaced_digests():
    with pytest.raises(MalformedMessage):
        subtree_spans(["04", D1, "0"])
    with pytest.raises(MalformedMessage):
        subtree_spans(["04", "0", D1, D2])


def test_a_digest_is_recognised_by_its_position():
    # an all-decimal md5 after a closer is a digest, not a variable word
    assert subtree_spans(["04", "05", "0", "1" * 32, "0"]).digests == {2: "1" * 32}
    assert subtree_spans(["04", "0", "00" + "1" * 30]).digests == {1: "00" + "1" * 30}
    # after the root's closer no tag may follow, so even a tag-shaped one
    assert subtree_spans(["04", "0", "01" + "2" * 30]).digests == {1: "01" + "2" * 30}
    # inside the root a tag-shaped word of an md5's length opens a sibling
    layout = subtree_spans(["04", "05", "0", "0" + "1" * 31, "0", "0"])
    assert sorted(layout.spans) == [1, 2, 3] and layout.digests == {}


@pytest.mark.parametrize("length", [40, 64])
def test_a_hex_word_of_another_digest_length_is_refused_whole(stream, ring, policy, length):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    words = tuple(signed[:-1]) + (signed[-1] + "a" * (length - 32),)
    with pytest.raises(MalformedMessage, match="matches no word class"):
        EncryptedMessage.parse(EncryptedMessage((2,), words).serialize())
    [verdict] = verify_digests(EncryptedMessage((2,), words), ring, policy)
    assert verdict.ordinal == 0 and verdict.status is Status.REJECT
    assert "matches no word class" in verdict.detail


@pytest.mark.parametrize("marker", ["", "00", "000"])
def test_all_decimal_digests_verify(monkeypatch, stream, ring, policy, marker):
    real = composition._digest

    def decimal(who, segment):
        return (marker + str(int(real(who, segment), 16)))[:32]

    monkeypatch.setattr(composition, "_digest", decimal)
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    message = EncryptedMessage.parse(EncryptedMessage((2,), tuple(signed)).serialize())
    verdicts = verify_digests(message, ring, policy)
    assert [(v.ordinal, v.status) for v in verdicts] == [
        (2, Status.ACCEPT), (3, Status.ACCEPT), (4, Status.ACCEPT), (1, Status.ACCEPT),
    ]
    assert strip_digests(message.words)[0] == body


#: (digest word, the tag it signs, the pairwise key whose holder re-signs that tag)
_MISREAD_DIGESTS = [
    ("0" + "1" * 31, 2, "K1"),          # tag-shaped inside the root: opens a sibling tag
    ("0" + "9" * 31, 4, "K2"),
    ("0000" + "1" * 28, 3, "K2"),       # four leading zeros: matches no word class
    ("0" * 32, 1, "K1"),
]


@pytest.mark.parametrize("word, ordinal, pair_id", _MISREAD_DIGESTS)
def test_a_signer_refuses_a_digest_word_its_receiver_would_misread(
        monkeypatch, stream, ring, policy, k1, k2, k3, word, ordinal, pair_id):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    # the words a signer that checks no digest word sends: the receiver
    # reads the tag-shaped digest as a tag left open, the other as no word
    sent = [word if w == signed.layout.digests[ordinal] else w for w in signed]
    fault = MalformedMessage if word[3] != "0" else Unclassifiable
    with pytest.raises(fault, match="tags left open|matches no word class"):
        subtree_spans(sent)
    real = composition._digest
    segment = signed.layout.segment(ordinal)
    monkeypatch.setattr(composition, "_digest", lambda who, words: (
        word if words == segment else real(who, words)))
    refused = f"the digest of tag {ordinal}, {word}, would be misread"
    with pytest.raises(MalformedMessage) as by_sender:
        attach_digests(body, policy, ring)
    holder = make_ring(k1, k2, k3, pair_id, "K3")
    access = access_header(policy, ring, [pair_id], 4)
    with pytest.raises(MalformedMessage) as by_provider:
        refresh_digests(body, holder, owners(holder, access=access), signed.layout)
    assert str(by_sender.value) == str(by_provider.value) == refused


def test_a_tag_shaped_digest_after_the_root_is_signed_and_verifies(monkeypatch, stream,
                                                                   ring, policy):
    # after the root's closer no tag may follow, so the root's digest may be tag-shaped
    body = compose_encrypt(stream, policy, ring, "st")
    real = composition._digest
    monkeypatch.setattr(composition, "_digest", lambda who, words: (
        "0" + "1" * 31 if len(words) == len(body) else real(who, words)))
    signed = attach_digests(body, policy, ring)
    assert signed[-1] == "0" + "1" * 31
    message = EncryptedMessage.parse(EncryptedMessage((2,), tuple(signed)).serialize())
    assert all(v.status is Status.ACCEPT for v in verify_digests(message, ring, policy))


def test_whole_document_digest_covers_body_without_digests(stream, ring, policy):
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    assert signed[-1] == sign_segment(body, ring[ring.group_id].key)


def test_tamper_fuzz_over_every_position(stream, ring, policy):
    rng = random.Random(61)
    body = compose_encrypt(stream, policy, ring, "st")
    signed = attach_digests(body, policy, ring)
    digest_words = set(subtree_spans(signed).digests.values())
    rejects = 0
    trials = 0
    for index, word in enumerate(signed):
        if word in digest_words:
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


KEYS = {"K1": parse_key(K1_TEXT), "K2": parse_key(K2_TEXT), "K3": parse_key(K3_TEXT)}


def _provider_reply(rng, signed, policy, sender, held, count, mode) -> EncryptedMessage:
    """The reply of an honest provider holding ``held`` and the group key:
    it decodes what it can read, edits one variable word it read, if any,
    re-encodes and re-signs."""
    ring = make_ring(KEYS["K1"], KEYS["K2"], KEYS["K3"], held, "K3")
    access = access_header(policy, sender, [held], count)
    msg = EncryptedMessage.parse(EncryptedMessage(access, tuple(signed)).serialize())
    rule = owners(ring, access=access)
    items = compose_decrypt(msg, ring, rule)
    texts = [i for i, item in enumerate(items) if isinstance(item, Variable)]
    if texts and rng.random() < 0.7:
        items[rng.choice(texts)] = Variable(f"e{rng.randrange(100)}")
    words = compose_reencrypt(items, rule, ring, mode)
    return EncryptedMessage(access, tuple(refresh_digests(words, ring, rule, msg.layout)))


def _reply_mutated(rng, words, signed, how) -> list:
    """A reply's words with one change: a digit of a word that is no digest,
    two digest words swapped, one digest word replaced by the sender's digest
    of another tag, or one leaf tag left out with its digest."""
    out = list(words)
    spans, digests = oracle_subtree_spans(out, allow_digests=True)
    if how == "word":
        i = rng.choice([i for i in range(len(out)) if i not in digests.values()])
        p = rng.randrange(len(out[i]))
        out[i] = out[i][:p] + rng.choice([d for d in "0123456789" if d != out[i][p]]) \
            + out[i][p + 1:]
    elif how == "swap" and len(digests) > 1:
        a, b = rng.sample(sorted(digests.values()), 2)
        out[a], out[b] = out[b], out[a]
    elif how == "other-digest" and len(signed.layout.digests) > 1:
        ordinal = rng.choice(sorted(digests))
        out[digests[ordinal]] = signed.layout.digests[rng.choice(
            [o for o in signed.layout.digests if o != ordinal])]
    elif how == "tag-fewer":
        leaves = [o for o, (_, _, _, inside) in spans.items() if o > 1 and not inside]
        if leaves:
            _, start, end, _ = spans[rng.choice(leaves)]
            if end + 1 in digests.values():
                end += 1
            del out[start:end + 1]
    return out


@settings(max_examples=120, deadline=None)
@given(hs.integers(0, 2**32), hs.sampled_from(["st", "tat"]),
       hs.sampled_from(["none", "word", "swap", "other-digest", "tag-fewer"]))
def test_s_verdicts_on_a_mutated_reply_equal_the_oracle_s(seed, mode, how):
    """S's verdicts on a reply, mutated or not, equal the oracle's, which
    hashes every subtree."""
    rng = random.Random(seed)
    sender = make_ring(KEYS["K1"], KEYS["K2"], KEYS["K3"], "K1", "K2", "K3")
    stream = parse_xml(nested_catalog(rng, rng.randint(1, 8)))
    count = len(item_spans(stream))
    policy = CompositionPolicy({o: rng.choice(["K1", "K2", "K3"])
                                for o in range(2, count + 1) if rng.random() < 0.6})
    body = compose_encrypt(stream, policy, sender, mode)
    signed = attach_digests(body, policy, sender)
    for held in ("K1", "K2"):
        reply = _provider_reply(rng, signed, policy, sender, held, count, mode)
        words = _reply_mutated(rng, reply.words, signed, how)
        reply = EncryptedMessage(reply.access, tuple(words))
        checked = verify_digests(reply, sender, policy)
        assert [v for v in checked if v.detail != "missing digest"] \
            == oracle_verify_digests(reply, sender, policy)
        if how == "none":
            assert all(v.status is Status.ACCEPT for v in checked)


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
