"""A signed message's Layout: the one structural scan equals the index-based
scan it replaced, each missing digest is a Reject, every step that hands a
body's structure on hands on what a scan would find, and the three-party
pipeline scans and classifies each message it receives once."""

import random
import threading
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from restcipher import (
    CompositionPolicy,
    EncryptedMessage,
    ScenarioConfig,
    Status,
    access_header,
    attach_digests,
    classify_word,
    compose_decrypt,
    compose_encrypt,
    compose_reencrypt,
    parse_key,
    parse_xml,
    refresh_digests,
    run_composition_scenario,
    verify_digests,
)
from restcipher import codec, composition
from restcipher.codec import item_spans, subtree_spans
from restcipher.composition import owners
from restcipher.errors import MalformedMessage, RestCipherError, Unclassifiable

from conftest import D1, D2, K1_TEXT, K2_TEXT, K3_TEXT, make_ring
from docgen import nested_catalog
from oracle import oracle_key_for, oracle_subtree_spans, oracle_verify_digests

KEYS = {"K1": parse_key(K1_TEXT), "K2": parse_key(K2_TEXT), "K3": parse_key(K3_TEXT)}
MISSING = "missing digest"


def _full_ring():
    return make_ring(KEYS["K1"], KEYS["K2"], KEYS["K3"], "K1", "K2", "K3")


def _catalog(rng):
    """(stream, policy, tag count) of a random nested catalog and a policy
    that maps some tags, nested ones included, and leaves the rest unmapped."""
    stream = parse_xml(nested_catalog(rng, rng.randint(1, 6)))
    count = len(item_spans(stream))
    policy = CompositionPolicy({o: rng.choice(["K1", "K2", "K3"])
                                for o in range(2, count + 1) if rng.random() < 0.6})
    return stream, policy, count


def _signed(rng, mode):
    """(signed words, policy, tag count) of a random catalog and policy."""
    stream, policy, count = _catalog(rng)
    ring = _full_ring()
    body = compose_encrypt(stream, policy, ring, mode)
    return attach_digests(body, policy, ring), policy, count


def _mutated(rng, words, how):
    """``words`` with one mutation: a digit flipped anywhere, a digest
    dropped, duplicated or moved before a closer, or a hex word inserted."""
    out = list(words)
    digests = sorted(oracle_subtree_spans(words, allow_digests=True)[1].values())
    if how == "flip":
        i = rng.randrange(len(out))
        p = rng.randrange(len(out[i]))
        digit = rng.choice([d for d in "0123456789" if d != out[i][p]])
        out[i] = out[i][:p] + digit + out[i][p + 1:]
    elif how == "drop":
        del out[rng.choice(digests)]
    elif how == "duplicate":
        i = rng.choice(digests)
        out.insert(i + 1, out[i])
    elif how == "move":
        word = out.pop(rng.choice(digests))
        closers = [i for i, w in enumerate(out) if w == "0"]
        out.insert(rng.choice(closers), word)
    elif how == "insert":
        hexword = "".join(rng.choice("0123456789abcdef") for _ in range(32))
        out.insert(rng.randrange(len(out) + 1), hexword)
    return out


def _outcome(scan, words):
    try:
        return scan(words)
    except RestCipherError as exc:
        return type(exc)


def _oracle_layout(words):
    """The oracle's scan with every index mapped into the digest-free body."""
    spans, digests = oracle_subtree_spans(words, allow_digests=True)
    cuts = sorted(digests.values())
    body = tuple(w for i, w in enumerate(words) if i not in digests.values())

    def at(i):
        return i - bisect_left(cuts, i)

    return (body,
            {o: (o, at(start), at(end), inside) for o, (_, start, end, inside) in spans.items()},
            {o: words[i] for o, i in sorted(digests.items(), key=lambda kv: kv[1])})


@settings(max_examples=150, deadline=None)
@given(hs.integers(0, 2**32), hs.sampled_from(["st", "tat"]),
       hs.sampled_from(["none", "flip", "drop", "duplicate", "move", "insert"]))
def test_the_layout_equals_the_index_based_scan(seed, mode, how):
    rng = random.Random(seed)
    signed, policy, count = _signed(rng, mode)
    words = _mutated(rng, signed, how)
    got = _outcome(lambda w: EncryptedMessage((), tuple(w)).layout, words)
    want = _outcome(_oracle_layout, words)
    if isinstance(want, type):
        assert got is want
    else:
        assert (got.body, got.spans, list(got.digests.items())) \
            == (want[0], want[1], list(want[2].items()))
    full = make_ring(KEYS["K1"], KEYS["K2"], KEYS["K3"], "K1", "K2", "K3")
    sp1 = make_ring(KEYS["K1"], None, KEYS["K3"], "K1", "K3")
    views = ((full, policy, ()),
             (sp1, None, access_header(policy, full, ["K1"], count)))
    for ring, view, access in views:
        message = EncryptedMessage(access, tuple(words))
        verdicts = verify_digests(message, ring, view)
        assert [v for v in verdicts if v.detail != MISSING] \
            == oracle_verify_digests(message, ring, view)
        missing = {v.ordinal for v in verdicts if v.detail == MISSING}
        assert all(v.status is Status.REJECT for v in verdicts if v.detail == MISSING)
        if isinstance(got, type):
            assert not missing
            continue
        # the root's digest is always due; with a policy, each one at a key
        # boundary: a tag whose key differs from its parent's, the nearest
        # tag whose subtree holds it
        spans = got.spans
        due = {1} | {o for o in spans if view is not None and o > 1
                     and oracle_key_for(view, o, ring) != oracle_key_for(view, max(
                         p for p in spans if p < o <= p + spans[p].opens_inside), ring)}
        assert missing == due - set(got.digests)


#: (body, the first fault in word order): its error class and text
FIRST_FAULTS = {
    "no-class-then-closer": (["04", "x", "0", "0"],
                             Unclassifiable, "word 'x' matches no word class"),
    "second-root-then-no-class": (["04", "0", "05", "x", "0"],
                                  MalformedMessage, "multiple roots in one message"),
    "closer-then-no-class": (["04", "0", "0", "x"],
                             MalformedMessage, "closer at word 2 with no open tag"),
    "outside-then-no-class": (["04", "05", "0", "0", "7", "x"],
                              MalformedMessage, "word 4 outside any tag"),
    "misplaced-digest-then-closer": (["04", D1, "0", "0"], MalformedMessage,
                                     "digest at word 1 does not follow a closer"),
    "second-digest-then-open": (["04", "05", "0", D1, D2, "0"],
                                MalformedMessage, "second digest for tag 2"),
}


@pytest.mark.parametrize("words, error, text", FIRST_FAULTS.values(), ids=FIRST_FAULTS.keys())
def test_the_layout_scan_raises_the_first_fault_in_word_order(words, error, text):
    """Classes read through a map and a scan that works only at tags,
    closers and the word after a closer still meet the faults in word
    order, as the oracle's word-by-word scan does."""
    scans = {
        "subtree_spans": lambda: subtree_spans(words),
        "layout": lambda: EncryptedMessage((), tuple(words)).layout,
        "oracle": lambda: oracle_subtree_spans(words, allow_digests=True),
    }
    for name, scan in scans.items():
        with pytest.raises(error) as raised:
            scan()
        assert type(raised.value) is error and str(raised.value) == text, name
    # a parse classifies every word before the layout scans them, so a word
    # of no class is its refusal wherever it stands
    message = " ".join(words)
    with pytest.raises(MalformedMessage) as raised:
        EncryptedMessage.parse(message).layout
    assert str(raised.value) == ("word 'x' matches no word class" if "x" in words else text)


@settings(max_examples=100, deadline=None)
@given(hs.integers(0, 2**32), hs.sampled_from(["st", "tat"]))
def test_each_step_hands_on_the_structure_a_scan_finds(seed, mode):
    rng = random.Random(seed)
    stream, policy, count = _catalog(rng)
    sender = _full_ring()
    body = compose_encrypt(stream, policy, sender, mode)
    assert body.spans == subtree_spans(body).spans
    signed = attach_digests(body, policy, sender)
    assert signed.layout == subtree_spans(signed)
    for held in ("K1", "K2"):
        access = access_header(policy, sender, [held], count)
        msg = EncryptedMessage.parse(EncryptedMessage(access, tuple(signed)).serialize())
        assert msg.kinds == {word: classify_word(word) for word in msg.words}
        # the parsed signed message and its digest-free twin built directly,
        # to twin providers: each decodes by its own Layout
        decoded = []
        for received in (msg, EncryptedMessage(access, msg.layout.body)):
            ring = make_ring(KEYS["K1"], KEYS["K2"], KEYS["K3"], held, "K3")
            rule = owners(ring, access=access)
            items = compose_decrypt(received, ring, rule)
            decoded.append((items, [session.tat.items() for session in ring]))
            words = compose_reencrypt(items, rule, ring, mode)
            # the re-encoded body lies word for word where the received one did
            assert subtree_spans(words).spans == msg.layout.spans
            refreshed = refresh_digests(words, ring, rule, msg.layout)
            assert refreshed == refresh_digests(list(words), ring, rule, msg.layout)
            assert refreshed.layout == subtree_spans(refreshed)
        assert decoded[0] == decoded[1]


def _scans(monkeypatch):
    """Record (thread name, words) of every structural scan, and the word of
    every call of ``classify_word``."""
    calls, classified = [], []
    lock = threading.Lock()
    scan, classify = codec.subtree_spans, codec.classify_word

    def counted(words, kinds=None):
        with lock:
            calls.append((threading.current_thread().name, tuple(words)))
        return scan(words, kinds)

    def counted_classify(word):
        with lock:
            classified.append(word)
        return classify(word)

    for module in (codec, composition):
        monkeypatch.setattr(module, "subtree_spans", counted)
    monkeypatch.setattr(codec, "classify_word", counted_classify)
    return calls, classified


@pytest.mark.parametrize("mode", ["st", "tat"])
def test_each_received_message_is_scanned_once(monkeypatch, mode):
    calls, classified = _scans(monkeypatch)
    result = run_composition_scenario(ScenarioConfig(mode=mode))
    assert not result.halted
    classified = len(classified)        # before this test parses the bodies again
    main = threading.main_thread().name
    # one scan per message received: S scans each reply, and each provider
    # the message it receives; both receive the same signed words, under
    # different access lists.  The bodies S signs and the providers re-sign
    # come with the spans their encoder recorded.
    assert len(calls) == 4
    assert sum(name == main for name, _ in calls) == 2
    assert len(set(calls)) == len(calls)
    bodies = {e.direction: e.body for e in result.transcript if e.kind == "message"}
    received = [tuple(EncryptedMessage.parse(bodies[d]).words)
                for d in ("S->SP1", "S->SP2", "SP1->S", "SP2->S")]
    scanned = [words for _, words in calls]
    assert [scanned.count(words) for words in received] == [2, 2, 1, 1]
    # each distinct word of a received message is classified once, by its parse
    assert classified <= sum(len(set(words)) for words in received)
