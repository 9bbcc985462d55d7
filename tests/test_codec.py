import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from restcipher import (
    EncryptedMessage,
    Session,
    TagTable,
    TatContext,
    WordKind,
    classify_word,
    encode_word,
    generate_key,
    parse_key,
    parse_json,
    parse_xml,
    stbd,
    stbe,
    tatbd,
    tatbe,
)
from restcipher.codec import decode_chars
from restcipher.errors import (
    MalformedMessage,
    MalformedWord,
    UnbalancedClosers,
    Unclassifiable,
    UnknownCode,
    UnknownTatCode,
    UnsupportedCharacter,
)

from conftest import JSON1, K1_TEXT, STENC_XML1, TATENC_XML1, TATENC_XML2, XML1, XML2
from docgen import random_doc_key, random_stream


@pytest.fixture
def pair(k1):
    """Fresh encoder and decoder sessions under the worked key."""
    return Session.for_key(k1), Session.for_key(k1)


def tat_rows(session):
    return session.tat.items()


# word-level vectors


def test_encode_word_vectors(session_k1):
    st = session_k1.st
    assert encode_word("root", WordKind.TAG, st) == "0117126126104"
    assert encode_word("attr1", WordKind.ATTR_NAME, st) == "00153104104117340"
    assert encode_word("value1", WordKind.ATTR_VALUE, st) == "000850153137820146340"
    assert encode_word("iiti", WordKind.VARIABLE, st) == "122122104122"


def test_encode_word_unsupported_character(session_k1):
    with pytest.raises(UnsupportedCharacter):
        encode_word("a$b", WordKind.VARIABLE, session_k1.st)


@pytest.mark.parametrize(
    "word,kind",
    [
        ("0", WordKind.CLOSER),
        ("0117126126104", WordKind.TAG),
        ("00153104104117340", WordKind.ATTR_NAME),
        ("000850153137820146340", WordKind.ATTR_VALUE),
        ("0002", WordKind.ATTR_VALUE),
        ("04", WordKind.TAG),
        ("122122104122", WordKind.VARIABLE),
        ("adc1aeffe1fe867740f976fd55c0c481", WordKind.DIGEST),
    ],
)
def test_classify_word(word, kind):
    assert classify_word(word) is kind


@pytest.mark.parametrize("word", ["", "00", "000", "0000", "00001", "12a", "ADC1" + "0" * 28])
def test_unclassifiable_words(word):
    with pytest.raises(Unclassifiable):
        classify_word(word)


def test_all_digit_32_char_word_is_not_a_digest():
    assert classify_word("1" * 32) is WordKind.VARIABLE


# message serialization


def test_serialized_form():
    message = EncryptedMessage((1,), ("04", "0"))
    assert message.serialize() == "1, 04 0"
    assert EncryptedMessage((3, 4), ("04", "0")).serialize() == "3,4, 04 0"
    assert EncryptedMessage((), ("04", "0")).serialize() == "04 0"


def test_parse_round_trip():
    for text in (STENC_XML1, TATENC_XML1, "04 0", "3,4, 04 0"):
        assert EncryptedMessage.parse(text).serialize() == text


def test_parse_rejects_bad_grammar():
    # an access ordinal of 5,000 digits is too long for int() to read
    for text in ("", "1,", "04  0", "04 0 ", "1, 04 x9", "1" * 5000 + ", 04 0"):
        with pytest.raises(MalformedMessage):
            EncryptedMessage.parse(text)


# stbe / stbd


def test_stbe_produces_the_derived_string(pair):
    encoder, _ = pair
    message = stbe(parse_xml(XML1), encoder.st, encoder.tat, encoder.ctx, (1,))
    assert message.serialize() == STENC_XML1


def test_stbe_builds_the_tag_table(pair):
    encoder, _ = pair
    stbe(parse_xml(XML1), encoder.st, encoder.tat, encoder.ctx, (1,))
    assert {w: c for w, c, _ in tat_rows(encoder)} == {
        "root": 4, "attr1": 8, "value1": 2, "attr2": 9, "value2": 3,
        "name": 5, "value": 6,
    }


def test_empty_access_list_leaves_the_body_unchanged(pair):
    encoder, other = pair
    with_access = stbe(parse_xml(XML1), encoder.st, encoder.tat, encoder.ctx, (1,))
    without = stbe(parse_xml(XML1), other.st, other.tat, other.ctx, ())
    assert without.words == with_access.words
    assert without.serialize() == with_access.serialize()[3:]


def test_stbd_inverts_stbe(pair):
    encoder, decoder = pair
    stream = parse_xml(XML1)
    message = stbe(stream, encoder.st, encoder.tat, encoder.ctx, (1,))
    decoded = stbd(EncryptedMessage.parse(message.serialize()),
                   decoder.st, decoder.tat, decoder.ctx)
    assert decoded == stream
    assert tat_rows(decoder) == tat_rows(encoder)


def test_stbd_width_check(pair):
    _, decoder = pair
    message = EncryptedMessage((1,), ("01171261261040", "0"))
    with pytest.raises(MalformedWord):
        stbd(message, decoder.st, decoder.tat, decoder.ctx)


def test_stbd_unknown_code(pair):
    _, decoder = pair
    message = EncryptedMessage((1,), ("0999", "0"))
    with pytest.raises(UnknownCode):
        stbd(message, decoder.st, decoder.tat, decoder.ctx)


def test_stbd_unbalanced_closers(pair):
    _, decoder = pair
    with pytest.raises(UnbalancedClosers):
        stbd(EncryptedMessage((), ("0117126126104", "0", "0")),
             decoder.st, decoder.tat, decoder.ctx)
    with pytest.raises(UnbalancedClosers):
        stbd(EncryptedMessage((), ("0117126126104",)),
             decoder.st, decoder.tat, decoder.ctx)


# tatbe / tatbd


def _primed(session):
    stbe(parse_xml(XML1), session.st, session.tat, session.ctx, (1,))
    return session


def test_tatbe_on_a_primed_table(pair):
    encoder, _ = pair
    _primed(encoder)
    message = tatbe(parse_xml(XML1), encoder.st, encoder.tat, encoder.ctx, (1,))
    assert message.serialize() == TATENC_XML1


def test_tatbe_new_word_falls_back_to_character_form(pair):
    encoder, _ = pair
    _primed(encoder)
    tatbe(parse_xml(XML1), encoder.st, encoder.tat, encoder.ctx, (1,))
    message = tatbe(parse_xml(XML2), encoder.st, encoder.tat, encoder.ctx, (1,))
    assert message.serialize() == TATENC_XML2
    assert "nv" in encoder.tat


def test_tatbe_with_fresh_table_equals_stbe(k1):
    fresh_a, fresh_b = Session.for_key(k1), Session.for_key(k1)
    stream = parse_xml(XML1)
    st_message = stbe(stream, fresh_a.st, fresh_a.tat, fresh_a.ctx, (1,))
    tat_message = tatbe(stream, fresh_b.st, fresh_b.tat, fresh_b.ctx, (1,))
    assert tat_message.words == st_message.words
    assert tat_rows(fresh_a) == tat_rows(fresh_b)


def test_tatbd_inverts_tatbe(pair):
    encoder, decoder = pair
    _primed(encoder)
    _primed(decoder)
    stream = parse_xml(XML2)
    message = tatbe(stream, encoder.st, encoder.tat, encoder.ctx, (1,))
    decoded = tatbd(EncryptedMessage.parse(message.serialize()),
                    decoder.st, decoder.tat, decoder.ctx)
    assert decoded == stream
    assert tat_rows(decoder) == tat_rows(encoder)
    assert decoder.tat.code_for("nv") == encoder.tat.code_for("nv")


def test_tatbd_unknown_code(pair):
    _, decoder = pair
    message = EncryptedMessage.parse("1, 07 0")
    with pytest.raises(UnknownTatCode):
        tatbd(message, decoder.st, decoder.tat, decoder.ctx)


def test_repeated_new_word_in_one_message(pair):
    encoder, decoder = pair
    stream = parse_xml("<a><a>x</a></a>")
    message = tatbe(stream, encoder.st, encoder.tat, encoder.ctx)
    # both occurrences spell the word out; the table gains one entry
    assert message.words[0] == message.words[1]
    assert message.words[0].startswith("0153")
    assert len(encoder.tat) == 1
    decoded = tatbd(message, decoder.st, decoder.tat, decoder.ctx)
    assert decoded == stream
    assert tat_rows(decoder) == tat_rows(encoder)


def test_known_words_use_short_codes_from_the_next_message(pair):
    encoder, decoder = pair
    stream = parse_xml("<a><a>x</a></a>")
    first = tatbe(stream, encoder.st, encoder.tat, encoder.ctx)
    second = tatbe(stream, encoder.st, encoder.tat, encoder.ctx)
    code = encoder.tat.code_for("a")
    assert second.words[0] == f"0{code}"
    assert len(second.serialize()) < len(first.serialize())
    for message in (first, second):
        assert tatbd(message, decoder.st, decoder.tat, decoder.ctx) == stream
    assert tat_rows(decoder) == tat_rows(encoder)


def test_format_invariance_on_the_worked_pair(k1):
    xml_session, json_session = Session.for_key(k1), Session.for_key(k1)
    xml_message = stbe(parse_xml(XML1), xml_session.st, xml_session.tat,
                       xml_session.ctx, (1,))
    json_message = stbe(parse_json(JSON1), json_session.st, json_session.tat,
                        json_session.ctx, (1,))
    assert xml_message.serialize() == json_message.serialize()


def test_random_round_trips_both_modes():
    rng = random.Random(47)
    for _ in range(40):
        key = random_doc_key(rng)
        first = random_stream(rng, key)
        second = random_stream(rng, key)
        encoder, decoder = Session.for_key(key), Session.for_key(key)
        m1 = encoder.encrypt(first, mode="st", access=(1,))
        assert decoder.decrypt(EncryptedMessage.parse(m1.serialize()), "st") == first
        m2 = encoder.encrypt(second, mode="tat")
        assert decoder.decrypt(EncryptedMessage.parse(m2.serialize()), "tat") == second
        assert tat_rows(decoder) == tat_rows(encoder)


def test_grammar_safety_no_code_starts_with_zero():
    rng = random.Random(53)
    for _ in range(25):
        key = random_doc_key(rng)
        session = Session.for_key(key)
        message = session.encrypt(random_stream(rng, key), mode="st")
        for word in message.words:
            kind = classify_word(word)
            assert kind is not WordKind.DIGEST
        for _, code in session.st.items():
            assert str(code)[0] != "0"
        for _, code, _ in session.tat.items():
            assert code >= 1


# a failed message leaves the tag table and its context as they were

BAD_CHAR_XML = '<r><p q="v">ok</p><s>bad.char</s></r>'   # K1 has no "."


def _state(session):
    return tat_rows(session), replace(session.ctx)


@pytest.mark.parametrize("mode", ["st", "tat"])
def test_failed_encrypt_leaves_the_table_unchanged(pair, mode):
    encoder, decoder = pair
    decoder.decrypt(encoder.encrypt(parse_xml(XML1), mode="st"), "st")
    before = _state(encoder)
    with pytest.raises(UnsupportedCharacter):
        encoder.encrypt(parse_xml(BAD_CHAR_XML), mode=mode)
    assert _state(encoder) == before

    stream = parse_xml(XML2)
    message = tatbe(stream, encoder.st, encoder.tat, encoder.ctx)
    assert tatbd(EncryptedMessage.parse(message.serialize()),
                 decoder.st, decoder.tat, decoder.ctx) == stream
    assert tat_rows(decoder) == tat_rows(encoder)


def test_failed_decrypt_leaves_the_table_unchanged(pair):
    encoder, decoder = pair
    stream = parse_xml('<r><p q="v">ok</p></r>')
    message = encoder.encrypt(stream, mode="st")
    before = _state(decoder)
    with pytest.raises(UnbalancedClosers):
        stbd(EncryptedMessage(message.access, message.words[:-1]),
             decoder.st, decoder.tat, decoder.ctx)
    assert _state(decoder) == before

    assert stbd(message, decoder.st, decoder.tat, decoder.ctx) == stream
    assert tat_rows(decoder) == tat_rows(encoder)
    again = tatbe(stream, encoder.st, encoder.tat, encoder.ctx)
    assert tatbd(again, decoder.st, decoder.tat, decoder.ctx) == stream
    assert tat_rows(decoder) == tat_rows(encoder)


@pytest.mark.parametrize("words,error", [
    (("0117126126104", "1171", "0"), MalformedWord),    # variable, no multiple of the width
    (("0117126126104", "999", "0"), UnknownCode),       # variable, unassigned code
    (("0117126126104", "0", "0"), UnbalancedClosers),
    (("0117126126104",), UnbalancedClosers),
])
def test_a_fault_after_a_new_word_inserts_nothing(pair, words, error):
    _, decoder = pair
    with pytest.raises(error):
        stbd(EncryptedMessage((), words), decoder.st, decoder.tat, decoder.ctx)
    assert _state(decoder) == ([], TatContext())


# peers stay in step over random sessions with rejected messages mixed in

_IDS = [f"i{n}" for n in range(12)]
_KINDS = ["book", "disc", "tool"]
_ITEM = hs.tuples(hs.sampled_from(_IDS), hs.sampled_from(_KINDS),
                  hs.text("abcdefXYZ019", min_size=1, max_size=6),
                  hs.integers(0, 999))
_CORRUPTIONS = {
    "drop-last-closer": lambda words: words[:-1],
    "extra-closer": lambda words: words + ("0",),
    "digest-word": lambda words: words[:1] + ("adc1aeffe1fe867740f976fd55c0c481",)
    + words[1:],
}
_STEP = hs.tuples(hs.sampled_from(["clean", "bad-char", *_CORRUPTIONS]),
                  hs.lists(_ITEM, min_size=1, max_size=4))


def _catalog(items, bad_char: bool) -> str:
    body = "".join(
        f'<item id="{i}" kind="{k}"><name>{n}{"." if bad_char else ""}</name>'
        f"<qty>{q}</qty></item>"
        for i, k, n, q in items
    )
    return f"<catalog>{body}</catalog>"


@settings(max_examples=60, deadline=None)
@given(hs.lists(_STEP, min_size=1, max_size=8))
def test_peers_stay_in_step_when_messages_fail(steps):
    key = parse_key(K1_TEXT)
    encoder, decoder = Session.for_key(key), Session.for_key(key)
    sent = 0
    for action, items in steps:
        stream = parse_xml(_catalog(items, action == "bad-char"))
        mode = "tat" if sent else "st"
        if action == "bad-char":
            with pytest.raises(UnsupportedCharacter):
                encoder.encrypt(stream, mode=mode)
        else:
            wire = encoder.encrypt(stream, mode=mode).serialize()
            sent += 1
            if action != "clean":
                message = EncryptedMessage.parse(wire)
                damaged = EncryptedMessage(message.access,
                                           _CORRUPTIONS[action](message.words))
                before = _state(decoder)
                with pytest.raises((UnbalancedClosers, MalformedWord)):
                    decoder.decrypt(damaged, mode)
                assert _state(decoder) == before
            assert decoder.decrypt(EncryptedMessage.parse(wire), mode) == stream
        assert tat_rows(decoder) == tat_rows(encoder)


# the compiled symbol table raises what the per-character lookups raised


@pytest.fixture
def letters_only_st():
    key = generate_key({"symbol_type": (0, 0)}, rng=random.Random(5))
    return Session.for_key(key).st


def test_characters_outside_the_charset_are_never_copied(session_k1, letters_only_st):
    with pytest.raises(UnsupportedCharacter):
        encode_word("ab.", WordKind.VARIABLE, session_k1.st)
    for word in ("a7", "7", "b0c"):
        with pytest.raises(UnsupportedCharacter):
            encode_word(word, WordKind.TAG, letters_only_st)
    with pytest.raises(UnsupportedCharacter):
        stbe(parse_xml("<a>b1</a>"), letters_only_st, TagTable(), TatContext())
    with pytest.raises(UnsupportedCharacter):
        letters_only_st.code_for("1")


def test_payload_width_and_unknown_chunks(session_k1):
    st = session_k1.st
    assert decode_chars("117126126104", st) == "root"
    for payload in ("", "1171", "11712"):
        with pytest.raises(MalformedWord):
            decode_chars(payload, st)
    for payload in ("999", "117999", "099", "117099"):
        with pytest.raises(UnknownCode):
            decode_chars(payload, st)
    with pytest.raises(UnknownCode):
        st.char_for(99)


@pytest.mark.parametrize("word", ["0000123", "0000" + "1234567890" * 2 + "12345678",
                                  "abc", "12a", "1,2"])
def test_parse_rejects_words_outside_the_grammar(word):
    with pytest.raises(MalformedMessage, match="matches no word class"):
        EncryptedMessage.parse(f"1, 04 {word} 0")


# a spelled-out word wider than every tag code is never read as a code

#: 1,500 characters: a 4,503-digit attribute-value word at width 3, past the
#: 4,300 digits int() reads from a string
LONG_VALUE = "abcdefghij" * 150


@pytest.mark.parametrize("mode", ["st", "tat"])
def test_long_spelled_out_words_round_trip(pair, mode):
    sender, receiver = pair
    for value in (LONG_VALUE, LONG_VALUE[::-1]):
        stream = parse_xml(f'<root a="{value}"><p q="{value}">x1</p></root>')
        for _ in range(2):      # spelled out, then (tat) a short code
            msg = EncryptedMessage.parse(sender.encrypt(stream, mode=mode).serialize())
            assert receiver.decrypt(msg, mode=mode) == stream
    assert receiver.tat.items() == sender.tat.items()
