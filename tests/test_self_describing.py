"""Every message describes itself: no tag code spells a word, so one decoder
reads symbol-table and tag-table messages alike, without being told which
encoding the sender chose."""

import inspect
import random
from dataclasses import replace
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from restcipher import EncryptedMessage, Session, codec, generate_key, parse_key, parse_xml
from restcipher.charsets import charset_for
from restcipher.cli import main
from restcipher.errors import UnbalancedClosers, UnsupportedCharacter

from conftest import K1_TEXT
from oracle import oracle_spelling

#: 26 letters at width 2: one-letter words spell 2-digit payloads, two-letter
#: words 4-digit ones, both widths a tag code passes through
LETTERS_2 = generate_key({"symbol_type": (0, 0), "final_sum": (2, 2), "power": (1, 1)},
                         rng=random.Random(3))
KEYS = {"K1": parse_key(K1_TEXT), "letters-2": LETTERS_2}


def _catalog(values, suffix="") -> str:
    return "<root>" + "".join(f'<i v="{v}">x{suffix}</i>' for v in values) + "</root>"


def _no_held_code_spells(session) -> bool:
    spells = oracle_spelling(dict(session.st.items()))
    return not any(spells(code) for _, code, _ in session.tat.items())


@pytest.mark.parametrize("mode", ["st", "tat"])
def test_new_one_character_values_after_a_full_table(mode):
    # 150 values fill the table with 3-digit codes, the width of a spelled
    # one-character value under K1
    key = KEYS["K1"]
    chars = charset_for(key.symbol_type)
    rng = random.Random(1)
    values = ["".join(rng.choice(chars) for _ in range(rng.randint(2, 6))) for _ in range(150)]
    wrong = []
    for char in chars:
        sender, receiver = Session.for_key(key), Session.for_key(key)
        receiver.decrypt(sender.encrypt(parse_xml(_catalog(values)), mode="st"))
        stream = parse_xml(_catalog([char]))
        wire = sender.encrypt(stream, mode=mode).serialize()
        if receiver.decrypt(EncryptedMessage.parse(wire)) != stream:
            wrong.append(char)
        assert receiver.tat.items() == sender.tat.items()
    assert wrong == []


def test_a_width_two_session_decodes_every_message():
    rng = random.Random(2)
    chars = charset_for(LETTERS_2.symbol_type)
    sender, receiver = Session.for_key(LETTERS_2), Session.for_key(LETTERS_2)
    for n in range(12):
        values = ["".join(rng.choice(chars) for _ in range(rng.randint(1, 3)))
                  for _ in range(12)]
        stream = parse_xml(_catalog(values))
        wire = sender.encrypt(stream, mode="tat" if n else "st").serialize()
        assert receiver.decrypt(EncryptedMessage.parse(wire)) == stream
        assert receiver.tat.items() == sender.tat.items()
    assert _no_held_code_spells(sender)


def _state(session):
    return session.tat.items(), replace(session.ctx)


_STEP = hs.tuples(
    hs.sampled_from(["clean", "bad-char", "drop-last-closer"]),
    hs.sampled_from(["st", "tat"]),
    hs.integers(20, 250),       # fresh values of two to six characters
    hs.integers(0, 3),          # fresh one-character values
    hs.integers(0, 30),         # values the table already holds
)


@settings(max_examples=12, deadline=None)
@given(hs.sampled_from(sorted(KEYS)), hs.lists(_STEP, min_size=1, max_size=6),
       hs.integers(0, 2 ** 32))
def test_sessions_past_every_width_step_describe_themselves(name, steps, seed):
    key = KEYS[name]
    rng = random.Random(seed)
    chars = charset_for(key.symbol_type)
    sender, receiver = Session.for_key(key), Session.for_key(key)
    for action, mode, fresh, singles, known in cycle(steps):
        if sender.ctx.code_digits == 4:
            break
        held = [word for word, _, kind in sender.tat.items() if kind == "attribute-value"]
        unheld = [c for c in chars if c not in sender.tat]
        values = ["".join(rng.choice(chars) for _ in range(rng.randint(2, 6)))
                  for _ in range(fresh)]
        values += rng.sample(unheld, min(singles, len(unheld)))
        values += rng.sample(held, min(known, len(held)))
        rng.shuffle(values)
        if action == "bad-char":
            before = _state(sender)
            with pytest.raises(UnsupportedCharacter):
                sender.encrypt(parse_xml(_catalog(values, ".")), mode=mode)
            assert _state(sender) == before
        stream = parse_xml(_catalog(values))
        message = EncryptedMessage.parse(sender.encrypt(stream, mode=mode).serialize())
        if action == "drop-last-closer":
            before = _state(receiver)
            with pytest.raises(UnbalancedClosers):
                receiver.decrypt(EncryptedMessage(message.access, message.words[:-1]))
            assert _state(receiver) == before
        assert receiver.decrypt(message) == stream
        assert receiver.tat.items() == sender.tat.items()
        assert _no_held_code_spells(sender)
    assert sender.ctx.code_digits == 4


def test_no_decoder_takes_a_mode():
    assert codec.stbd is codec.tatbd
    for decoder in (Session.decrypt, codec._decode, codec._decode_word, codec.tatbd):
        assert "mode" not in inspect.signature(decoder).parameters
        assert "short_codes" not in inspect.signature(decoder).parameters


def test_the_decrypt_command_has_no_mode(tmp_path, capsys):
    cipher = tmp_path / "cipher"
    cipher.write_text("04 0", encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["decrypt", "--key", K1_TEXT, "--mode", "tat", "--in", str(cipher)])
    assert info.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err
