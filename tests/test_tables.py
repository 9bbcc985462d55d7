import random
from itertools import chain, cycle, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from restcipher import (
    SymbolTable,
    TagTable,
    TatContext,
    arrangement_for,
    build_st,
    build_tt,
    cell_value,
    charset_for,
    generate_key,
    tat_upsert,
    validate_key,
)
from restcipher.charsets import ARRANGEMENTS, CLASS_CHARS
from restcipher.codec import EncryptedMessage, Session
from restcipher.composition import (CompositionPolicy, KeyRing, compose_decrypt,
                                    compose_encrypt)
from restcipher.docmodel import CLOSE, AttrName, AttrValue, Open, parse_xml
from restcipher.restkit import ResourceClient, serve
from restcipher.errors import (CodeSpaceExhausted, UnbalancedClosers, UnknownCode,
                               UnsupportedCharacter)

from conftest import K1_TEXT, K2_TEXT, K3_TEXT, XML1
from oracle import (oracle_free_codes, oracle_spelling, oracle_symbol_table, oracle_tat_code,
                    oracle_tat_replay)

from restcipher import parse_key


@pytest.fixture
def k1():
    return parse_key(K1_TEXT)


# arrangements


def test_pinned_arrangements():
    assert arrangement_for(0) == ("small",)
    assert arrangement_for(1) == ("capital",)
    assert arrangement_for(14) == ("digit", "capital", "small")


def test_arrangement_table_shape():
    assert len(ARRANGEMENTS) == 64
    assert len(set(ARRANGEMENTS)) == 64
    sizes = [len(a) for a in ARRANGEMENTS]
    assert sizes.count(1) == 4 and sizes.count(2) == 12
    assert sizes.count(3) == 24 and sizes.count(4) == 24
    for arrangement in ARRANGEMENTS:
        assert len(set(arrangement)) == len(arrangement)


def test_charset_sizes():
    assert len(charset_for(0)) == 26
    assert len(charset_for(14)) == 62
    assert len(CLASS_CHARS["special"]) == 33
    assert " " in CLASS_CHARS["special"]
    assert len(charset_for(63)) == 95


# temporary table


def test_placements_match_published_positions(k1):
    headers = {char: (rh, ch) for char, rh, ch in build_tt(k1).cells()}
    assert headers["j"] == (11, 2)
    assert headers["G"] == (15, 5)
    assert headers["9"] == (17, 2)


def test_cell_values(k1):
    tt = build_tt(k1)
    grid = {tt.grid[r][c]: (r, c) for r in range(tt.rows) for c in range(tt.cols)}
    assert cell_value(tt, grid["j"], 2) == 125
    assert cell_value(tt, grid["G"], 2) == 250
    assert cell_value(tt, grid["j"], 1) == 13


def test_cell_value_rejects_empty_cells(k1):
    tt = build_tt(k1)
    assert tt.grid[-1][-1] is None
    with pytest.raises(ValueError):
        cell_value(tt, (tt.rows - 1, tt.cols - 1), 2)


def test_header_numbers_partition_the_range(k1):
    tt = build_tt(k1)
    assert sorted(tt.row_headers + tt.col_headers) == list(range(1, 19))
    # start_with=1: columns take 1..6, rows take 7..18
    assert set(tt.col_headers) == set(range(1, 7))
    # both reversal bits set: ascending numbering runs bottom-up / right-left
    assert tt.row_headers[0] == 18 and tt.row_headers[-1] == 7
    assert tt.col_headers[0] == 6 and tt.col_headers[-1] == 1


def test_groups_of_one_make_reverse_a_no_op():
    base = validate_key([12, 6, 1, 1, 1, 14, 1, 0, 3, 2])
    reversed_groups = validate_key([12, 6, 1, 1, 1, 14, 1, 1, 3, 2])
    assert build_tt(base).grid == build_tt(reversed_groups).grid


# symbol table


def test_published_code_vectors(k1):
    st = build_st(k1)
    expected = {
        "j": 125, "o": 126, "v": 850, "a": 153, "l": 137, "u": 820,
        "e": 146, "r": 117, "t": 104, "i": 122, "n": 116, "m": 109,
        "1": 340, "2": 349, "G": 250, "9": 293,
    }
    for char, code in expected.items():
        assert st.code_for(char) == code, char


def test_collision_increments_by_one(k1):
    # 'j' lands on 125 first; 'o' computes the same raw value and shifts to 126
    st = build_st(k1)
    assert st.code_for("j") == 125
    assert st.code_for("o") == 126


@pytest.mark.parametrize("text", [K1_TEXT, K2_TEXT, K3_TEXT])
def test_full_table_equals_oracle(text):
    key = parse_key(text)
    assert dict(build_st(key).items()) == oracle_symbol_table(list(key.as_tuple()))


def test_random_tables_equal_oracle():
    rng = random.Random(13)
    for _ in range(150):
        key = generate_key({"rows": (1, 14), "cols": (1, 14), "power": (1, 3)}, rng=rng)
        assert dict(build_st(key).items()) == oracle_symbol_table(list(key.as_tuple())), key


def test_symbol_table_is_bijective_and_fixed_width():
    rng = random.Random(17)
    for _ in range(60):
        key = generate_key(rng=rng)
        st = build_st(key)
        codes = [code for _, code in st.items()]
        assert len(codes) == len(set(codes)) == len(charset_for(key.symbol_type))
        for code in codes:
            assert len(str(code)) == key.final_sum
            assert str(code)[0] != "0"


def test_identical_keys_identical_tables(k1):
    a, b = build_st(k1), build_st(k1)
    assert a.items() == b.items()


# one shared table per key


def test_equal_keys_share_one_table(k1):
    assert Session.for_key(k1).st is Session.for_key(parse_key(K1_TEXT)).st is build_st(k1)
    rings = [KeyRing(), KeyRing()]
    for ring in rings:
        ring.add_key("K1", parse_key(K1_TEXT))
    assert rings[0]["K1"].st is rings[1]["K1"].st is build_st(k1)
    # a key the server issues and the key the client reads back from the wire
    server = serve(XML1)
    try:
        with ResourceClient(server.url, "peer") as client:
            client.exchange_key()
            assert client.session.st is server.peers["peer"].session.st
            assert client.session.tat is not server.peers["peer"].session.tat
    finally:
        server.close()


def test_the_table_cache_stays_at_its_bound():
    bound = build_st.cache_info().maxsize
    rng = random.Random(29)
    keys = set()
    while len(keys) < bound + 8:
        keys.add(generate_key({"symbol_type": (40, 63)}, rng=rng))
    for key in keys:
        build_st(key)
        assert build_st.cache_info().currsize <= bound
    assert build_st.cache_info().currsize == bound


def test_no_message_changes_a_shared_table(k1):
    st = build_st(k1)
    before = dict(st.codes), dict(st.chars), dict(st.values)
    sender, receiver = Session.for_key(k1), Session.for_key(k1)
    assert sender.st is receiver.st is st
    stream = parse_xml(XML1)
    for mode in ("st", "tat", "tat"):
        assert receiver.decrypt(sender.encrypt(stream, mode=mode)) == stream
    ring = KeyRing()
    ring.add_key("K1", k1, is_group=True)
    body = compose_encrypt(stream, CompositionPolicy({}), ring, "tat")
    compose_decrypt(EncryptedMessage((), tuple(body)), ring, CompositionPolicy({}))
    with pytest.raises(UnsupportedCharacter):
        sender.encrypt(parse_xml("<r>$</r>"))
    assert len(sender.tat) > 0 and ring["K1"].st is st
    assert (st.codes, st.chars, st.values) == before


def test_symbol_table_lookup_errors(k1):
    st = build_st(k1)
    with pytest.raises(UnsupportedCharacter):
        st.code_for("$")  # arrangement 14 has no specials
    with pytest.raises(UnknownCode):
        st.char_for(999)


def test_symbol_table_rejects_duplicates():
    with pytest.raises(ValueError):
        SymbolTable(3, [("a", 123), ("b", 123)])
    with pytest.raises(ValueError):
        SymbolTable(3, [("a", 99)])


# tag table


#: the symbol table of every tag-table test
K1_ST = build_st(parse_key(K1_TEXT))
_K1_SPELLS = oracle_spelling(dict(K1_ST.items()))


def _ctx(existing, new):
    ctx = TatContext()
    ctx.begin_message(existing, new, K1_ST)
    return ctx


def test_root_vector(k1):
    st = build_st(k1)
    tat = TagTable(st)
    assert tat_upsert(tat, _ctx(0, 7), "root", "tag") == 4


def test_t1_vector(k1):
    st = build_st(k1)
    tat = TagTable(st)
    ctx = _ctx(0, 7)
    for word in ("root", "attr1", "value1", "attr2", "value2", "name", "value"):
        tat_upsert(tat, ctx, word, "tag")
    assert tat_upsert(tat, _ctx(7, 3), "t1", "tag") == 44


def test_value_collision_chain(k1):
    # raw sum 2106 truncates to 2, then walks 2,3,4,5 -> 6
    st = build_st(k1)
    tat = TagTable(st)
    ctx = _ctx(0, 7)
    for word in ("root", "attr1", "value1", "attr2", "value2", "name"):
        tat_upsert(tat, ctx, word, "tag")
    assert tat_upsert(tat, ctx, "value", "tag") == 6


def test_xml1_insertion_table(k1):
    st = build_st(k1)
    tat = TagTable(st)
    ctx = _ctx(0, 7)
    words = ("root", "attr1", "value1", "attr2", "value2", "name", "value")
    for word in words:
        tat_upsert(tat, ctx, word, "tag")
    assert {w: c for w, c, _ in tat.items()} == {
        "root": 4, "attr1": 8, "value1": 2, "attr2": 9, "value2": 3,
        "name": 5, "value": 6,
    }
    assert {w: c for w, c, _ in tat.items()} == oracle_tat_replay(
        dict(st.items()), [list(words)]
    )


def test_upsert_is_idempotent(k1):
    st = build_st(k1)
    tat = TagTable(st)
    ctx = _ctx(0, 1)
    first = tat_upsert(tat, ctx, "root", "tag")
    assert tat_upsert(tat, ctx, "root", "tag") == first
    assert len(tat) == 1


def test_replay_gives_identical_tables(k1):
    st = build_st(k1)
    words = ["root", "attr1", "value1", "attr2", "value2", "name", "value"]
    tables = []
    for _ in range(2):
        tat = TagTable(st)
        ctx = _ctx(0, 7)
        for word in words:
            tat_upsert(tat, ctx, word, "tag")
        tables.append(tat.items())
    assert tables[0] == tables[1]


def test_code_space_exhaustion(k1):
    st = build_st(k1)
    tat = TagTable(st)
    ctx = _ctx(0, 9)
    words = ["root", "attr1", "value1", "attr2", "value2", "name", "value", "nv", "t1"]
    for word in words:
        tat_upsert(tat, ctx, word, "tag")
    assert len(tat) == 9  # all nine one-digit codes taken
    with pytest.raises(CodeSpaceExhausted):
        tat_upsert(tat, ctx, "t2", "tag")


def test_codes_are_never_renumbered(k1):
    st = build_st(k1)
    tat = TagTable(st)
    for word in ("root", "attr1", "value1", "attr2", "value2", "name", "value"):
        tat_upsert(tat, _ctx(0, 7), word, "tag")
    before = tat.items()
    # the table crosses into two-digit codes; old entries keep their digits
    tat_upsert(tat, _ctx(7, 3), "t1", "tag")
    assert [row for row in tat.items() if row[0] != "t1"] == before


def test_insert_refuses_a_code_that_spells_a_word():
    tat = TagTable(K1_ST)
    spelled = K1_ST.code_for("r") * 1000 + K1_ST.code_for("o")
    assert _K1_SPELLS(spelled)
    with pytest.raises(ValueError, match="spells"):
        tat.insert("root", spelled, "tag")
    assert tat.items() == [] and tat.first_free(spelled) == spelled + 1


# code assignment against the oracle's linear probe

#: the anagrams of a word share its code sum, so their codes pile up in long
#: collision runs, which wrap past the top of the code range; two bases give
#: two runs that run into each other
_ANAGRAMS = ["".join(p) for base in ("abcdef", "abcdeg") for p in permutations(base)]


@settings(max_examples=15, deadline=None)
@given(
    hs.sets(hs.one_of(hs.integers(1, 999), hs.integers(1, 20_000))
            .filter(lambda code: not _K1_SPELLS(code)), max_size=5),   # as insert takes
    hs.integers(1, 4),
    hs.lists(hs.integers(1, 90), min_size=1, max_size=30),
    hs.randoms(use_true_random=False),
)
def test_codes_equal_the_oracle_past_every_width_step(loaded, first, sizes, rng):
    # loaded rows and a short first message keep the table below ten entries
    # at first; no later message adds more than 90, so every width is used
    st = build_st(parse_key(K1_TEXT))
    st_codes = dict(st.items())
    tat = TagTable(st)
    for n, code in enumerate(loaded):
        tat.insert(f"L{n}", code, "tag")       # rows as a state file holds them
    held = set(loaded)
    free = [oracle_free_codes(st_codes, digits) for digits in range(5)]
    words = rng.sample(_ANAGRAMS, 1100)
    widths = []
    for size in chain([first], cycle(sizes)):
        message, words = words[:size], words[size:]
        if not message:
            break
        ctx = _ctx(len(tat), len(message))
        assert ctx.code_digits == min(d for d in range(5) if free[d] >= ctx.word_count)
        widths.append(ctx.code_digits)
        for word in message:
            code = tat_upsert(tat, ctx, word, "tag")
            assert code == oracle_tat_code(st_codes, held, word, ctx.code_digits)
            held.add(code)
    assert set(widths) == {1, 2, 3, 4}
    # a full code range still raises, and changes nothing
    for code in set(range(1, 10)) - held:
        tat.insert(f"F{code}", code, "tag")
    before = tat.items()
    with pytest.raises(CodeSpaceExhausted):
        tat_upsert(tat, TatContext(code_digits=1), "abcdefg", "tag")
    assert tat.items() == before


# the encoder's held-word lookup


_KINDS = ("tag", "attribute-name", "attribute-value")


def _assert_lookup_matches(tat, others):
    """``TagTable.codes`` gives each held word its code's text, and no other
    word anything."""
    held = tat.items()
    assert len(tat.codes) == len(held)
    for word, code, _ in held:
        assert tat.codes.get(word) == str(code)
    assert not any(tat.codes.get(word) is not None for word in others)


@settings(max_examples=25, deadline=None)
@given(
    hs.integers(1, 9),
    hs.lists(hs.tuples(hs.sampled_from(["load", "upsert", "refused"]),
                       hs.integers(1, 30)), max_size=10),
    hs.integers(0, 2**32),
)
def test_the_held_word_lookup_follows_every_table_change(first, steps, seed):
    rng = random.Random(seed)
    session = Session.for_key(parse_key(K1_TEXT))
    tat, ctx = session.tat, session.ctx
    words = rng.sample(_ANAGRAMS, len(_ANAGRAMS))
    # a first message of one-digit codes, the drawn steps, then messages
    # until the table is past both width steps
    padding = [("upsert", rng.randint(5, 30)) for _ in range(12)]
    sizes = []
    for action, count in chain([("upsert", first)], steps, padding):
        if len(tat) > 110 and action == "upsert":
            continue
        batch, words = words[:count], words[count:]
        if action == "load":
            # rows as ``cli._load_state`` reads them from a state file
            for word in batch:
                tat.insert(word, tat.first_free(rng.randint(1000, 2000)), rng.choice(_KINDS))
        elif action == "upsert":
            ctx.begin_message(len(tat), len(batch), tat.st)
            for word in batch:
                tat_upsert(tat, ctx, word, rng.choice(_KINDS))
        else:
            before = tat.items()
            stream = [Open(batch[0])]
            for word in batch[1:]:
                stream += [AttrName(word), AttrValue(word)]
            with pytest.raises(UnbalancedClosers):     # refused before it commits
                session.encrypt(stream, mode="tat")
            assert tat.items() == before
        sizes.append(len(tat))
        _assert_lookup_matches(tat, words[:50])
        # every held word goes out as its code
        held = tat.items()
        stream = [Open(held[0][0])] + [t for w, _, _ in held for t in (Open(w), CLOSE)] + [CLOSE]
        assert session.encrypt(stream, mode="tat").words == (
            "0" + str(held[0][1]), *(w for _, c, _ in held for w in ("0" + str(c), "0")), "0")
    assert sizes[0] < 10 and max(sizes) > 100
