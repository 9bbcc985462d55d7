"""The four message codecs and the ciphertext wire grammar.

Every word of a document becomes one space-separated ciphertext word.  A
marker prefix carries the word's role: ``0`` tag, ``00`` attribute name,
``000`` attribute value, none for variable text; a lone ``0`` closes the
innermost open tag.  Symbol-table encoding spells a word character by
character in fixed-width codes; tag-table encoding replaces a known
non-variable word with its short agreed integer.  Both peers grow the tag
table from the same words in the same order, so it never travels.

Each codec makes one pass over a message and commits only after success:
the words new to the tag table are collected in order of first appearance
and inserted once the whole message has been encoded, or decoded with every
tag closed.  A message that raises leaves the tag table and its TatContext
as they were.

One encode walker, ``_encode``, serves single- and multi-key messages: it
takes ``(token, owner)`` pairs, where the owner is the Session whose tables
encode the token.  ``stbe``/``tatbe`` give every token the same owner;
composition gives each token the key that owns its subtree.  One word
decoder, ``_decode_word``, likewise serves ``stbd``/``tatbd`` and
composition's decoder.
"""

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

from .docmodel import CLOSE, AttrName, AttrValue, Close, Open, Variable
from .errors import (
    MalformedMessage,
    MalformedWord,
    UnbalancedClosers,
    Unclassifiable,
    UnknownTatCode,
)
from .keycore import TenElementKey, serialize_key
from .tables import SymbolTable, TagTable, TatContext, build_st, tat_upsert


class WordKind(enum.Enum):
    CLOSER = "closer"
    TAG = "tag"
    ATTR_NAME = "attribute-name"
    ATTR_VALUE = "attribute-value"
    VARIABLE = "variable"
    DIGEST = "digest"


_MARKER = {
    WordKind.TAG: "0",
    WordKind.ATTR_NAME: "00",
    WordKind.ATTR_VALUE: "000",
    WordKind.VARIABLE: "",
}
#: marker length -> kind of a marked or variable word
_MARKED = (WordKind.VARIABLE, WordKind.TAG, WordKind.ATTR_NAME, WordKind.ATTR_VALUE)
# md5 by default; sha1/sha256 lengths admitted for the configurable digest
_DIGEST_RE = re.compile(r"[0-9a-f]{32}|[0-9a-f]{40}|[0-9a-f]{64}")


def _split_marker(word: str):
    """(marker length, payload) of a marked or variable word, else None.

    The word grammar: at most three marker zeros, then a non-empty ASCII
    decimal payload, which lstrip leaves starting at 1-9.
    """
    payload = word.lstrip("0")
    marker = len(word) - len(payload)
    if marker > 3 or not payload.isdigit() or not payload.isascii():
        return None
    return marker, payload


def classify_word(word: str) -> WordKind:
    """Word class from the text alone; raises Unclassifiable."""
    if word == "0":
        return WordKind.CLOSER
    split = _split_marker(word)
    if split:
        return _MARKED[split[0]]
    # an all-decimal word was settled above; a digest needs a hex letter
    if _DIGEST_RE.fullmatch(word) and not word.isdigit():
        return WordKind.DIGEST
    raise Unclassifiable(f"word {word!r} matches no word class")


def encode_word(word: str, kind: WordKind, st: SymbolTable) -> str:
    """Marker plus the concatenated fixed-width code of every character."""
    return _MARKER[kind] + word.translate(st.codes)


def decode_chars(digits: str, st: SymbolTable) -> str:
    """Inverse of the code concatenation; raises MalformedWord/UnknownCode."""
    width = st.width
    if not digits or len(digits) % width:
        raise MalformedWord(
            f"payload of {len(digits)} digits is no multiple of width {width}"
        )
    chars = st.chars
    return "".join([chars[digits[i:i + width]] for i in range(0, len(digits), width)])


_ACCESS_RE = re.compile(r"(?:[1-9][0-9]*,)+")


@dataclass(frozen=True)
class EncryptedMessage:
    """Access-list header plus the ordered ciphertext words."""

    access: tuple = ()
    words: tuple = ()

    def serialize(self) -> str:
        parts = []
        if self.access:
            parts.append("".join(f"{o}," for o in self.access))
        if self.words:
            parts.append(" ".join(self.words))
        return " ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "EncryptedMessage":
        tokens = text.split(" ") if text else []
        access = ()
        if tokens and _ACCESS_RE.fullmatch(tokens[0]):
            try:
                access = tuple(int(o) for o in tokens[0][:-1].split(","))
            except ValueError:      # an ordinal too long for int() to read
                raise MalformedMessage("access-list ordinal too long") from None
            tokens = tokens[1:]
        if not tokens:
            raise MalformedMessage("message has no body words")
        # each distinct word once, in order, so the first bad word is reported
        for word in dict.fromkeys(tokens):
            try:
                classify_word(word)
            except Unclassifiable as exc:
                raise MalformedMessage(str(exc)) from None
        return cls(access, tuple(tokens))


_TOKEN_KIND = {Open: WordKind.TAG, AttrName: WordKind.ATTR_NAME,
               AttrValue: WordKind.ATTR_VALUE}


def _short_codes(mode: str) -> bool:
    """Whether ``mode`` sends known non-variable words as tag-table codes."""
    if mode not in ("st", "tat"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode == "tat"


def _commit(new: dict, st: SymbolTable, tat: TagTable, ctx: TatContext) -> None:
    """Insert a finished message's new non-variable words, in order of first
    appearance, under the message's code width."""
    ctx.begin_message(len(tat), len(new))
    for text, kind in new.items():
        tat_upsert(tat, ctx, text, kind, st)


def _encode(pairs, short_codes: bool) -> list:
    """The encode walker: body words of ``(token, owner)`` pairs.

    The owner is the Session whose tables encode the token; a pair with no
    owner holds an opaque run, whose words are copied verbatim.  Words absent
    from their owner's tag table at the start of the message are spelled out
    at every occurrence; with ``short_codes`` a word already in the table is
    sent as its code.  Each owner's new words enter its tag table only once
    the whole message has been encoded.
    """
    words = []
    pending = {}        # owner -> {new text: kind}
    owner = None
    for token, who in pairs:
        if who is None:
            words.extend(token.words)
            continue
        cls = type(token)
        if cls is Close:
            words.append("0")
            continue
        if who is not owner:
            owner, codes, tat = who, who.st.codes, who.tat
            new = pending.setdefault(who, {})
        if cls is Variable:
            words.append(token.text.translate(codes))
            continue
        kind = _TOKEN_KIND[cls]
        text = token.text if cls is AttrValue else token.name
        if text not in tat:
            new.setdefault(text, kind.value)
        elif short_codes:
            words.append(_MARKER[kind] + str(tat.code_for(text)))
            continue
        words.append(_MARKER[kind] + text.translate(codes))
    for who, new in pending.items():
        _commit(new, who.st, who.tat, who.ctx)
    return words


def _encrypt(stream, st, tat, ctx, access, short_codes: bool) -> EncryptedMessage:
    """A single-key message: every token owned by one Session."""
    owner = Session(None, st, tat, ctx)
    words = _encode(zip(stream, repeat(owner)), short_codes)
    return EncryptedMessage(tuple(access), tuple(words))


def stbe(stream, st: SymbolTable, tat: TagTable, ctx: TatContext,
         access=()) -> EncryptedMessage:
    """Symbol-table-based encryption; grows the tag table as a side effect."""
    return _encrypt(stream, st, tat, ctx, access, short_codes=False)


def tatbe(stream, st: SymbolTable, tat: TagTable, ctx: TatContext,
          access=()) -> EncryptedMessage:
    """Tag-table-based encryption.

    Known non-variable words emit their short code; words new in this message
    fall back to the symbol-table form for every occurrence (the peer may not
    hold the entry yet) and enter the table for the next message.
    """
    return _encrypt(stream, st, tat, ctx, access, short_codes=True)


#: marker length -> (token class, tag-table kind) of a non-variable word
_MARKED_TOKEN = {1: (Open, WordKind.TAG.value),
                 2: (AttrName, WordKind.ATTR_NAME.value),
                 3: (AttrValue, WordKind.ATTR_VALUE.value)}


def _decode_word(word, st, tat, new: dict, short_codes: bool):
    """Token of one marked or variable word, for ``_decrypt`` and
    composition's decoder alike.  With ``short_codes`` a non-variable word is
    looked up in the tag table first; a spelled-out one absent from the table
    is added to ``new``."""
    split = _split_marker(word)
    if split is None:
        classify_word(word)     # raises Unclassifiable unless a digest
        raise MalformedWord("digest word outside a signed message")
    marker, payload = split
    if not marker:
        return Variable(decode_chars(payload, st))
    cls, kind = _MARKED_TOKEN[marker]
    # a payload wider than every code is spelled out, and may be too long
    # for int() to read
    if short_codes and len(payload) <= tat.widest and tat.has_code(int(payload)):
        return cls(tat.word_for(int(payload)))
    if short_codes and len(payload) % st.width:
        raise UnknownTatCode(
            f"word {word!r}: code {payload} unknown and no character encoding"
        )
    text = decode_chars(payload, st)
    if text not in tat:
        new.setdefault(text, kind)
    return cls(text)


def _decrypt(msg, st, tat, ctx, short_codes: bool) -> tuple:
    """One pass over the words; the tag table changes only once every word
    is decoded and every tag closed."""
    tokens = []
    new = {}
    seen = {}       # word -> token: each distinct word is decoded once
    depth = 0
    for i, word in enumerate(msg.words):
        if word == "0":
            if not depth:
                raise UnbalancedClosers(f"closer at word {i} with no open tag")
            depth -= 1
            tokens.append(CLOSE)
            continue
        token = seen.get(word)
        if token is None:
            token = seen[word] = _decode_word(word, st, tat, new, short_codes)
        if type(token) is Open:
            depth += 1
        tokens.append(token)
    if depth:
        raise UnbalancedClosers(f"{depth} tags left open at end of message")
    _commit(new, st, tat, ctx)
    return tuple(tokens)


def stbd(msg: EncryptedMessage, st: SymbolTable, tat: TagTable,
         ctx: TatContext) -> tuple:
    """Inverse of stbe; rebuilds the tag table exactly as the encoder did."""
    return _decrypt(msg, st, tat, ctx, short_codes=False)


def tatbd(msg: EncryptedMessage, st: SymbolTable, tat: TagTable,
          ctx: TatContext) -> tuple:
    """Inverse of tatbe: tag-table lookup first, character decoding as the
    fallback for words introduced in this message."""
    return _decrypt(msg, st, tat, ctx, short_codes=True)


@dataclass(eq=False)
class Session:
    """Per-peer state: one key, its symbol table, and the shared tag table.

    A key ring's members are Sessions too, named by ``key_id``; one of them
    is the ring's group key.
    """

    key: TenElementKey
    st: SymbolTable
    tat: TagTable
    ctx: TatContext
    key_id: str = ""
    is_group: bool = False

    @classmethod
    def for_key(cls, key: TenElementKey) -> "Session":
        return cls(key, build_st(key), TagTable(), TatContext())

    @cached_property
    def key_text(self) -> str:
        """The serialized key, which prefixes every digest under it."""
        return serialize_key(self.key)

    def encrypt(self, stream, mode: str = "st", access=()) -> EncryptedMessage:
        encrypt = tatbe if _short_codes(mode) else stbe
        return encrypt(stream, self.st, self.tat, self.ctx, access)

    def decrypt(self, msg: EncryptedMessage, mode: str = "tat") -> tuple:
        decrypt = tatbd if _short_codes(mode) else stbd
        return decrypt(msg, self.st, self.tat, self.ctx)
