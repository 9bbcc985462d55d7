"""The four message codecs and the ciphertext wire grammar.

Every word of a document becomes one space-separated ciphertext word.  A
marker prefix carries the word's role: ``0`` tag, ``00`` attribute name,
``000`` attribute value, none for variable text; a lone ``0`` closes the
innermost open tag.  Symbol-table encoding spells a word character by
character in fixed-width codes; tag-table encoding replaces a known
non-variable word with its short agreed integer.  Both peers grow the tag
table from the same words in the same order, so it never travels.  No tag
code spells a word, so a message describes itself: a non-variable payload
is a held code or spelled out, never both.

Each codec makes one pass over a message and commits only after success:
the words new to the tag table are collected in order of first appearance
and inserted once the whole message has been encoded, or decoded with every
tag closed.  A message that raises leaves the tag table and its TatContext
as they were.

One encode walker, ``_encode``, and one decode walker, ``_decode``, serve
every message: ``owner_for(ordinal)`` is the Session whose tables encode or
decode the tag with that ordinal and the words it holds directly, one for
every tag in ``stbe``/``tatbe``/``tatbd``, one per subtree in composition.
Both accept exactly one tag tree and raise UnbalancedClosers for anything
else before they commit, so no message moves one end alone.  Each takes
one cheap step per word: a held word encodes as its code's text, one lookup
in ``TagTable.codes``; variable text is one ``str.translate`` out and one
``SymbolTable.decode_chars`` back; a word seen earlier in the message is
decoded once.

A signed message also carries digest words (see ``composition``), each
right after the closer of the subtree it covers.  A received message is
classified and scanned once: ``EncryptedMessage.parse`` keeps each distinct
word's class, ``layout`` scans the words into a digest-free body and its
spans from those, and ``_decode`` reads that body with the classes and
copies a foreign subtree by its Span.  The layout scan (``subtree_spans``)
reads the classes through one ``map`` and does work only at a tag, a closer
and the word after a closer, where a digest may stand; it notes each digest
word's place and cuts the body out of the words with slices.  It runs on
first use only, so a message no step asks the layout of, as on the
two-party path, never pays for it.  ``item_spans`` lays out a token stream
by item, so a body to be encoded is signed without a scan of its words, and
a provider finds the tags it decoded without a walk of its own (a sender
lays out no reply: each lies word for word where its body did); an
OpaqueRun is one item there, whose tags are counted but get no Span.
"""

import enum
import hashlib
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from typing import NamedTuple

from .docmodel import CLOSE, AttrName, AttrValue, Close, Open, Variable
from .errors import (
    MalformedMessage,
    MalformedWord,
    MissingKey,
    UnbalancedClosers,
    Unclassifiable,
    UnknownTatCode,
    UnsupportedShape,
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
# hot paths test kinds by identity: an enum member's hash is a Python call
_VARIABLE, _TAG, _ATTR_NAME, _ATTR_VALUE = _MARKED
_CLOSER, _DIGEST = WordKind.CLOSER, WordKind.DIGEST
# an md5 hex digest, the one digest the signing pipeline makes
_DIGEST_RE = re.compile(r"[0-9a-f]{32}")


def classify_word(word: str) -> WordKind:
    """Word class from the text alone; raises Unclassifiable.

    The word grammar: a lone ``0`` closes; a marked or variable word is at
    most three marker zeros, then a non-empty ASCII decimal payload, which
    lstrip leaves starting at 1-9; a digest needs a hex letter.
    """
    if word == "0":
        return _CLOSER
    payload = word.lstrip("0")
    if payload.isdigit() and payload.isascii():
        marker = len(word) - len(payload)
        if marker < 4:
            return _MARKED[marker]
    elif payload and _DIGEST_RE.fullmatch(word):
        return _DIGEST
    raise Unclassifiable(f"word {word!r} matches no word class")


def encode_word(word: str, kind: WordKind, st: SymbolTable) -> str:
    """Marker plus the concatenated fixed-width code of every character."""
    return _MARKER[kind] + word.translate(st.codes)


class Span(NamedTuple):
    """One tag subtree of a body: body[start..end], its closer included."""

    ordinal: int
    start: int
    end: int
    opens_inside: int


#: a Span of an (ordinal, start, end, opens_inside) tuple, made with no call
#: of Python code
_span = partial(tuple.__new__, Span)


class Layout(NamedTuple):
    """A body's words less its digest words, each tag ordinal's Span in
    them, and each ordinal's digest word, in word order from a scan."""

    body: tuple
    spans: dict
    digests: dict

    def segment(self, ordinal: int) -> tuple:
        """The words of the subtree of ``ordinal``, closer included."""
        span = self.spans[ordinal]
        return self.body[span.start:span.end + 1]


def subtree_spans(words, kinds=None) -> Layout:
    """The Layout of a body's words; raises MalformedMessage, or
    Unclassifiable for a word of no class, the first fault in word order.
    ``kinds``, where given, holds the class of every word
    (``EncryptedMessage.kinds``), else each distinct word is classified once.

    Digest words are legal only directly after a closer; they attach to the
    subtree that closer ended and are left out of ``body``.  Only a tag may
    follow a closer, so there a word of a digest's length and alphabet is a
    digest even when all-decimal, unless the root is still open and the word
    is tag-shaped too (about 3e-8 of md5 digests).

    The scan reads the words' classes through one ``map`` and does work only
    at a tag, a closer and the word after a closer; any other word inside a
    tag costs a few identity tests.  It notes where each digest word is and
    cuts the body from ``words`` with slices between them.
    """
    if kinds is None:
        kinds = _kinds_of(words)
    spans = {}
    digests = {}
    cuts = []           # index in ``words`` of each digest word
    shift = 0           # digest words so far: ``words`` index less body index
    stack = []          # per open tag, (its ordinal, its index in the body)
    ordinal = 0
    last_closed = None  # the tag whose closer is the last word read, else None
    tag, closer, digest = _TAG, _CLOSER, _DIGEST
    for j, kind in enumerate(map(kinds.__getitem__, words)):
        if kind is tag and (stack or not spans):
            ordinal += 1
            stack.append((ordinal, j - shift))
            last_closed = None
        elif kind is closer:
            if not stack:
                raise MalformedMessage(f"closer at word {j} with no open tag")
            opened, start = stack.pop()
            # every tag opened since this one lies inside it
            spans[opened] = _span((opened, start, j - shift, ordinal - opened))
            last_closed = opened
        elif last_closed is not None or not stack or kind is digest or kind is None:
            # a tag after the root, or a word after a closer, outside every
            # tag, of the digest class or of no class
            word = words[j]
            if kind is None:
                classify_word(word)     # raises Unclassifiable
            if last_closed is not None and (kind is digest or _DIGEST_RE.fullmatch(word)):
                if last_closed in digests:
                    raise MalformedMessage(f"second digest for tag {last_closed}")
                digests[last_closed] = word
                cuts.append(j)
                shift += 1
            elif kind is digest:
                raise MalformedMessage(f"digest at word {j} does not follow a closer")
            elif kind is tag:
                raise MalformedMessage("multiple roots in one message")
            elif not stack:
                raise MalformedMessage(f"word {j} outside any tag")
            else:
                last_closed = None
    if stack:
        raise MalformedMessage(f"{len(stack)} tags left open")
    if not spans:
        raise MalformedMessage("message contains no tags")
    body = []
    pos = 0
    for cut in cuts:
        body += words[pos:cut]
        pos = cut + 1
    body += words[pos:]
    return Layout(tuple(body), spans, digests)


def _kinds_of(words) -> dict:
    """Each distinct word's WordKind, None for a word of no class."""
    kinds = dict.fromkeys(words)
    for word in kinds:
        try:
            kinds[word] = classify_word(word)
        except Unclassifiable:
            pass
    return kinds


_ACCESS_RE = re.compile(r"(?:[1-9][0-9]*,)+")


@dataclass(frozen=True)
class EncryptedMessage:
    """Access-list header plus the ordered ciphertext words, signed or not,
    and, not compared, each distinct word's WordKind as a parse found it
    (``kinds``); ``layout`` is the body's structure, scanned on first use."""

    access: tuple = ()
    words: tuple = ()
    kinds: dict = field(default=None, compare=False, repr=False)

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
        kinds = dict.fromkeys(tokens)
        try:
            for word in kinds:
                kinds[word] = classify_word(word)
        except Unclassifiable as exc:
            raise MalformedMessage(str(exc)) from None
        return cls(access, tuple(tokens), kinds)

    @cached_property
    def layout(self) -> Layout:
        """The body's Layout, scanned on first use; raises as subtree_spans."""
        return subtree_spans(self.words, self.kinds)


#: token class -> (marker, tag-table kind) of a non-variable word
_TOKEN_WIRE = {cls: (_MARKER[kind], kind.value) for cls, kind in (
    (Open, _TAG), (AttrName, _ATTR_NAME), (AttrValue, _ATTR_VALUE))}


def _short_codes(mode: str) -> bool:
    """Whether ``mode`` sends known non-variable words as tag-table codes."""
    if mode not in ("st", "tat"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode == "tat"


def _commit(new: dict, st: SymbolTable, tat: TagTable, ctx: TatContext) -> None:
    """Insert a finished message's new non-variable words, in order of first
    appearance, under the message's code width."""
    ctx.begin_message(len(tat), len(new), st)
    for text, kind in new.items():
        tat_upsert(tat, ctx, text, kind)


@dataclass(frozen=True)
class OpaqueRun:
    """A contiguous subtree under a key not held, preserved byte for byte:
    its words, its own tag's ordinal and the number of tags inside it.  Its
    tags' Spans are those of the Layout of the message it was cut from;
    ``item_spans`` counts its tags but gives them none."""

    words: tuple
    ordinal: int
    opens_inside: int


def _encode(items, owner_for, short_codes: bool) -> list:
    """The encode walker: body words of a stream or a partial stream.

    An OpaqueRun stands for its own tag plus every tag inside it and is
    copied verbatim; a tag whose ``owner_for`` is None raises MissingKey.
    Words absent from their owner's tag table at the start of the message
    are spelled out at every occurrence; with ``short_codes`` a word already
    in the table is sent as its code, whose text is one lookup in
    ``TagTable.codes``.  A new word or variable text that is empty would
    spell no payload, so it raises UnsupportedShape.  The words hold one
    word per token and an OpaqueRun's own words for it.
    """
    words = []
    pending = {}        # owner -> {new text: kind}
    stack = []          # per open tag, the owner of the tag around it
    ordinal = 0
    owner = None        # the innermost open tag's; None outside every tag
    for item in items:
        cls = type(item)
        if cls is Close:
            if not stack:
                raise UnbalancedClosers(f"closer at word {len(words)} with no open tag")
            words.append("0")
            outer = stack.pop()
            if outer is not owner:
                owner = outer
                if outer is not None:
                    codes, held, new = outer.st.codes, outer.tat.codes, pending[outer]
            continue
        if owner is None and (ordinal or cls is not Open and cls is not OpaqueRun):
            raise UnbalancedClosers(f"{cls.__name__} at word {len(words)} outside the root")
        if cls is Variable:
            if not item.text:
                raise UnsupportedShape(f"empty variable text at word {len(words)}")
            words.append(item.text.translate(codes))
            continue
        if cls is OpaqueRun:
            ordinal += 1 + item.opens_inside
            words.extend(item.words)
            continue
        if cls is Open:
            ordinal += 1
            who = owner_for(ordinal)
            if who is None:
                raise MissingKey(f"tag {ordinal} needs a key the ring does not hold")
            stack.append(owner)
            if who is not owner:
                owner = who
                codes, held = who.st.codes, who.tat.codes
                new = pending.setdefault(who, {})
        marker, kind = _TOKEN_WIRE[cls]
        text = item.text if cls is AttrValue else item.name
        code = held.get(text)
        if code is None:
            if not text:
                raise UnsupportedShape(f"empty {kind} at word {len(words)}")
            new.setdefault(text, kind)
        elif short_codes:
            words.append(marker + code)
            continue
        words.append(marker + text.translate(codes))
    if stack:
        raise UnbalancedClosers(f"{len(stack)} tags left open at end of message")
    if not ordinal:
        raise UnbalancedClosers("message holds no tag")
    for who, new in pending.items():
        _commit(new, who.st, who.tat, who.ctx)
    return words


def item_spans(items) -> dict:
    """Ordinal -> Span of each tag of a one-tree token stream, by item index,
    in closer order; an OpaqueRun is one item whose tags are counted but get
    no Span.  On a stream with no run, item i encodes to word i."""
    spans = {}
    stack = []          # per open tag, (its ordinal, its item index)
    ordinal = 0
    for i, item in enumerate(items):
        cls = type(item)
        if cls is Open:
            ordinal += 1
            stack.append((ordinal, i))
        elif cls is Close:
            opened, start = stack.pop()
            spans[opened] = _span((opened, start, i, ordinal - opened))
        elif cls is OpaqueRun:
            ordinal += 1 + item.opens_inside
    return spans


def _one_owner(st, tat, ctx):
    """``owner_for`` of a single-key message: one Session owns every tag."""
    owner = Session(None, st, tat, ctx)
    return lambda ordinal: owner


def stbe(stream, st: SymbolTable, tat: TagTable, ctx: TatContext,
         access=()) -> EncryptedMessage:
    """Symbol-table-based encryption; grows the tag table as a side effect."""
    words = _encode(stream, _one_owner(st, tat, ctx), short_codes=False)
    return EncryptedMessage(tuple(access), tuple(words))


def tatbe(stream, st: SymbolTable, tat: TagTable, ctx: TatContext,
          access=()) -> EncryptedMessage:
    """Tag-table-based encryption.

    Known non-variable words emit their short code; words new in this message
    fall back to the symbol-table form for every occurrence (the peer may not
    hold the entry yet) and enter the table for the next message.
    """
    words = _encode(stream, _one_owner(st, tat, ctx), short_codes=True)
    return EncryptedMessage(tuple(access), tuple(words))


def _decode_word(word, kind, st, tat, new: dict):
    """Token of one marked word of class ``kind``: a held tag code or spelled
    out, never both; a spelled-out one absent from the table is added to
    ``new``."""
    if kind is _TAG:
        cls, payload = Open, word[1:]
    elif kind is _ATTR_NAME:
        cls, payload = AttrName, word[2:]
    elif kind is _ATTR_VALUE:
        cls, payload = AttrValue, word[3:]
    else:
        raise MalformedWord("digest word outside a signed message")
    text = tat.word_for(payload)
    if text is not None:
        return cls(text)
    if len(payload) % st.width:
        raise UnknownTatCode(
            f"word {word!r}: code {payload} unknown and no character encoding"
        )
    text = st.decode_chars(payload)
    if text not in tat:
        new.setdefault(text, _TOKEN_WIRE[cls][1])
    return cls(text)


def _decode(words, owner_for, kinds: dict = None, spans: dict = None) -> list:
    """The decode walker: items of a body's words.

    A tag whose ``owner_for`` is None becomes, with its whole subtree, one
    OpaqueRun.  Each distinct word is decoded once per owner, against the
    tag tables as they stood before the message: variable text by its
    owner's ``SymbolTable.decode_chars``, a marked word by ``_decode_word``.
    ``kinds`` holds the class of every word (``EncryptedMessage.kinds``),
    else each is classified as it is decoded.  ``spans``, those of the
    body's Layout, give where a foreign subtree ends, so it is copied whole
    by its Span: an ``owner_for`` that gives None for some tag needs them.
    """
    items = []
    frames = {}         # owner -> ({word: token}, {new text: kind})
    stack = []          # per open tag, the owner of the tag around it
    ordinal = 0
    owner = None        # the innermost open tag's; None outside every tag
    seen = {}           # the owner's decoded words; empty outside every tag
    classify = classify_word if kinds is None else kinds.__getitem__
    rest = enumerate(words)
    for i, word in rest:
        if word == "0":
            if not stack:
                raise UnbalancedClosers(f"closer at word {i} with no open tag")
            items.append(CLOSE)
            outer = stack.pop()
            if outer is not owner:
                owner = outer
                if outer is None:
                    seen = {}
                else:
                    seen, new = frames[outer]
                    st, tat, read = outer.st, outer.tat, outer.st.decode_chars
            continue
        token = seen.get(word)
        if token is not None and type(token) is not Open:
            items.append(token)
            continue
        # a tag word: one zero, then a nonzero digit
        tag = token is not None or word[:1] == "0" and "1" <= word[1:2] <= "9"
        if owner is None and (ordinal or not tag):
            raise UnbalancedClosers(f"word {i} outside the root")
        if tag:
            ordinal += 1
            who = owner_for(ordinal)
            if who is None:
                _, _, end, inside = spans[ordinal]
                items.append(OpaqueRun(tuple(words[i:end + 1]), ordinal, inside))
                next(islice(rest, end - i, end - i), None)      # on past its closer
                ordinal += inside
                continue
            stack.append(owner)
            if who is not owner:
                owner = who
                seen, new = frames.setdefault(who, ({}, {}))
                st, tat, read = who.st, who.tat, who.st.decode_chars
                token = seen.get(word)
        if token is None:
            kind = classify(word)
            if kind is _VARIABLE:
                token = seen[word] = Variable(read(word))
            else:
                token = seen[word] = _decode_word(word, kind, st, tat, new)
        items.append(token)
    if stack:
        raise UnbalancedClosers(f"{len(stack)} tags left open at end of message")
    if not ordinal:
        raise UnbalancedClosers("message holds no tag")
    for who, (_, added) in frames.items():
        _commit(added, who.st, who.tat, who.ctx)
    return items


def tatbd(msg: EncryptedMessage, st: SymbolTable, tat: TagTable,
          ctx: TatContext) -> tuple:
    """Inverse of stbe and tatbe; rebuilds the tag table as the encoder did."""
    return tuple(_decode(msg.words, _one_owner(st, tat, ctx), msg.kinds))


stbd = tatbd    # one decoder reads both encodings


@dataclass(eq=False)
class Session:
    """Per-peer state: one key, its symbol table, and the shared tag table.

    A key ring's members are Sessions too, named by ``key_id``; the ring's
    ``group_id`` names its group key.
    """

    key: TenElementKey
    st: SymbolTable
    tat: TagTable
    ctx: TatContext
    key_id: str = ""

    @classmethod
    def for_key(cls, key: TenElementKey, key_id: str = "") -> "Session":
        st = build_st(key)
        return cls(key, st, TagTable(st), TatContext(), key_id)

    @cached_property
    def key_text(self) -> str:
        """The serialized key, which prefixes every digest under it."""
        return serialize_key(self.key)

    @cached_property
    def key_hash(self):
        """An md5 hash that has read ``key_text`` alone, which every digest
        under this key copies (``composition._digest``)."""
        return hashlib.md5(self.key_text.encode("ascii"))

    def encrypt(self, stream, mode: str = "st", access=()) -> EncryptedMessage:
        encrypt = tatbe if _short_codes(mode) else stbe
        return encrypt(stream, self.st, self.tat, self.ctx, access)

    def decrypt(self, msg: EncryptedMessage) -> tuple:
        return tatbd(msg, self.st, self.tat, self.ctx)
