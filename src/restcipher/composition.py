"""Multi-key encryption of one document plus per-subtree keyed digests.

Each tag subtree is owned by one key: the policy maps tag ordinals to key
ids, attributes and variable children inherit their tag's key, unmapped tags
and the outermost tag fall to the group key.  One shared ciphertext body
serves every recipient; the access header tells each which ordinals its
pairwise key covers.  A digest word (keyed hash of the serialized key plus a
subtree's words) may follow any subtree's closer; the whole-document digest
under the group key comes last and covers the body words, digests excluded.

Composition only decides which key owns each word.  The words themselves go
through the single-key codec's machinery: ``compose_encrypt`` and
``compose_reencrypt`` hand ``(token, owning Session)`` pairs to the one
encode walker, ``codec._encode``, and ``compose_decrypt`` decodes each held
word with ``codec._decode_word``.  Its message loop stays its own, because a
composition body is checked by ``_scan`` (MalformedMessage) and may hold
foreign subtrees, which it keeps as OpaqueRuns.
"""

import enum
import hashlib
import hmac
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

from .codec import (
    EncryptedMessage,
    Session,
    WordKind,
    classify_word,
    _commit,
    _decode_word,
    _encode,
    _short_codes,
)
from .docmodel import CLOSE, Close, Open
from .errors import MalformedMessage, MissingKey, RestCipherError
from .keycore import TenElementKey, serialize_key
from .tables import TagTable, TatContext, build_st
# unused here, but kept bound: perfbench's tests check that its tracer
# wraps composition.tat_upsert
from .tables import tat_upsert  # noqa: F401

DEFAULT_DIGEST = "md5"

KeyEntry = Session     # a ring member is a Session with a key id


class KeyRing:
    """Named keys of one participant; exactly one is the group key."""

    def __init__(self):
        self._entries = {}
        self.group_id = None

    def add_key(self, key_id: str, key: TenElementKey, is_group: bool = False) -> Session:
        if key_id in self._entries:
            raise ValueError(f"duplicate key id {key_id!r}")
        if is_group:
            if self.group_id is not None:
                raise ValueError("a ring holds exactly one group key")
            self.group_id = key_id
        entry = Session(key, build_st(key), TagTable(), TatContext(), key_id, is_group)
        self._entries[key_id] = entry
        return entry

    def __contains__(self, key_id: str) -> bool:
        return key_id in self._entries

    def __getitem__(self, key_id: str) -> Session:
        try:
            return self._entries[key_id]
        except KeyError:
            raise MissingKey(f"key {key_id!r} not in ring") from None

    def __iter__(self):
        return iter(self._entries.values())

    @property
    def group(self) -> Session:
        if self.group_id is None:
            raise MissingKey("ring has no group key")
        return self._entries[self.group_id]

    def pairwise_ids(self) -> list:
        return [e.key_id for e in self if not e.is_group]


@dataclass(frozen=True)
class CompositionPolicy:
    """Tag ordinal -> key id; unmapped ordinals use the group key."""

    assignments: dict = field(default_factory=dict)

    def key_for(self, ordinal: int, ring: KeyRing) -> str:
        key_id = self.assignments.get(ordinal, ring.group_id)
        if ordinal == 1 and key_id != ring.group_id:
            raise ValueError("the outermost tag always uses the group key")
        if key_id is None or key_id not in ring:
            raise MissingKey(f"tag {ordinal} needs key {key_id!r}")
        return key_id


def _owned(items, policy: CompositionPolicy, ring: KeyRing):
    """(item, owning Session) pairs of a stream or partial stream.

    A closer belongs to the tag it closes; an OpaqueRun has no owner and
    stands for its own tag plus every tag inside it.
    """
    stack = []
    ordinal = 0
    for item in items:
        cls = type(item)
        if cls is OpaqueRun:
            ordinal += 1 + item.opens_inside
            yield item, None
        elif cls is Open:
            ordinal += 1
            stack.append(ring[policy.key_for(ordinal, ring)])
            yield item, stack[-1]
        elif cls is Close:
            yield item, stack.pop()
        else:
            yield item, stack[-1]


def compose_encrypt(stream, policy: CompositionPolicy, ring: KeyRing,
                    mode: str = "st") -> list:
    """Encrypt each word with its owning key's tables; returns body words."""
    return _encode(_owned(stream, policy, ring), _short_codes(mode))


def access_header(policy: CompositionPolicy, ring: KeyRing, held_ids,
                  tag_count: int) -> tuple:
    """Ordinals a holder of ``held_ids`` may process; group-owned tags are
    readable by every member and never listed."""
    held = set(held_ids)
    ordinals = []
    for ordinal in range(1, tag_count + 1):
        key_id = policy.key_for(ordinal, ring)
        if key_id != ring.group_id and key_id in held:
            ordinals.append(ordinal)
    return tuple(ordinals)


# structural scanning of ciphertext bodies


class Span(NamedTuple):
    """One tag subtree in a word list: words[start..end] inclusive of closer."""

    ordinal: int
    start: int
    end: int
    opens_inside: int


def subtree_spans(words, allow_digests: bool = False):
    """Structural parse of a body.

    Returns (spans by ordinal, digests as {ordinal: word index}).  Digest
    words are legal only directly after a closer; they attach to the subtree
    that closer ended and are excluded from all spans' coverage.
    """
    spans, digests, _ = _scan(words, allow_digests)
    return spans, digests


def _scan(words, allow_digests: bool = False):
    """subtree_spans plus the kind of every word; each distinct word is
    classified once."""
    spans = {}
    digests = {}
    kinds = []
    kind_of = {}
    stack = []
    ordinal = 0
    last_closed = None
    tag, closer = WordKind.TAG, WordKind.CLOSER
    for i, word in enumerate(words):
        kind = kind_of.get(word)
        if kind is None:
            kind = kind_of[word] = classify_word(word)
        kinds.append(kind)
        if kind is tag:
            if not stack and spans:
                raise MalformedMessage("multiple roots in one message")
            ordinal += 1
            stack.append((ordinal, i))
            last_closed = None
        elif kind is closer:
            if not stack:
                raise MalformedMessage(f"closer at word {i} with no open tag")
            opened, start = stack.pop()
            # every tag opened since this one lies inside it
            spans[opened] = Span(opened, start, i, ordinal - opened)
            last_closed = opened
        elif kind is WordKind.DIGEST:
            if not allow_digests:
                raise MalformedMessage(f"unexpected digest word at {i}")
            if last_closed is None:
                raise MalformedMessage(f"digest at word {i} does not follow a closer")
            if last_closed in digests:
                raise MalformedMessage(f"second digest for tag {last_closed}")
            digests[last_closed] = i
        else:
            if not stack:
                raise MalformedMessage(f"word {i} outside any tag")
            last_closed = None
    if stack:
        raise MalformedMessage(f"{len(stack)} tags left open")
    if not spans:
        raise MalformedMessage("message contains no tags")
    return spans, digests, kinds


# decryption to a partial stream


@dataclass(frozen=True)
class OpaqueRun:
    """A contiguous foreign subtree, preserved byte for byte."""

    words: tuple
    ordinal: int
    opens_inside: int


def recipient_resolver(access, ring: KeyRing):
    """Ownership rule for a recipient that knows no policy: access-listed
    ordinals use its single pairwise key, the outermost tag the group key,
    everything else is foreign."""
    pairwise = ring.pairwise_ids()
    if len(pairwise) > 1:
        raise ValueError("recipient rule needs a single pairwise key; pass a policy")

    def resolve(ordinal: int):
        if ordinal in access:
            return pairwise[0] if pairwise else None
        if ordinal == 1:
            return ring.group_id
        return None

    return resolve


def policy_resolver(policy: CompositionPolicy, ring: KeyRing):
    def resolve(ordinal: int):
        try:
            return policy.key_for(ordinal, ring)
        except MissingKey:
            return None

    return resolve


def compose_decrypt(msg: EncryptedMessage, ring: KeyRing,
                    policy: CompositionPolicy = None) -> list:
    """Decode held segments to tokens; foreign subtrees become OpaqueRuns.

    Digest words must be stripped first (see strip_digests).  Without a
    policy the recipient rule applies: access-listed tags via the pairwise
    key, the outermost tag via the group key.  Each distinct word is decoded
    once per key, against the tag tables as they stood before the message;
    the words new to each key's table enter it, in order of first
    appearance as the encoder inserted them, once the whole message is
    decoded.
    """
    words = msg.words
    spans, _, kinds = _scan(words)
    resolve = policy_resolver(policy, ring) if policy else \
        recipient_resolver(msg.access, ring)

    held_of = {o: kid for o, kid in
               ((s.ordinal, resolve(s.ordinal)) for s in spans.values())
               if kid is not None and kid in ring}

    frames = {}         # key id -> (entry, {word: token}, {new text: kind})
    items = []
    stack = []
    ordinal = 0
    i = 0
    while i < len(words):
        word = words[i]
        kind = kinds[i]
        if kind is WordKind.CLOSER:
            stack.pop()
            items.append(CLOSE)
            i += 1
            continue
        if kind is WordKind.TAG:
            ordinal += 1
            if ordinal not in held_of:
                span = spans[ordinal]
                items.append(OpaqueRun(tuple(words[i:span.end + 1]),
                                       ordinal, span.opens_inside))
                ordinal += span.opens_inside
                i = span.end + 1
                continue
            key_id = held_of[ordinal]
            if key_id not in frames:
                frames[key_id] = (ring[key_id], {}, {})
            stack.append(frames[key_id])
        entry, decoded, new = stack[-1]
        token = decoded.get(word)
        if token is None:
            token = decoded[word] = _decode_word(word, entry.st, entry.tat, new,
                                                 short_codes=True)
        items.append(token)
        i += 1
    for entry, _, new in frames.values():
        _commit(new, entry.st, entry.tat, entry.ctx)
    return items


def compose_reencrypt(items, policy: CompositionPolicy, ring: KeyRing,
                      mode: str = "st") -> list:
    """Re-encode a partial stream; opaque runs are spliced back verbatim."""
    return _encode(_owned(items, policy, ring), _short_codes(mode))


# keyed digests


def sign_segment(segment_words, key: TenElementKey,
                 algorithm: str = DEFAULT_DIGEST) -> str:
    """Hash of the serialized key followed by the space-joined segment."""
    return _digest(serialize_key(key), segment_words, algorithm)


def _digest(key_text: str, segment_words, algorithm: str) -> str:
    payload = key_text + " ".join(segment_words)
    return hashlib.new(algorithm, payload.encode("ascii")).hexdigest()


def attach_digests(body_words, policy: CompositionPolicy, ring: KeyRing,
                   algorithm: str = DEFAULT_DIGEST) -> list:
    """Sign every ring-held, explicitly-policied subtree plus the whole body.

    Each digest lands directly after its subtree's closer; the whole-document
    digest (group key) closes the message.  Input must be digest-free.
    """
    spans, _ = subtree_spans(body_words)
    by_closer = {}
    for span in spans.values():
        if span.ordinal == 1:
            continue
        key_id = policy.key_for(span.ordinal, ring)
        if key_id == ring.group_id or key_id not in ring:
            continue
        segment = body_words[span.start:span.end + 1]
        by_closer[span.end] = _digest(ring[key_id].key_text, segment, algorithm)
    out = []
    for i, word in enumerate(body_words):
        out.append(word)
        if i in by_closer:
            out.append(by_closer[i])
    out.append(_digest(ring.group.key_text, body_words, algorithm))
    return out


def strip_digests(words):
    """(digest-free words, {ordinal: digest word}) of a signed message."""
    spans, digests = subtree_spans(words, allow_digests=True)
    digest_indexes = set(digests.values())
    body = [w for i, w in enumerate(words) if i not in digest_indexes]
    return body, {o: words[i] for o, i in digests.items()}


class Status(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    NOT_CHECKABLE = "not-checkable"


@dataclass(frozen=True)
class Verdict:
    ordinal: int
    status: Status
    detail: str = ""


def verify_digests(msg: EncryptedMessage, ring: KeyRing,
                   policy: CompositionPolicy = None,
                   algorithm: str = DEFAULT_DIGEST) -> list:
    """One verdict per digest word; a structurally broken message is a
    single whole-message Reject rather than an exception."""
    try:
        spans, digests = subtree_spans(msg.words, allow_digests=True)
    except RestCipherError as exc:
        return [Verdict(0, Status.REJECT, f"malformed message: {exc}")]
    if policy is not None:
        resolve = policy_resolver(policy, ring)
    else:
        try:
            resolve = recipient_resolver(msg.access, ring)
        except ValueError as exc:
            return [Verdict(0, Status.REJECT, str(exc))]
    words = msg.words
    # a subtree's segment is its words minus the digests inside it: a slice
    # of the digest-free body, whose index is the word's less the digests
    # before it
    cuts = sorted(digests.values())
    cut_set = set(cuts)
    body = [w for i, w in enumerate(words) if i not in cut_set]
    verdicts = []
    for ordinal, index in sorted(digests.items(), key=lambda kv: kv[1]):
        key_id = ring.group_id if ordinal == 1 else resolve(ordinal)
        if key_id is None or key_id not in ring:
            verdicts.append(Verdict(ordinal, Status.NOT_CHECKABLE, "key not held"))
            continue
        span = spans[ordinal]
        segment = body[span.start - bisect_left(cuts, span.start):
                       span.end + 1 - bisect_left(cuts, span.end)]
        expected = _digest(ring[key_id].key_text, segment, algorithm)
        if hmac.compare_digest(expected, words[index]):
            verdicts.append(Verdict(ordinal, Status.ACCEPT))
        else:
            verdicts.append(Verdict(ordinal, Status.REJECT, "digest mismatch"))
    return verdicts


def refresh_digests(body_words, ring: KeyRing, resolve, preserved: dict,
                    algorithm: str = DEFAULT_DIGEST) -> list:
    """Re-sign held subtrees, splice preserved digests for foreign ones.

    ``preserved`` maps subtree ordinals to the digest words of the incoming
    message; the set of signed subtrees is kept shape-identical."""
    spans, _ = subtree_spans(body_words)
    by_closer = {}
    for ordinal, old in preserved.items():
        if ordinal == 1:
            continue
        span = spans[ordinal]
        key_id = resolve(ordinal)
        if key_id is not None and key_id in ring:
            segment = body_words[span.start:span.end + 1]
            by_closer[span.end] = _digest(ring[key_id].key_text, segment, algorithm)
        else:
            by_closer[span.end] = old
    out = []
    for i, word in enumerate(body_words):
        out.append(word)
        if i in by_closer:
            out.append(by_closer[i])
    if 1 in preserved:
        out.append(_digest(ring.group.key_text, body_words, algorithm))
    return out
