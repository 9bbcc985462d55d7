"""Multi-key encryption of one document plus per-subtree keyed digests.

Each tag subtree is owned by one key: the policy maps tag ordinals to key
ids, attributes and variable children inherit their tag's key, unmapped tags
and the outermost tag fall to the group key.  One shared ciphertext body
serves every recipient; the access header tells each which ordinals its
pairwise key covers.  A digest word (keyed hash of the serialized key plus a
subtree's words) may follow any subtree's closer; the whole-document digest
under the group key comes last and covers the body words, digests excluded.

Composition only decides which key owns each tag; the codec's two walkers,
``codec._encode`` and ``codec._decode``, do the rest, and the decoder keeps
a subtree under a key not held as an OpaqueRun.  The wire grammar, digest
words included, lives in ``codec``: the digest functions place and check
digests by the spans of a body's ``Layout`` before any word is decoded, and
a received message is scanned once, by ``EncryptedMessage.layout``, whose
digest-free body is what ``compose_decrypt`` then reads.
"""

import enum
import hashlib
import hmac
from dataclasses import dataclass, field

from .codec import EncryptedMessage, Session, _decode, _encode, _short_codes, subtree_spans
from .errors import MalformedMessage, MissingKey, RestCipherError
from .keycore import TenElementKey, serialize_key
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
        entry = Session.for_key(key, key_id, is_group)
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


def compose_encrypt(stream, policy: CompositionPolicy, ring: KeyRing,
                    mode: str = "st") -> list:
    """Encrypt each word with its owning key's tables; returns body words."""
    return _encode(stream, lambda o: ring[policy.key_for(o, ring)], _short_codes(mode))


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


# decryption to a partial stream


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

    Digest words must be stripped first: pass a signed message's
    ``layout.body``.  Without a policy the recipient rule applies:
    access-listed tags via the pairwise key, the outermost tag via the group
    key.  Each key's new words enter
    its tag table only once the whole message has decoded.
    """
    resolve = policy_resolver(policy, ring) if policy else \
        recipient_resolver(msg.access, ring)

    def owner_for(ordinal):
        key_id = resolve(ordinal)
        return None if key_id is None else ring[key_id]

    return _decode(msg.words, owner_for)


def compose_reencrypt(items, policy: CompositionPolicy, ring: KeyRing,
                      mode: str = "st") -> list:
    """Re-encode a partial stream; opaque runs are spliced back verbatim."""
    return _encode(items, lambda o: ring[policy.key_for(o, ring)], _short_codes(mode))


# keyed digests


def sign_segment(segment_words, key: TenElementKey,
                 algorithm: str = DEFAULT_DIGEST) -> str:
    """Hash of the serialized key followed by the space-joined segment."""
    return _digest(serialize_key(key), segment_words, algorithm)


def _digest(key_text: str, segment_words, algorithm: str) -> str:
    payload = key_text + " ".join(segment_words)
    return hashlib.new(algorithm, payload.encode("ascii")).hexdigest()


def _signing_key(ordinal: int, policy: CompositionPolicy, ring: KeyRing):
    """Id of the key whose digest attach_digests puts after subtree
    ``ordinal``, or None: the group key's after the root, the policy's key
    after a subtree it gives a key other than the group's."""
    if ordinal == 1:
        return ring.group_id
    key_id = policy.assignments.get(ordinal, ring.group_id)
    return None if key_id == ring.group_id else key_id


def _body_spans(body_words) -> dict:
    """Spans of a body to sign, which must hold no digest word yet: the
    splice would put a second digest next to it."""
    _, spans, digests = subtree_spans(body_words)
    if digests:
        raise MalformedMessage(f"body already holds a digest for tag {min(digests)}")
    return spans


def attach_digests(body_words, policy: CompositionPolicy, ring: KeyRing,
                   algorithm: str = DEFAULT_DIGEST) -> list:
    """Sign every explicitly-policied pairwise subtree plus the whole body.

    Each digest lands directly after its subtree's closer; the whole-document
    digest (group key) closes the message.  Input must be digest-free.
    """
    by_closer = {}
    for ordinal, span in _body_spans(body_words).items():
        key_id = _signing_key(ordinal, policy, ring)
        if key_id is not None:
            segment = body_words[span.start:span.end + 1]
            by_closer[span.end] = _digest(ring[key_id].key_text, segment, algorithm)
    return _spliced(body_words, by_closer)


def _spliced(body_words, by_closer: dict) -> list:
    """The body with each digest of ``by_closer`` (closer index -> digest
    word) after its closer; the root's closer is the last word."""
    out = []
    for i, word in enumerate(body_words):
        out.append(word)
        if i in by_closer:
            out.append(by_closer[i])
    return out


def strip_digests(words):
    """(digest-free words, {ordinal: digest word}) of a signed message."""
    body, _, digests = subtree_spans(words)
    return list(body), digests


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
    """One verdict per digest word, in word order, and a Reject for each
    missing digest: the root's always, with a policy also each one
    attach_digests makes.  A structurally broken message is a single
    whole-message Reject rather than an exception."""
    try:
        body, spans, digests = msg.layout
    except RestCipherError as exc:
        return [Verdict(0, Status.REJECT, f"malformed message: {exc}")]
    if policy is not None:
        resolve = policy_resolver(policy, ring)
    else:
        try:
            resolve = recipient_resolver(msg.access, ring)
        except ValueError as exc:
            return [Verdict(0, Status.REJECT, str(exc))]
    verdicts = []
    # spans come in closer order, the order of the digests after them
    for ordinal, span in spans.items():
        word = digests.get(ordinal)
        if word is None:
            if ordinal == 1 or policy is not None and _signing_key(ordinal, policy, ring):
                verdicts.append(Verdict(ordinal, Status.REJECT, "missing digest"))
            continue
        key_id = ring.group_id if ordinal == 1 else resolve(ordinal)
        if key_id is None or key_id not in ring:
            verdicts.append(Verdict(ordinal, Status.NOT_CHECKABLE, "key not held"))
            continue
        expected = _digest(ring[key_id].key_text, body[span.start:span.end + 1], algorithm)
        if hmac.compare_digest(expected, word):
            verdicts.append(Verdict(ordinal, Status.ACCEPT))
        else:
            verdicts.append(Verdict(ordinal, Status.REJECT, "digest mismatch"))
    return verdicts


def refresh_digests(body_words, ring: KeyRing, resolve, preserved: dict,
                    algorithm: str = DEFAULT_DIGEST) -> list:
    """Re-sign held subtrees, splice preserved digests for foreign ones.

    ``preserved`` maps subtree ordinals to the digest words of the incoming
    message; the set of signed subtrees is kept shape-identical."""
    spans = _body_spans(body_words)
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
    if 1 in preserved:
        by_closer[len(body_words) - 1] = _digest(ring.group.key_text, body_words, algorithm)
    return _spliced(body_words, by_closer)
