"""Multi-key encryption of one document plus per-subtree keyed digests.

One rule, ``owners``, says which key owns each tag: it maps a message's tag
ordinals to ring Sessions, None for a tag under a key not held, and every
step reads it, built once per message: encode and re-encode, decode, the
access header, and placing, checking and refreshing digests.  Attributes
and variable text go with their tag.  Under a policy the root and unmapped
tags are the group key's; a recipient that knows no policy gives the root to
the group key, the tags its access list names to its pairwise key, and
treats every other tag as foreign.  One ciphertext body serves every
recipient.  A digest word (keyed hash of the serialized key plus a subtree's
words) follows the closer of the root and of each subtree another key owns.

The codec's two walkers, ``codec._encode`` and ``codec._decode``, do the
rest with the rule as their ``owner_for``; the decoder keeps a subtree under
a key not held as an OpaqueRun.  Each step takes a body's structure from the
one before: a received message's ``layout``, scanned once from the classes
its parse kept, serves both ``verify_digests`` and ``compose_decrypt``,
which decodes its digest-free body; ``compose_encrypt`` returns a ``Body``
holding each tag's Span, laid out from the tokens it encoded
(``codec.item_spans``), by which ``attach_digests`` and ``refresh_digests``
sign it.  A sender reads a recipient's reply by ``reply_owners``, its own
rule cut down to the subtrees it granted and the tags around them, from the
spans of the Body it sent.

Both signers, ``attach_digests`` and ``refresh_digests``, return the signed
words as a ``Signed`` record of what they signed: a ``codec.Layout`` of the
body, its spans and each digest word, with the rule the digests were made
under.  A sender that checks a reply against its record takes an ACCEPT
with no hash for each subtree whose digest word and words are the ones it
signed, under the same owner: the hash would give that same word, so the
verdict is the one a hash gives.  A recipient copies back the subtrees it
cannot read, so about half of a reply is such words.  The same record lets
the sender check that the subtrees ``reply_owners`` keeps came back
unchanged (``changed_kept``), and a provider's record tells where each word
of its reply lies.  Every digest is an md5: the algorithm never travels
with a message, so both ends agree on it in advance.  Each key's text is
hashed once, on its Session, and each digest copies that hash.
"""

import bisect
import enum
import hashlib
import hmac
from dataclasses import dataclass, field
from typing import NamedTuple

from .codec import (EncryptedMessage, Layout, Session, _decode, _encode, _short_codes,
                    item_spans, subtree_spans)
from .errors import MalformedMessage, MissingKey, RestCipherError
from .keycore import TenElementKey, serialize_key
# unused here, but kept bound: perfbench's tests check that its tracer
# wraps composition.tat_upsert
from .tables import tat_upsert  # noqa: F401


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
        entry = Session.for_key(key, key_id)
        self._entries[key_id] = entry
        return entry

    def __getitem__(self, key_id: str) -> Session:
        try:
            return self._entries[key_id]
        except KeyError:
            raise MissingKey(f"key {key_id!r} not in ring") from None

    def __iter__(self):
        return iter(self._entries.values())

    def pairwise_ids(self) -> list:
        return [e.key_id for e in self if e.key_id != self.group_id]


@dataclass(frozen=True)
class CompositionPolicy:
    """Tag ordinal -> key id; unmapped ordinals use the group key."""

    assignments: dict = field(default_factory=dict)


class Owners(dict):
    """One message's ownership rule: tag ordinal -> the ring Session that
    owns it, or None for a tag under a key not held; an ordinal with no
    entry falls to ``default``, the group key under a policy.  A rule
    ``reply_owners`` cuts also names the subtrees the reply must carry back
    as they were sent (``kept``)."""

    default = None
    kept = ()

    def __missing__(self, ordinal: int):
        return self.default


def owners(ring: KeyRing, policy=None, access=()) -> Owners:
    """The ownership rule every composition step reads.

    Under a policy (the sender's, or a receiver's that holds it) the root
    and every unmapped tag are the group key's and each mapped tag is its
    key's, None where the ring lacks that key.  With no policy (a recipient)
    the root is the group key's, each ordinal of ``access`` is the ring's
    one pairwise key's and every other tag is foreign, so a recipient never
    reads a group-owned tag below the root (ROADMAP item 1).  A rule already
    built is returned as it is, so the steps of one message share it.
    """
    if isinstance(policy, Owners):
        return policy
    keys = ring._entries
    if policy is not None:
        if policy.assignments.get(1, ring.group_id) != ring.group_id:
            raise ValueError("the outermost tag always uses the group key")
        rule = Owners({o: keys.get(k) for o, k in policy.assignments.items()})
        rule.default = keys.get(ring.group_id)
    else:
        pairwise = ring.pairwise_ids()
        if len(pairwise) > 1:
            raise ValueError("recipient rule needs a single pairwise key; pass a policy")
        if 1 in access:
            raise MalformedMessage("the access list names the outermost tag, "
                                   "which the group key owns")
        rule = Owners(dict.fromkeys(access, keys[pairwise[0]] if pairwise else None))
    rule[1] = keys.get(ring.group_id)
    return rule


def reply_owners(rule: Owners, spans: dict, access) -> Owners:
    """The rule by which a sender reads a recipient's reply: cut from the
    sender's own ``rule`` and the ``spans`` of the body it sent, it gives
    the root, every tag of each subtree ``access`` grants and every tag that
    encloses a granted one the owner ``rule`` gives it.  Every other tag is
    foreign, so its subtree is copied as an OpaqueRun and never read.

    Its ``kept`` lists, outermost first, each subtree inside a granted one
    whose tag another key than the granted tag's owns: the recipient's
    rule made it foreign, so an honest reply copies its words back as they
    were sent.  ``changed_kept`` refuses a reply that does not, so the
    sender's decode there equals its own items.  Only the group key signs
    some of those tags, and every recipient holds that key."""
    granted = sorted(access)
    read = Owners()
    kept = []
    for ordinal in granted:
        if ordinal in read:
            continue            # inside a granted subtree already read
        owner = rule[ordinal]
        last_kept = 0           # the last ordinal inside the kept subtree last met
        for inner in range(ordinal, ordinal + 1 + spans[ordinal].opens_inside):
            who = read[inner] = rule[inner]
            if who is not owner and inner > last_kept:
                kept.append(inner)
                last_kept = inner + spans[inner].opens_inside
    for ordinal, span in spans.items():
        if span.opens_inside and ordinal not in read:
            # the first granted tag after this one, if it lies inside it
            k = bisect.bisect_right(granted, ordinal)
            if k < len(granted) and granted[k] <= ordinal + span.opens_inside:
                read[ordinal] = rule[ordinal]
    read[1] = rule[1]
    read.kept = tuple(kept)
    return read


def changed_kept(kept, sent: "Signed", layout) -> list:
    """The ordinals of ``kept`` (see ``reply_owners``) whose words in a
    reply's ``layout`` differ from the words ``sent`` signed under them, a
    tag the reply lacks included."""
    return [o for o in kept
            if o not in layout.spans or layout.segment(o) != sent.layout.segment(o)]


class Body(list):
    """Body words as ``compose_encrypt`` emitted them, with ``spans``: each
    tag ordinal's Span in them."""

    def __init__(self, words, spans: dict):
        super().__init__(words)
        self.spans = spans


def compose_encrypt(items, policy, ring: KeyRing, mode: str = "st") -> Body:
    """Body words of a stream, or of a partial stream whose opaque runs are
    spliced back verbatim; each word goes under its owner's tables.
    ``items`` is read twice, to encode and to lay out, so it is a sequence.
    ``policy`` is a CompositionPolicy or a rule ``owners`` built."""
    words = _encode(items, owners(ring, policy).__getitem__, _short_codes(mode))
    return Body(words, item_spans(items))


compose_reencrypt = compose_encrypt


def access_header(policy, ring: KeyRing, held_ids, tag_count: int) -> tuple:
    """Ordinals up to ``tag_count`` that the policy gives a key of
    ``held_ids`` other than the group key.  No group-owned tag is listed,
    and the recipient rule makes every unlisted tag but the root foreign, so
    a recipient reads no group-owned tag below the root (ROADMAP item 1)."""
    rule = owners(ring, policy)
    held = set(held_ids)
    listed = sorted(o for o in rule if o <= tag_count)
    for ordinal in listed:
        if rule[ordinal] is None:
            raise MissingKey(f"tag {ordinal} needs a key the ring does not hold")
    return tuple(o for o in listed if rule[o] is not rule[1] and rule[o].key_id in held)


def compose_decrypt(msg: EncryptedMessage, ring: KeyRing, policy=None) -> list:
    """Decode held segments to tokens; foreign subtrees become OpaqueRuns.

    ``msg``, signed or not, is read by its ``layout``: the decoder takes the
    digest-free body with the message's word classes and copies a foreign
    subtree by its Span.  A body that is not one tag tree is refused by the
    scan, as MalformedMessage or Unclassifiable.  Without a policy the
    recipient rule of ``owners`` applies to the message's access list.  Each
    key's new words enter its tag table only once the whole message has
    decoded.
    """
    body, spans, _ = msg.layout
    return _decode(body, owners(ring, policy, msg.access).__getitem__, msg.kinds, spans)


# keyed digests


def sign_segment(segment_words, key: TenElementKey) -> str:
    """md5 of the serialized key followed by the space-joined segment."""
    payload = serialize_key(key) + " ".join(segment_words)
    return hashlib.md5(payload.encode("ascii")).hexdigest()


def _digest(who: Session, segment_words) -> str:
    """``sign_segment`` under the key of ``who``: a copy of its
    ``key_hash`` reads the segment on."""
    digest = who.key_hash.copy()
    digest.update(" ".join(segment_words).encode("ascii"))
    return digest.hexdigest()


def _body_spans(body_words) -> dict:
    """Spans of a body to sign: a Body's own, else a scan's, which must find
    no digest word yet: the splice would put a second digest next to it."""
    if isinstance(body_words, Body):
        return body_words.spans
    _, spans, digests = subtree_spans(body_words)
    if digests:
        raise MalformedMessage(f"body already holds a digest for tag {min(digests)}")
    return spans


class Signed(list):
    """Signed words, each digest word of ``layout`` directly after its
    subtree's closer, with the record of what was signed: ``layout``, the
    digest-free body, each tag's Span in it and each signed ordinal's digest
    word; and ``rule``, the ownership rule the digests were made by.  A
    sender passes it to ``verify_digests`` to check a reply without hashing
    again the subtrees the reply sends back unchanged."""

    def __init__(self, layout: Layout, rule: Owners):
        body, spans, digests = layout
        pos = 0
        # a Body's spans inside an OpaqueRun come in ordinal order, not
        # closer order, so the digests are spliced in by their closers
        for end, ordinal in sorted((spans[o].end, o) for o in digests):
            self += body[pos:end + 1]   # the words since the last closer, as one slice
            self.append(digests[ordinal])
            pos = end + 1
        self += body[pos:]
        self.layout = layout
        self.rule = rule


def attach_digests(body_words, policy, ring: KeyRing) -> Signed:
    """Sign the whole body and every subtree the policy gives a key other
    than the group's.

    Each digest lands directly after its subtree's closer; the whole-document
    digest (group key) closes the message.  Input must be digest-free.
    """
    rule = owners(ring, policy)
    layout = Layout(tuple(body_words), _body_spans(body_words), {})
    for ordinal in layout.spans:
        who = rule[ordinal]
        if ordinal == 1 or who is not rule[1]:
            if who is None:
                raise MissingKey(f"tag {ordinal} needs a key the ring does not hold")
            layout.digests[ordinal] = _digest(who, layout.segment(ordinal))
    return Signed(layout, rule)


def strip_digests(words):
    """(digest-free words, {ordinal: digest word}) of a signed message."""
    body, _, digests = subtree_spans(words)
    return list(body), digests


class Status(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    NOT_CHECKABLE = "not-checkable"


class Verdict(NamedTuple):
    ordinal: int
    status: Status
    detail: str = ""


def verify_digests(msg: EncryptedMessage, ring: KeyRing, policy=None,
                   sent: Signed = None) -> list:
    """One verdict per digest word, in word order, and a Reject for each
    missing digest: the root's always, under a policy also each one
    attach_digests makes.  A structurally broken message, one holding a hex
    word that is no md5 digest among them, is a single whole-message Reject
    rather than an exception.

    ``sent``, the Signed record of a message this end signed, spares the
    hash of each subtree a reply carries back unchanged: where the reply's
    digest word for a subtree equals the one ``sent`` holds, made under the
    same owner, and the subtree's words equal the words ``sent`` signed, the
    verdict is ACCEPT with no hash, for the hash of those words under that
    key is that very word.  Every other subtree is hashed, so the verdicts
    are the ones a hash of every subtree gives."""
    try:
        body, spans, digests = msg.layout
        rule = owners(ring, policy, msg.access)
    except RestCipherError as exc:
        return [Verdict(0, Status.REJECT, f"malformed message: {exc}")]
    except ValueError as exc:
        return [Verdict(0, Status.REJECT, str(exc))]
    # a policy's rule gives every unmapped tag to the group key, its
    # default, so it knows each subtree attach_digests signs; a recipient's
    # rule (default None) knows only the root's
    group = rule.default
    ours = sent.layout.digests if sent is not None else {}
    verdicts = []
    # spans come in closer order, the order of the digests after them
    for ordinal, span in spans.items():
        who = rule[ordinal]
        word = digests.get(ordinal)
        if word is None:
            if ordinal == 1 or group is not None and who is not group:
                verdicts.append(Verdict(ordinal, Status.REJECT, "missing digest"))
            continue
        if who is None:
            verdicts.append(Verdict(ordinal, Status.NOT_CHECKABLE, "key not held"))
            continue
        # cut inline, not by Layout.segment: a call per digest slowed this loop ~5 %
        segment = body[span.start:span.end + 1]
        mine = ours.get(ordinal)
        if (mine is not None and hmac.compare_digest(mine, word)
                and sent.rule[ordinal] is who and segment == sent.layout.segment(ordinal)):
            verdicts.append(Verdict(ordinal, Status.ACCEPT))    # the hash would give ``mine``
        elif hmac.compare_digest(_digest(who, segment), word):
            verdicts.append(Verdict(ordinal, Status.ACCEPT))
        else:
            verdicts.append(Verdict(ordinal, Status.REJECT, "digest mismatch"))
    return verdicts


def refresh_digests(body_words, ring: KeyRing, resolve, preserved: dict) -> Signed:
    """Re-sign held subtrees, keep preserved digests for foreign ones, and
    return the Signed record of it, as ``attach_digests`` does.

    ``resolve`` is the rule the body was decoded under (see ``owners``);
    ``preserved`` maps subtree ordinals to the digest words of the incoming
    message, so the set of signed subtrees is kept shape-identical; an
    ordinal the body has no tag for is MalformedMessage, before any hash."""
    rule = owners(ring, resolve)
    layout = Layout(tuple(body_words), _body_spans(body_words), {})
    absent = preserved.keys() - layout.spans.keys()
    if absent:
        raise MalformedMessage(f"body has no tag {min(absent)} to sign")
    for ordinal, old in preserved.items():
        who = rule[ordinal]
        layout.digests[ordinal] = old if who is None else _digest(who, layout.segment(ordinal))
    return Signed(layout, rule)
