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
words) follows the closer of the root and of each tag whose key id under
the policy differs from its parent's (``key_boundaries``): every word lies
under the digest of its owner's key at the nearest such boundary, and under
the root's.

The codec's two walkers, ``codec._encode`` and ``codec._decode``, do the
rest with the rule as their ``owner_for``; the decoder keeps a subtree under
a key not held as an OpaqueRun.  Each step takes a body's structure from the
one before: a received message's ``layout``, scanned once from the classes
its parse kept, serves both ``verify_digests`` and ``compose_decrypt``,
which decodes its digest-free body; ``compose_encrypt`` returns a ``Body``
that lays out the tokens it encoded on first use (``codec.item_spans``),
and ``attach_digests`` signs only a Body, by those spans.  A provider's
re-encoded body lies word for word where the body it received did, for
every decoded word is one token and every token one word again, so
``refresh_digests`` signs it by the received message's Layout.  A sender
reads a recipient's reply by the rule the recipient read the message by
(``reply_owners``): the root and the granted tags under the sender's keys,
every other tag foreign.

Both signers, ``attach_digests`` and ``refresh_digests``, return the signed
words as a ``Signed`` record of what they signed: a ``codec.Layout`` of the
body, its spans and each digest word.  The sender's record lets it check
that every subtree the recipient copied whole came back as it was sent
(``changed_kept``), and a provider's record tells where each word of its
reply lies.  ``verify_digests`` hashes every digest it checks.  Every
digest is an md5: the algorithm never travels with a message, so both ends
agree on it in advance.  Each key's text is hashed once, on its Session,
and each digest copies that hash.
"""

import enum
import hashlib
import hmac
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .codec import (EncryptedMessage, Layout, OpaqueRun, Session, _decode, _encode,
                    _short_codes, item_spans, subtree_spans)
from .errors import MalformedMessage, MalformedStream, MissingKey, RestCipherError
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
    entry falls to ``default``, the group key under a policy, else None.
    A rule built from a policy also keeps its ``key_ids`` (tag ordinal ->
    key id) and the ring's ``group_id``, which every unmapped tag takes."""

    default = None
    key_ids = None
    group_id = None

    def __missing__(self, ordinal: int):
        return self.default


def owners(ring: KeyRing, policy=None, access=()) -> Owners:
    """The ownership rule every composition step reads.

    Under a policy (the sender's, or a receiver's that holds it) the root
    and every unmapped tag are the group key's and each mapped tag is its
    key's, None where the ring lacks that key.  With no policy (a recipient)
    the root is the group key's, each ordinal of ``access`` is the ring's
    one pairwise key's and every other tag is foreign, so a recipient never
    reads a group-owned tag below the root (ROADMAP item 1).  A sender reads
    the recipient's reply by the same branch with its own keys
    (``reply_owners``).  A rule already built is returned as it is, so the
    steps of one message share it.
    """
    if isinstance(policy, Owners):
        return policy
    keys = ring._entries
    if policy is not None:
        if policy.assignments.get(1, ring.group_id) != ring.group_id:
            raise ValueError("the outermost tag always uses the group key")
        rule = Owners({o: keys.get(k) for o, k in policy.assignments.items()})
        rule.default = keys.get(ring.group_id)
        rule.key_ids, rule.group_id = policy.assignments, ring.group_id
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


def reply_owners(rule: Owners, access) -> Owners:
    """The rule by which a sender reads a recipient's reply: the recipient
    branch of ``owners`` with the sender's keys.  The root and each ordinal
    of ``access`` get the owner ``rule`` gives them and every other tag is
    foreign, so the sender decodes a reply only where the recipient could
    read the message, and every other subtree, one nested in a granted tag
    included, stays the OpaqueRun the recipient copied."""
    read = Owners({o: rule[o] for o in access})
    read[1] = rule[1]
    return read


def changed_kept(read: Owners, sent: "Signed", layout) -> list:
    """Each outermost tag that ``read`` (see ``reply_owners``) leaves
    foreign whose words in a reply's ``layout``, whose Spans are the ones
    ``sent`` signed, differ from the words ``sent`` signed under it: the
    recipient copied that subtree whole, so an honest reply carries it back
    as it was sent.  Each such subtree is compared once, on its own."""
    mine = sent.layout
    spans, ordinal, changed = mine.spans, 1, []
    while ordinal <= len(spans):                        # document order
        # a rule of reply_owners has no default: an ordinal with no entry is foreign
        if read.get(ordinal) is None:
            if layout.segment(ordinal) != mine.segment(ordinal):
                changed.append(ordinal)
            ordinal += spans[ordinal].opens_inside      # past the tags inside it
        ordinal += 1
    return changed


class Body(list):
    """Body words as ``compose_encrypt`` emitted them from ``items``, with
    ``spans``: each tag ordinal's Span in them, laid out from the items on
    first use."""

    def __init__(self, words, items):
        super().__init__(words)
        self.items = items

    @cached_property
    def spans(self) -> dict:
        """``codec.item_spans`` of the items, which index the words only if
        no item is an OpaqueRun, so a run raises MalformedStream naming its
        tag: its tags get no Span, so the root or a tag inside it has none."""
        spans = item_spans(self.items)
        if 1 not in spans or len(spans) <= spans[1].opens_inside:
            run = next(item for item in self.items if type(item) is OpaqueRun)
            raise MalformedStream(f"tag {run.ordinal} is an opaque run, which only "
                                  "the message it was cut from lays out")
        return spans


def compose_encrypt(items, policy, ring: KeyRing, mode: str = "st") -> Body:
    """Body words of a stream, or of a partial stream whose opaque runs are
    spliced back verbatim; each word goes under its owner's tables.
    ``items`` is read again if the Body's spans are, so it is a sequence.
    ``policy`` is a CompositionPolicy or a rule ``owners`` built."""
    words = _encode(items, owners(ring, policy).__getitem__, _short_codes(mode))
    return Body(words, items)


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


class Signed(list):
    """Signed words, each digest word of ``layout`` directly after its
    subtree's closer, with ``layout``, the record of what was signed: the
    digest-free body, each tag's Span in it and each signed ordinal's digest
    word, both in closer order.  A digest word a receiver would misread
    there is MalformedMessage naming its tag."""

    def __init__(self, layout: Layout):
        body, spans, digests = layout
        pos = 0
        for ordinal, digest in digests.items():
            # a receiver misreads an all-decimal digest with four leading zeros (no
            # word class) and, inside the root, a tag-shaped one, a zero then 1-9
            if digest.isdigit() and (digest[:4] == "0000"
                                     or ordinal != 1 and digest[0] == "0" != digest[1]):
                raise MalformedMessage(f"the digest of tag {ordinal}, {digest}, would be misread")
            end = spans[ordinal].end
            self += body[pos:end + 1]   # the words since the last closer, as one slice
            self.append(digest)
            pos = end + 1
        self += body[pos:]
        self.layout = layout


def key_boundaries(spans, rule: Owners) -> set:
    """The ordinals whose subtrees carry a digest: the root and, under a
    rule built from a policy, each tag whose key id differs from its
    parent's, for the parent's digest already covers a tag of its own key.
    Key ids are compared, not Sessions: a rule maps every key the ring
    lacks to None, and two such keys still differ.  Each tag of ``spans``,
    a whole tag tree's, is visited once, as a child of its parent."""
    ids, group = rule.key_ids, rule.group_id
    if ids is None:
        return {1}
    signed = {1}
    for ordinal, span in spans.items():
        key_id = ids.get(ordinal, group)
        child = ordinal + 1
        while child <= ordinal + span.opens_inside:
            if ids.get(child, group) != key_id:
                signed.add(child)
            child += spans[child].opens_inside + 1
    return signed


def attach_digests(body: Body, policy, ring: KeyRing) -> Signed:
    """Sign the whole body and each subtree at a key boundary: every tag
    whose key under the policy differs from its parent's
    (``key_boundaries``).

    ``body`` is the ``Body`` that ``compose_encrypt`` returns, signed by its
    ``spans``; any other list of words, a ``Signed`` one included, is
    MalformedMessage.  Each digest lands directly after its subtree's
    closer; the whole-document digest (group key) closes the message.
    """
    if not isinstance(body, Body):
        raise MalformedMessage("only a Body that compose_encrypt returns is signed")
    rule = owners(ring, policy)
    layout = Layout(tuple(body), body.spans, {})
    signed = key_boundaries(layout.spans, rule)
    for ordinal in layout.spans:        # closer order, the order of the digests
        if ordinal in signed:
            who = rule[ordinal]
            if who is None:
                raise MissingKey(f"tag {ordinal} needs a key the ring does not hold")
            layout.digests[ordinal] = _digest(who, layout.segment(ordinal))
    return Signed(layout)


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


def verify_digests(msg: EncryptedMessage, ring: KeyRing, policy=None) -> list:
    """One verdict per digest word, in word order, and a Reject for each
    missing digest: the root's always, under a policy each one
    attach_digests makes, at every key boundary (``key_boundaries``).  A
    structurally broken message, one holding a hex word that is no md5
    digest among them, is a single whole-message Reject rather than an
    exception.  Each digest under a key held is checked by a hash of its
    subtree's words."""
    try:
        body, spans, digests = msg.layout
        rule = owners(ring, policy, msg.access)
    except RestCipherError as exc:
        return [Verdict(0, Status.REJECT, f"malformed message: {exc}")]
    except ValueError as exc:
        return [Verdict(0, Status.REJECT, str(exc))]
    # a policy's rule knows each subtree attach_digests signs; a
    # recipient's rule knows only the root's
    due = key_boundaries(spans, rule)
    verdicts = []
    # spans come in closer order, the order of the digests after them
    for ordinal, span in spans.items():
        who = rule[ordinal]
        word = digests.get(ordinal)
        if word is None:
            if ordinal in due:
                verdicts.append(Verdict(ordinal, Status.REJECT, "missing digest"))
            continue
        if who is None:
            verdicts.append(Verdict(ordinal, Status.NOT_CHECKABLE, "key not held"))
            continue
        # cut inline, not by Layout.segment: a call per digest slowed this loop ~5 %
        if hmac.compare_digest(_digest(who, body[span.start:span.end + 1]), word):
            verdicts.append(Verdict(ordinal, Status.ACCEPT))
        else:
            verdicts.append(Verdict(ordinal, Status.REJECT, "digest mismatch"))
    return verdicts


def refresh_digests(body_words, ring: KeyRing, resolve, received: Layout) -> Signed:
    """Re-sign held subtrees, keep the received digests for foreign ones,
    and return the Signed record of it, as ``attach_digests`` does.

    ``resolve`` is the rule the body was decoded under (see ``owners``);
    ``received`` is the Layout of the message decoded, whose body the
    re-encoded one replaces word for word: the body is signed by its spans,
    and exactly its signed ordinals are signed again.  A body of another
    word count is MalformedMessage, before any hash."""
    rule = owners(ring, resolve)
    layout = Layout(tuple(body_words), received.spans, {})
    if len(layout.body) != len(received.body):
        raise MalformedMessage(f"a body of {len(layout.body)} words cannot replace "
                               f"one of {len(received.body)}")
    for ordinal, old in received.digests.items():
        who = rule[ordinal]
        layout.digests[ordinal] = old if who is None else _digest(who, layout.segment(ordinal))
    return Signed(layout)
