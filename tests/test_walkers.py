"""The encode and decode walkers against the message loops they replaced.

``oracle`` keeps the single-key decode loop, composition's decode loop behind
its structural pre-pass, the ownership generator and the pair-fed encoder,
and its own copies of the policy and recipient rules that ``owners`` replaced.
Two worlds with the same keys run the same random sessions, one through the
library and one through the oracle, in three views: one key, the full ring
under the policy, and a provider's view by the recipient rule.  Every step
must give the same words or items, or the same error class, and leave every
tag table and context the same.
"""

from dataclasses import replace
from itertools import repeat

from hypothesis import given, settings
from hypothesis import strategies as hs

from restcipher import (
    CompositionPolicy,
    EncryptedMessage,
    Session,
    access_header,
    compose_decrypt,
    compose_encrypt,
    compose_reencrypt,
    parse_key,
    parse_xml,
    tag_names,
)
from restcipher.composition import owners
from restcipher.errors import (
    RestCipherError,
    UnsupportedCharacter,
)

from conftest import K1_TEXT, K2_TEXT, K3_TEXT, make_ring
from oracle import (
    oracle_compose_decrypt,
    oracle_decrypt,
    oracle_encode,
    oracle_owned,
)

DIGEST = "adc1aeffe1fe867740f976fd55c0c481"
#: the faults of ``test_peers_stay_in_step_when_messages_fail``, plus a
#: digest inside the last item, which a provider may hold as an opaque run
CORRUPTIONS = {
    "drop-last-closer": lambda words: words[:-1],
    "extra-closer": lambda words: words + ("0",),
    "digest-word": lambda words: words[:1] + (DIGEST,) + words[1:],
    "digest-in-last-item": lambda words: words[:-3] + (DIGEST,) + words[-3:],
}

_ITEM = hs.tuples(hs.sampled_from([f"i{n}" for n in range(8)]),
                  hs.sampled_from(["book", "disc"]),
                  hs.text("abcdXYZ019", min_size=1, max_size=5))
_STEP = hs.tuples(
    hs.sampled_from(["clean", "bad-char", *CORRUPTIONS]),
    hs.sampled_from(["st", "tat"]),
    hs.lists(_ITEM, min_size=1, max_size=4),
    # tag ordinal -> pairwise key; the root and unmapped tags use the group key
    hs.dictionaries(hs.integers(2, 13), hs.sampled_from(["K1", "K2"]), max_size=6),
)


def _catalog(items, bad_char: bool):
    return parse_xml("<catalog>" + "".join(
        f'<item id="{i}" kind="{k}"><name>{n}{"." if bad_char else ""}</name>'
        f"<qty>{len(n)}</qty></item>" for i, k, n in items) + "</catalog>")


class World:
    """Every party of the three views, all with fresh tables."""

    def __init__(self):
        keys = [parse_key(text) for text in (K1_TEXT, K2_TEXT, K3_TEXT)]
        self.sender = Session.for_key(keys[2])
        self.receiver = Session.for_key(keys[2])
        self.ring = make_ring(*keys, "K1", "K2", "K3")
        self.full = make_ring(*keys, "K1", "K2", "K3")
        self.provider = make_ring(keys[0], None, keys[2], "K1", "K3")

    def state(self):
        sessions = [self.sender, self.receiver, *self.ring, *self.full, *self.provider]
        return [(s.tat.items(), replace(s.ctx)) for s in sessions]


def _outcome(call):
    """('ok', result) or ('error', class)."""
    try:
        return "ok", call()
    except RestCipherError as exc:
        return "error", type(exc)


def _same(new, old, library_call, oracle_call):
    """The library's outcome, asserted equal to the oracle's."""
    got = _outcome(library_call)
    assert got == _outcome(oracle_call)
    assert new.state() == old.state()
    return got


def _encrypt(new, old, stream, policy, mode):
    single = _same(new, old, lambda: new.sender.encrypt(stream, mode).words,
                   lambda: tuple(oracle_encode(zip(stream, repeat(old.sender)),
                                               mode == "tat")))
    body = _same(new, old, lambda: tuple(compose_encrypt(stream, policy, new.ring, mode)),
                 lambda: tuple(oracle_encode(oracle_owned(stream, policy, old.ring),
                                             mode == "tat")))
    return single, body


def _decrypt(new, old, single, body, policy, access, mode, damage=None):
    """The three views' outcomes, of the bodies damaged if ``damage``."""
    if damage:
        single, body = damage(single), damage(body)
    return (
        _same(new, old, lambda: new.receiver.decrypt(EncryptedMessage((), single)),
              lambda: oracle_decrypt(single, old.receiver)),
        _same(new, old, lambda: compose_decrypt(EncryptedMessage((), body), new.full, policy),
              lambda: oracle_compose_decrypt(EncryptedMessage((), body), old.full, policy)),
        _same(new, old, lambda: compose_decrypt(EncryptedMessage(access, body), new.provider),
              lambda: oracle_compose_decrypt(EncryptedMessage(access, body), old.provider)),
    )


@settings(max_examples=60, deadline=None)
@given(hs.lists(_STEP, min_size=1, max_size=6))
def test_walkers_equal_the_replaced_loops(steps):
    new, old = World(), World()
    for action, mode, items, assignments in steps:
        stream = _catalog(items, action == "bad-char")
        policy = CompositionPolicy(assignments)
        single, body = _encrypt(new, old, stream, policy, mode)
        if action == "bad-char":
            assert single == body == ("error", UnsupportedCharacter)
            continue
        single, body = single[1], body[1]
        access = access_header(policy, new.ring, ["K1"], len(tag_names(stream)))
        if action in CORRUPTIONS:
            for outcome in _decrypt(new, old, single, body, policy, access, mode,
                                    CORRUPTIONS[action]):
                assert outcome[0] == "error"
        one, full, view = _decrypt(new, old, single, body, policy, access, mode)
        assert one == ("ok", tuple(stream)) and full == ("ok", list(stream))
        if view[0] == "ok":
            # the provider re-encodes what it holds, opaque runs verbatim,
            # under the rule it decoded with; the oracle under the view
            # policy the provider built before one rule served both
            view_policy = CompositionPolicy({o: "K1" for o in access})
            _same(new, old,
                  lambda: compose_reencrypt(view[1], owners(new.provider, access=access),
                                            new.provider, mode),
                  lambda: oracle_encode(oracle_owned(view[1], view_policy, old.provider),
                                        mode == "tat"))
