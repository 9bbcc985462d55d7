"""The one ownership rule: every composition step reads the owner of each tag
ordinal from one rule built once per message, and the bytes on the wire are
those of the per-step rules it replaced."""

import hashlib
import threading

import pytest

from restcipher import (CompositionPolicy, EncryptedMessage, KeyRing, OpaqueRun, Open,
                        ScenarioConfig, compose_decrypt, compose_encrypt, emit_xml,
                        parse_xml, run_composition_scenario)
from restcipher import composition, restkit
from restcipher.errors import RestCipherError

from oracle import oracle_splice_subtrees


def _catalog(items: int) -> str:
    return "<catalog>" + "".join(
        f'<item id="i{j}" kind="k{j % 4}"><name>n{j}</name><price>{j}5</price>'
        f"<tags><tag>t{j}</tag></tags></item>" for j in range(items)) + "</catalog>"


def _config(items: int, mode: str, nested: bool) -> ScenarioConfig:
    """Item j's five tags (item, name, price, tags, tag) start at ordinal
    2 + 5j.  Every third item goes to K1 and the next to K2; the rest stay
    with the group key.  ``nested`` gives a K2 price inside each K1 item and
    leaves some tags of the pairwise items unmapped."""
    policy, edits = {}, {"SP1": {}, "SP2": {}}
    for j in range(items):
        item = 2 + 5 * j
        if j % 3 == 0:
            policy.update({item: "K1", item + 1: "K1", item + 4: "K1"})
            if nested:
                policy[item + 2] = "K2"
            else:
                policy.update({item + 2: "K1", item + 3: "K1"})
            edits["SP1"][item + 1] = f"m{j}"
        elif j % 3 == 1:
            policy.update({item: "K2", item + 2: "K2"})
            if not nested:
                policy.update({item + 1: "K2", item + 3: "K2", item + 4: "K2"})
            edits["SP2"][item + 2] = f"{j}9"
    return ScenarioConfig(document=_catalog(items), policy=policy, edits=edits, mode=mode)


#: sha256 of every body S posts and every reply, in order, then the outcome
TRANSCRIPTS = {
    (30, "st", True): "46cab1fdec1263b8f9018770653f6e4fedcbc52fb0f0ff980f7a9feaf7eb0883",
    (100, "tat", False): "4c96d9937f949b7f55d34fe82573e2140a786556b1c373fc063f70a0e50ac058",
}


@pytest.mark.parametrize("items, mode, nested", list(TRANSCRIPTS))
def test_scenario_transcripts_are_pinned(monkeypatch, items, mode, nested):
    """The messages on the wire and the outcome.  In tat mode at 100 items S
    cannot read SP1's reply root (ROADMAP item 1, tag tables that differ per
    end of the group key); the pin holds that named error as the outcome, so
    a change that mends it updates this pin knowingly."""
    lines = []
    post = restkit.http_post

    def recorded(uri, body, **kwargs):
        lines.append(f"request\t{body}")
        reply = post(uri, body, **kwargs)
        lines.append(f"reply\t{reply}")
        return reply

    monkeypatch.setattr(restkit, "http_post", recorded)
    try:
        result = run_composition_scenario(_config(items, mode, nested))
        lines.append(f"final\t{result.final_document}")
    except RestCipherError as exc:
        lines.append(f"error\t{exc.name}: {exc}")
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert len(lines) == 5 and digest == TRANSCRIPTS[items, mode, nested]


@pytest.mark.parametrize("mode", ["st", "tat"])
def test_each_party_builds_its_rule_once(monkeypatch, mode):
    builds = []
    lock = threading.Lock()
    build = composition.owners

    def counted(ring, policy=None, access=()):
        rule = build(ring, policy, access)
        if rule is not policy:
            with lock:
                builds.append(threading.current_thread().name)
        return rule

    for module in (composition, restkit):
        monkeypatch.setattr(module, "owners", counted)
    result = run_composition_scenario(ScenarioConfig(mode=mode))
    assert not result.halted
    # S's rule is its policy's, the same for the body it encodes and signs,
    # both access headers and both replies it verifies, and the rules it
    # decodes the replies by are cut from it; a provider's is its access
    # list's, for the message it verifies and decodes and the reply it
    # encodes and re-signs
    main = threading.main_thread().name
    assert builds.count(main) == 1 and len(builds) == 3


# what S reads of each reply


def _record_main_decodes(monkeypatch) -> list:
    """(access list, items) of each reply S decodes; providers decode on
    threads of their own."""
    decodes = []
    decode = restkit.compose_decrypt

    def recorded(msg, ring, policy=None):
        items = decode(msg, ring, policy)
        if threading.current_thread() is threading.main_thread():
            decodes.append((msg.access, items))
        return items

    monkeypatch.setattr(restkit, "compose_decrypt", recorded)
    return decodes


def _read_ordinals(items) -> tuple:
    """(ordinals of the decoded tags, ordinals of the OpaqueRuns)."""
    opened, opaque, ordinal = set(), set(), 0
    for item in items:
        if isinstance(item, Open):
            ordinal += 1
            opened.add(ordinal)
        elif isinstance(item, OpaqueRun):
            opaque.add(ordinal + 1)
            ordinal += 1 + item.opens_inside
    return opened, opaque


def test_s_reads_only_the_root_and_the_granted_items_of_a_reply(monkeypatch):
    """A 100-item catalog shaped like the three-party benchmark's: item j's
    four tags go to K1 when j % 3 == 0 and to K2 when j % 3 == 1; the rest
    stay with the group key."""
    items = 100
    document = "<catalog>" + "".join(
        f'<item id="i{j}" kind="k{j % 7}"><name>n{j}</name><price>{j}5</price>'
        f"<qty>{j % 9}</qty></item>" for j in range(items)) + "</catalog>"
    policy, edits, expected = {}, {"SP1": {}, "SP2": {}}, document
    owned = {"SP1": set(), "SP2": set()}
    for j in range(items):
        item = 2 + 4 * j
        if j % 3 == 2:
            continue
        name, key = ("SP1", "K1") if j % 3 == 0 else ("SP2", "K2")
        policy.update(dict.fromkeys(range(item, item + 4), key))
        owned[name].add(item)
        if name == "SP1":
            edits[name][item + 1] = f"m{j}"
            expected = expected.replace(f"<name>n{j}</name>", f"<name>m{j}</name>")
        else:
            edits[name][item + 2] = f"{j}9"
            expected = expected.replace(f"<price>{j}5</price>", f"<price>{j}9</price>")
    decodes = _record_main_decodes(monkeypatch)
    result = run_composition_scenario(ScenarioConfig(
        document=document, policy=policy, edits=edits, mode="st"))
    assert result.final_document == emit_xml(parse_xml(expected))
    every_item = {2 + 4 * j for j in range(items)}
    assert len(decodes) == 2
    for (access, read), name in zip(decodes, ("SP1", "SP2")):
        granted = {o for item in owned[name] for o in range(item, item + 4)}
        assert set(access) == granted
        opened, opaque = _read_ordinals(read)
        assert opened == {1} | granted
        assert opaque == every_item - owned[name]


def _full_decode_outcome(config, lines) -> str:
    """The final document, or the error, that S reaches by decoding every
    word of each recorded reply with its whole ring, from tables in the
    state its own body left them."""
    ring = KeyRing()
    for key_id, key in config.keys.items():
        ring.add_key(key_id, key, is_group=(key_id == config.group_id))
    rule = composition.owners(ring, CompositionPolicy(dict(config.policy)))
    final = parse_xml(config.document)
    compose_encrypt(final, rule, ring, config.mode)
    try:
        for line in lines:
            reply = EncryptedMessage.parse(line)
            decoded = compose_decrypt(reply, ring, rule)
            assert not any(isinstance(t, OpaqueRun) for t in decoded)
            final = oracle_splice_subtrees(final, decoded, reply.access)
        return f"final\t{emit_xml(final)}"
    except RestCipherError as exc:
        return f"error\t{exc.name}: {exc}"


@pytest.mark.parametrize("mode", ["st", "tat"])
def test_a_nested_policy_splices_as_the_full_decode_does(monkeypatch, mode):
    """A K2 price inside each K1 item, granted to SP2, and unmapped tags
    inside the K2 items granted to SP2: S reads each reply as its provider
    read the message and reaches the outcome a decode of every word
    reaches.  In tat mode both meet ROADMAP item 1's unreadable reply root."""
    config = _config(30, mode, nested=True)
    replies = []
    post = restkit.http_post

    def recorded(uri, body, **kwargs):
        replies.append(post(uri, body, **kwargs))
        return replies[-1]

    monkeypatch.setattr(restkit, "http_post", recorded)
    decodes = _record_main_decodes(monkeypatch)
    try:
        outcome = f"final\t{run_composition_scenario(config).final_document}"
    except RestCipherError as exc:
        outcome = f"error\t{exc.name}: {exc}"
    assert len(replies) == 2
    assert outcome == _full_decode_outcome(config, replies)
    if mode == "tat":
        assert outcome.startswith("error\tUnknownTatCode") and not decodes
        return
    assert outcome.startswith("final\t<catalog>")
    every_item = {2 + 5 * j for j in range(30)}
    k1_items = {item for item in every_item if item % 15 == 2}
    k2_items = {item for item in every_item if item % 15 == 7}
    (_, sp1), (_, sp2) = decodes
    # each provider reads its items and the tags of them granted to it; S
    # holds each subtree inside them that the provider copied (SP2's price
    # and the unmapped tags, which hold SP1's tag, in SP1's item; the
    # unmapped tags in SP2's) as the OpaqueRun the provider made, and every
    # other item too, SP1's items with SP2's prices in them included
    opened, opaque = _read_ordinals(sp1)
    assert opened == {1} | k1_items | {item + 1 for item in k1_items}
    assert opaque == (every_item - k1_items) | {item + d for item in k1_items for d in (2, 3)}
    opened, opaque = _read_ordinals(sp2)
    assert opened == {1} | k2_items | {item + 2 for item in k2_items}
    assert opaque == (every_item - k2_items) | {item + d for item in k2_items for d in (1, 3)}
