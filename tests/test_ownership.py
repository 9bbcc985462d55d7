"""The one ownership rule: every composition step reads the owner of each tag
ordinal from one rule built once per message, and the bytes on the wire are
those of the per-step rules it replaced."""

import hashlib
import threading

import pytest

from restcipher import (Close, CompositionPolicy, EncryptedMessage, KeyRing, OpaqueRun, Open,
                        ScenarioConfig, compose_decrypt, compose_encrypt, emit_xml,
                        parse_xml, run_composition_scenario)
from restcipher import composition, restkit
from restcipher.codec import item_spans
from restcipher.errors import RestCipherError


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
    (30, "st", True): "c5fb6ce44c666bad7134b78a72224d08a0964b39f50dcd95d5236da2fa873836",
    (100, "tat", False): "966ac2cd47148b0b3982e25be851fe90384a2ee566161eae50ba1045468fb22c",
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


def _subtrees(items, ordinals) -> dict:
    """Ordinal -> the items of its subtree, for each decoded tag of
    ``ordinals``."""
    subtrees, stack, ordinal = {}, [], 0
    for i, item in enumerate(items):
        if isinstance(item, Open):
            ordinal += 1
            stack.append((ordinal, i))
        elif isinstance(item, Close):
            opened, start = stack.pop()
            if opened in ordinals:
                subtrees[opened] = tuple(items[start:i + 1])
        elif isinstance(item, OpaqueRun):
            ordinal += 1 + item.opens_inside
    return subtrees


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
            final = restkit._splice_subtrees(final, item_spans(final), decoded, reply.access)
        return f"final\t{emit_xml(final)}"
    except RestCipherError as exc:
        return f"error\t{exc.name}: {exc}"


@pytest.mark.parametrize("mode", ["st", "tat"])
def test_a_nested_policy_splices_as_the_full_decode_does(monkeypatch, mode):
    """A K2 price inside each K1 item, granted to SP2, and unmapped tags
    inside the K2 items granted to SP2: S reads part of each reply and
    reaches the outcome a decode of every word reaches.  In tat mode both
    meet ROADMAP item 1's unreadable reply root."""
    config = _config(30, mode, nested=True)
    replies = []
    post = restkit.http_post

    def recorded(uri, body, **kwargs):
        replies.append(post(uri, body, **kwargs))
        return replies[-1]

    monkeypatch.setattr(restkit, "http_post", recorded)
    decodes = _record_main_decodes(monkeypatch)
    cuts = []
    cut = restkit.reply_owners

    def kept_recorded(rule, spans, access):
        cuts.append(cut(rule, spans, access))
        return cuts[-1]

    monkeypatch.setattr(restkit, "reply_owners", kept_recorded)
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
    k1_items = {2 + 5 * j for j in range(30) if j % 3 == 0}
    (_, sp1), (_, sp2) = decodes
    opened, _ = _read_ordinals(sp1)
    assert {item + 2 for item in k1_items} <= opened       # SP2's price in SP1's item
    opened, opaque = _read_ordinals(sp2)
    assert k1_items <= opened                           # around SP2's price
    assert {item + 1 for item in k1_items} <= opaque    # SP1's name beside it
    # S splices each kept subtree from the reply: changed_kept has refused a
    # reply whose words there are not the ones S signed, so S decodes its
    # own items there
    own = parse_xml(config.document)
    for (_, read), reads in zip(decodes, cuts):
        expected = _subtrees(own, reads.kept)
        assert reads.kept and len(expected) == len(reads.kept)
        assert _subtrees(read, reads.kept) == expected
