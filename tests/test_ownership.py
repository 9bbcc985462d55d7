"""The one ownership rule: every composition step reads the owner of each tag
ordinal from one rule built once per message, and the bytes on the wire are
those of the per-step rules it replaced."""

import hashlib
import threading

import pytest

from restcipher import ScenarioConfig, run_composition_scenario
from restcipher import composition, restkit
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
    # both access headers and both replies it verifies and decodes; a
    # provider's is its access list's, for the message it verifies and
    # decodes and the reply it encodes and re-signs
    main = threading.main_thread().name
    assert builds.count(main) == 1 and len(builds) == 3
